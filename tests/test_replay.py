"""One declaration per failure kind, shared by the scans and by replay.

``checkers._VIOLATED`` maps each failure kind to the test of the law it
breaks.  These tests read the kinds from that table and check that:

- every kind the source passes to ``_fail`` is declared, and every declared
  kind is emitted, with arguments that fit its law;
- each kind's instance replays True on a family perturbed at that instance
  and False on the honest family (the lying-family pattern: a copy made with
  ``dataclasses.replace`` whose oracle answers the other way at one point);
- a fabricated report is re-checked too: an empty instance or an unknown
  kind raises, and the zero is no reducedness witness.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from invsg import checkers
from invsg.checkers import CheckReport, replay_counterexample
from invsg.families import bicyclic_dyadic, bicyclic_nat, cex_family, rotation_family
from invsg.families.base import DEFAULT_DEPTH, ChainWitness, family_scale

ONE = 1 << family_scale(DEFAULT_DEPTH).bits  # the dyadic coordinate 1 at the default depth
HALF = ONE >> 1            # and 1/2


def _calls_to(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def _strings(node) -> set:
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, str)}


def test_every_emitted_kind_is_declared_and_fits_its_law():
    tree = ast.parse(Path(checkers.__file__).read_text(encoding="utf-8"))
    emitted, by_name = set(), 0
    for call in _calls_to(tree, "_fail"):
        kind = call.args[1]
        if not isinstance(kind, ast.Constant):
            by_name += 1  # a basic-rule or way-below refutation kind, read below
            continue
        emitted.add(kind.value)
        law = checkers._VIOLATED[kind.value]
        named = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        positional = [None] * (len(call.args) - 2)
        bind = inspect.signature(law).bind_partial if any(
            kw.arg is None for kw in call.keywords) else inspect.signature(law).bind
        bind(None, *positional, **named)  # raises TypeError on a mismatch
    # the two sites that pass a kind by name take it from these declarations
    assert by_name == 2
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_BASIC_KINDS" for t in node.targets):
            emitted |= _strings(node.value)
    for call in _calls_to(tree, "_Side"):
        emitted |= _strings(call.args[-1])
    assert emitted == set(checkers._VIOLATED)
    assert len(checkers._VIOLATED) == 37


def test_fail_raises_on_an_undeclared_kind():
    with pytest.raises(KeyError):
        checkers._fail(bicyclic_nat(), "not-a-kind", s=(0, 0))


# -- every kind replays on a perturbed family, and not on the honest one ------


def flip(fam, oracle, *at):
    """The replaced field of a copy whose ``oracle`` answers the other way at ``at``."""
    honest = getattr(fam, oracle)
    return {oracle: lambda *xs: (not honest(*xs)) if xs == at else honest(*xs)}


def swap(fam, oracle, at, value):
    """The replaced field of a copy whose ``oracle`` returns ``value`` at ``at``."""
    honest = getattr(fam, oracle)
    return {oracle: lambda *xs: value if xs == at else honest(*xs)}


def chains(bad=None, in_sigma=False):
    """The replaced ``chains_to`` of a copy whose one chain to each y is
    ``bad(y, in_sigma)``, or that has none when ``bad`` is None."""
    return {"chains_to": lambda y: () if bad is None else (bad(y, in_sigma),)}


# The chains below are deliberately incomplete, so they spell out their
# claims instead of taking the standard ones of ``chain_to``.

def without_sup(y, in_sigma):
    return ChainWitness("no-sup", lambda k: y, in_sigma, length=1)


def at(y, in_sigma):
    # a chain whose sup is y itself, with no bound listed: it kills nothing
    # that lies below y
    return ChainWitness("at-y", lambda k: y, in_sigma, sup_in_sigma=y, sup_in_s=y,
                        length=1)


# a bounded chain that claims no sup in S, known only to the perturbed family
BOUNDED = ChainWitness("bounded", lambda k: (1, 1), True, upper_bounds=((0, 0),),
                       length=1)


def to_00(f):  # bicyclic-nat: (3,3), (2,2), (1,1), (0,0), all sups (0,0)
    return f.witnesses[0]


def to_53(f):  # bicyclic-nat: (8,6), (7,5), (6,4), (5,3), sup in S (5,3)
    return f.witnesses[2]


# (1,1) <= (1,1) but not way below: the approach chain to (1,1) refutes it
DYADIC_S = dict(chain=None, s=(ONE, ONE), t=(ONE, ONE), _depth=64)
DYADIC_SIGMA = dict(chain=None, eps=(ONE, ONE), delta=(ONE, ONE), _depth=64)

# kind -> (family, the instance as its law's arguments, the perturbation)
CASES = {
    "ss*-not-idempotent": (bicyclic_nat, lambda f: dict(s=(1, 2), t=(0, 0)),
                           lambda f: flip(f, "is_idempotent", (1, 1))),
    "s*s-not-idempotent": (bicyclic_nat, lambda f: dict(s=(1, 2), t=(0, 0)),
                           lambda f: flip(f, "is_idempotent", (2, 2))),
    "star-not-involution": (bicyclic_nat, lambda f: dict(s=(1, 2), t=(0, 0)),
                            lambda f: swap(f, "inv", ((2, 1),), (0, 0))),
    "antihomomorphism": (bicyclic_nat, lambda f: dict(s=(1, 2), t=(3, 0)),
                         lambda f: swap(f, "inv", ((2, 0),), (5, 5))),
    "idempotent-not-self-inverse": (bicyclic_nat, lambda f: dict(s=(2, 2), t=(0, 0)),
                                    lambda f: swap(f, "inv", ((2, 2),), (1, 1))),
    "characterizations-disagree": (bicyclic_nat, lambda f: dict(s=(2, 1), t=(1, 0)),
                                   lambda f: flip(f, "nat_le", (2, 1), (1, 0))),
    "teps-not-below-t": (bicyclic_nat, lambda f: dict(t=(1, 0), eps=(2, 2)),
                         lambda f: flip(f, "nat_le", (3, 2), (1, 0))),
    "sigma-not-monotone-at-max": (bicyclic_nat, lambda f: dict(t=(1, 0), a=(3, 2)),
                                  lambda f: flip(f, "nat_le", (2, 2), (0, 0))),
    "sigma-image-escapes-sup": (bicyclic_nat, lambda f: dict(chain=to_53(f), a=(8, 6)),
                                lambda f: flip(f, "nat_le", (6, 6), (3, 3))),
    "cond-distr-chain": (bicyclic_nat, lambda f: dict(chain=to_53(f), s=(0, 0), a=(8, 6)),
                         lambda f: flip(f, "nat_le", (8, 6), (5, 3))),
    "cond-distr-finite": (bicyclic_nat, lambda f: dict(t=(1, 0), s=(0, 0), a=(3, 2)),
                          lambda f: flip(f, "nat_le", (3, 2), (1, 0))),
    "d-not-in-translate": (bicyclic_nat, lambda f: dict(chain=to_53(f), d=(2, 1)),
                           lambda f: swap(f, "op", ((2, 1), (1, 1)), (0, 0))),
    "translate-escapes-d": (bicyclic_nat, lambda f: dict(chain=to_53(f), d=(2, 1), x=(3, 2)),
                            lambda f: flip(f, "nat_le", (3, 2), (2, 1))),
    "translate-finite": (bicyclic_nat, lambda f: dict(d=(2, 1), _D=[(3, 2), (2, 1)]),
                         lambda f: flip(f, "nat_le", (3, 2), (2, 1))),
    "chain-not-monotone": (bicyclic_nat, lambda f: dict(chain=to_53(f), a=(8, 6), b=(7, 5)),
                           lambda f: flip(f, "nat_le", (8, 6), (7, 5))),
    "chain-not-idempotent": (bicyclic_nat, lambda f: dict(chain=to_00(f), a=(2, 2)),
                             lambda f: flip(f, "is_idempotent", (2, 2))),
    "claimed-sup-not-upper-bound": (
        bicyclic_nat, lambda f: dict(chain=to_00(f), claim="sup_in_sigma", member=(2, 2),
                                     sup=(0, 0)),
        lambda f: flip(f, "nat_le", (2, 2), (0, 0))),
    "claimed-upper-bound-fails": (
        bicyclic_nat, lambda f: dict(chain=to_00(f), member=(2, 2), upper_bound=(0, 0)),
        lambda f: flip(f, "nat_le", (2, 2), (0, 0))),
    # the chain k -> (1 + 2^-k, 1 + 2^-k) has sigma-sup (1,1) and never reaches it
    "mirror-family": (bicyclic_dyadic, lambda f: dict(chain=f.witnesses[0],
                                                      sup_in_sigma=(ONE, ONE),
                                                      bad_bound=(HALF, HALF)),
                      lambda f: flip(f, "nat_le", (ONE, ONE), (HALF, HALF))),
    "not-reduced": (bicyclic_nat, lambda f: dict(eps=(1, 1), s=(2, 1)),
                    lambda f: flip(f, "nat_le", (1, 1), (2, 1))),
    "bounded-chain-without-sup": (bicyclic_nat, lambda f: dict(chain=BOUNDED),
                                  lambda f: {"witnesses": f.witnesses + (BOUNDED,)}),
    "ssc-family": (bicyclic_nat, lambda f: dict(chain=to_53(f), s=(0, 0), member=(8, 6)),
                   lambda f: flip(f, "nat_le", (8, 6), (5, 3))),
    "ssc-family-finite": (bicyclic_nat, lambda f: dict(t=(1, 0), s=(0, 0), a=(3, 2)),
                          lambda f: flip(f, "nat_le", (3, 2), (1, 0))),
    "meet-cont-chain": (bicyclic_nat, lambda f: dict(chain=to_00(f), eps=(0, 0), a=(3, 3)),
                        lambda f: flip(f, "nat_le", (3, 3), (0, 0))),
    "wb-char": (bicyclic_nat, lambda f: dict(s=(3, 2), t=(1, 0)),
                lambda f: flip(f, "wb_s", (3, 2), (1, 0))),
    "wb-claim-refuted": (bicyclic_dyadic, lambda f: DYADIC_S,
                         lambda f: {"wb_s": f.nat_le}),
    "wb-sigma-claim-refuted": (bicyclic_dyadic, lambda f: DYADIC_SIGMA,
                               lambda f: {"wb_sigma": f.nat_le}),
    "missing-refuter": (bicyclic_dyadic, lambda f: DYADIC_S, lambda f: chains()),
    "missing-sigma-refuter": (bicyclic_dyadic, lambda f: DYADIC_SIGMA, lambda f: chains()),
    "refuter-sup-too-small": (bicyclic_dyadic, lambda f: DYADIC_S,
                              lambda f: chains(without_sup)),
    "sigma-refuter-sup-too-small": (bicyclic_dyadic, lambda f: DYADIC_SIGMA,
                                    lambda f: chains(without_sup, True)),
    "refuter-does-not-kill": (bicyclic_dyadic, lambda f: DYADIC_S, lambda f: chains(at)),
    "sigma-refuter-does-not-kill": (bicyclic_dyadic, lambda f: DYADIC_SIGMA,
                                    lambda f: chains(at, True)),
    # biconditionals: the instance is the failing side's witness
    "meet-cont-biconditional": (
        bicyclic_nat, lambda f: dict(ssc=False, meet_continuous=True, _witness=checkers._fail(
            f, "ssc-family", to_53(f), (0, 0), (8, 6))),
        lambda f: flip(f, "nat_le", (8, 6), (5, 3))),
    "mult-biconditional": (
        bicyclic_nat, lambda f: dict(mult_S=False, mult_Sigma=True,
                                     _witness=((2, 1), (1, 0), (2, 1), (1, 0))),
        lambda f: flip(f, "wb_s", (3, 1), (2, 0))),
    # (1,0) is the sup of (4,3), (3,2), (2,1), (1,0), each way below it
    "mirror-theorem": (
        bicyclic_nat, lambda f: dict(cont_S=False, cont_Sigma=True, alg_S=True,
                                     alg_Sigma=True, _witness=(1, 0), _depth=64),
        lambda f: flip(f, "wb_s", (4, 3), (1, 0))),
    # (0,0) separates (0,0) from (1,0)
    "separation-biconditional": (
        bicyclic_nat, lambda f: dict(criterion=False, mirror=True,
                                     _witness=((0, 0), (0, 0), (1, 0), [(0, 0)])),
        lambda f: flip(f, "wb_sigma", (0, 0), (0, 0))),
}


@pytest.mark.parametrize("kind", sorted(checkers._VIOLATED))
def test_every_kind_replays_on_a_perturbed_family_only(kind):
    build, instance, lie = CASES[kind]
    honest = build()
    report = CheckReport("any", "x", "fail", checkers._fail(honest, kind, **instance(honest)))
    lying = dataclasses.replace(honest, **lie(honest))
    assert replay_counterexample(lying, report)
    assert not replay_counterexample(honest, report)


def test_mirror_theorem_replays_an_algebraic_witness():
    # every element of bicyclic-nat is compact; a copy that denies (1,0) << (1,0),
    # with no compact tried below it, makes (1,0) the failing side's witness
    honest = bicyclic_nat()
    lying = dataclasses.replace(honest, **flip(honest, "wb_s", (1, 0), (1, 0)))
    witness = {"witness": "(1,0)", "_raw": ((1, 0), [])}
    report = CheckReport("mirror_theorem", "x", "fail", checkers._fail(
        honest, "mirror-theorem", cont_S=True, cont_Sigma=True, alg_S=False,
        alg_Sigma=True, _witness=witness, _depth=64))
    assert replay_counterexample(lying, report)
    assert not replay_counterexample(honest, report)


def test_scan_counterexamples_replay():
    # a scan's counterexample is its instance: it replays on the family it
    # came from and not on the honest one
    honest = bicyclic_nat()
    lying = dataclasses.replace(honest, **flip(honest, "nat_le", (8, 6), (5, 3)))
    for suite in ("meet_continuity_mirror", "conditional_distributivity"):
        report = checkers.run_suite(suite, lying, budget=300)
        assert report.verdict == "fail", suite
        assert replay_counterexample(lying, report)
        assert not replay_counterexample(honest, report)


# -- fabricated reports -------------------------------------------------------


def _fabricated(kind, raw):
    return CheckReport("any", "x", "fail", {"kind": kind, "_raw": raw})


@pytest.mark.parametrize("kind", ["ssc-family", "meet-cont-biconditional"])
def test_an_empty_instance_does_not_replay(kind):
    with pytest.raises(TypeError):
        replay_counterexample(rotation_family(), _fabricated(kind, {}))


def test_an_unknown_kind_raises():
    with pytest.raises(KeyError):
        replay_counterexample(rotation_family(), _fabricated("not-a-kind", {}))


@pytest.mark.parametrize("build", [rotation_family, cex_family])
def test_the_zero_is_not_a_reducedness_witness(build):
    fam, rng = build(), checkers._rng(0, "zero")
    s = next(x for x in (fam.sample(rng) for _ in range(100)) if not fam.is_idempotent(x))
    # the zero is an idempotent below s, which is not idempotent; the scan
    # leaves the zero out, and so does replay
    assert fam.is_idempotent(fam.zero) and fam.nat_le(fam.zero, s)
    assert not replay_counterexample(fam, _fabricated("not-reduced", {"eps": fam.zero, "s": s}))
