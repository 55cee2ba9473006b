"""The way-below suite refutes each distinct pair once per side.

``check_wb_characterization`` hands the law's answers to both refutations
and keeps, per side, the pairs whose refutation cleared: claims that
survived every chain, and denied pairs whose chain walk refuted nothing.  A
repeated pair is not refuted again.  ``reference`` is the per-pair loop
without either: each refutation asks the oracle itself and refutes every
pair.  The suite must give the reference's verdict, counterexample and
examined count on the registry families, on every perturbed family of
``test_replay`` that fails the suite, and on a copy whose lie only a walk
below a walked pair (y, y) finds; and it must build the chains to y at most
once per distinct pair and side.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from test_replay import CASES, SCANS

from invsg import checkers
from invsg.checkers import CheckReport
from invsg.core import NotIdempotent
from invsg.families import FAMILY_BUILDERS, rotation_family
from invsg.families.base import DEFAULT_DEPTH, ChainWitness, SymbolicFamily, seeded
from invsg.families.rotation import RotationScale

SUITE = "wb_characterization"


def _draws(fam, seed: int, budget: int = checkers.DEFAULT_BUDGET):
    """The pairs (s, t) the suite draws at the seed, in its order."""
    rng = seeded(seed, "wb_char", fam.name)
    for _ in range(budget):
        s, t = fam.sample(rng), fam.sample(rng)
        if rng.random() < 0.3:
            s = fam.op(t, fam.sample_idempotent(rng))
        yield s, t


def reference(fam, seed: int, depth: int = DEFAULT_DEPTH,
              budget: int = checkers.DEFAULT_BUDGET) -> CheckReport:
    """The suite's loop, with every pair refuted afresh on both sides."""
    n0, na = checkers._ssc_mirror_gate(fam, depth, seed)
    if na:
        return CheckReport(SUITE, fam.name, *na)
    for examined, (s, t) in enumerate(_draws(fam, seed, budget), n0 + 1):
        if checkers._VIOLATED["wb-char"](fam, s, t):
            lhs = fam.wb_s(s, t)
            return CheckReport(SUITE, fam.name, "fail", checkers._fail(
                fam, "wb-char", s, t, lhs=lhs, rhs=not lhs), examined)
        bad = (checkers._wb_refutation(fam, checkers._S, s, t, depth)
               or checkers._wb_refutation(fam, checkers._SIGMA, fam.sigma(s), fam.sigma(t),
                                          depth))
        if bad is not None:
            return CheckReport(SUITE, fam.name, "fail", bad, examined)
    return CheckReport(SUITE, fam.name, "pass", None, n0 + budget,
                       "oracle biconditional + chain refutation")


def _outcome(report: CheckReport) -> tuple:
    """The report as printed, and the instance it replays, chains by name."""
    raw = (report.counterexample or {}).get("_raw", {})
    return report.to_json(), {k: v.name if isinstance(v, ChainWitness) else v
                              for k, v in raw.items()}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
def test_the_suite_matches_the_reference_loop(name, seed):
    fam = FAMILY_BUILDERS[name]()
    got = checkers.run_suite(SUITE, fam, fam.name, seed=seed)
    assert _outcome(got) == _outcome(reference(fam, seed))


def _perturbed():
    for kind, (build, _instance, lie) in CASES.items():
        yield kind, build, lie
    for kind, build, _suite, lie in SCANS:
        yield kind, build, lie


def test_the_suite_matches_the_reference_loop_where_a_perturbation_fails_it():
    failing = []
    for kind, build, lie in _perturbed():
        honest = build()
        lying = dataclasses.replace(honest, **lie(honest))
        try:
            got = checkers.run_suite(SUITE, lying, lying.name)
        except NotIdempotent:  # a lying inverse breaks sigma before the suite
            continue
        if got.verdict == "fail":
            failing.append(kind)
            assert _outcome(got) == _outcome(reference(lying, 0)), kind
    # the lies of the eight refutation kinds, wb-char and eighteen others, of
    # which four are those of the unmultiplicative and inseparable witnesses
    # and four those of the unapproximated and non-algebraic ones
    assert len(failing) == 27, failing


@pytest.mark.parametrize("seed", [0, 3])
def test_a_pair_below_a_walked_diagonal_is_walked_too(seed):
    # a rotation copy that denies every x << y with sigma(y) = (1/2,0), on
    # both sides alike, so the law holds and only a walk finds the lie: a
    # denied (x, y) with x < y must be walked although (y, y) was walked
    # and kept before it
    honest = rotation_family()
    half = RotationScale().canonical(Fraction(1, 2), 0)

    def wb_sigma(e, d):
        return honest.wb_sigma(e, d) and d != half

    lying = dataclasses.replace(honest, wb_sigma=wb_sigma, wb_s=lambda x, y: (
        honest.nat_le(x, y) and wb_sigma(honest.sigma(x), honest.sigma(y))))
    got = checkers.run_suite(SUITE, lying, lying.name, seed=seed)
    assert got.verdict == "fail"
    assert _outcome(got) == _outcome(reference(lying, seed))


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
def test_chains_are_built_at_most_once_per_distinct_pair_and_side(name, monkeypatch):
    honest = FAMILY_BUILDERS[name]()
    calls = {"S": 0, "Sigma": 0}

    def chains_to(y):
        calls["S"] += 1
        return honest.chains_to(y)

    real = SymbolicFamily.sigma_chains_to

    def sigma_chains_to(self, eps):
        calls["Sigma"] += 1
        calls["S"] -= 1  # it builds the chains through chains_to
        return real(self, eps)

    counted = dataclasses.replace(honest, chains_to=chains_to)
    checkers._ssc_mirror_gate(counted, DEFAULT_DEPTH, 3)  # cached: its chains are not counted
    calls.update(S=0, Sigma=0)
    monkeypatch.setattr(SymbolicFamily, "sigma_chains_to", sigma_chains_to)
    got = checkers.run_suite(SUITE, counted, counted.name, seed=3)
    if got.verdict == "not-applicable":
        assert calls == {"S": 0, "Sigma": 0}
        return
    assert got.verdict == "pass"
    pairs = set(_draws(counted, 3))
    sigma_pairs = {(counted.sigma(s), counted.sigma(t)) for s, t in pairs}
    assert calls["S"] <= len(pairs)
    assert calls["Sigma"] <= len(sigma_pairs)
    if name == "bicyclic-nat":
        assert len(sigma_pairs) == 81
