"""Nothing derived per carrier, family gates derived once, and instance replays.

A carrier passes every suite by lemma, so one ``run_suites`` on a carrier
builds no order poset.  ``checkers`` memoizes each family's hypothesis gates
in a weak dict keyed by identity; these tests check that a copy with a
replaced oracle never reads its original's entries, that an entry goes with
its family, and that the suites and ``classify`` read one evidence of each
property, computed once.  The order characterizations of ``test_lemmas``
read masks of tE and Et; a test-local reference scans the idempotents for
each pair, as the definition does.  The basic-rule and characterization
kinds of the references re-check their one instance, and the family kinds
replay theirs.
"""

import copy
import dataclasses
import gc
import weakref

import pytest

from invsg import checkers, poset
from invsg.checkers import classify, replay_counterexample, run_suites
from invsg.core import idempotents
from invsg.families import FAMILY_BUILDERS, coset_monoid, get_family, group_by_name

import test_lemmas as lemmas
from test_collapse import tampered, with_entry


SIDES = {checkers._S: "S", checkers._SIGMA: "Sigma"}


def _counting(fn, counts, name):
    """fn, counting its calls under ``name``, and under (name, side) for
    each side of a mirror law that it is called with."""
    def wrapper(*args):
        for key in (name, *((name, SIDES[a]) for a in args if isinstance(a, checkers._Side))):
            counts[key] = counts.get(key, 0) + 1
        return fn(*args)
    return wrapper


def test_one_run_builds_no_structure(monkeypatch):
    counts = {}
    for name in ("order_poset", "sigma_poset", "way_below_matrix", "sup"):
        monkeypatch.setattr(poset, name, _counting(getattr(poset, name), counts, name))
    S = coset_monoid(group_by_name("D4"))
    reports = run_suites(S, "coset:D4")
    assert all(r.verdict == "pass" for r in reports)
    assert counts == {}
    assert S not in checkers._GATE_CACHE


def test_a_tampered_copy_never_reads_its_originals_entries():
    # a copy whose order is equality breaks every chain, so it is not mirror;
    # were the gates keyed by name, the copy and the original would share them
    names = ("mirror", "continuity_implies_ssc", "wb_characterization")
    honest = get_family("bicyclic-nat")

    def lying_copy():
        return dataclasses.replace(honest, nat_le=lambda a, b: a == b)

    alone = run_suites(lying_copy(), "lying", names, budget=200)
    assert all(r.verdict == "pass" for r in run_suites(honest, "honest", names, budget=200))
    after = run_suites(lying_copy(), "lying", names, budget=200)
    assert after == alone
    assert after[0].verdict == "fail"
    assert after[0].counterexample["kind"] == "chain-not-monotone"


def test_an_entry_goes_with_its_family():
    fam = get_family("bicyclic-nat")
    run_suites(fam, "bicyclic-nat", "mirror")
    ref = weakref.ref(fam)
    assert fam in checkers._GATE_CACHE
    gc.collect()  # drop the entries of families that earlier tests let go
    before = len(checkers._GATE_CACHE)
    del fam
    gc.collect()
    assert ref() is None
    assert len(checkers._GATE_CACHE) == before - 1


def _noted(report) -> dict:
    """The key=value notes of a report that passed, as strings."""
    return dict(part.split("=") for part in report.notes.split(", ")) \
        if report.verdict == "pass" else {}


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
def test_the_suites_and_classify_read_one_evidence_per_property(monkeypatch, name):
    counts = {}
    for gate in ("_family_reduced", "_continuity", "_algebraic", "_multiplicative"):
        check = getattr(checkers, gate)
        monkeypatch.setattr(check, "__wrapped__", _counting(check.__wrapped__, counts, gate))
    fam = FAMILY_BUILDERS[name]()
    reports = {r.suite: r for r in run_suites(fam, name, "all", seed=3)}
    record = classify(fam, seed=3)
    # each property is computed once per side, however many reports read it
    assert counts["_family_reduced"] == 1
    assert all(n <= 1 for key, n in counts.items() if isinstance(key, tuple)), counts
    assert {("_continuity", "S"), ("_algebraic", "S"), ("_multiplicative", "S")} <= set(counts)
    theorem = _noted(reports["mirror_theorem"])
    mult = _noted(reports["multiplicativity_mirror"])
    assert bool(theorem) == bool(mult) == (name != "cex")  # cex is not mirror
    if theorem:
        assert str(record.continuous.value) == theorem["continuous"]
        assert str(record.stably_continuous.value) == str(
            (theorem["continuous"], mult["mult(S)"]) == ("True", "True"))
    assert record.mirror.to_json().get("witness") == reports["mirror"].to_json()["counterexample"]
    # the gates do not depend on which report reads them first
    suites_first = ([r.to_json() for r in reports.values()], record.to_json())
    fam = FAMILY_BUILDERS[name]()
    record = classify(fam, seed=3).to_json()
    assert ([r.to_json() for r in run_suites(fam, name, seed=3)], record) == suites_first


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
def test_a_flag_counts_every_gate_it_reads(name):
    # stably_continuous is continuity of S and multiplicativity of S
    fam = FAMILY_BUILDERS[name]()
    record = classify(fam, seed=3)
    depth, S, SIGMA = checkers.DEFAULT_DEPTH, checkers._S, checkers._SIGMA
    cont = {side: checkers._continuity(fam, depth, 3, side)[2] for side in (S, SIGMA)}
    mult = checkers._multiplicative(fam, depth, 3, S, checkers.DEFAULT_BUDGET)[2]
    assert record.continuous.budget == cont[S] + cont[SIGMA]
    assert record.stably_continuous.budget == cont[S] + mult


def ref_order_characterizations(S):
    """The definitional loop: s in tE and s in Et scan every idempotent."""
    idem = idempotents(S)
    for s in range(S.n):
        for t in range(S.n):
            vals = (any(S.mul(t, e) == s for e in idem),
                    S.mul(S.inv[t], S.mul(s, S.inv[s])) == S.inv[s],
                    S.mul(t, S.sigma[s]) == s,
                    any(S.mul(e, t) == s for e in idem),
                    S.mul(S.mul(s, S.inv[s]), t) == s)
            if len(set(vals)) != 1:
                return {"kind": "characterizations-disagree", "s": s, "t": t,
                        "values": list(vals)}
    return None


def test_order_characterizations_equal_the_definitional_scan(finite_corpus, I2):
    for sid, S in finite_corpus:
        assert lemmas.order_characterizations(S) is ref_order_characterizations(S) is None, sid
    cases = list(tampered(I2.carrier))
    fails = 0
    for T in cases:
        got = lemmas.order_characterizations(T)
        assert got == ref_order_characterizations(T), T.table
        fails += got is not None
    assert (len(cases), fails) == (222, 178)


def with_fields(S, **fields):
    """A copy of S with the given cached fields replaced."""
    T = copy.copy(S)
    vars(T).update(fields)
    return T


def _one_entry_tampers(S):
    """Every change of one table entry, one stored inverse, or whether one
    element counts as idempotent."""
    for s in range(S.n):
        yield with_fields(S, _idem_mask=S._idem_mask ^ (1 << s))
        for v in range(S.n):
            if v != S.inv[s]:
                yield with_fields(S, inv=S.inv[:s] + (v,) + S.inv[s + 1:])
            for t in range(S.n):
                if v != S.table[s][t]:
                    yield with_entry(S, s, t, v)


@pytest.mark.parametrize("suite, kind", [
    (checkers.check_basic_rules, "ss*-not-idempotent"),
    (checkers.check_basic_rules, "s*s-not-idempotent"),
    (checkers.check_basic_rules, "star-not-involution"),
    (checkers.check_basic_rules, "antihomomorphism"),
    (checkers.check_basic_rules, "idempotent-not-self-inverse"),
    (checkers.check_order_characterizations, "characterizations-disagree"),
])
def test_finite_kinds_replay_their_instance(I2, suite, kind):
    S = I2.carrier
    assert not lemmas.recheck(S, {"kind": kind, "s": 0, "t": 1})
    reference = lemmas.reference_of(suite)
    T, ce = next((T, ce) for T in _one_entry_tampers(S) for ce in (reference(T),)
                 if ce is not None and ce["kind"] == kind)
    assert lemmas.recheck(T, ce)
    assert not lemmas.recheck(S, ce)


def test_family_basic_kinds_replay_their_instance():
    honest = get_family("bicyclic-nat")
    lying = dataclasses.replace(honest, inv=lambda s: s)  # s* = s: not an inverse
    report = checkers.check_basic_rules(lying, budget=200)
    assert report.verdict == "fail"
    assert replay_counterexample(lying, report)
    assert not replay_counterexample(honest, report)
    assert checkers.check_basic_rules(honest, budget=200).verdict == "pass"
