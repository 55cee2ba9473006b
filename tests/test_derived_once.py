"""Structures derived once per carrier, the mask kernels, and finite replays.

``checkers`` memoizes each carrier's order posets and hypothesis gates in a
weak dict keyed by identity.  These tests count the builds of one
``run_suites``, check that a tampered copy never reads its original's
entries, and that an entry goes with its carrier.  The order
characterizations read masks of tE and Et; a test-local reference scans
the idempotents for each pair, as the definition does.  The basic-rule and
characterization kinds replay their one instance, on carriers and families.
"""

import copy
import dataclasses
import gc
import weakref

import pytest

from invsg import checkers, poset
from invsg.checkers import CheckReport, replay_counterexample, run_suites
from invsg.core import idempotents
from invsg.families import coset_monoid, get_family, group_by_name
from invsg.pbij import symmetric_inverse_monoid

from test_collapse import tampered, with_entry


def _counting(fn, counts, name):
    def wrapper(*args):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args)
    return wrapper


def test_one_run_builds_each_structure_once(monkeypatch):
    counts = {}
    for name in ("order_poset", "sigma_poset"):
        monkeypatch.setattr(poset, name, _counting(getattr(poset, name), counts, name))
    monkeypatch.setattr(checkers, "_mirror", checkers._hypothesis(
        "mirror", _counting(checkers._finite_mirror, counts, "mirror"),
        checkers._family_mirror))
    monkeypatch.setattr(checkers, "_ssc", checkers._hypothesis(
        "ssc", _counting(checkers._finite_ssc, counts, "ssc"), checkers._family_ssc))
    S = coset_monoid(group_by_name("D4"))
    reports = run_suites(S, "coset:D4")
    assert all(r.verdict == "pass" for r in reports)
    assert counts == {"order_poset": 1, "sigma_poset": 1, "mirror": 1, "ssc": 1}


def test_a_tampered_copy_never_reads_its_originals_entries():
    # the gated suites that run on any tampered table whose order is valid
    names = ("mirror", "continuity_implies_ssc", "wb_characterization")
    S = symmetric_inverse_monoid(2).carrier
    T = next(T for T in tampered(S)
             if checkers._finite_mirror(T)[0] and not checkers._finite_ssc(T)[0])
    s, t = next((s, t) for s in range(S.n) for t in range(S.n)
                if T.table[s][t] != S.table[s][t])

    def copy_of_t():
        return with_entry(S, s, t, T.table[s][t])

    alone = run_suites(copy_of_t(), "tampered", names)
    assert run_suites(S, "I_2", names)[1].verdict == "pass"
    after = run_suites(copy_of_t(), "tampered", names)
    assert after == alone
    assert after[1].verdict == "fail" and after[1].counterexample["kind"] == "ssc-finite"


def test_an_entry_goes_with_its_carrier():
    S = coset_monoid(group_by_name("C2xC2"))
    run_suites(S, "coset:C2xC2")
    ref = weakref.ref(S)
    assert S in checkers._GATE_CACHE
    gc.collect()  # drop the entries of carriers that earlier tests let go
    before = len(checkers._GATE_CACHE)
    del S
    gc.collect()
    assert ref() is None
    assert len(checkers._GATE_CACHE) == before - 1


def ref_order_characterizations(S):
    """The definitional loop: s in tE and s in Et scan every idempotent."""
    idem = idempotents(S)
    examined = 0
    for s in range(S.n):
        for t in range(S.n):
            examined += 1
            vals = (any(S.mul(t, e) == s for e in idem),
                    S.mul(S.inv[t], S.mul(s, S.inv[s])) == S.inv[s],
                    S.mul(t, S.sigma[s]) == s,
                    any(S.mul(e, t) == s for e in idem),
                    S.mul(S.mul(s, S.inv[s]), t) == s)
            if len(set(vals)) != 1:
                return CheckReport("order_characterizations", f"carrier(n={S.n})", "fail",
                                   {"kind": "characterizations-disagree", "s": s, "t": t,
                                    "values": list(vals), "_raw": {"s": s, "t": t}},
                                   examined)
    return CheckReport("order_characterizations", f"carrier(n={S.n})", "pass",
                       None, examined)


def test_order_characterizations_equal_the_definitional_scan(finite_corpus, I2):
    for sid, S in finite_corpus:
        assert checkers.check_order_characterizations(S) == ref_order_characterizations(S), sid
    cases = list(tampered(I2.carrier))
    fails = 0
    for T in cases:
        got = checkers.check_order_characterizations(T)
        assert got == ref_order_characterizations(T), T.table
        fails += got.verdict == "fail"
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
    fabricated = CheckReport(suite.__name__, "I_2", "fail",
                             {"kind": kind, "s": 0, "t": 1, "_raw": {"s": 0, "t": 1}})
    assert not replay_counterexample(S, fabricated)
    T, report = next((T, r) for T in _one_entry_tampers(S) for r in (suite(T),)
                     if r.verdict == "fail" and r.counterexample["kind"] == kind)
    assert replay_counterexample(T, report)
    assert not replay_counterexample(S, report)


def test_family_basic_kinds_replay_their_instance():
    honest = get_family("bicyclic-nat")
    lying = dataclasses.replace(honest, inv=lambda s: s)  # s* = s: not an inverse
    report = checkers.check_basic_rules(lying, budget=200)
    assert report.verdict == "fail"
    assert replay_counterexample(lying, report)
    assert not replay_counterexample(honest, report)
    assert checkers.check_basic_rules(honest, budget=200).verdict == "pass"
