"""The arbitrary-subset laws on bounded pairs, cross-checked by enumeration.

``sigma_sup`` and ``conditional_distributivity`` quantify over every subset A
that has a sup.  Their references in ``test_lemmas`` check them on the
bounded pairs, and also on the bounded antichains when some bounded pair has
no sup.  The references
here quantify over every subset, or over every bounded antichain, and must
give the same verdicts: on the corpus, on tampered tables that break the
laws, and on a Clifford carrier where a bounded pair has no sup.
"""

import pytest

from invsg import checkers, core, pbij
from invsg.checkers import run_suites
from invsg.core import bits, sup_finite
from invsg.families import coset_monoid, group_by_name

import test_lemmas as lemmas
from test_collapse import tampered
from test_lemmas import CLIFFORD, CLIFFORD_7


def ref_laws(S, subsets):
    """(sigma-law holds, distributivity holds) over the given subsets."""
    sigma_ok = cdc_ok = True
    for A in subsets:
        v = sup_finite(S, A)
        if v is None:
            continue
        sigma_ok &= sup_finite(S, [S.sigma[a] for a in A]) == S.sigma[v]
        for s in range(S.n):
            if all(S.le(S.mul(a, S.inv[a]), S.sigma[s]) for a in A):
                cdc_ok &= sup_finite(S, [S.mul(s, a) for a in A]) == S.mul(s, v)
    return sigma_ok, cdc_ok


def all_subsets(S):
    return (list(bits(mask)) for mask in range(1, 1 << S.n))


def bounded_antichains(S):
    """Every antichain with an upper bound, each grown from its least id."""
    up = S.up_masks()

    def grow(A, ub):
        yield A
        for c in range(A[-1] + 1, S.n):
            if ub & up[c] and not any(S.le(a, c) or S.le(c, a) for a in A):
                yield from grow(A + [c], ub & up[c])

    for a in range(S.n):
        yield from grow([a], up[a])


def pair_verdicts(S):
    return (lemmas.sigma_sup(S) is None, lemmas.conditional_distributivity(S) is None)


def bounded_pairs_have_sups(S):
    up = S.up_masks()
    return all(sup_finite(S, (a, b)) is not None
               for a in range(S.n) for b in range(S.n) if up[a] & up[b])


def test_pair_path_agrees_with_every_subset_on_the_corpus(finite_corpus):
    small = [(sid, S) for sid, S in finite_corpus if S.n <= 12]
    assert len(small) == 20
    for sid, S in small:
        assert bounded_pairs_have_sups(S), sid
        assert pair_verdicts(S) == ref_laws(S, all_subsets(S)) == (True, True), sid


def test_pair_path_agrees_with_every_subset_on_tampered_tables(I2):
    cases = list(tampered(I2.carrier))
    sigma_fails = cdc_fails = 0
    for T in cases:
        assert bounded_pairs_have_sups(T), T.table
        got = pair_verdicts(T)
        assert got == ref_laws(T, all_subsets(T)), T.table
        sigma_fails += not got[0]
        cdc_fails += not got[1]
    assert (len(cases), sigma_fails, cdc_fails) == (222, 40, 86)


@pytest.mark.parametrize("sid, build", [
    ("I_4", lambda: pbij.symmetric_inverse_monoid(4).carrier),
    ("coset:C2xC2xC2", lambda: coset_monoid(group_by_name("C2xC2xC2"))),
])
def test_pair_path_agrees_with_every_antichain(sid, build):
    S = build()
    assert bounded_pairs_have_sups(S), sid
    assert pair_verdicts(S) == ref_laws(S, bounded_antichains(S)) == (True, True), sid


def test_clifford_carrier_takes_the_antichain_path():
    C = core.FiniteInvSemigroup(CLIFFORD)
    assert C.le(1, 3) and C.le(1, 4) and C.le(2, 3) and C.le(2, 4)
    assert sup_finite(C, [1, 2]) is None
    assert pair_verdicts(C) == ref_laws(C, all_subsets(C)) == (True, True)
    cases = list(tampered(C))
    fallback = 0
    for T in cases:
        fallback += not bounded_pairs_have_sups(T)
        assert pair_verdicts(T) == ref_laws(T, all_subsets(T)), T.table
    assert (len(cases), fallback) == (64, 46)


def test_fallback_yields_the_pairs_and_the_bounded_antichains():
    S = core.FiniteInvSemigroup(CLIFFORD_7)
    up = S.up_masks()
    pairs = {((a,) if a == b else (a, b), sup_finite(S, (a, b)))
             for a in range(S.n) for b in range(a, S.n) if up[a] & up[b]}
    assert ((1, 2), None) in pairs
    antichains = {(tuple(A), sup_finite(S, A)) for A in bounded_antichains(S) if len(A) > 2}
    assert antichains == {((1, 2, 3), 5), ((1, 2, 4), 6)}
    got = list(lemmas.sup_instances(S))
    assert len(got) == len(set(got))
    assert set(got) == {(A, v) for A, v in pairs if v is not None} | antichains
    assert pair_verdicts(S) == ref_laws(S, all_subsets(S)) == (True, True)
    for T in tampered(S):
        assert pair_verdicts(T) == ref_laws(T, all_subsets(T)), T.table


def _first_failure(cases, reference):
    for T in cases:
        ce = reference(T)
        if ce is not None:
            return T, ce
    raise AssertionError(f"no tampered table fails {reference.__name__}")


@pytest.mark.parametrize("suite, kind", [
    (checkers.check_sigma_sup, "sigma-sup"),
    (checkers.check_conditional_distributivity, "cond-distr"),
])
def test_replay_reruns_the_failing_pair(I2, suite, kind):
    T, ce = _first_failure(tampered(I2.carrier), lemmas.reference_of(suite))
    assert ce["kind"] == kind
    assert len(ce["A"]) <= 2
    assert lemmas.recheck(T, ce)
    assert not lemmas.recheck(I2.carrier, ce)


def test_replay_checks_the_hypothesis(I2):
    S = I2.carrier
    up = S.up_masks()
    # a pair with no upper bound has no sup: the sigma-law says nothing of it
    a, b = next((a, b) for a in range(S.n) for b in range(S.n) if not up[a] & up[b])
    assert not lemmas.recheck(S, {"kind": "sigma-sup", "A": [a, b]})
    # a tampered table where sup(sA) != s sup A, but some a a* is not below s* s
    T, A, s = next((T, [a, b], s) for T in tampered(S) for a in range(S.n)
                   for b in range(a, S.n) for s in range(S.n)
                   if sup_finite(T, [a, b]) is not None
                   and sup_finite(T, [T.mul(s, a), T.mul(s, b)])
                   != T.mul(s, sup_finite(T, [a, b]))
                   and not all(T.le(T.mul(x, T.inv[x]), T.sigma[s]) for x in (a, b)))
    assert not lemmas.recheck(T, {"kind": "cond-distr", "A": A, "s": s})


def test_no_finite_suite_samples(monkeypatch):
    def no_rng(*_tags):
        raise AssertionError("a finite suite drew a random sample")

    monkeypatch.setattr(checkers, "_rng", no_rng)
    # a carrier passes each suite by lemma, with nothing drawn
    for sid, S in (("I_3", pbij.symmetric_inverse_monoid(3).carrier),
                   ("coset:C2xC2xC2", coset_monoid(group_by_name("C2xC2xC2")))):
        assert S.n in (34, 51)
        reports = run_suites(S, sid)
        assert len(reports) == 13 and all(r.verdict == "pass" for r in reports), sid
