"""The finite collapse of the directed-set laws, cross-checked by enumeration.

The references of ``test_lemmas`` check each law that quantifies over
directed sets on the comparable pairs d <= m only.  The references here
quantify over every directed subset from ``poset.directed_subsets``, as the
definitions do, and must agree with the collapse on the corpus and on
tampered tables that break the laws.
"""

import copy

import pytest

from invsg import poset
from invsg.core import bits

import reference
import test_lemmas as lemmas

COST_LIMIT = 1 << 16


def _directed(P):
    for mask, _m in poset.directed_subsets(P, cost_limit=COST_LIMIT):
        yield list(bits(mask))


def ref_mirror(S):
    Psig, sig = poset.sigma_poset(S)
    up = S.up_masks()
    for D in _directed(Psig):
        v = poset.sup(Psig, D)
        if v is None:
            continue
        delta = sig[v]
        ub = (1 << S.n) - 1
        for a in D:
            ub &= up[sig[a]]
        if not (ub >> delta) & 1 or not all(S.le(delta, u) for u in bits(ub)):
            return False
    return True


def ref_ssc(S):
    PS = poset.order_poset(S)
    for D in _directed(PS):
        v = poset.sup(PS, D)
        if v is None:
            continue
        for s in range(S.n):
            if poset.sup(PS, [S.mul(d, s) for d in D]) != S.mul(v, s):
                return False
    return True


def ref_meet_continuous(S):
    Psig, sig = poset.sigma_poset(S)
    index = {e: i for i, e in enumerate(sig)}
    for D in _directed(Psig):
        v = poset.sup(Psig, D)
        if v is None:
            continue
        for eps in sig:
            sv = poset.sup(Psig, [index[S.mul(eps, sig[a])] for a in D])
            if sv is None or sig[sv] != S.mul(eps, sig[v]):
                return False
    return True


def ref_greatest_of_translate(S):
    P = poset.order_poset(S)
    for D in _directed(P):
        for d in D:
            e = S.sigma[d]
            if S.mul(d, e) != d or not all(S.le(S.mul(x, e), d) for x in D):
                return False
    return True


def ref_cdc(P):
    for D in _directed(P):
        bounded = any(all(P.leq(d, u) for d in D) for u in range(P.n))
        if bounded and poset.sup(P, D) is None:
            return False
    return True


def reference_verdicts(S):
    Psig, _sig = poset.sigma_poset(S)
    return {"mirror": ref_mirror(S), "ssc": ref_ssc(S),
            "greatest_of_translate": ref_greatest_of_translate(S),
            "cdc_S": ref_cdc(poset.order_poset(S)), "cdc_Sigma": ref_cdc(Psig)}


def collapsed_verdicts(S):
    # a finite poset is conditionally directed-complete, so the collapse
    # claims both sides
    return {"mirror": lemmas.mirror(S) is None,
            "ssc": lemmas.ssc(S) is None,
            "greatest_of_translate": lemmas.greatest_of_translate(S) is None,
            "cdc_S": True, "cdc_Sigma": True}


def with_entry(S, s, t, v):
    """A copy of S with table[s][t] = v.

    The copy keeps the validated inverses, idempotents and sigma, so the
    checks see an inconsistent table; only the cached up-sets are cleared.
    """
    T = copy.copy(S)
    rows = [list(row) for row in S.table]
    rows[s][t] = v
    T.table = tuple(map(tuple, rows))
    T._up = None
    return T


def tampered(S):
    """Every one-entry change of S's table whose order is still a partial order."""
    for s in range(S.n):
        for t in range(S.n):
            for v in range(S.n):
                if v == S.table[s][t]:
                    continue
                T = with_entry(S, s, t, v)
                try:
                    poset.order_poset(T)
                except poset.NotAPartialOrder:
                    continue
                yield T


def _small_enough(S):
    try:
        next(poset.directed_subsets(poset.order_poset(S), cost_limit=COST_LIMIT))
    except poset.TooLargeForDefinitionalCheck:
        return False
    return True


def test_collapse_agrees_with_enumeration_on_the_corpus(finite_corpus):
    checked = 0
    for sid, S in finite_corpus:
        if not _small_enough(S):
            continue
        checked += 1
        assert collapsed_verdicts(S) == reference_verdicts(S), sid
        assert (lemmas.meet_continuous(S) is None) == ref_meet_continuous(S), sid
        assert reference.is_meet_continuous(poset.sigma_poset(S)[0]) == \
            ref_meet_continuous(S), sid
    assert checked == len(finite_corpus) - 1  # coset:C2xC2xC2 is too large


def test_collapse_agrees_with_enumeration_on_tampered_tables(I2):
    cases = list(tampered(I2.carrier))
    failing = 0
    for T in cases:
        got = collapsed_verdicts(T)
        assert got == reference_verdicts(T), T.table
        failing += not all(got.values())
    assert (len(cases), failing) == (222, 190)


def _first_failure(cases, kind, find):
    for T in cases:
        try:
            ce = find(T)
        except KeyError:  # eps * a left the idempotents of the tampered table
            continue
        if ce is not None and ce["kind"] == kind:
            return T, ce
    raise AssertionError(f"no tampered table fails with {kind}")


@pytest.mark.parametrize("kind, find", [
    ("ssc-finite", lambda T: lemmas.ssc(T)),
    ("meet-continuity-finite", lambda T: lemmas.meet_continuous(T)),
    ("translate-escapes-d", lambda T: lemmas.greatest_of_translate(T)),
])
def test_replay_reruns_the_collapsed_instance(I2, kind, find):
    T, ce = _first_failure(tampered(I2.carrier), kind, find)
    assert lemmas.recheck(T, ce)
    assert not lemmas.recheck(I2.carrier, ce)


def test_replay_of_d_not_in_translate(I2):
    # a valid order makes d d* d = d, so the reference cannot emit this kind;
    # break d d* d on an idempotent d below the identity by hand
    S = I2.carrier
    d = next(e for e in range(S.n) if S.is_idempotent(e) and e != S.identity)
    T = with_entry(S, d, d, S.identity)
    ce = {"kind": "d-not-in-translate", "D": [d, S.identity], "d": d}
    assert lemmas.recheck(T, ce)
    assert not lemmas.recheck(S, ce)


def test_replay_requires_a_directed_instance(I2):
    # d s <= m s can fail for incomparable d and m, but {d, m} is not directed
    S = I2.carrier
    d, m, s = next((d, m, s) for d in range(S.n) for m in range(S.n)
                   for s in range(S.n)
                   if not S.le(d, m) and not S.le(S.mul(d, s), S.mul(m, s)))
    assert not lemmas.recheck(S, {"kind": "ssc-finite", "D": [d, m], "s": s})
