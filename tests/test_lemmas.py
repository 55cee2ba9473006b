"""The lemmas behind the finite verdicts, and the scans that back them.

``checkers`` passes every suite on a carrier by lemma: the carrier
constructor has validated the table, and each law holds on every finite
inverse semigroup.  The scans here are the finite checks that ``checkers``
ran before, kept as references.  They must pass on every validated carrier,
including carriers too large to enumerate (``I_4``, ``coset:S4``,
``coset:C2xC2xC2``).  ``test_collapse``, ``test_subset_laws`` and
``test_derived_once`` cross-check them against the definitions, on the
corpus and on tables tampered with after validation, where they must fail.

Each reference returns None when its law holds, else a counterexample: a
dict with the ``kind`` and the instance, which ``recheck`` re-runs.
"""

import json
import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from invsg import checkers, core, pbij, poset
from invsg.checkers import SUITES, CheckReport, classify, replay_counterexample, run_suites
from invsg.cli import main
from invsg.core import bits, idempotents, mask_of, sup_finite
from invsg.families import coset_monoid, group_by_name

import reference
from conftest import acceptance_corpus

# 0 < x, y < 1 with x y = 0, and C2 = {1, g} over 1: g e = e below 1.
# {x, y} is bounded by 1 and by g, which are incomparable, so has no sup.
CLIFFORD = [[0, 0, 0, 0, 0],
            [0, 1, 0, 1, 1],
            [0, 0, 2, 2, 2],
            [0, 1, 2, 3, 4],
            [0, 1, 2, 4, 3]]

# x, y, w < z with pairwise meets 0, C2 = {w, w'} over w and C2 = {z, h} over
# z, with h w = w'.  {x, y} is bounded by z and by h but has no sup, while
# the antichains {x, y, w} and {x, y, w'} have the sups z and h.
CLIFFORD_7 = [[0, 0, 0, 0, 0, 0, 0],
              [0, 1, 0, 0, 0, 1, 1],
              [0, 0, 2, 0, 0, 2, 2],
              [0, 0, 0, 3, 4, 3, 4],
              [0, 0, 0, 4, 3, 4, 3],
              [0, 1, 2, 3, 4, 5, 6],
              [0, 1, 2, 4, 3, 6, 5]]


def sig_data(S):
    """(order poset, Sigma poset, Sigma ids, id -> Sigma index)."""
    PS = poset.order_poset(S)
    Psig, sig = poset.sigma_poset(S)
    return PS, Psig, sig, {e: i for i, e in enumerate(sig)}


def basic_rules_broken(S, s, t):
    """The basic-rule kinds that fail at (s, t), tested by the families' laws
    on the carrier's product, inverse and idempotents."""
    ops = SimpleNamespace(op=S.mul, inv=S.inv.__getitem__, is_idempotent=S.is_idempotent)
    return [k for k in checkers._BASIC_KINDS if checkers._VIOLATED[k](ops, s=s, t=t)]


def basic_rules(S):
    inv, table = S.inv, S.table
    for s in range(S.n):
        row, inv_s = table[s], inv[s]
        for t in range(S.n):
            # only (st)* = t* s* reads t: the other rules are read at t = 0
            if t and inv[row[t]] == table[inv[t]][inv_s]:
                continue
            broken = basic_rules_broken(S, s, t)
            if broken:
                return {"kind": broken[0], "s": s, "t": t}
    return None


def order_values(S, s, t, p_def, p_eps_left):
    """The five forms of s <= t, given s in tE (p_def) and s in Et (p_eps_left)."""
    return (p_def, S.mul(S.inv[t], S.mul(s, S.inv[s])) == S.inv[s],
            S.mul(t, S.sigma[s]) == s, p_eps_left, S.mul(S.mul(s, S.inv[s]), t) == s)


def order_characterizations(S):
    idem = idempotents(S)
    tE = [mask_of(row[e] for e in idem) for row in S.table]
    Et = [mask_of(S.table[e][t] for e in idem) for t in range(S.n)]
    for s, t in product(range(S.n), repeat=2):
        vals = order_values(S, s, t, (tE[t] >> s) & 1 == 1, (Et[t] >> s) & 1 == 1)
        if len(set(vals)) != 1:
            return {"kind": "characterizations-disagree", "s": s, "t": t,
                    "values": list(vals)}
    return None


def sup_instances(S):
    """Every (A, sup A) that the arbitrary-subset laws need to see.

    The laws, sup sigma(A) = sigma(sup A) and sup(sA) = s sup A when each
    rho(a) = a a* <= s* s, hold in every inverse semigroup (Lawson, Inverse
    Semigroups, 1998, 1.4); here they audit the order and ``sup_finite``.
    Each bounded pair with a sup is yielded, a = b included.  On the
    comparable ones the laws make sigma monotone, and s monotone on the
    elements that meet its hypothesis.

    If every bounded pair has a sup, the pairs suffice.  A bounded
    A = {a_1, ..., a_k} has the sup v_k, the fold v_i = sup{v_(i-1), a_i},
    and U(A) = U{v_(k-1), a_k}; by induction on k, U(sigma A) and U(sA) are
    those of the images of that pair, so the law on A is the law on the
    pair.  It meets the hypothesis: rho(v_(k-1)) = sup rho{a_1, ...,
    a_(k-1)} <= s* s, as rho(x) = sigma(x*), inversion is an order
    automorphism, and the sigma-law holds on the inverses.

    Otherwise each bounded antichain of three or more elements that has a
    sup is yielded too.  The maximal elements M of A form a bounded
    antichain, yielded whatever its size, with U(M) = U(A); by the
    monotonicity above, U(sigma M) = U(sigma A), and U(sM) = U(sA) when A
    meets the hypothesis of s.  So the law on M gives the law on A, on any
    table whose order is a partial order.
    """
    up = S.up_masks()
    complete = True
    for a in range(S.n):
        for b in range(a, S.n):
            if up[a] & up[b]:
                v = sup_finite(S, (a, b))
                complete = complete and v is not None
                if v is not None:
                    yield ((a,) if a == b else (a, b)), v
    if complete:
        return
    comparable = [u | sum(1 << x for x in range(S.n) if (up[x] >> y) & 1)
                  for y, u in enumerate(up)]
    stack = [((), -1, (1 << S.n) - 1)]  # an antichain, its upper bounds, its extensions
    while stack:
        members, ub, free = stack.pop()
        for c in bits(free):
            if ub & up[c]:
                A = members + (c,)
                v = sup_finite(S, A) if len(A) > 2 else None
                if v is not None:
                    yield A, v
                stack.append((A, ub & up[c], free & ~comparable[c] & ~((2 << c) - 1)))


def sigma_sup(S):
    for A, v in sup_instances(S):
        if sup_finite(S, [S.sigma[a] for a in A]) != S.sigma[v]:
            return {"kind": "sigma-sup", "A": list(A), "sup": v}
    return None


def conditional_distributivity(S):
    up = S.up_masks()
    for A, v in sup_instances(S):
        hyp = -1  # bit t is set iff a a* <= t for every a in A
        for a in A:
            hyp &= up[S.mul(a, S.inv[a])]
        for s in (s for s in range(S.n) if (hyp >> S.sigma[s]) & 1):
            if sup_finite(S, [S.table[s][a] for a in A]) != S.mul(s, v):
                return {"kind": "cond-distr", "A": list(A), "s": s}
    return None


def greatest_of_translate(S):
    """Checked on x, d <= m: a directed D lies below its maximum m, and
    x, d <= m form the directed set {x, d, m}."""
    P = poset.order_poset(S)
    for m in range(S.n):
        below = list(bits(P.down[m]))
        for d in below:
            e = S.sigma[d]
            if S.mul(d, e) != d:
                return {"kind": "d-not-in-translate", "D": [d, m], "d": d}
            for x in below:
                if not S.le(S.mul(x, e), d):
                    return {"kind": "translate-escapes-d", "D": [x, d, m], "d": d, "x": x}
    return None


def mirror(S):
    """A directed Delta has a maximum m, its sup in Sigma, and its upper bounds
    in S are up[m], as are those of each pair {a, m} with a <= m in Sigma."""
    _PS, Psig, sig, _ = sig_data(S)
    up = S.up_masks()
    for m in range(Psig.n):
        delta = sig[m]
        for a in bits(Psig.down[m]):
            members = [sig[a], delta]
            ub = up[sig[a]] & up[delta]
            if not (ub >> delta) & 1:
                return {"kind": "mirror-finite", "Delta": members, "delta": delta}
            for u in bits(ub):
                if not S.le(delta, u):
                    return {"kind": "mirror-finite", "Delta": members, "delta": delta, "u": u}
    return None


def ssc(S):
    """A directed D has a maximum m = sup D and m s is in D s, so the law holds
    on D iff d s <= m s for each d in D; and {d, m} is directed for d <= m."""
    PS = poset.order_poset(S)
    up, table = PS.up, S.table
    for m in range(S.n):
        below = list(bits(PS.down[m]))
        for s in range(S.n):
            ms = table[m][s]
            for d in below:
                if not (up[table[d][s]] >> ms) & 1:
                    return {"kind": "ssc-finite", "D": [d, m], "s": s}
    return None


def meet_continuous(S):
    """A directed Delta has a maximum m = sup Delta and eps m is in eps Delta,
    so the law holds on Delta iff eps a <= eps m for each a in Delta; and
    {a, m} is directed for a <= m in Sigma."""
    _PS, Psig, sig, sig_index = sig_data(S)
    for m in range(Psig.n):
        below = [sig[a] for a in bits(Psig.down[m])]
        for eps in sig:
            top = sig_index[S.mul(eps, sig[m])]
            for a in below:
                if not (Psig.up[sig_index[S.mul(eps, a)]] >> top) & 1:
                    return {"kind": "meet-continuity-finite", "Delta": [a, sig[m]],
                            "eps": eps}
    return None


def wb_characterization(S, pairs=None):
    """Over the pairs (s, t), by default every pair, from the way-below matrices."""
    PS, Psig, _sig, sig_index = sig_data(S)
    wbS = poset.way_below_matrix(PS)
    wbSig = poset.way_below_matrix(Psig)
    for s, t in pairs or product(range(S.n), repeat=2):
        lhs = bool((wbS[s] >> t) & 1)
        si, ti = sig_index[S.sigma[s]], sig_index[S.sigma[t]]
        rhs = S.le(s, t) and bool((wbSig[si] >> ti) & 1)
        if lhs != rhs:
            return {"kind": "wb-char", "s": s, "t": t, "lhs": lhs, "rhs": rhs}
    return None


def multiplicativity(S):
    PS, Psig, sig, sig_index = sig_data(S)
    mult_S = reference.way_below_multiplicative(PS, S.mul)
    mult_Sigma = reference.way_below_multiplicative(
        Psig, lambda i, j: sig_index[S.mul(sig[i], sig[j])])
    if not (mult_S and mult_Sigma):
        return {"kind": "mult", "mult_S": mult_S, "mult_Sigma": mult_Sigma}
    return None


def continuity_and_algebraicity(S):
    for P in (poset.order_poset(S), poset.sigma_poset(S)[0]):
        if not (reference.is_continuous(P) and reference.is_algebraic(P)):
            return {"kind": "not-continuous-and-algebraic", "n": P.n}
    return None


def separation(S):
    """Distinct a, b with a* a = b* b = eps differ on some phi << eps in Sigma."""
    _PS, Psig, sig, _ = sig_data(S)
    wbSig = poset.way_below_matrix(Psig)
    for ei, eps in enumerate(sig):
        H = [s for s in range(S.n) if S.sigma[s] == eps]
        phis = [sig[p] for p in range(Psig.n) if (wbSig[p] >> ei) & 1]
        for a, b in combinations(H, 2):
            if not any(S.mul(a, phi) != S.mul(b, phi) for phi in phis):
                return {"kind": "separation", "eps": eps, "a": a, "b": b}
    return None


# The reference of each suite's law on a carrier.  conditional_dcpo_mirror
# has none: a finite directed set contains its sup, so there is nothing to
# scan; ``test_collapse.ref_cdc`` checks it by definition.
REFERENCES = {
    "basic_rules": basic_rules,
    "order_characterizations": order_characterizations,
    "sigma_sup": sigma_sup,
    "conditional_distributivity": conditional_distributivity,
    "greatest_of_translate": greatest_of_translate,
    "mirror": mirror,
    "meet_continuity_mirror": lambda S: ssc(S) or meet_continuous(S),
    "wb_characterization": wb_characterization,
    "multiplicativity_mirror": multiplicativity,
    "mirror_theorem": continuity_and_algebraicity,
    "separation_criterion": separation,
    "continuity_implies_ssc": ssc,
}


def reference_of(suite):
    """The reference of a ``checkers.check_*`` suite."""
    return REFERENCES[suite.__name__.removeprefix("check_")]


def recheck(S, ce) -> bool:
    """Re-run the one instance of a reference's counterexample on S; True iff
    the law fails there on an instance that meets the law's hypotheses."""
    kind = ce["kind"]
    if kind in checkers._BASIC_KINDS:
        return kind in basic_rules_broken(S, ce["s"], ce["t"])
    if kind == "characterizations-disagree":
        s, t, idem = ce["s"], ce["t"], idempotents(S)
        return len(set(order_values(S, s, t, any(S.mul(t, e) == s for e in idem),
                                    any(S.mul(e, t) == s for e in idem)))) != 1
    if kind in ("sigma-sup", "cond-distr"):
        A, v = ce["A"], sup_finite(S, ce["A"])
        if kind == "sigma-sup":
            return v is not None and sup_finite(S, [S.sigma[a] for a in A]) != S.sigma[v]
        s = ce["s"]
        return (v is not None and all(S.le(S.mul(a, S.inv[a]), S.sigma[s]) for a in A)
                and sup_finite(S, [S.mul(s, a) for a in A]) != S.mul(s, v))
    if kind == "mirror-finite":
        delta, u = ce["delta"], ce.get("u")
        if u is not None:
            return not S.le(delta, u)
        return not all(S.le(a, delta) for a in ce["Delta"])
    if kind == "wb-char":
        return wb_characterization(S, [(ce["s"], ce["t"])]) is not None
    # the collapsed kinds: a directed set below its last member m, plus s or eps
    if kind == "ssc-finite":
        (d, m), s = ce["D"], ce["s"]
        return S.le(d, m) and not S.le(S.mul(d, s), S.mul(m, s))
    if kind == "meet-continuity-finite":
        (a, m), eps = ce["Delta"], ce["eps"]
        return (all(S.is_idempotent(x) for x in (a, m, eps)) and S.le(a, m)
                and not S.le(S.mul(eps, a), S.mul(eps, m)))
    if kind in ("d-not-in-translate", "translate-escapes-d"):
        *D, m = ce["D"]
        d, e = ce["d"], S.sigma[ce["d"]]
        broken = (S.mul(d, e) != d if kind == "d-not-in-translate"
                  else not S.le(S.mul(ce["x"], e), d))
        return all(S.le(x, m) for x in D) and broken
    raise ValueError(f"no recheck for {kind!r}")


# -- the references pass on validated carriers --------------------------------


def random_closures(count=60, seed=0):
    """Inverse subsemigroups of I_4 generated by 1-3 random elements."""
    I4 = pbij.symmetric_inverse_monoid(4)
    rng = random.Random(seed)
    return [pbij.closure(4, rng.sample(I4.rep, rng.randint(1, 3))).carrier
            for _ in range(count)]


# name -> (count, build): the validated carriers the references must pass on
CARRIER_SETS = {
    "I_3-subsemigroups": (71, lambda: list(pbij.enumerate_inverse_subsemigroups(3, 10))),
    "I_4-closures": (60, random_closures),
    "clifford": (2, lambda: [core.FiniteInvSemigroup(t) for t in (CLIFFORD, CLIFFORD_7)]),
    "acceptance-corpus": (27, lambda: [S for _sid, S in acceptance_corpus()]),
    "largest": (2, lambda: [pbij.symmetric_inverse_monoid(4).carrier,
                            coset_monoid(group_by_name("S4"))]),
}


def test_every_suite_but_one_has_a_reference():
    assert set(REFERENCES) | {"conditional_dcpo_mirror"} == set(SUITES)


@pytest.mark.parametrize("name", CARRIER_SETS)
def test_references_pass_on_validated_carriers(name):
    count, build = CARRIER_SETS[name]
    carriers = build()
    assert len(carriers) == count
    for S in carriers:
        failed = {law: ce for law, ref in REFERENCES.items() if (ce := ref(S)) is not None}
        assert not failed, (name, S.n, failed)
        reports = run_suites(S, f"{name}(n={S.n})")
        assert all(r.verdict == "pass" and r.budget == 0 for r in reports), (name, S.n)


# -- finite classify: reducedness scanned, the rest by lemma ------------------


LEMMA_FLAGS = {"mirror": True, "continuous": True, "algebraic": True,
               "stably_continuous": True}


def test_finite_classify_scans_reducedness_only():
    for S in CARRIER_SETS["I_3-subsemigroups"][1]():
        record = classify(S)
        assert record.values() == {"reduced": core.is_reduced(S), **LEMMA_FLAGS}
        for name in LEMMA_FLAGS:
            assert getattr(record, name).evidence.startswith("lemma: ")


COSET_GROUPS = ("C1", "C2", "C2xC2", "C2xC2xC2", "C3", "C4", "C4xC2", "C5",
                "C6", "C7", "C8", "D4", "Q8", "S3", "S4")


@pytest.mark.parametrize("group", COSET_GROUPS)
def test_coset_classify_json_values(group, capsys):
    assert main(["classify", "--family", f"coset:{group}", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    values = {name: record[name]["value"] for name in ("reduced", *LEMMA_FLAGS)}
    # only the trivial group's coset monoid, a single point, is reduced
    assert values == {"reduced": group == "C1", **LEMMA_FLAGS}


# -- no counterexample replays on a carrier -----------------------------------


# every kind that a finite suite could emit before the finite verdicts came
# from lemmas, and one unknown kind
FINITE_KINDS = checkers._BASIC_KINDS + (
    "characterizations-disagree", "sigma-sup", "cond-distr", "d-not-in-translate",
    "translate-escapes-d", "mirror-finite", "ssc-finite", "meet-continuity-finite",
    "wb-char", "meet-cont-biconditional", "mult-biconditional", "mirror-theorem",
    "separation-biconditional", "not-a-kind")

CARRIERS = {"I_2": lambda: pbij.symmetric_inverse_monoid(2).carrier,
            "coset:D4": lambda: coset_monoid(group_by_name("D4"))}


@pytest.mark.parametrize("sid", CARRIERS)
@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_no_fabricated_counterexample_replays_on_a_carrier(sid, kind):
    S = CARRIERS[sid]()
    raw = {"s": 1, "t": 0, "A": [0, 1], "D": [0, 1], "d": 0, "x": 1,
           "Delta": [0, 1], "delta": 0, "u": 1, "eps": 0}
    report = CheckReport("any", sid, "fail", {"kind": kind, **raw, "_raw": raw})
    assert not replay_counterexample(S, report)
