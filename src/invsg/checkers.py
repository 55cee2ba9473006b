"""Executable property suites for finite carriers and symbolic families.

Each suite verifies one lemma/proposition/theorem-shaped law and returns a
CheckReport.  "not-applicable" is a first-class verdict: laws with
hypotheses (mirror, separate Scott-continuity, installed way-below oracles)
must not report vacuous passes.

Every finite law is checked exhaustively, at any size; nothing finite
samples.  A finite directed set contains its maximum, its sup, so each law
over directed sets is checked on the comparable pairs d <= m (Gierz et al.,
Continuous Lattices and Domains, 2003), and each law over arbitrary subsets
on the bounded pairs and, when one has no sup, the bounded antichains; each
docstring gives the argument.  Families are checked exactly on sampled
instances and at bounded depth along their canonical chains; every fail
carries a replayable counterexample.  A law with an S side and a Sigma side
is written once over a ``_Side`` record of that side's oracles.
"""

from __future__ import annotations

import functools
import os
import random
import weakref
import zlib
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Optional

from . import poset as _poset
from .core import FiniteInvSemigroup, bits, idempotents, mask_of, sup_finite
from .families.base import ChainWitness, SymbolicFamily, chain_members, iter_chain

__all__ = ["CheckReport", "SUITES", "run_suite", "run_suites",
           "replay_counterexample", "default_budget", "DEFAULT_DEPTH"]

DEFAULT_DEPTH = 64


def default_budget() -> int:
    """The sampling budget: ``INVSG_BUDGET`` if set, else 10000."""
    raw = os.environ.get("INVSG_BUDGET", "10000")
    if not raw.strip().isdigit() or int(raw) <= 0:
        raise ValueError(f"INVSG_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass
class CheckReport:
    suite: str
    subject: str
    verdict: str                      # "pass" | "fail" | "not-applicable"
    counterexample: Optional[dict] = None
    budget: int = 0
    notes: str = ""

    def to_json(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = {k: v for k, v in self.counterexample.items() if k != "_raw"}
        return {"suite": self.suite, "subject": self.subject,
                "verdict": self.verdict, "counterexample": ce,
                "budget": self.budget, "notes": self.notes}


def _rng(seed: int, *tags: str) -> random.Random:
    h = 0
    for t in tags:
        h = zlib.crc32(t.encode(), h)
    return random.Random((seed << 32) ^ h)


def _passed(suite, subject, budget, notes="") -> CheckReport:
    return CheckReport(suite, subject, "pass", None, budget, notes)


def _failed(suite, subject, budget, counterexample, notes="") -> CheckReport:
    return CheckReport(suite, subject, "fail", counterexample, budget, notes)


def _verdict(suite, subject, budget, ok, counterexample, notes="") -> CheckReport:
    """A pass with ``notes`` when ``ok``, else a fail with the counterexample."""
    if ok:
        return _passed(suite, subject, budget, notes)
    return _failed(suite, subject, budget, counterexample)


def _na(suite, subject, notes) -> CheckReport:
    return CheckReport(suite, subject, "not-applicable", None, 0, notes)


# ---------------------------------------------------------------------------
# finite-carrier helpers
# ---------------------------------------------------------------------------


def _sup_instances(S: FiniteInvSemigroup):
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


# The order posets and gates of each subject, keyed by identity: a shallow copy
# with a tampered table gets its own entry, and an entry goes with its subject.
_GATE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _memo(subject, key, compute):
    """``compute()``, once per subject and key."""
    per = _GATE_CACHE.setdefault(subject, {})
    if key not in per:
        per[key] = compute()
    return per[key]


def _sig_data(S: FiniteInvSemigroup):
    """(order poset, Sigma poset, Sigma ids, id -> Sigma index), once per carrier."""
    def build():
        PS = _poset.order_poset(S)
        Psig, sig = _poset.sigma_poset(S)
        return PS, Psig, sig, {e: i for i, e in enumerate(sig)}
    return _memo(S, "sig_data", build)


def _finite_mirror(S: FiniteInvSemigroup):
    """Directed subsets of Sigma with a sup in Sigma must have the same sup in S.

    A directed Delta has a maximum m, its sup in Sigma, and its upper bounds
    in S are up[m], as are those of each pair {a, m} with a <= m in Sigma.
    """
    _PS, Psig, sig, _ = _sig_data(S)
    up = S.up_masks()
    examined = 0
    for m in range(Psig.n):
        delta = sig[m]
        for a in bits(Psig.down[m]):
            members = [sig[a], delta]
            examined += 1
            ub = up[sig[a]] & up[delta]
            if not (ub >> delta) & 1:
                return False, {"kind": "mirror-finite", "Delta": members,
                               "sup_in_sigma": delta,
                               "why": "sigma-sup is not an upper bound in S",
                               "_raw": {"Delta": members, "delta": delta}}, examined
            for u in bits(ub):
                if not S.le(delta, u):
                    return False, {"kind": "mirror-finite", "Delta": members,
                                   "sup_in_sigma": delta, "upper_bound": u,
                                   "why": "upper bound in S not above the sigma-sup",
                                   "_raw": {"Delta": members, "delta": delta, "u": u}}, examined
    return True, None, examined


def _finite_ssc(S: FiniteInvSemigroup):
    """sup(D s) = (sup D) s for directed D with sup, quantified over s.

    A directed D has a maximum m = sup D and m s is in D s, so the law holds
    on D iff d s <= m s for each d in D; and {d, m} is directed for d <= m.
    """
    PS = _sig_data(S)[0]
    up, table = PS.up, S.table
    examined = 0
    for m in range(S.n):
        below = list(bits(PS.down[m]))
        for s in range(S.n):
            ms = table[m][s]
            for d in below:
                examined += 1
                if not (up[table[d][s]] >> ms) & 1:
                    return False, {"kind": "ssc-finite", "D": [d, m], "s": s,
                                   "sup_D": m, "sup_Ds": _poset.sup(PS, [table[d][s], ms]),
                                   "_raw": {"D": [d, m], "s": s}}, examined
    return True, None, examined


def _finite_meet_continuous(S: FiniteInvSemigroup):
    """eps meet sup(Delta) = sup(eps Delta) inside the idempotent semilattice.

    A directed Delta has a maximum m = sup Delta and eps m is in eps Delta,
    so the law holds on Delta iff eps a <= eps m for each a in Delta; and
    {a, m} is directed for a <= m in Sigma.
    """
    _PS, Psig, sig, sig_index = _sig_data(S)
    examined = 0
    for m in range(Psig.n):
        below = [sig[a] for a in bits(Psig.down[m])]
        for eps in sig:
            top = sig_index[S.mul(eps, sig[m])]
            for a in below:
                examined += 1
                if not (Psig.up[sig_index[S.mul(eps, a)]] >> top) & 1:
                    Delta = [a, sig[m]]
                    return False, {"kind": "meet-continuity-finite",
                                   "Delta": Delta, "eps": eps,
                                   "_raw": {"Delta": Delta, "eps": eps}}, examined
    return True, None, examined


# ---------------------------------------------------------------------------
# family helpers
# ---------------------------------------------------------------------------


def _elem_pool(fam: SymbolicFamily, rng: random.Random, k: int) -> list:
    pool = [fam.sample(rng) for _ in range(k)]
    for cw in fam.witnesses:
        for v in (cw.sup_in_s, cw.sup_in_sigma) + tuple(cw.upper_bounds):
            if v is not None:
                pool.append(v)
        pool.extend(chain_members(cw, 3))
    if fam.zero is not None:
        pool.append(fam.zero)
    return pool


def _idem_pool(fam: SymbolicFamily, rng: random.Random, k: int) -> list:
    pool = [fam.sample_idempotent(rng) for _ in range(k)]
    for cw in fam.witnesses:
        if cw.sup_in_sigma is not None:
            pool.append(cw.sup_in_sigma)
        if cw.in_sigma:
            pool.extend(chain_members(cw, 3))
    return [e for e in pool if fam.is_idempotent(e)]


@dataclass(frozen=True)
class _Side:
    """One side of a mirror law on a family: S, or its idempotents Sigma.

    ``sample``/``pool`` draw one element, or k elements plus the canonical
    witnesses; ``wb``, ``chains_to`` and ``refuter`` name the family's
    oracles for this side and ``sup`` the ChainWitness field holding its
    sup.  ``keys`` label a way-below pair in a counterexample and ``kinds``
    name its refutations: claim refuted, refuter missing, refuter sup too
    small, refuter does not kill.
    """

    sample: Callable
    pool: Callable
    wb: str
    chains_to: str
    sup: str
    refuter: str
    keys: tuple
    kinds: tuple


_S = _Side(lambda fam, rng: fam.sample(rng),
           lambda fam, rng, k: [fam.sample(rng) for _ in range(k)] + _elem_pool(fam, rng, 3),
           "wb_s", "chains_to", "sup_in_s", "wb_s_refuter", ("s", "t"),
           ("wb-claim-refuted", "missing-refuter", "refuter-sup-too-small",
            "refuter-does-not-kill"))
_SIGMA = _Side(lambda fam, rng: fam.sample_idempotent(rng), _idem_pool,
               "wb_sigma", "sigma_chains_to", "sup_in_sigma", "wb_sigma_refuter",
               ("eps", "delta"),
               ("wb-sigma-claim-refuted", "missing-sigma-refuter",
                "sigma-refuter-sup-too-small", "sigma-refuter-does-not-kill"))


def _oracles(subject) -> bool:
    """Way-below is decidable: on a carrier always, on a family with both oracles."""
    return isinstance(subject, FiniteInvSemigroup) or (
        subject.wb_s is not None and subject.wb_sigma is not None)


def _verify_chain(fam: SymbolicFamily, cw: ChainWitness, depth: int) -> Optional[dict]:
    """Depth-bounded verification of a chain witness's structural claims."""
    ms = chain_members(cw, depth)
    for a, b in zip(ms, ms[1:]):
        if not fam.nat_le(a, b):
            return {"kind": "chain-not-monotone", "chain": cw.name,
                    "a": fam.describe(a), "b": fam.describe(b),
                    "_raw": {"chain": cw, "a": a, "b": b}}
    if cw.in_sigma:
        for a in ms:
            if not fam.is_idempotent(a):
                return {"kind": "chain-not-idempotent", "chain": cw.name,
                        "a": fam.describe(a), "_raw": {"chain": cw, "a": a}}
    for name, val in (("sup_in_sigma", cw.sup_in_sigma), ("sup_in_s", cw.sup_in_s)):
        if val is None:
            continue
        for a in ms:
            if not fam.nat_le(a, val):
                return {"kind": "claimed-sup-not-upper-bound", "chain": cw.name,
                        "claim": name, "member": fam.describe(a),
                        "sup": fam.describe(val),
                        "_raw": {"chain": cw, "a": a, "sup": val}}
    for u in cw.upper_bounds:
        for a in ms:
            if not fam.nat_le(a, u):
                return {"kind": "claimed-upper-bound-fails", "chain": cw.name,
                        "member": fam.describe(a), "upper_bound": fam.describe(u),
                        "_raw": {"chain": cw, "a": a, "u": u}}
    return None


def _dominates(fam: SymbolicFamily, u, cw: ChainWitness, depth: int) -> bool:
    return all(fam.nat_le(a, u) for a in iter_chain(cw, depth))


def _family_mirror(fam: SymbolicFamily, rng: random.Random, depth: int):
    """Chain-witness route plus the reduced sufficient condition, compared.

    A sampled dominator is confirmed at the deepest index any check reads,
    so a depth whose chains cannot be computed that far (``TooLarge``) is
    refused before anything is scanned.
    """
    deepest = max(3 * depth, DEFAULT_DEPTH)
    for cw in fam.witnesses:
        cw.member(deepest)
    examined = 0
    failure = None
    sigma_chains = [cw for cw in fam.witnesses if cw.sup_in_sigma is not None]
    for eps in _idem_pool(fam, rng, 6):
        sigma_chains.extend(cw for cw in fam.sigma_chains_to(eps)
                            if cw.sup_in_sigma is not None)
    for cw in sigma_chains:
        bad = _verify_chain(fam, cw, depth)
        examined += depth + 1
        if bad is not None:
            return False, bad, examined
        delta = cw.sup_in_sigma
        for u in cw.upper_bounds:
            examined += 1
            if not fam.nat_le(delta, u):
                incomparable = not fam.nat_le(u, delta)
                failure = {"kind": "mirror-family", "chain": cw.name,
                           "sup_in_sigma": fam.describe(delta),
                           "upper_bounds": [fam.describe(x) for x in cw.upper_bounds],
                           "bad_bound": fam.describe(u),
                           "incomparable_with_sup": incomparable,
                           "why": "upper bound in S not above the sigma-sup; no sup in S",
                           "_raw": {"chain": cw, "delta": delta, "u": u}}
                break
        if failure:
            break
        # sampled elements that dominate the chain must lie above the sup;
        # confirm a sampled dominator no shallower than the replay depth
        for u in _elem_pool(fam, rng, 10):
            examined += 1
            if _dominates(fam, u, cw, depth) and not fam.nat_le(delta, u):
                if _dominates(fam, u, cw, deepest):
                    failure = {"kind": "mirror-family", "chain": cw.name,
                               "sup_in_sigma": fam.describe(delta),
                               "bad_bound": fam.describe(u),
                               "why": "sampled upper bound not above the sigma-sup",
                               "_raw": {"chain": cw, "delta": delta, "u": u}}
                    break
        if failure:
            break
    reduced_ok, _red_ce, red_n = _family_reduced(fam, rng)
    examined += red_n
    if failure is None and not reduced_ok:
        # reduced is only sufficient; nothing to conclude
        return True, None, examined
    if failure is not None and reduced_ok:
        # the two routes disagree: reduced implies mirror
        failure = dict(failure)
        failure["route_disagreement"] = "reduced test passed but a chain refutes mirror"
    return (failure is None), failure, examined


def _family_reduced(fam: SymbolicFamily, rng: random.Random, budget: int = 2000):
    """Sampled reducedness: a nonzero idempotent below s forces s idempotent."""
    examined = 0
    for _ in range(budget):
        s = fam.sample(rng)
        eps = fam.op(s, fam.sample_idempotent(rng))
        examined += 1
        if fam.is_idempotent(eps) and eps != fam.zero and fam.nat_le(eps, s) \
                and not fam.is_idempotent(s):
            return False, {"kind": "not-reduced", "eps": fam.describe(eps),
                           "s": fam.describe(s), "_raw": {"eps": eps, "s": s}}, examined
    # also probe the canonical chains (their members sit below the sups)
    for cw in fam.witnesses:
        for u in cw.upper_bounds:
            if fam.is_idempotent(u):
                continue
            for a in chain_members(cw, 8):
                examined += 1
                if fam.is_idempotent(a) and a != fam.zero and fam.nat_le(a, u):
                    return False, {"kind": "not-reduced", "eps": fam.describe(a),
                                   "s": fam.describe(u),
                                   "_raw": {"eps": a, "s": u}}, examined
    return True, None, examined


def _family_ssc(fam: SymbolicFamily, rng: random.Random, depth: int, budget: int = 300):
    """Separate Scott-continuity evidence: translation respects chain sups."""
    examined = 0
    pool = _elem_pool(fam, rng, 8)
    for cw in fam.witnesses:
        if cw.sup_in_s is None:
            continue
        d = cw.sup_in_s
        ms = chain_members(cw, depth)
        for s in pool:
            for a in ms:
                examined += 1
                if not fam.nat_le(fam.op(a, s), fam.op(d, s)):
                    return False, {"kind": "ssc-family", "chain": cw.name,
                                   "s": fam.describe(s), "member": fam.describe(a),
                                   "_raw": {"chain": cw, "s": s, "a": a}}, examined
    # finite directed sets carry their sup exactly: sup = max
    for _ in range(budget):
        t = fam.sample(rng)
        A = [fam.op(t, fam.sample_idempotent(rng)) for _ in range(2)] + [t]
        s = fam.sample(rng)
        examined += 1
        top = fam.op(t, s)
        for a in A:
            if not fam.nat_le(fam.op(a, s), top):
                return False, {"kind": "ssc-family-finite", "t": fam.describe(t),
                               "s": fam.describe(s), "a": fam.describe(a),
                               "_raw": {"t": t, "s": s, "a": a}}, examined
    return True, None, examined


def _hypothesis(kind: str, finite, family):
    """The accessor of one hypothesis: (ok, counterexample, examined), memoized;
    exhaustive on a carrier, on a family deterministic in (family, depth, seed)."""
    def check(subject, depth: int, seed: int):
        if isinstance(subject, FiniteInvSemigroup):
            return _memo(subject, kind, lambda: finite(subject))
        return _memo(subject, (kind, depth, seed), lambda: family(
            subject, _rng(seed, f"{kind}-gate", subject.name), depth))
    return check


_mirror = _hypothesis("mirror", _finite_mirror, _family_mirror)
_ssc = _hypothesis("ssc", _finite_ssc, _family_ssc)


def _family_meet_continuous(fam: SymbolicFamily, rng: random.Random, depth: int):
    """Meet-continuity evidence on Sigma: idempotents translate sigma-chains
    below the translated sup."""
    examined = 0
    for cw in fam.witnesses:
        if cw.sup_in_sigma is None:
            continue
        for eps in _idem_pool(fam, rng, 6):
            top = fam.op(eps, cw.sup_in_sigma)
            for a in chain_members(cw, depth):
                examined += 1
                if not fam.nat_le(fam.op(eps, a), top):
                    return False, {"kind": "meet-cont-chain", "chain": cw.name,
                                   "eps": fam.describe(eps), "a": fam.describe(a),
                                   "_raw": {"chain": cw, "eps": eps, "a": a}}, examined
    return True, None, examined


def _continuity(fam: SymbolicFamily, side: _Side, rng: random.Random, depth: int):
    """Evidence that one side is continuous: each pooled x is the sup of a
    canonical chain whose members are below and way below x."""
    wb, chains_to = getattr(fam, side.wb), getattr(fam, side.chains_to)
    examined = 0
    for x in side.pool(fam, rng, 20):
        for cw in chains_to(x):
            if getattr(cw, side.sup) != x:
                continue
            ms = chain_members(cw, depth)
            examined += len(ms)
            if all(wb(a, x) and fam.nat_le(a, x) for a in ms):
                break
        else:
            return False, examined
    return True, examined


def _algebraic(fam: SymbolicFamily, side: _Side, rng: random.Random):
    """(ok, witness, examined) for 'every element of one side is a sup of
    compacts below it', against sampled compacts x eps below each pooled x."""
    wb, zero = getattr(fam, side.wb), fam.zero
    examined = 0
    for x in side.pool(fam, rng, 25):
        examined += 1
        if wb(x, x):
            continue  # x itself is compact: it is the sup of {x}
        compacts = []
        for _ in range(40):
            c = fam.op(x, fam.sample_idempotent(rng))
            if fam.nat_le(c, x) and wb(c, c) and c not in compacts:
                compacts.append(c)
        if zero is not None and zero not in compacts and fam.is_idempotent(zero) \
                and fam.nat_le(zero, x) and wb(zero, zero):
            compacts.append(zero)
        if not compacts:
            return False, {"witness": fam.describe(x),
                           "why": "no compact element below the witness"}, examined
        if len(compacts) == 1 and compacts[0] != x:
            return False, {"witness": fam.describe(x),
                           "why": "the only compact below is "
                                  f"{fam.describe(compacts[0])}, whose sup misses the witness"}, examined
        # inconclusive for this x; keep scanning
    return True, None, examined


def _multiplicative(fam: SymbolicFamily, side: _Side, rng: random.Random, rounds: int):
    """(ok, 4-tuple witness, examined) for sampled way-below multiplicativity
    on one side: s << t and s2 << t2 give s s2 << t t2, on pairs s = t eps."""
    wb = getattr(fam, side.wb)
    pairs, examined = [], 0
    while len(pairs) < 40 and examined < 4000:
        t = side.sample(fam, rng)
        s = fam.op(t, fam.sample_idempotent(rng))
        examined += 1
        if wb(s, t):
            pairs.append((s, t))
    for _ in range(rounds if pairs else 0):
        s, t = pairs[rng.randrange(len(pairs))]
        s2, t2 = pairs[rng.randrange(len(pairs))]
        examined += 1
        if not wb(fam.op(s, s2), fam.op(t, t2)):
            return False, (s, t, s2, t2), examined
    return True, None, examined


def _wb_refutation(fam: SymbolicFamily, side: _Side, s, t, claimed: bool,
                   depth: int) -> Optional[dict]:
    """Chain evidence against one way-below answer on one side.

    A claim s << t must survive each canonical chain with sup above t: some
    member, scanned no shallower than the replay depth, lies above s.  A
    denial needs the side's refuter: a chain with sup above t and no member
    above s up to ``depth``.
    """
    claim_refuted, missing, too_small, no_kill = side.kinds
    a, b = side.keys

    def found(kind, cw=None):
        head = {"kind": kind} if cw is None else {"kind": kind, "chain": cw.name}
        return {**head, a: fam.describe(s), b: fam.describe(t),
                "_raw": {"chain": cw, a: s, b: t}}

    if claimed:
        for cw in getattr(fam, side.chains_to)(t):
            sup = getattr(cw, side.sup)
            if sup is None or not fam.nat_le(t, sup):
                continue
            if not any(fam.nat_le(s, x) for x in iter_chain(cw, max(depth, DEFAULT_DEPTH))):
                return found(claim_refuted, cw)
        return None
    refuter = getattr(fam, side.refuter)
    cw = refuter(s, t) if refuter else None
    if cw is None:
        return found(missing)
    sup = getattr(cw, side.sup)
    if sup is None or not fam.nat_le(t, sup):
        return found(too_small, cw)
    if any(fam.nat_le(s, x) for x in iter_chain(cw, depth)):
        return found(no_kill, cw)
    return None


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


_BASIC_KINDS = ("ss*-not-idempotent", "s*s-not-idempotent", "star-not-involution",
                "antihomomorphism", "idempotent-not-self-inverse")


def _basic_rules_broken(op, inv, is_idem, s, t) -> list:
    """The kinds of the basic rules that fail at (s, t), in the suite's order."""
    holds = (is_idem(op(s, inv(s))), is_idem(op(inv(s), s)), inv(inv(s)) == s,
             inv(op(s, t)) == op(inv(t), inv(s)), not is_idem(s) or inv(s) == s)
    return [kind for kind, ok in zip(_BASIC_KINDS, holds) if not ok]


def _order_values(S: FiniteInvSemigroup, s: int, t: int, p_def, p_eps_left) -> tuple:
    """The five forms of s <= t, given s in tE (p_def) and s in Et (p_eps_left)."""
    return (p_def, S.mul(S.inv[t], S.mul(s, S.inv[s])) == S.inv[s],
            S.mul(t, S.sigma[s]) == s, p_eps_left, S.mul(S.mul(s, S.inv[s]), t) == s)


def check_basic_rules(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                      seed=0, budget=None) -> CheckReport:
    """s s* and s* s idempotent; (s*)* = s; (s t)* = t* s*; s* = s on idempotents."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S, inv, table = subject, subject.inv, subject.table
        examined = 0
        for s in range(S.n):
            row, inv_s = table[s], inv[s]
            for t in range(S.n):
                examined += 1
                # only (st)* = t* s* reads t: the other rules are read at t = 0
                if t and inv[row[t]] == table[inv[t]][inv_s]:
                    continue
                broken = _basic_rules_broken(S.mul, inv.__getitem__, S.is_idempotent, s, t)
                if broken:
                    raw = {"s": s, "t": t} if broken[0] == "antihomomorphism" else {"s": s}
                    return _failed("basic_rules", sid, examined,
                                   {"kind": broken[0], **raw, "_raw": raw})
        return _passed("basic_rules", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "basic_rules", fam.name)
    n = budget or default_budget()
    examined = 0
    for _ in range(n):
        s, t = fam.sample(rng), fam.sample(rng)
        examined += 1
        broken = _basic_rules_broken(fam.op, fam.inv, fam.is_idempotent, s, t)
        if broken:
            return _failed("basic_rules", sid, examined,
                           {"kind": broken[0], "s": fam.describe(s), "t": fam.describe(t),
                            "_raw": {"s": s, "t": t}})
    return _passed("basic_rules", sid, examined)


def check_order_characterizations(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                  seed=0, budget=None) -> CheckReport:
    """The five equivalent forms of the intrinsic order agree pairwise."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        idem = idempotents(S)
        tE = [mask_of(row[e] for e in idem) for row in S.table]
        Et = [mask_of(S.table[e][t] for e in idem) for t in range(S.n)]
        examined = 0
        for s in range(S.n):
            for t in range(S.n):
                examined += 1
                vals = _order_values(S, s, t, (tE[t] >> s) & 1 == 1, (Et[t] >> s) & 1 == 1)
                if len(set(vals)) != 1:
                    return _failed("order_characterizations", sid, examined,
                                   {"kind": "characterizations-disagree", "s": s, "t": t,
                                    "values": list(vals), "_raw": {"s": s, "t": t}})
        return _passed("order_characterizations", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "order_characterizations", fam.name)
    n = budget or default_budget()
    examined = 0
    for _ in range(n):
        s, t = fam.sample(rng), fam.sample(rng)
        examined += 1
        p_le = fam.nat_le(s, t)
        p_star = fam.nat_le(fam.inv(s), fam.inv(t))
        p_tss = fam.op(t, fam.sigma(s)) == s
        p_sst = fam.op(fam.op(s, fam.inv(s)), t) == s
        if not (p_le == p_star == p_tss == p_sst):
            return _failed("order_characterizations", sid, examined,
                           {"kind": "characterizations-disagree",
                            "s": fam.describe(s), "t": fam.describe(t),
                            "values": [p_le, p_star, p_tss, p_sst],
                            "_raw": {"s": s, "t": t}})
        # constructed witness: s' = t*eps must land below t
        eps = fam.sample_idempotent(rng)
        s2 = fam.op(t, eps)
        examined += 1
        if not fam.nat_le(s2, t):
            return _failed("order_characterizations", sid, examined,
                           {"kind": "teps-not-below-t", "t": fam.describe(t),
                            "eps": fam.describe(eps), "_raw": {"t": t, "eps": eps}})
    return _passed("order_characterizations", sid, examined)


def check_sigma_sup(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                    seed=0, budget=None) -> CheckReport:
    """If sup A exists then sup sigma(A) exists and equals sigma(sup A)."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        examined = 0
        for A, v in _sup_instances(S):
            examined += 1
            if sup_finite(S, [S.sigma[a] for a in A]) != S.sigma[v]:
                return _failed("sigma_sup", sid, examined,
                               {"kind": "sigma-sup", "A": list(A), "sup": v,
                                "_raw": {"A": list(A)}})
        return _passed("sigma_sup", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "sigma_sup", fam.name)
    n = (budget or default_budget()) // 10
    examined = 0
    for _ in range(max(n, 200)):
        t = fam.sample(rng)
        A = [fam.op(t, fam.sample_idempotent(rng)) for _ in range(3)] + [t]
        examined += 1
        st = fam.sigma(t)
        for a in A:
            if not fam.nat_le(fam.sigma(a), st):
                return _failed("sigma_sup", sid, examined,
                               {"kind": "sigma-not-monotone-at-max",
                                "t": fam.describe(t), "a": fam.describe(a),
                                "_raw": {"t": t, "a": a}})
    for cw in fam.witnesses:
        if cw.sup_in_s is None:
            continue
        ssup = fam.sigma(cw.sup_in_s)
        for a in chain_members(cw, depth):
            examined += 1
            if not fam.nat_le(fam.sigma(a), ssup):
                return _failed("sigma_sup", sid, examined,
                               {"kind": "sigma-image-escapes-sup", "chain": cw.name,
                                "a": fam.describe(a), "_raw": {"chain": cw, "a": a}})
    return _passed("sigma_sup", sid, examined)


def check_conditional_distributivity(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                     seed=0, budget=None) -> CheckReport:
    """If sup A exists and a a* <= s* s for all a, then sup(sA) = s sup A."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S, up = subject, subject.up_masks()
        examined = 0
        sup_of = functools.cache(lambda image: sup_finite(S, bits(image)))  # by mask
        for A, v in _sup_instances(S):
            hyp = -1  # bit t is set iff a a* <= t for every a in A
            for a in A:
                hyp &= up[S.mul(a, S.inv[a])]
            for s in (s for s in range(S.n) if (hyp >> S.sigma[s]) & 1):
                examined += 1
                if sup_of(mask_of(S.table[s][a] for a in A)) != S.mul(s, v):
                    return _failed("conditional_distributivity", sid, examined,
                                   {"kind": "cond-distr", "A": list(A), "s": s,
                                    "_raw": {"A": list(A), "s": s}})
        return _passed("conditional_distributivity", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "cond_distr", fam.name)
    examined = 0
    pool = _elem_pool(fam, rng, 10)
    for cw in fam.witnesses:
        d = cw.sup_in_s
        if d is None:
            continue  # no sup in S: the lemma's hypothesis fails
        ms = chain_members(cw, depth)
        for s in pool:
            tgt = fam.sigma(s)
            if not all(fam.nat_le(fam.op(a, fam.inv(a)), tgt) for a in ms):
                continue
            top = fam.op(s, d)
            for a in ms:
                examined += 1
                if not fam.nat_le(fam.op(s, a), top):
                    return _failed("conditional_distributivity", sid, examined,
                                   {"kind": "cond-distr-chain", "chain": cw.name,
                                    "s": fam.describe(s), "a": fam.describe(a),
                                    "_raw": {"chain": cw, "s": s, "a": a}})
    for _ in range(300):
        t = fam.sample(rng)
        A = [fam.op(t, fam.sample_idempotent(rng)) for _ in range(2)] + [t]
        s = fam.sample(rng)
        tgt = fam.sigma(s)
        if not all(fam.nat_le(fam.op(a, fam.inv(a)), tgt) for a in A):
            continue
        examined += 1
        top = fam.op(s, t)
        for a in A:
            if not fam.nat_le(fam.op(s, a), top):
                return _failed("conditional_distributivity", sid, examined,
                               {"kind": "cond-distr-finite", "t": fam.describe(t),
                                "s": fam.describe(s), "a": fam.describe(a),
                                "_raw": {"t": t, "s": s, "a": a}})
    return _passed("conditional_distributivity", sid, examined)


def check_greatest_of_translate(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                seed=0, budget=None) -> CheckReport:
    """d is the greatest element of D d* d for directed D and d in D.

    On a finite carrier a directed D lies below its maximum m, and any
    x, d <= m form the directed set {x, d, m}; so x, d <= m are checked.
    """
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        P = _sig_data(S)[0]
        examined = 0
        for m in range(S.n):
            below = list(bits(P.down[m]))
            for d in below:
                examined += 1
                e = S.sigma[d]
                if S.mul(d, e) != d:
                    return _failed("greatest_of_translate", sid, examined,
                                   {"kind": "d-not-in-translate", "D": [d, m], "d": d,
                                    "_raw": {"D": [d, m], "d": d}})
                for x in below:
                    if not S.le(S.mul(x, e), d):
                        D = [x, d, m]
                        return _failed("greatest_of_translate", sid, examined,
                                       {"kind": "translate-escapes-d", "D": D,
                                        "d": d, "x": x, "_raw": {"D": D, "d": d, "x": x}})
        return _passed("greatest_of_translate", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "greatest_translate", fam.name)
    examined = 0
    for cw in fam.witnesses:
        ms = chain_members(cw, min(depth, 16))
        for d in ms:
            m = fam.sigma(d)
            examined += 1
            if fam.op(d, m) != d:
                return _failed("greatest_of_translate", sid, examined,
                               {"kind": "d-not-in-translate", "chain": cw.name,
                                "d": fam.describe(d), "_raw": {"chain": cw, "d": d}})
            for x in ms:
                if not fam.nat_le(fam.op(x, m), d):
                    return _failed("greatest_of_translate", sid, examined,
                                   {"kind": "translate-escapes-d", "chain": cw.name,
                                    "d": fam.describe(d), "x": fam.describe(x),
                                    "_raw": {"chain": cw, "d": d, "x": x}})
    for _ in range(300):
        t = fam.sample(rng)
        D = [fam.op(t, fam.sample_idempotent(rng)) for _ in range(2)] + [t]
        for d in D:
            m = fam.sigma(d)
            examined += 1
            if fam.op(d, m) != d or not all(fam.nat_le(fam.op(x, m), d) for x in D):
                return _failed("greatest_of_translate", sid, examined,
                               {"kind": "translate-finite", "d": fam.describe(d),
                                "_raw": {"D": D, "d": d}})
    return _passed("greatest_of_translate", sid, examined)


def check_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                 seed=0, budget=None) -> CheckReport:
    """Directed subsets of Sigma with a sup in Sigma keep that sup in S."""
    sid = subject_id or _subject_name(subject)
    ok, ce, n = _mirror(subject, depth, seed)
    notes = "" if isinstance(subject, FiniteInvSemigroup) else \
        "chain witnesses + reduced route agree"
    return _verdict("mirror", sid, n, ok, ce, notes)


def check_meet_continuity_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                 seed=0, budget=None) -> CheckReport:
    """S separately Scott-continuous iff Sigma meet-continuous (mirror S)."""
    sid = subject_id or _subject_name(subject)
    ok, _ce, n0 = _mirror(subject, depth, seed)
    if not ok:
        return _na("meet_continuity_mirror", sid, "subject is not mirror")
    ssc_ok, ssc_ce, n1 = _ssc(subject, depth, seed)
    if isinstance(subject, FiniteInvSemigroup):
        mc_ok, mc_ce, n2 = _finite_meet_continuous(subject)
    else:
        mc_ok, mc_ce, n2 = _family_meet_continuous(
            subject, _rng(seed, "meet_cont", subject.name), depth)
    return _verdict("meet_continuity_mirror", sid, n0 + n1 + n2, ssc_ok == mc_ok,
                    {"kind": "meet-cont-biconditional", "ssc": ssc_ok,
                     "meet_continuous": mc_ok, "_raw": {"ssc_ce": ssc_ce, "mc_ce": mc_ce}},
                    f"ssc={ssc_ok}, meet-continuous={mc_ok}")


def _ssc_mirror_gate(suite: str, subject, sid, depth: int, seed: int):
    """The hypotheses of the way-below suites: an oracle, mirror and ssc.
    Returns (examined, None) when they hold, else (0, not-applicable report)."""
    if not _oracles(subject):
        return 0, _na(suite, sid, "no way-below oracle installed")
    mirror_ok, _c, n0 = _mirror(subject, depth, seed)
    ssc_ok, _c2, n1 = _ssc(subject, depth, seed)
    if not (mirror_ok and ssc_ok):
        return 0, _na(suite, sid, "not a ssc mirror subject")
    return n0 + n1, None


def check_wb_characterization(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                              seed=0, budget=None) -> CheckReport:
    """s << t iff s <= t and sigma(s) way-below sigma(t), on ssc mirror subjects."""
    sid = subject_id or _subject_name(subject)
    n0, na = _ssc_mirror_gate("wb_characterization", subject, sid, depth, seed)
    if na:
        return na
    if isinstance(subject, FiniteInvSemigroup):
        n, ce = _finite_wb_characterization(subject)
        notes = ""
    else:
        n, ce = _family_wb_characterization(subject, _rng(seed, "wb_char", subject.name),
                                            budget or default_budget(), depth)
        notes = "oracle biconditional + chain refutation"
    return _verdict("wb_characterization", sid, n0 + n, ce is None, ce, notes)


def _finite_wb_characterization(S: FiniteInvSemigroup, pairs=None):
    """(examined, counterexample) over the pairs (s, t), by default every
    pair, from the way-below matrices."""
    PS, Psig, _sig, sig_index = _sig_data(S)
    wbS = _poset.way_below_matrix(PS)
    wbSig = _poset.way_below_matrix(Psig)
    examined = 0
    for s, t in pairs or product(range(S.n), repeat=2):
        examined += 1
        lhs = bool((wbS[s] >> t) & 1)
        si, ti = sig_index[S.sigma[s]], sig_index[S.sigma[t]]
        rhs = S.le(s, t) and bool((wbSig[si] >> ti) & 1)
        if lhs != rhs:
            return examined, {"kind": "wb-char", "s": s, "t": t,
                              "lhs": lhs, "rhs": rhs, "_raw": {"s": s, "t": t}}
    return examined, None


def _family_wb_characterization(fam: SymbolicFamily, rng: random.Random, n: int, depth: int):
    """(examined, counterexample) over n sampled pairs: the oracle biconditional,
    then chain refutation of each side's answer."""
    for examined in range(1, n + 1):
        s, t = fam.sample(rng), fam.sample(rng)
        if rng.random() < 0.3:
            s = fam.op(t, fam.sample_idempotent(rng))  # force comparable pairs too
        e, d = fam.sigma(s), fam.sigma(t)
        lhs, wb_e = fam.wb_s(s, t), fam.wb_sigma(e, d)
        rhs = fam.nat_le(s, t) and wb_e
        if lhs != rhs:
            return examined, {"kind": "wb-char", "s": fam.describe(s),
                              "t": fam.describe(t), "lhs": lhs, "rhs": rhs,
                              "_raw": {"s": s, "t": t}}
        bad = (_wb_refutation(fam, _S, s, t, lhs, depth)
               or _wb_refutation(fam, _SIGMA, e, d, wb_e, depth))
        if bad is not None:
            return examined, bad
    return n, None


def check_multiplicativity_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                  seed=0, budget=None) -> CheckReport:
    """Way-below multiplicative on S iff multiplicative on Sigma."""
    sid = subject_id or _subject_name(subject)
    n0, na = _ssc_mirror_gate("multiplicativity_mirror", subject, sid, depth, seed)
    if na:
        return na
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        PS, Psig, sig, sig_index = _sig_data(S)
        multS = _poset.way_below_multiplicative(PS, S.mul)
        multE = _poset.way_below_multiplicative(
            Psig, lambda i, j: sig_index[S.mul(sig[i], sig[j])])
        # (x <= y, u) triples scanned: way-below is the order on a finite poset
        n = sum(sum(bin(r).count("1") for r in P.up) * P.n for P in (PS, Psig))
        raw = {}
    else:
        rng = _rng(seed, "mult", subject.name)
        rounds = (budget or default_budget()) // 4
        multS, witS, nS = _multiplicative(subject, _S, rng, rounds)
        multE, witE, nE = _multiplicative(subject, _SIGMA, rng, rounds)
        n, raw = nS + nE, {"wit_s": witS, "wit_e": witE}
    return _verdict("multiplicativity_mirror", sid, n0 + n, multS == multE,
                    {"kind": "mult-biconditional", "mult_S": multS,
                     "mult_Sigma": multE, "_raw": raw},
                    f"mult(S)={multS}, mult(Sigma)={multE}")


def check_mirror_theorem(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                         seed=0, budget=None) -> CheckReport:
    """Continuity and algebraicity hold for S iff they hold for Sigma."""
    sid = subject_id or _subject_name(subject)
    if not _oracles(subject):
        return _na("mirror_theorem", sid,
                   "no way-below oracle installed; continuity evidence is partial")
    ok, _c, n0 = _mirror(subject, depth, seed)
    if not ok:
        return _na("mirror_theorem", sid, "subject is not mirror")
    if isinstance(subject, FiniteInvSemigroup):
        # both hold on any finite poset (see poset.is_continuous, is_algebraic)
        contS = contE = algS = algE = True
        n = 2 * (subject.n + len(idempotents(subject)))
    else:
        rng = _rng(seed, "mirror_thm", subject.name)
        contS, n1 = _continuity(subject, _S, rng, depth)
        contE, n2 = _continuity(subject, _SIGMA, rng, depth)
        algS, _w, n3 = _algebraic(subject, _S, rng)
        algE, _w2, n4 = _algebraic(subject, _SIGMA, rng)
        n = n1 + n2 + n3 + n4
    return _verdict("mirror_theorem", sid, n0 + n, contS == contE and algS == algE,
                    {"kind": "mirror-theorem", "cont_S": contS, "cont_Sigma": contE,
                     "alg_S": algS, "alg_Sigma": algE, "_raw": {}},
                    f"continuous={contS}, algebraic={algS}")


def check_separation_criterion(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                               seed=0, budget=None) -> CheckReport:
    """The H-class separation criterion holds iff the subject is mirror."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        _PS, Psig, sig, _i = _sig_data(S)
        wbSig = _poset.way_below_matrix(Psig)
        op = S.mul
        classes = ((eps, [s for s in range(S.n) if S.sigma[s] == eps],
                    [sig[pi] for pi in range(Psig.n) if (wbSig[pi] >> ei) & 1])
                   for ei, eps in enumerate(sig))
    else:
        fam: SymbolicFamily = subject
        if fam.wb_sigma is None:
            return _na("separation_criterion", sid, "no sigma way-below oracle installed")
        rng = _rng(seed, "separation", fam.name)
        op = fam.op
        classes = (_family_h_class(fam, rng, eps, depth) for eps in _idem_pool(fam, rng, 12))
    criterion, wit, examined = True, None, 0
    for eps, H, phis in classes:
        for a, b in combinations(H, 2):
            if a == b:
                continue
            examined += 1
            if not any(op(a, phi) != op(b, phi) for phi in phis):
                criterion, wit = False, (eps, a, b)
                break
        if not criterion:
            break
    mirror_ok, _c, n0 = _mirror(subject, depth, seed)
    return _verdict("separation_criterion", sid, examined + n0, criterion == mirror_ok,
                    {"kind": "separation-biconditional", "criterion": criterion,
                     "mirror": mirror_ok, "_raw": {"wit": wit}},
                    f"criterion={criterion}, mirror={mirror_ok}")


def _family_h_class(fam: SymbolicFamily, rng: random.Random, eps, depth: int):
    """A sampled H-class of eps with its candidate separators: the canonical
    approximants of eps plus sampled idempotents way below it."""
    H = fam.h_class_sample(eps, rng, 6)
    phis = []
    for cw in fam.sigma_chains_to(eps):
        phis.extend(a for a in chain_members(cw, depth) if fam.wb_sigma(a, eps))
    phis.extend(p for p in _idem_pool(fam, rng, 10) if fam.wb_sigma(p, eps))
    return eps, H, phis


def check_continuity_implies_ssc(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                 seed=0, budget=None) -> CheckReport:
    """A continuous mirror subject must be separately Scott-continuous."""
    sid = subject_id or _subject_name(subject)
    mirror_ok, _c, n0 = _mirror(subject, depth, seed)
    n1 = 0
    if isinstance(subject, FiniteInvSemigroup):
        # a finite poset is continuous (see poset.is_continuous)
        if not mirror_ok:
            return _na("continuity_implies_ssc", sid, "not a continuous mirror subject")
    else:
        if not mirror_ok:
            return _na("continuity_implies_ssc", sid, "subject is not mirror")
        if subject.wb_s is None:
            return _na("continuity_implies_ssc", sid, "no way-below oracle installed")
        contS, n1 = _continuity(subject, _S, _rng(seed, "cont_ssc", subject.name), depth)
        if not contS:
            return _na("continuity_implies_ssc", sid, "subject is not continuous")
    ok, ce, n2 = _ssc(subject, depth, seed)
    return _verdict("continuity_implies_ssc", sid, n0 + n1 + n2, ok, ce)


def check_conditional_dcpo_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                  seed=0, budget=None) -> CheckReport:
    """Conditional directed-completeness of S iff of Sigma (mirror S).

    Both hold on a carrier: a finite directed D has a maximum m, the sup of
    D, as U(D) = U{d, m} = up(m) for d <= m.  Only the mirror gate is checked.
    """
    sid = subject_id or _subject_name(subject)
    ok, _c, n0 = _mirror(subject, depth, seed)
    if not ok:
        return _na("conditional_dcpo_mirror", sid, "subject is not mirror")
    if isinstance(subject, FiniteInvSemigroup):
        return _passed("conditional_dcpo_mirror", sid, n0, "cdc(S)=True, cdc(Sigma)=True")
    # evidence at finite scale only: bounded canonical chains carry sups
    bad = next((cw for cw in subject.witnesses if cw.upper_bounds and cw.sup_in_s is None),
               None)
    if bad is None:
        return _passed("conditional_dcpo_mirror", sid, n0,
                       notes="bounded canonical chains all carry sups (weak evidence)")
    return _failed("conditional_dcpo_mirror", sid, n0,
                   {"kind": "bounded-chain-without-sup", "chain": bad.name,
                    "_raw": {"chain": bad}})


def _subject_name(subject) -> str:
    if isinstance(subject, FiniteInvSemigroup):
        return f"carrier(n={subject.n})"
    return getattr(subject, "name", repr(subject))


SUITES: dict[str, Callable] = {
    "basic_rules": check_basic_rules,
    "order_characterizations": check_order_characterizations,
    "sigma_sup": check_sigma_sup,
    "conditional_distributivity": check_conditional_distributivity,
    "greatest_of_translate": check_greatest_of_translate,
    "mirror": check_mirror,
    "meet_continuity_mirror": check_meet_continuity_mirror,
    "wb_characterization": check_wb_characterization,
    "multiplicativity_mirror": check_multiplicativity_mirror,
    "mirror_theorem": check_mirror_theorem,
    "separation_criterion": check_separation_criterion,
    "continuity_implies_ssc": check_continuity_implies_ssc,
    "conditional_dcpo_mirror": check_conditional_dcpo_mirror,
}


def run_suite(name: str, subject, subject_id=None, **kw) -> CheckReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name](subject, subject_id, **kw)


def run_suites(subject, subject_id=None, names="all", **kw) -> list[CheckReport]:
    picked = list(SUITES) if names in ("all", None) else (
        [names] if isinstance(names, str) else list(names))
    return [run_suite(nm, subject, subject_id, **kw) for nm in picked]


# ---------------------------------------------------------------------------
# counterexample replay
# ---------------------------------------------------------------------------


def replay_counterexample(subject, report: CheckReport) -> bool:
    """Re-run the single failed instance; True iff the failure reproduces."""
    if report.verdict != "fail" or not report.counterexample:
        return False
    ce = report.counterexample
    raw = ce.get("_raw", {})
    kind = ce.get("kind", "")
    finite = isinstance(subject, FiniteInvSemigroup)
    if kind in _BASIC_KINDS:
        ops = ((subject.mul, subject.inv.__getitem__) if finite else (subject.op, subject.inv))
        return kind in _basic_rules_broken(*ops, subject.is_idempotent, raw["s"],
                                           raw.get("t", raw["s"]))
    if finite:
        S = subject
        if kind == "mirror-finite":
            delta, u = raw.get("delta"), raw.get("u")
            if u is not None:
                return not S.le(delta, u)
            return not all(S.le(a, delta) for a in raw["Delta"])
        if kind in ("sigma-sup", "cond-distr"):
            A, v = raw["A"], sup_finite(S, raw["A"])
            if kind == "sigma-sup":
                return v is not None and sup_finite(S, [S.sigma[a] for a in A]) != S.sigma[v]
            s = raw["s"]
            return (v is not None and all(S.le(S.mul(a, S.inv[a]), S.sigma[s]) for a in A)
                    and sup_finite(S, [S.mul(s, a) for a in A]) != S.mul(s, v))
        if kind == "wb-char":
            return _finite_wb_characterization(S, [(raw["s"], raw["t"])])[1] is not None
        # the collapsed kinds: a directed set below its last member m, plus s or eps
        if kind == "ssc-finite":
            (d, m), s = raw["D"], raw["s"]
            return S.le(d, m) and not S.le(S.mul(d, s), S.mul(m, s))
        if kind == "meet-continuity-finite":
            (a, m), eps = raw["Delta"], raw["eps"]
            return (all(S.is_idempotent(x) for x in (a, m, eps)) and S.le(a, m)
                    and not S.le(S.mul(eps, a), S.mul(eps, m)))
        if kind in ("d-not-in-translate", "translate-escapes-d"):
            *D, m = raw["D"]
            d, e = raw["d"], S.sigma[raw["d"]]
            broken = (S.mul(d, e) != d if kind == "d-not-in-translate"
                      else not S.le(S.mul(raw["x"], e), d))
            return all(S.le(x, m) for x in D) and broken
        if kind == "characterizations-disagree":
            s, t, idem = raw["s"], raw["t"], idempotents(S)
            return len(set(_order_values(S, s, t, any(S.mul(t, e) == s for e in idem),
                                         any(S.mul(e, t) == s for e in idem)))) != 1
        return True  # other finite kinds carry their full data in the report
    fam: SymbolicFamily = subject
    if kind == "mirror-family":
        cw, delta, u = raw["chain"], raw["delta"], raw["u"]
        return _dominates(fam, u, cw, DEFAULT_DEPTH) and not fam.nat_le(delta, u)
    if kind == "not-reduced":
        eps, s = raw["eps"], raw["s"]
        return (fam.is_idempotent(eps) and fam.nat_le(eps, s)
                and not fam.is_idempotent(s))
    if kind == "wb-char":
        s, t = raw["s"], raw["t"]
        lhs = fam.wb_s(s, t)
        rhs = fam.nat_le(s, t) and fam.wb_sigma(fam.sigma(s), fam.sigma(t))
        return lhs != rhs
    for side in (_S, _SIGMA):
        if kind in side.kinds:
            s, t = (raw[k] for k in side.keys)
            bad = _wb_refutation(fam, side, s, t, getattr(fam, side.wb)(s, t), DEFAULT_DEPTH)
            return bad is not None and bad["kind"] == kind
    return True
