"""Executable property suites for finite carriers and symbolic families.

Each suite verifies one lemma/proposition/theorem-shaped law and returns a
CheckReport.  "not-applicable" is a first-class verdict: laws with
hypotheses (mirror, separate Scott-continuity, installed way-below oracles)
must not report vacuous passes.

Finite carriers are checked exhaustively.  A directed subset of a finite
poset contains its maximum, which is its sup, so each law over directed sets
is checked on the comparable pairs d <= m (Gierz et al., Continuous Lattices
and Domains, 2003); each law's docstring gives the argument.  ``sigma_sup``
and ``conditional_distributivity`` quantify over arbitrary subsets and sample
above ``_EXHAUSTIVE_SUBSET_LIMIT`` elements.  Families are checked exactly on
sampled instances and at bounded depth along their canonical chains; every
fail carries a replayable counterexample.
"""

from __future__ import annotations

import os
import random
import weakref
import zlib
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from . import poset as _poset
from .core import FiniteInvSemigroup, bits, idempotents, sup_finite
from .families.base import ChainWitness, SymbolicFamily, chain_members, iter_chain

__all__ = ["CheckReport", "SUITES", "run_suite", "run_suites",
           "replay_counterexample", "default_budget", "DEFAULT_DEPTH"]

DEFAULT_DEPTH = 64
_EXHAUSTIVE_SUBSET_LIMIT = 12      # 2^12 subsets, matching the poset module


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


def _nonempty_subsets(S: FiniteInvSemigroup, rng: random.Random, extra: int = 800):
    """Nonempty element subsets: exhaustive when 2^n is small, bounded else."""
    n = S.n
    if n <= _EXHAUSTIVE_SUBSET_LIMIT:
        for mask in range(1, 1 << n):
            yield tuple(bits(mask))
        return
    for s in range(n):
        yield (s,)
    for a, b in combinations(range(n), 2):
        yield (a, b)
    for down in _poset.order_poset(S).down:
        yield tuple(bits(down))
    for _ in range(extra):
        k = rng.randrange(3, 7)
        yield tuple(sorted(rng.sample(range(n), min(k, n))))


def _sig_data(S: FiniteInvSemigroup):
    PS = _poset.order_poset(S)
    Psig, sig = _poset.sigma_poset(S)
    sig_index = {e: i for i, e in enumerate(sig)}
    return PS, Psig, sig, sig_index


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
    PS = _poset.order_poset(S)
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


def _finite_cdc(P: _poset.FinitePoset):
    """Bounded directed sets have sups: a directed D is bounded by its
    maximum m, which is its sup iff sup{d, m} = m for each d in D."""
    for m in range(P.n):
        for d in bits(P.down[m]):
            if _poset.sup(P, [d, m]) != m:
                return False, (d, m)
    return True, None


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
    return all(fam.nat_le(a, u) for a in chain_members(cw, depth))


_GATE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _gate(fam: SymbolicFamily, kind: str, depth: int, seed: int, compute):
    """Memoized hypothesis evidence; deterministic in (family, kind, depth, seed)."""
    per = _GATE_CACHE.setdefault(fam, {})
    key = (kind, depth, seed)
    if key not in per:
        per[key] = compute()
    return per[key]


def _mirror_cached(fam: SymbolicFamily, depth: int, seed: int):
    return _gate(fam, "mirror", depth, seed,
                 lambda: _family_mirror(fam, _rng(seed, "mirror-gate", fam.name), depth))


def _ssc_cached(fam: SymbolicFamily, depth: int, seed: int):
    return _gate(fam, "ssc", depth, seed,
                 lambda: _family_ssc(fam, _rng(seed, "ssc-gate", fam.name), depth))


def _family_mirror(fam: SymbolicFamily, rng: random.Random, depth: int):
    """Chain-witness route plus the reduced sufficient condition, compared."""
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
            return False, bad, examined, False
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
        # escalate the depth before trusting a sampled dominator
        for u in _elem_pool(fam, rng, 10):
            examined += 1
            if _dominates(fam, u, cw, depth) and not fam.nat_le(delta, u):
                if _dominates(fam, u, cw, 3 * depth):
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
        return True, None, examined, False
    if failure is not None and reduced_ok:
        # the two routes disagree: reduced implies mirror
        failure = dict(failure)
        failure["route_disagreement"] = "reduced test passed but a chain refutes mirror"
        return False, failure, examined, True
    return (failure is None), failure, examined, False


def _family_reduced(fam: SymbolicFamily, rng: random.Random, budget: int = 2000):
    """Sampled reducedness: a nonzero idempotent below s forces s idempotent."""
    examined = 0
    for _ in range(budget):
        s = fam.sample(rng)
        phi = fam.sample_idempotent(rng)
        eps = fam.op(s, phi)
        examined += 1
        if not fam.is_idempotent(eps):
            continue
        if fam.zero is not None and eps == fam.zero:
            continue
        if not fam.nat_le(eps, s):
            continue
        if not fam.is_idempotent(s):
            return False, {"kind": "not-reduced", "eps": fam.describe(eps),
                           "s": fam.describe(s), "_raw": {"eps": eps, "s": s}}, examined
    # also probe the canonical chains (their members sit below the sups)
    for cw in fam.witnesses:
        for u in cw.upper_bounds:
            if fam.is_idempotent(u):
                continue
            for a in chain_members(cw, 8):
                examined += 1
                if fam.is_idempotent(a) and (fam.zero is None or a != fam.zero) \
                        and fam.nat_le(a, u):
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
        eps1 = fam.sample_idempotent(rng)
        eps2 = fam.sample_idempotent(rng)
        A = [fam.op(t, eps1), fam.op(t, eps2), t]
        s = fam.sample(rng)
        examined += 1
        top = fam.op(t, s)
        for a in A:
            if not fam.nat_le(fam.op(a, s), top):
                return False, {"kind": "ssc-family-finite", "t": fam.describe(t),
                               "s": fam.describe(s), "a": fam.describe(a),
                               "_raw": {"t": t, "s": s, "a": a}}, examined
    return True, None, examined


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_basic_rules(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                      seed=0, budget=None) -> CheckReport:
    """s s* and s* s idempotent; (s*)* = s; (s t)* = t* s*; s* = s on idempotents."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        examined = 0
        for s in range(S.n):
            for t in range(S.n):
                examined += 1
                if not S.is_idempotent(S.mul(s, S.inv[s])):
                    return _failed("basic_rules", sid, examined,
                                   {"kind": "ss*-not-idempotent", "s": s, "_raw": {"s": s}})
                if not S.is_idempotent(S.mul(S.inv[s], s)):
                    return _failed("basic_rules", sid, examined,
                                   {"kind": "s*s-not-idempotent", "s": s, "_raw": {"s": s}})
                if S.inv[S.inv[s]] != s:
                    return _failed("basic_rules", sid, examined,
                                   {"kind": "star-not-involution", "s": s, "_raw": {"s": s}})
                if S.inv[S.mul(s, t)] != S.mul(S.inv[t], S.inv[s]):
                    return _failed("basic_rules", sid, examined,
                                   {"kind": "antihomomorphism", "s": s, "t": t,
                                    "_raw": {"s": s, "t": t}})
                if S.is_idempotent(s) and S.inv[s] != s:
                    return _failed("basic_rules", sid, examined,
                                   {"kind": "idempotent-not-self-inverse", "s": s,
                                    "_raw": {"s": s}})
        return _passed("basic_rules", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "basic_rules", fam.name)
    n = budget or default_budget()
    examined = 0
    for _ in range(n):
        s, t = fam.sample(rng), fam.sample(rng)
        examined += 1
        checksums = [
            ("ss*-not-idempotent", fam.is_idempotent(fam.op(s, fam.inv(s)))),
            ("s*s-not-idempotent", fam.is_idempotent(fam.op(fam.inv(s), s))),
            ("star-not-involution", fam.inv(fam.inv(s)) == s),
            ("antihomomorphism",
             fam.inv(fam.op(s, t)) == fam.op(fam.inv(t), fam.inv(s))),
        ]
        if fam.is_idempotent(s):
            checksums.append(("idempotent-not-self-inverse", fam.inv(s) == s))
        for kind, ok in checksums:
            if not ok:
                return _failed("basic_rules", sid, examined,
                               {"kind": kind, "s": fam.describe(s), "t": fam.describe(t),
                                "_raw": {"s": s, "t": t}})
    return _passed("basic_rules", sid, examined)


def check_order_characterizations(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                  seed=0, budget=None) -> CheckReport:
    """The five equivalent forms of the intrinsic order agree pairwise."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        idem = idempotents(S)
        examined = 0
        for s in range(S.n):
            for t in range(S.n):
                examined += 1
                p_def = any(S.mul(t, e) == s for e in idem)
                p_star = S.mul(S.inv[t], S.mul(s, S.inv[s])) == S.inv[s]
                p_tss = S.mul(t, S.sigma[s]) == s
                p_eps_left = any(S.mul(e, t) == s for e in idem)
                p_sst = S.mul(S.mul(s, S.inv[s]), t) == s
                vals = (p_def, p_star, p_tss, p_eps_left, p_sst)
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
        rng = _rng(seed, "sigma_sup", sid)
        examined = 0
        for A in _nonempty_subsets(S, rng):
            v = sup_finite(S, A)
            if v is None:
                continue
            examined += 1
            sv = sup_finite(S, [S.sigma[a] for a in A])
            if sv is None or sv != S.sigma[v]:
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
        S = subject
        rng = _rng(seed, "cond_distr", sid)
        examined = 0
        for A in _nonempty_subsets(S, rng):
            v = sup_finite(S, A)
            if v is None:
                continue
            sources = [S.mul(a, S.inv[a]) for a in A]
            for s in range(S.n):
                tgt = S.sigma[s]
                if not all(S.le(src, tgt) for src in sources):
                    continue
                examined += 1
                sv = sup_finite(S, [S.mul(s, a) for a in A])
                if sv is None or sv != S.mul(s, v):
                    return _failed("conditional_distributivity", sid, examined,
                                   {"kind": "cond-distr", "A": list(A), "s": s,
                                    "_raw": {"A": list(A), "s": s}})
        return _passed("conditional_distributivity", sid, examined)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "cond_distr", fam.name)
    examined = 0
    pool = _elem_pool(fam, rng, 10)
    for cw in fam.witnesses:
        if cw.sup_in_sigma is None and cw.sup_in_s is None:
            continue
        d = cw.sup_in_s if cw.sup_in_s is not None else cw.sup_in_sigma
        if cw.sup_in_s is None:
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
        P = _poset.order_poset(S)
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
    if isinstance(subject, FiniteInvSemigroup):
        ok, ce, n = _finite_mirror(subject)
        return _verdict("mirror", sid, n, ok, ce)
    fam: SymbolicFamily = subject
    ok, ce, n, _route = _mirror_cached(fam, depth, seed)
    return _verdict("mirror", sid, n, ok, ce, "chain witnesses + reduced route agree")


def check_meet_continuity_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                 seed=0, budget=None) -> CheckReport:
    """S separately Scott-continuous iff Sigma meet-continuous (mirror S)."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        ok, _ce, n0 = _finite_mirror(S)
        if not ok:
            return _na("meet_continuity_mirror", sid, "subject is not mirror")
        ssc_ok, ssc_ce, n1 = _finite_ssc(S)
        mc_ok, mc_ce, n2 = _finite_meet_continuous(S)
        return _verdict("meet_continuity_mirror", sid, n0 + n1 + n2, ssc_ok == mc_ok,
                        {"kind": "meet-cont-biconditional", "ssc": ssc_ok,
                         "meet_continuous": mc_ok, "_raw": {"ssc_ce": ssc_ce, "mc_ce": mc_ce}},
                        f"ssc={ssc_ok}, meet-continuous={mc_ok}")
    fam: SymbolicFamily = subject
    rng = _rng(seed, "meet_cont", fam.name)
    ok, _ce, n0, _r = _mirror_cached(fam, depth, seed)
    if not ok:
        return _na("meet_continuity_mirror", sid, "subject is not mirror")
    ssc_ok, ssc_ce, n1 = _ssc_cached(fam, depth, seed)
    # meet-continuity evidence on Sigma: translate sigma-chains by idempotents
    mc_ok, mc_ce, n2 = True, None, 0
    for cw in fam.witnesses:
        if cw.sup_in_sigma is None:
            continue
        for eps in _idem_pool(fam, rng, 6):
            top = fam.op(eps, cw.sup_in_sigma)
            for a in chain_members(cw, depth):
                n2 += 1
                if not fam.nat_le(fam.op(eps, a), top):
                    mc_ok, mc_ce = False, {"kind": "meet-cont-chain", "chain": cw.name,
                                           "eps": fam.describe(eps),
                                           "a": fam.describe(a),
                                           "_raw": {"chain": cw, "eps": eps, "a": a}}
                    break
            if not mc_ok:
                break
        if not mc_ok:
            break
    return _verdict("meet_continuity_mirror", sid, n0 + n1 + n2, ssc_ok == mc_ok,
                    {"kind": "meet-cont-biconditional", "ssc": ssc_ok,
                     "meet_continuous": mc_ok, "_raw": {"ssc_ce": ssc_ce, "mc_ce": mc_ce}},
                    f"ssc={ssc_ok}, meet-continuous={mc_ok}")


def _finite_hypotheses(S: FiniteInvSemigroup):
    mirror_ok, _c, n0 = _finite_mirror(S)
    ssc_ok, _c2, n1 = _finite_ssc(S)
    return mirror_ok, ssc_ok, n0 + n1


def check_wb_characterization(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                              seed=0, budget=None) -> CheckReport:
    """s << t iff s <= t and sigma(s) way-below sigma(t), on ssc mirror subjects."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        mirror_ok, ssc_ok, n0 = _finite_hypotheses(S)
        if not (mirror_ok and ssc_ok):
            return _na("wb_characterization", sid, "not a ssc mirror subject")
        PS, Psig, sig, sig_index = _sig_data(S)
        wbS = _poset.way_below_matrix(PS)
        wbSig = _poset.way_below_matrix(Psig)
        examined = n0
        for s in range(S.n):
            for t in range(S.n):
                examined += 1
                lhs = bool((wbS[s] >> t) & 1)
                si, ti = sig_index[S.sigma[s]], sig_index[S.sigma[t]]
                rhs = S.le(s, t) and bool((wbSig[si] >> ti) & 1)
                if lhs != rhs:
                    return _failed("wb_characterization", sid, examined,
                                   {"kind": "wb-char", "s": s, "t": t,
                                    "lhs": lhs, "rhs": rhs, "_raw": {"s": s, "t": t}})
        return _passed("wb_characterization", sid, examined)
    fam: SymbolicFamily = subject
    if fam.wb_s is None or fam.wb_sigma is None:
        return _na("wb_characterization", sid, "no way-below oracle installed")
    rng = _rng(seed, "wb_char", fam.name)
    mirror_ok, _c, n0, _r = _mirror_cached(fam, depth, seed)
    ssc_ok, _c2, n1 = _ssc_cached(fam, depth, seed)
    if not (mirror_ok and ssc_ok):
        return _na("wb_characterization", sid, "not a ssc mirror subject")
    examined = n0 + n1
    n = budget or default_budget()
    for _ in range(n):
        s, t = fam.sample(rng), fam.sample(rng)
        if rng.random() < 0.3:
            s = fam.op(t, fam.sample_idempotent(rng))  # force comparable pairs too
        examined += 1
        lhs = fam.wb_s(s, t)
        rhs = fam.nat_le(s, t) and fam.wb_sigma(fam.sigma(s), fam.sigma(t))
        if lhs != rhs:
            return _failed("wb_characterization", sid, examined,
                           {"kind": "wb-char", "s": fam.describe(s),
                            "t": fam.describe(t), "lhs": lhs, "rhs": rhs,
                            "_raw": {"s": s, "t": t}})
        bad = _wb_refutation_round(fam, s, t, lhs, depth)
        if bad is None:
            e, d = fam.sigma(s), fam.sigma(t)
            bad = _wb_sigma_refutation_round(fam, e, d, fam.wb_sigma(e, d), depth)
        if bad is not None:
            return _failed("wb_characterization", sid, examined, bad)
    return _passed("wb_characterization", sid, examined,
                   notes="oracle biconditional + chain refutation")


def _wb_refutation_round(fam: SymbolicFamily, s, t, claimed: bool, depth: int) -> Optional[dict]:
    """Survival of positive way-below claims; concrete kills for negatives."""
    if claimed:
        for cw in fam.chains_to(t):
            if cw.sup_in_s is None or not fam.nat_le(t, cw.sup_in_s):
                continue
            if not any(fam.nat_le(s, a) for a in iter_chain(cw, depth)):
                return {"kind": "wb-claim-refuted", "chain": cw.name,
                        "s": fam.describe(s), "t": fam.describe(t),
                        "_raw": {"chain": cw, "s": s, "t": t}}
        return None
    cw = fam.wb_s_refuter(s, t) if fam.wb_s_refuter else None
    if cw is None:
        return {"kind": "missing-refuter", "s": fam.describe(s), "t": fam.describe(t),
                "_raw": {"s": s, "t": t}}
    if cw.sup_in_s is None or not fam.nat_le(t, cw.sup_in_s):
        return {"kind": "refuter-sup-too-small", "chain": cw.name,
                "s": fam.describe(s), "t": fam.describe(t),
                "_raw": {"chain": cw, "s": s, "t": t}}
    if any(fam.nat_le(s, a) for a in chain_members(cw, depth)):
        return {"kind": "refuter-does-not-kill", "chain": cw.name,
                "s": fam.describe(s), "t": fam.describe(t),
                "_raw": {"chain": cw, "s": s, "t": t}}
    return None


def _wb_sigma_refutation_round(fam: SymbolicFamily, e, d, claimed: bool,
                               depth: int) -> Optional[dict]:
    if claimed:
        for cw in fam.sigma_chains_to(d):
            if cw.sup_in_sigma is None or not fam.nat_le(d, cw.sup_in_sigma):
                continue
            if not any(fam.nat_le(e, a) for a in iter_chain(cw, depth)):
                return {"kind": "wb-sigma-claim-refuted", "chain": cw.name,
                        "eps": fam.describe(e), "delta": fam.describe(d),
                        "_raw": {"chain": cw, "e": e, "d": d}}
        return None
    cw = fam.wb_sigma_refuter(e, d) if fam.wb_sigma_refuter else None
    if cw is None:
        return {"kind": "missing-sigma-refuter", "eps": fam.describe(e),
                "delta": fam.describe(d), "_raw": {"e": e, "d": d}}
    if cw.sup_in_sigma is None or not fam.nat_le(d, cw.sup_in_sigma):
        return {"kind": "sigma-refuter-sup-too-small", "chain": cw.name,
                "eps": fam.describe(e), "delta": fam.describe(d),
                "_raw": {"chain": cw, "e": e, "d": d}}
    if any(fam.nat_le(e, a) for a in chain_members(cw, depth)):
        return {"kind": "sigma-refuter-does-not-kill", "chain": cw.name,
                "eps": fam.describe(e), "delta": fam.describe(d),
                "_raw": {"chain": cw, "e": e, "d": d}}
    return None


def check_multiplicativity_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                  seed=0, budget=None) -> CheckReport:
    """Way-below multiplicative on S iff multiplicative on Sigma."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        mirror_ok, ssc_ok, n0 = _finite_hypotheses(S)
        if not (mirror_ok and ssc_ok):
            return _na("multiplicativity_mirror", sid, "not a ssc mirror subject")
        PS, Psig, sig, sig_index = _sig_data(S)
        multS = _poset.way_below_multiplicative(PS, S.mul)
        multE = _poset.way_below_multiplicative(
            Psig, lambda i, j: sig_index[S.mul(sig[i], sig[j])])
        # 4-tuples scanned: way-below is the order on a finite poset
        n = n0 + sum(sum(bin(r).count("1") for r in P.up) ** 2 for P in (PS, Psig))
        return _verdict("multiplicativity_mirror", sid, n, multS == multE,
                        {"kind": "mult-biconditional", "mult_S": multS,
                         "mult_Sigma": multE, "_raw": {}},
                        f"mult(S)={multS}, mult(Sigma)={multE}")
    fam: SymbolicFamily = subject
    if fam.wb_s is None or fam.wb_sigma is None:
        return _na("multiplicativity_mirror", sid, "no way-below oracle installed")
    rng = _rng(seed, "mult", fam.name)
    mirror_ok, _c, n0, _r = _mirror_cached(fam, depth, seed)
    ssc_ok, _c2, n1 = _ssc_cached(fam, depth, seed)
    if not (mirror_ok and ssc_ok):
        return _na("multiplicativity_mirror", sid, "not a ssc mirror subject")
    n = (budget or default_budget()) // 4
    examined = n0 + n1
    multS_wit = multE_wit = None
    wb_pairs, wbsig_pairs = [], []
    while len(wb_pairs) < 40 or len(wbsig_pairs) < 40:
        t = fam.sample(rng)
        s = fam.op(t, fam.sample_idempotent(rng))
        if fam.wb_s(s, t):
            wb_pairs.append((s, t))
        e, d = fam.sigma(s), fam.sigma(t)
        if fam.wb_sigma(e, d):
            wbsig_pairs.append((e, d))
        examined += 1
        if examined - n0 - n1 > 50 * 40:
            break
    for _ in range(n):
        if not wb_pairs or not wbsig_pairs:
            break
        s, t = wb_pairs[rng.randrange(len(wb_pairs))]
        s2, t2 = wb_pairs[rng.randrange(len(wb_pairs))]
        examined += 1
        if not fam.wb_s(fam.op(s, s2), fam.op(t, t2)):
            multS_wit = (s, t, s2, t2)
            break
        e, d = wbsig_pairs[rng.randrange(len(wbsig_pairs))]
        e2, d2 = wbsig_pairs[rng.randrange(len(wbsig_pairs))]
        if not fam.wb_sigma(fam.op(e, e2), fam.op(d, d2)):
            multE_wit = (e, d, e2, d2)
            break
    multS, multE = multS_wit is None, multE_wit is None
    return _verdict("multiplicativity_mirror", sid, examined, multS == multE,
                    {"kind": "mult-biconditional", "mult_S": multS, "mult_Sigma": multE,
                     "_raw": {"wit_s": multS_wit, "wit_e": multE_wit}},
                    f"mult(S)={multS}, mult(Sigma)={multE}")


def _family_continuity(fam: SymbolicFamily, rng: random.Random, depth: int):
    """Approximation-chain evidence for continuity of S and of Sigma."""
    if fam.wb_s is None or fam.wb_sigma is None:
        return None, None, 0
    examined = 0
    contS = True
    for s in [fam.sample(rng) for _ in range(20)] + _elem_pool(fam, rng, 3):
        chains = [cw for cw in fam.chains_to(s) if cw.sup_in_s == s]
        good = False
        for cw in chains:
            ms = chain_members(cw, depth)
            examined += len(ms)
            if all(fam.wb_s(a, s) for a in ms) and all(
                    fam.nat_le(a, s) for a in ms):
                good = True
                break
        if not good:
            contS = False
            break
    contSig = True
    for e in _idem_pool(fam, rng, 20):
        chains = [cw for cw in fam.sigma_chains_to(e) if cw.sup_in_sigma == e]
        good = False
        for cw in chains:
            ms = chain_members(cw, depth)
            examined += len(ms)
            if all(fam.wb_sigma(a, e) for a in ms):
                good = True
                break
        if not good:
            contSig = False
            break
    return contS, contSig, examined


def _family_algebraic(fam: SymbolicFamily, rng: random.Random, depth: int):
    """True/False evidence for 'every element is a sup of compacts below it'."""
    examined = 0
    for s in [fam.sample(rng) for _ in range(25)] + _elem_pool(fam, rng, 3):
        examined += 1
        if fam.wb_s(s, s):
            continue  # s itself is compact: it is the sup of {s}
        # collect sampled compacts below s
        compacts = []
        for _ in range(40):
            c = fam.op(s, fam.sample_idempotent(rng))
            if fam.nat_le(c, s) and fam.wb_s(c, c):
                compacts.append(c)
        if fam.zero is not None and fam.nat_le(fam.zero, s) and fam.wb_s(fam.zero, fam.zero):
            compacts.append(fam.zero)
        distinct = []
        for c in compacts:
            if c not in distinct:
                distinct.append(c)
        if not distinct:
            return False, {"witness": fam.describe(s),
                           "why": "no compact element below the witness"}, examined
        if len(distinct) == 1 and distinct[0] != s:
            return False, {"witness": fam.describe(s),
                           "why": "the only compact below is "
                                  f"{fam.describe(distinct[0])}, whose sup misses the witness"}, examined
        # inconclusive for this s; keep scanning
    return True, None, examined


def check_mirror_theorem(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                         seed=0, budget=None) -> CheckReport:
    """Continuity and algebraicity hold for S iff they hold for Sigma."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        ok, _c, n0 = _finite_mirror(S)
        if not ok:
            return _na("mirror_theorem", sid, "subject is not mirror")
        PS, Psig, _sig, _i = _sig_data(S)
        contS, contE = _poset.is_continuous(PS), _poset.is_continuous(Psig)
        algS, algE = _poset.is_algebraic(PS), _poset.is_algebraic(Psig)
        return _verdict("mirror_theorem", sid, n0 + 2 * (S.n + Psig.n),
                        contS == contE and algS == algE,
                        {"kind": "mirror-theorem", "cont_S": contS, "cont_Sigma": contE,
                         "alg_S": algS, "alg_Sigma": algE, "_raw": {}},
                        f"continuous={contS}, algebraic={algS}")
    fam: SymbolicFamily = subject
    if fam.wb_s is None or fam.wb_sigma is None:
        return _na("mirror_theorem", sid,
                   "no way-below oracle installed; continuity evidence is partial")
    rng = _rng(seed, "mirror_thm", fam.name)
    ok, _c, n0, _r = _mirror_cached(fam, depth, seed)
    if not ok:
        return _na("mirror_theorem", sid, "subject is not mirror")
    contS, contE, n1 = _family_continuity(fam, rng, depth)
    algS, _asw, n2 = _family_algebraic(fam, rng, depth)
    algE, n3 = _sigma_algebraic(fam, rng, depth)
    return _verdict("mirror_theorem", sid, n0 + n1 + n2 + n3,
                    contS == contE and algS == algE,
                    {"kind": "mirror-theorem", "cont_S": contS, "cont_Sigma": contE,
                     "alg_S": algS, "alg_Sigma": algE, "_raw": {}},
                    f"continuous={contS}, algebraic={algS}")


def _sigma_algebraic(fam: SymbolicFamily, rng: random.Random, depth: int):
    examined = 0
    for e in _idem_pool(fam, rng, 25):
        examined += 1
        if fam.wb_sigma(e, e):
            continue
        compacts = []
        for _ in range(40):
            c = fam.op(e, fam.sample_idempotent(rng))
            if fam.nat_le(c, e) and fam.wb_sigma(c, c):
                compacts.append(c)
        if fam.zero is not None and fam.is_idempotent(fam.zero) \
                and fam.nat_le(fam.zero, e) and fam.wb_sigma(fam.zero, fam.zero):
            compacts.append(fam.zero)
        distinct = []
        for c in compacts:
            if c not in distinct:
                distinct.append(c)
        if not distinct or (len(distinct) == 1 and distinct[0] != e):
            return False, examined
    return True, examined


def check_separation_criterion(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                               seed=0, budget=None) -> CheckReport:
    """The H-class separation criterion holds iff the subject is mirror."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        PS, Psig, sig, sig_index = _sig_data(S)
        if not _poset.is_continuous(Psig):
            return _na("separation_criterion", sid, "Sigma is not continuous")
        wbSig = _poset.way_below_matrix(Psig)
        criterion = True
        wit = None
        examined = 0
        for ei, eps in enumerate(sig):
            H = [s for s in range(S.n) if S.sigma[s] == eps]
            phis = [sig[pi] for pi in range(Psig.n) if (wbSig[pi] >> ei) & 1]
            for a, b in combinations(H, 2):
                examined += 1
                if not any(S.mul(a, phi) != S.mul(b, phi) for phi in phis):
                    criterion, wit = False, (eps, a, b)
                    break
            if not criterion:
                break
        mirror_ok, _c, n0 = _finite_mirror(S)
        return _verdict("separation_criterion", sid, examined + n0, criterion == mirror_ok,
                        {"kind": "separation-biconditional", "criterion": criterion,
                         "mirror": mirror_ok, "_raw": {"wit": wit}},
                        f"criterion={criterion}, mirror={mirror_ok}")
    fam: SymbolicFamily = subject
    if fam.wb_sigma is None:
        return _na("separation_criterion", sid, "no sigma way-below oracle installed")
    rng = _rng(seed, "separation", fam.name)
    examined = 0
    criterion = True
    wit = None
    for eps in _idem_pool(fam, rng, 12):
        H = fam.h_class_sample(eps, rng, 6)
        # candidate separators: canonical approximants of eps plus samples
        phis = []
        for cw in fam.sigma_chains_to(eps):
            phis.extend(a for a in chain_members(cw, depth) if fam.wb_sigma(a, eps))
        phis.extend(p for p in _idem_pool(fam, rng, 10) if fam.wb_sigma(p, eps))
        for a, b in combinations(H, 2):
            if a == b:
                continue
            examined += 1
            if not any(fam.op(a, phi) != fam.op(b, phi) for phi in phis):
                criterion, wit = False, (eps, a, b)
                break
        if not criterion:
            break
    mirror_ok, _c, n0, _r = _mirror_cached(fam, depth, seed)
    return _verdict("separation_criterion", sid, examined + n0, criterion == mirror_ok,
                    {"kind": "separation-biconditional", "criterion": criterion,
                     "mirror": mirror_ok, "_raw": {"wit": wit}},
                    f"criterion={criterion}, mirror={mirror_ok}")


def check_continuity_implies_ssc(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                 seed=0, budget=None) -> CheckReport:
    """A continuous mirror subject must be separately Scott-continuous."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        mirror_ok, _c, n0 = _finite_mirror(S)
        PS = _poset.order_poset(S)
        if not (mirror_ok and _poset.is_continuous(PS)):
            return _na("continuity_implies_ssc", sid, "not a continuous mirror subject")
        ok, ce, n1 = _finite_ssc(S)
        return _verdict("continuity_implies_ssc", sid, n0 + n1, ok, ce)
    fam: SymbolicFamily = subject
    rng = _rng(seed, "cont_ssc", fam.name)
    mirror_ok, _c, n0, _r = _mirror_cached(fam, depth, seed)
    if not mirror_ok:
        return _na("continuity_implies_ssc", sid, "subject is not mirror")
    if fam.wb_s is None:
        return _na("continuity_implies_ssc", sid, "no way-below oracle installed")
    contS, contE, n1 = _family_continuity(fam, rng, depth)
    if not contS:
        return _na("continuity_implies_ssc", sid, "subject is not continuous")
    ok, ce, n2 = _ssc_cached(fam, depth, seed)
    return _verdict("continuity_implies_ssc", sid, n0 + n1 + n2, ok, ce)


def check_conditional_dcpo_mirror(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                                  seed=0, budget=None) -> CheckReport:
    """Conditional directed-completeness of S iff of Sigma (mirror S)."""
    sid = subject_id or _subject_name(subject)
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        ok, _c, n0 = _finite_mirror(S)
        if not ok:
            return _na("conditional_dcpo_mirror", sid, "subject is not mirror")
        PS, Psig, _sig, _ = _sig_data(S)
        okS, witS = _finite_cdc(PS)
        okE, witE = _finite_cdc(Psig)
        return _verdict("conditional_dcpo_mirror", sid, n0, okS == okE,
                        {"kind": "cdc-biconditional", "cdc_S": okS, "cdc_Sigma": okE,
                         "_raw": {"witS": witS, "witE": witE}},
                        f"cdc(S)={okS}, cdc(Sigma)={okE}")
    fam: SymbolicFamily = subject
    ok, _c, n0, _r = _mirror_cached(fam, depth, seed)
    if not ok:
        return _na("conditional_dcpo_mirror", sid, "subject is not mirror")
    # evidence at finite scale only: bounded canonical chains carry sups
    bad = None
    for cw in fam.witnesses:
        if cw.upper_bounds and cw.sup_in_s is None:
            bad = cw
            break
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
    if isinstance(subject, FiniteInvSemigroup):
        S = subject
        if kind == "mirror-finite":
            delta, u = raw.get("delta"), raw.get("u")
            if u is not None:
                return not S.le(delta, u)
            up = S.up_masks()
            ub = (1 << S.n) - 1
            for a in raw["Delta"]:
                ub &= up[a]
            return not (ub >> delta) & 1
        if kind == "sigma-sup":
            A = raw["A"]
            v = sup_finite(S, A)
            sv = sup_finite(S, [S.sigma[a] for a in A])
            return v is not None and (sv is None or sv != S.sigma[v])
        if kind == "wb-char":
            s, t = raw["s"], raw["t"]
            PS, Psig, sig, sig_index = _sig_data(S)
            wbS = _poset.way_below_matrix(PS)
            wbSig = _poset.way_below_matrix(Psig)
            lhs = bool((wbS[s] >> t) & 1)
            rhs = S.le(s, t) and bool(
                (wbSig[sig_index[S.sigma[s]]] >> sig_index[S.sigma[t]]) & 1)
            return lhs != rhs
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
    if kind in ("wb-claim-refuted", "refuter-does-not-kill"):
        cw, s = raw["chain"], raw["s"]
        hits = any(fam.nat_le(s, a) for a in chain_members(cw, DEFAULT_DEPTH))
        return hits == (kind == "refuter-does-not-kill")
    return True
