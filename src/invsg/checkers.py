"""Executable property suites for finite carriers and symbolic families.

Each suite checks one lemma/proposition/theorem-shaped law and returns a
CheckReport.  "not-applicable" is a first-class verdict: laws with
hypotheses (mirror, separate Scott-continuity, installed way-below oracles)
must not report vacuous passes.

Every finite verdict follows from validation.  The carrier constructor runs
Light's associativity test and checks unique inverses and commuting
idempotents, so each carrier is a finite inverse semigroup, on which every
law holds by the lemma in its suite's docstring (Lawson, Inverse
Semigroups, 1998; Gierz et al., Continuous Lattices and Domains, 2003).
So a carrier passes every suite with budget 0, and its notes name both
sides of each biconditional.  The scans that once checked these laws on
carriers are kept in the tests, as references.

Families are checked exactly on sampled instances and at bounded depth
along their canonical chains; every fail carries a replayable
counterexample.  A law with an S side and a Sigma side is written once
over a ``_Side`` record of that side's oracles.
"""

from __future__ import annotations

import os
import random
import weakref
import zlib
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .core import FiniteInvSemigroup
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


# The gates of each family, keyed by identity: a copy with a replaced oracle
# gets its own entry, and an entry goes with its family.
_GATE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _memo(subject, key, compute):
    """``compute()``, once per subject and key."""
    per = _GATE_CACHE.setdefault(subject, {})
    if key not in per:
        per[key] = compute()
    return per[key]


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


def _hypothesis(kind: str, family):
    """The accessor of one family hypothesis: (ok, counterexample, examined),
    memoized, and deterministic in (family, depth, seed)."""
    def check(fam: SymbolicFamily, depth: int, seed: int):
        return _memo(fam, (kind, depth, seed), lambda: family(
            fam, _rng(seed, f"{kind}-gate", fam.name), depth))
    return check


_mirror = _hypothesis("mirror", _family_mirror)
_ssc = _hypothesis("ssc", _family_ssc)


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


def _lemma(notes: str = ""):
    """Make a family check a suite whose carrier verdict is its lemma: pass,
    with ``notes`` and nothing examined, as validation makes each carrier an
    inverse semigroup on which the law holds."""
    def suite(family_check):
        name = family_check.__name__.removeprefix("check_")

        def check(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                  seed=0, budget=None) -> CheckReport:
            sid = subject_id or _subject_name(subject)
            if isinstance(subject, FiniteInvSemigroup):
                return _passed(name, sid, 0, notes)
            return family_check(subject, sid, depth, seed, budget)
        check.__name__ = check.__qualname__ = family_check.__name__
        check.__doc__ = family_check.__doc__
        return check
    return suite


_BASIC_KINDS = ("ss*-not-idempotent", "s*s-not-idempotent", "star-not-involution",
                "antihomomorphism", "idempotent-not-self-inverse")


def _basic_rules_broken(op, inv, is_idem, s, t) -> list:
    """The kinds of the basic rules that fail at (s, t), in the suite's order."""
    holds = (is_idem(op(s, inv(s))), is_idem(op(inv(s), s)), inv(inv(s)) == s,
             inv(op(s, t)) == op(inv(t), inv(s)), not is_idem(s) or inv(s) == s)
    return [kind for kind, ok in zip(_BASIC_KINDS, holds) if not ok]


@_lemma()
def check_basic_rules(fam: SymbolicFamily, sid, depth, seed, budget) -> CheckReport:
    """s s* and s* s idempotent; (s*)* = s; (s t)* = t* s*; s* = s on idempotents.

    Lemma: these are identities of every inverse semigroup (Lawson, Inverse
    Semigroups, 1998, 1.4).
    """
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


@_lemma()
def check_order_characterizations(fam: SymbolicFamily, sid, depth, seed,
                                  budget) -> CheckReport:
    """The five equivalent forms of the intrinsic order agree pairwise: s in tE,
    t* s s* = s*, t s* s = s, s in Et and s s* t = s.

    Lemma: the forms of the natural partial order are equivalent in every
    inverse semigroup (Lawson, 1998, 1.4).
    """
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


@_lemma()
def check_sigma_sup(fam: SymbolicFamily, sid, depth, seed, budget) -> CheckReport:
    """If sup A exists then sup sigma(A) exists and equals sigma(sup A).

    Lemma: in an inverse semigroup an existing sup commutes with
    s -> s* s (Lawson, 1998, 1.4).
    """
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


@_lemma()
def check_conditional_distributivity(fam: SymbolicFamily, sid, depth, seed,
                                     budget) -> CheckReport:
    """If sup A exists and a a* <= s* s for all a, then sup(sA) = s sup A.

    Lemma: in an inverse semigroup multiplication distributes over every
    existing sup (Lawson, 1998, 1.4); the hypothesis only narrows the
    instances.
    """
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


@_lemma()
def check_greatest_of_translate(fam: SymbolicFamily, sid, depth, seed,
                                budget) -> CheckReport:
    """d is the greatest element of D d* d for directed D and d in D.

    Lemma: a finite directed D lies below its maximum m (Gierz et al.,
    2003), and d <= m gives d = m d* d; so each x in D has x d* d <= m d* d
    = d, as the order is compatible with multiplication (Lawson, 1998, 1.4),
    and d d* d = d lies in D d* d.
    """
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


@_lemma()
def check_mirror(fam: SymbolicFamily, sid, depth, seed, budget) -> CheckReport:
    """Directed subsets of Sigma with a sup in Sigma keep that sup in S.

    Lemma: a finite directed Delta contains its maximum delta (Gierz et al.,
    2003), its sup in Sigma and in S, as Delta and delta have the same
    upper bounds.
    """
    ok, ce, n = _mirror(fam, depth, seed)
    return _verdict("mirror", sid, n, ok, ce, "chain witnesses + reduced route agree")


@_lemma("ssc=True, meet-continuous=True")
def check_meet_continuity_mirror(fam: SymbolicFamily, sid, depth, seed,
                                 budget) -> CheckReport:
    """S separately Scott-continuous iff Sigma meet-continuous (mirror S).

    Lemma: both sides hold on a carrier.  A finite directed D has a maximum
    m, its sup (Gierz et al., 2003), and d <= m gives d s <= m s and
    eps d <= eps m, as the order is compatible with multiplication (Lawson,
    1998, 1.4); so sup(D s) = (sup D) s, and on Sigma, where the meet is
    the product, eps sup D = sup(eps D).
    """
    ok, _ce, n0 = _mirror(fam, depth, seed)
    if not ok:
        return _na("meet_continuity_mirror", sid, "subject is not mirror")
    ssc_ok, ssc_ce, n1 = _ssc(fam, depth, seed)
    mc_ok, mc_ce, n2 = _family_meet_continuous(fam, _rng(seed, "meet_cont", fam.name), depth)
    return _verdict("meet_continuity_mirror", sid, n0 + n1 + n2, ssc_ok == mc_ok,
                    {"kind": "meet-cont-biconditional", "ssc": ssc_ok,
                     "meet_continuous": mc_ok, "_raw": {"ssc_ce": ssc_ce, "mc_ce": mc_ce}},
                    f"ssc={ssc_ok}, meet-continuous={mc_ok}")


def _ssc_mirror_gate(suite: str, fam: SymbolicFamily, sid, depth: int, seed: int):
    """The hypotheses of the way-below suites: both oracles, mirror and ssc.
    Returns (examined, None) when they hold, else (0, not-applicable report)."""
    if fam.wb_s is None or fam.wb_sigma is None:
        return 0, _na(suite, sid, "no way-below oracle installed")
    mirror_ok, _c, n0 = _mirror(fam, depth, seed)
    ssc_ok, _c2, n1 = _ssc(fam, depth, seed)
    if not (mirror_ok and ssc_ok):
        return 0, _na(suite, sid, "not a ssc mirror subject")
    return n0 + n1, None


@_lemma()
def check_wb_characterization(fam: SymbolicFamily, sid, depth, seed,
                              budget) -> CheckReport:
    """s << t iff s <= t and sigma(s) << sigma(t), on ssc mirror subjects.

    Lemma: way-below is the order on a finite poset (Gierz et al., 2003),
    and s <= t gives s* s <= t* t (Lawson, 1998, 1.4); so both sides say
    s <= t.
    """
    n0, na = _ssc_mirror_gate("wb_characterization", fam, sid, depth, seed)
    if na:
        return na
    n, ce = _family_wb_characterization(fam, _rng(seed, "wb_char", fam.name),
                                        budget or default_budget(), depth)
    return _verdict("wb_characterization", sid, n0 + n, ce is None, ce,
                    "oracle biconditional + chain refutation")


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


@_lemma("mult(S)=True, mult(Sigma)=True")
def check_multiplicativity_mirror(fam: SymbolicFamily, sid, depth, seed,
                                  budget) -> CheckReport:
    """Way-below multiplicative on S iff multiplicative on Sigma.

    Lemma: both sides hold on a carrier.  Way-below is the order on a finite
    poset (Gierz et al., 2003), and x <= y gives x u <= y u and u x <= u y
    (Lawson, 1998, 1.4), which give the law (see
    ``poset.way_below_multiplicative``).
    """
    n0, na = _ssc_mirror_gate("multiplicativity_mirror", fam, sid, depth, seed)
    if na:
        return na
    rng = _rng(seed, "mult", fam.name)
    rounds = (budget or default_budget()) // 4
    multS, witS, nS = _multiplicative(fam, _S, rng, rounds)
    multE, witE, nE = _multiplicative(fam, _SIGMA, rng, rounds)
    return _verdict("multiplicativity_mirror", sid, n0 + nS + nE, multS == multE,
                    {"kind": "mult-biconditional", "mult_S": multS,
                     "mult_Sigma": multE, "_raw": {"wit_s": witS, "wit_e": witE}},
                    f"mult(S)={multS}, mult(Sigma)={multE}")


@_lemma("continuous=True, algebraic=True")
def check_mirror_theorem(fam: SymbolicFamily, sid, depth, seed, budget) -> CheckReport:
    """Continuity and algebraicity hold for S iff they hold for Sigma.

    Lemma: both hold on a carrier and on its Sigma.  Way-below is the order
    on a finite poset, so every element is compact and is the maximum of the
    directed set of elements below it (Gierz et al., 2003).
    """
    if fam.wb_s is None or fam.wb_sigma is None:
        return _na("mirror_theorem", sid,
                   "no way-below oracle installed; continuity evidence is partial")
    ok, _c, n0 = _mirror(fam, depth, seed)
    if not ok:
        return _na("mirror_theorem", sid, "subject is not mirror")
    rng = _rng(seed, "mirror_thm", fam.name)
    contS, n1 = _continuity(fam, _S, rng, depth)
    contE, n2 = _continuity(fam, _SIGMA, rng, depth)
    algS, _w, n3 = _algebraic(fam, _S, rng)
    algE, _w2, n4 = _algebraic(fam, _SIGMA, rng)
    return _verdict("mirror_theorem", sid, n0 + n1 + n2 + n3 + n4,
                    contS == contE and algS == algE,
                    {"kind": "mirror-theorem", "cont_S": contS, "cont_Sigma": contE,
                     "alg_S": algS, "alg_Sigma": algE, "_raw": {}},
                    f"continuous={contS}, algebraic={algS}")


@_lemma("criterion=True, mirror=True")
def check_separation_criterion(fam: SymbolicFamily, sid, depth, seed,
                               budget) -> CheckReport:
    """The H-class separation criterion holds iff the subject is mirror.

    Lemma: a carrier is mirror (see ``check_mirror``) and meets the
    criterion.  In a finite Sigma eps << eps (Gierz et al., 2003), and
    distinct a, b with a* a = b* b = eps give a eps = a != b = b eps.
    """
    if fam.wb_sigma is None:
        return _na("separation_criterion", sid, "no sigma way-below oracle installed")
    rng = _rng(seed, "separation", fam.name)
    criterion, wit, examined = True, None, 0
    for eps in _idem_pool(fam, rng, 12):
        H, phis = _family_h_class(fam, rng, eps, depth)
        for a, b in combinations(H, 2):
            if a == b:
                continue
            examined += 1
            if not any(fam.op(a, phi) != fam.op(b, phi) for phi in phis):
                criterion, wit = False, (eps, a, b)
                break
        if not criterion:
            break
    mirror_ok, _c, n0 = _mirror(fam, depth, seed)
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
    return H, phis


@_lemma()
def check_continuity_implies_ssc(fam: SymbolicFamily, sid, depth, seed,
                                 budget) -> CheckReport:
    """A continuous mirror subject must be separately Scott-continuous.

    Lemma: a carrier is continuous, mirror and separately Scott-continuous
    (see ``check_mirror_theorem``, ``check_mirror`` and
    ``check_meet_continuity_mirror``).
    """
    mirror_ok, _c, n0 = _mirror(fam, depth, seed)
    if not mirror_ok:
        return _na("continuity_implies_ssc", sid, "subject is not mirror")
    if fam.wb_s is None:
        return _na("continuity_implies_ssc", sid, "no way-below oracle installed")
    contS, n1 = _continuity(fam, _S, _rng(seed, "cont_ssc", fam.name), depth)
    if not contS:
        return _na("continuity_implies_ssc", sid, "subject is not continuous")
    ok, ce, n2 = _ssc(fam, depth, seed)
    return _verdict("continuity_implies_ssc", sid, n0 + n1 + n2, ok, ce)


@_lemma("cdc(S)=True, cdc(Sigma)=True")
def check_conditional_dcpo_mirror(fam: SymbolicFamily, sid, depth, seed,
                                  budget) -> CheckReport:
    """Conditional directed-completeness of S iff of Sigma (mirror S).

    Lemma: both hold on a carrier, as a finite directed set has a maximum,
    its sup, in S and in Sigma (Gierz et al., 2003).
    """
    ok, _c, n0 = _mirror(fam, depth, seed)
    if not ok:
        return _na("conditional_dcpo_mirror", sid, "subject is not mirror")
    # evidence at finite scale only: bounded canonical chains carry sups
    bad = next((cw for cw in fam.witnesses if cw.upper_bounds and cw.sup_in_s is None),
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
    """Re-run the single failed instance on a family; True iff the failure
    reproduces.  A carrier passes every suite by lemma, so nothing replays
    on it."""
    if (report.verdict != "fail" or not report.counterexample
            or isinstance(subject, FiniteInvSemigroup)):
        return False
    fam: SymbolicFamily = subject
    ce = report.counterexample
    raw = ce.get("_raw", {})
    kind = ce.get("kind", "")
    if kind in _BASIC_KINDS:
        return kind in _basic_rules_broken(fam.op, fam.inv, fam.is_idempotent,
                                           raw["s"], raw["t"])
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
