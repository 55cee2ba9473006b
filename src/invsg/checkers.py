"""Executable property suites for finite carriers and symbolic families.

Each suite checks one lemma-shaped law and returns a CheckReport; a law with
hypotheses (mirror, separate Scott-continuity, installed way-below oracles)
is "not-applicable" where they fail, never vacuously passed.

A carrier passes every suite by lemma, with budget 0: validation (Light's
associativity test, unique inverses, commuting idempotents) makes it a
finite inverse semigroup, on which each law holds by the lemma in its
suite's docstring (Lawson, Inverse Semigroups, 1998; Gierz et al.,
Continuous Lattices and Domains, 2003).  The scans that once checked these
laws on carriers are kept in the tests, as references.

Families are checked exactly on sampled instances and at bounded depth along
their canonical chains.  Each failure kind is declared once, in
``_VIOLATED``, as the test violated(fam, **instance) of the law it breaks:
the scans test their instances through it, ``_fail`` makes a violated
instance a counterexample, and ``replay_counterexample`` re-runs it.  Every
cold scan of a law with a kind is a stage of ``_scan``; loops stay only in
the three hot suites.

``classify`` gives the five mirror properties of a subject as one
Classification of Flags, each with the evidence that produced it: on a
family, a projection of the memoized gates that the suites read.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from functools import partial, wraps
from itertools import chain, combinations, pairwise, product
from typing import Callable, Optional, Union

from .core import FiniteInvSemigroup, is_reduced
from .families.base import (DEFAULT_DEPTH, ChainWitness, SymbolicFamily, below,
                            chain_limit, chain_members, iter_chain, require_positive, seeded)

__all__ = ["CheckReport", "Flag", "Classification", "SUITES", "run_suite", "run_suites",
           "classify", "replay_counterexample", "DEFAULT_BUDGET", "DEFAULT_DEPTH"]

DEFAULT_BUDGET = 10000  # sampled instances per suite when no budget is given


@dataclass
class CheckReport:
    suite: str
    subject: str
    verdict: str                      # "pass" | "fail" | "not-applicable"
    counterexample: Optional[dict] = None
    budget: int = 0
    notes: str = ""

    def to_json(self) -> dict:
        return {"suite": self.suite, "subject": self.subject, "verdict": self.verdict,
                "counterexample": _shown(self.counterexample),
                "budget": self.budget, "notes": self.notes}


@dataclass
class Flag:
    """One classification flag plus the evidence that produced it."""

    value: Optional[bool]
    evidence: str
    budget: int = 0
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out: dict = {"value": self.value, "evidence": self.evidence, "budget": self.budget}
        if self.witness is not None:
            out["witness"] = _shown(self.witness)
        return out


@dataclass
class Classification:
    subject: str
    depth: int
    seed: int
    reduced: Flag
    mirror: Flag
    continuous: Flag
    algebraic: Flag
    stably_continuous: Flag

    def flags(self) -> dict[str, Flag]:
        return {
            "reduced": self.reduced,
            "mirror": self.mirror,
            "continuous": self.continuous,
            "algebraic": self.algebraic,
            "stably_continuous": self.stably_continuous,
        }

    def values(self) -> dict[str, Optional[bool]]:
        return {k: f.value for k, f in self.flags().items()}

    def to_json(self) -> dict:
        out = {"subject": self.subject, "depth": self.depth, "seed": self.seed}
        out.update({k: f.to_json() for k, f in self.flags().items()})
        return out


def _shown(record: Optional[dict]) -> Optional[dict]:
    """A counterexample or witness as a report prints it: without ``_raw``,
    which only replay reads."""
    return record and {k: v for k, v in record.items() if k != "_raw"}


def _verdict(examined, counterexample=None, notes=""):
    """A family check's (verdict, counterexample, budget, notes): a pass with
    ``notes`` when there is no counterexample, else a fail with it.  With
    ``_na``, these give every result; ``_lemma`` adds the suite and subject."""
    if counterexample is None:
        return "pass", None, examined, notes
    return "fail", counterexample, examined, ""


def _na(notes):
    return "not-applicable", None, 0, notes


# The gates of each family, keyed by identity: a copy with a replaced oracle
# gets its own entry, and an entry goes with its family.
_GATE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _show(fam: SymbolicFamily, v):
    """A counterexample field as reports print it: a chain by its name, flags
    and notes as they are, elements as the family describes them."""
    if isinstance(v, ChainWitness):
        return v.name
    if isinstance(v, (bool, str)):
        return v
    if isinstance(v, list):
        return [_show(fam, x) for x in v]
    return fam.describe(v)


def _fail(fam: SymbolicFamily, kind: str, *args, **named) -> dict:
    """The counterexample of a violated instance of ``kind``, whose arguments
    are given as to its law, in order or by name.  Each is shown, except None
    values and ``_``-prefixed ones, which only replay reads, and all are kept
    by name as ``_raw``.  An undeclared kind raises KeyError."""
    code = _VIOLATED[kind].__code__
    names = code.co_varnames[1:code.co_argcount][:len(args)]
    instance = {**dict(zip(names, args, strict=True)), **named}
    shown = {k: _show(fam, v) for k, v in instance.items()
             if v is not None and not k.startswith("_")}
    return {"kind": kind, **shown, "_raw": instance}


def _violated(fam: SymbolicFamily, counterexample: dict) -> bool:
    return _VIOLATED[counterexample["kind"]](fam, **counterexample["_raw"])


def _scan(fam: SymbolicFamily, *stages) -> tuple:
    """(examined, counterexample): each stage (kind, instances) in order, the
    law of ``kind`` tested on each of ``instances``, its positional arguments
    as tuples from a lazy generator, so that draws and early exit are a
    loop's.  Each instance tested counts; the first violated one is the
    counterexample, None if none is.

    Loops stay only in the three hot suites, where a generator step and a
    call per instance would cost: basic_rules tests five kinds a pair, order
    characterizations interleave two kinds per draw, and wb_characterization
    refutes each side's answer, a refutation picking its kind."""
    examined = 0
    for kind, instances in stages:
        violated = partial(_VIOLATED[kind], fam)
        for examined, args in enumerate(instances, examined + 1):
            if violated(*args):
                return examined, _fail(fam, kind, *args)
    return examined, None


def _sup_chains(fam: SymbolicFamily, depth: int):
    """(chain, its members to ``depth``) for each witness chain with a sup in
    S, lazily: a chain without one fails the hypotheses of the chain laws."""
    return ((cw, chain_members(cw, depth)) for cw in fam.witnesses if cw.sup_in_s is not None)


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


def _translates(fam: SymbolicFamily, rng: random.Random, k: int) -> tuple:
    """A sampled t and k translates t*eps, plus t: a finite directed set
    whose maximum is t."""
    t = fam.sample(rng)
    return t, [fam.op(t, fam.sample_idempotent(rng)) for _ in range(k)] + [t]


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
    """One side of a mirror law on a family, S or its idempotents Sigma, so
    that the law is written once: ``sample``/``pool`` draw one element, or k
    plus the canonical witnesses; ``wb``, ``chains_to`` and ``sup`` name the
    family's oracles and ChainWitness field for the side; ``keys`` label a
    way-below pair, and ``kinds`` name its refutations: claim refuted,
    refuter missing, refuter sup too small, does not kill."""

    sample: Callable
    pool: Callable
    wb: str
    chains_to: str
    sup: str
    keys: tuple
    kinds: tuple


_S = _Side(lambda fam, rng: fam.sample(rng),
           lambda fam, rng, k: _elem_pool(fam, rng, k + 3),
           "wb_s", "chains_to", "sup_in_s", ("s", "t"),
           ("wb-claim-refuted", "missing-refuter", "refuter-sup-too-small",
            "refuter-does-not-kill"))
_SIGMA = _Side(lambda fam, rng: fam.sample_idempotent(rng), _idem_pool,
               "wb_sigma", "sigma_chains_to", "sup_in_sigma", ("eps", "delta"),
               ("wb-sigma-claim-refuted", "missing-sigma-refuter",
                "sigma-refuter-sup-too-small", "sigma-refuter-does-not-kill"))


def _on_chain(cw: ChainWitness, a, depth: int) -> bool:
    """a is a member of cw up to the depth."""
    return a in iter_chain(cw, depth)


def _dominates(fam: SymbolicFamily, u, cw: ChainWitness, depth: int) -> bool:
    return all(fam.nat_le(a, u) for a in iter_chain(cw, depth))


def _hypothesis(family):
    """Make a family check the gate that the suites and ``classify`` read: per
    (fam, depth, seed) plus the side and budget it reads, one (ok, evidence,
    examined), on its own rng, by ``__wrapped__`` (tests count it) into ``_GATE_CACHE``."""
    kind = family.__name__.removeprefix("_family_").lstrip("_")
    @wraps(family)
    def check(fam: SymbolicFamily, depth: int, seed: int, *more):
        per, key = _GATE_CACHE.setdefault(fam, {}), (kind, depth, seed, *more)
        if key not in per:
            rng = seeded(seed, f"{kind}-gate", fam.name, *(side.wb for side in more[:1]))
            per[key] = check.__wrapped__(fam, *more, rng, depth, seed)
        return per[key]
    return check


@_hypothesis
def _family_mirror(fam: SymbolicFamily, rng: random.Random, depth: int, seed: int):
    """Chain-witness route plus the reduced sufficient condition, compared.

    Each chain with a sup in Sigma is one scan: its claims on its members up
    to ``depth``, then its listed bounds and sampled elements, each of which
    must lie above the sup if it dominates the chain.  A sampled dominator
    is confirmed at the deepest index any check reads, so a depth whose
    chains cannot be computed that far (``TooLarge``) is refused before
    anything is scanned.
    """
    deepest = chain_limit(depth)
    for cw in fam.witnesses:
        cw.member(deepest)
    examined = 0
    failure = None
    chains = [*fam.witnesses, *(cw for eps in _idem_pool(fam, rng, 6)
                                for cw in fam.sigma_chains_to(eps))]
    for cw in (cw for cw in chains if cw.sup_in_sigma is not None):
        ms = chain_members(cw, depth)
        claims = [(name, sup) for name, sup in (("sup_in_sigma", cw.sup_in_sigma),
                                                ("sup_in_s", cw.sup_in_s)) if sup is not None]
        n, failure = _scan(
            fam, ("chain-not-monotone", ((cw, a, b, depth) for a, b in pairwise(ms))),
            ("chain-not-idempotent", ((cw, a, depth) for a in ms)),
            ("claimed-sup-not-upper-bound",
             ((cw, name, a, sup, depth) for (name, sup), a in product(claims, ms))),
            ("claimed-upper-bound-fails",
             ((cw, a, u, depth) for u, a in product(cw.upper_bounds, ms))),
            # the pool is drawn as the stage is built; a failure ends the
            # gate's draws, so those that reach a verdict are a loop's
            ("mirror-family", chain(((cw, u, DEFAULT_DEPTH) for u in cw.upper_bounds),
                                    ((cw, u, deepest) for u in _elem_pool(fam, rng, 10)))))
        examined += n
        if failure is not None:
            break
    if failure is not None and failure["kind"] != "mirror-family":
        return False, failure, examined
    reduced_ok, _red_ce, red_n = _family_reduced(fam, depth, seed)
    if failure is not None:
        # the two routes disagree when the reduced test passes: reduced
        # implies mirror (it is only sufficient, so a failed reduced test
        # concludes nothing)
        cw, u, at = failure["_raw"].values()  # chain, bad_bound, _depth
        listed = u in cw.upper_bounds
        failure = _fail(
            fam, "mirror-family", chain=cw, sup_in_sigma=cw.sup_in_sigma,
            upper_bounds=list(cw.upper_bounds) if listed else None, bad_bound=u,
            incomparable_with_sup=not fam.nat_le(u, cw.sup_in_sigma) if listed else None,
            why=("upper bound in S not above the sigma-sup; no sup in S" if listed
                 else "sampled upper bound not above the sigma-sup"),
            route_disagreement=("reduced test passed but a chain refutes mirror"
                                if reduced_ok else None), _depth=at)
    return (failure is None), failure, examined + red_n


@_hypothesis
def _family_reduced(fam: SymbolicFamily, rng: random.Random, depth: int, *_):
    """Reducedness, a nonzero idempotent below s forces s idempotent, on 2000
    sampled pairs s eps <= s, then on chain members to ``depth`` below a
    bound s."""
    examined, ce = _scan(fam, ("not-reduced", chain(
        ((fam.op(s, fam.sample_idempotent(rng)), s)
         for _ in range(2000) for s in [fam.sample(rng)]),
        ((a, u) for cw in fam.witnesses for u in cw.upper_bounds
         if not fam.is_idempotent(u) for a in chain_members(cw, depth)))))
    return ce is None, ce, examined


@_hypothesis
def _family_ssc(fam: SymbolicFamily, rng: random.Random, depth: int, *_):
    """Separate Scott-continuity evidence: translation respects chain sups,
    and on finite directed sets t eps, whose sup is their maximum t."""
    pool = _elem_pool(fam, rng, 8)
    examined, ce = _scan(
        fam, ("ssc-family", ((cw, s, a, depth) for cw, ms in _sup_chains(fam, depth)
                             for s in pool for a in ms)),
        ("ssc-family-finite", ((t, s, a) for _ in range(300)
                               for t, A in [_translates(fam, rng, 2)]
                               for s in [fam.sample(rng)] for a in A)))
    return ce is None, ce, examined


def _approximated(fam: SymbolicFamily, side: _Side, x, depth: int) -> bool:
    """Some canonical chain with sup x has every member below and way below x."""
    wb = getattr(fam, side.wb)
    return any(all(wb(a, x) and fam.nat_le(a, x) for a in chain_members(cw, depth))
               for cw in getattr(fam, side.chains_to)(x) if getattr(cw, side.sup) == x)


@_hypothesis
def _continuity(fam: SymbolicFamily, side: _Side, rng: random.Random, depth: int, *_):
    """(ok, counterexample, examined) for 'one side is continuous': each pooled
    x is approximated; the counterexample is the first x that is not."""
    examined, ce = _scan(fam, ("not-approximated",
                               ((side, x, depth) for x in side.pool(fam, rng, 20))))
    return ce is None, ce, examined


def _compacts_below(fam: SymbolicFamily, side: _Side, x, tried: list) -> list:
    """The distinct compact elements below x among ``tried`` and the zero."""
    wb, zero = getattr(fam, side.wb), fam.zero
    tried = tried + ([zero] if zero is not None and fam.is_idempotent(zero) else [])
    return list(dict.fromkeys(c for c in tried if fam.nat_le(c, x) and wb(c, c)))


@_hypothesis
def _algebraic(fam: SymbolicFamily, side: _Side, rng: random.Random, *_):
    """(ok, counterexample, examined) for 'every element of one side is a sup
    of compacts below it', against sampled compacts x eps below each pooled
    x; a compact x is the sup of {x}, and nothing is drawn for it."""
    wb = getattr(fam, side.wb)
    examined, ce = _scan(fam, ("not-algebraic", (
        (side, x, [] if wb(x, x) else [fam.op(x, fam.sample_idempotent(rng)) for _ in range(40)])
        for x in side.pool(fam, rng, 25))))
    return ce is None, ce, examined


@_hypothesis
def _multiplicative(fam: SymbolicFamily, side: _Side, budget: int, rng: random.Random, *_):
    """(ok, counterexample, examined): s << t and s2 << t2 give s s2 << t t2
    on one side, in ceil(budget / 4) rounds over sampled pairs s = t eps."""
    wb, rounds = getattr(fam, side.wb), -(-budget // 4)
    pairs, examined = [], 0
    while len(pairs) < 40 and examined < 4000:
        t = side.sample(fam, rng)
        s = fam.op(t, fam.sample_idempotent(rng))
        examined += 1
        if wb(s, t):
            pairs.append((s, t))
    n, ce = _scan(fam, ("not-multiplicative", (
        (side, s, t, s2, t2) for _ in range(rounds if pairs else 0)
        for s, t in [pairs[below(rng, len(pairs))]]
        for s2, t2 in [pairs[below(rng, len(pairs))]])))
    return ce is None, ce, examined + n


def _wb_refutation(fam: SymbolicFamily, side: _Side, x, y, depth: int,
                   claim: Optional[bool] = None, cleared: Optional[set] = None
                   ) -> Optional[dict]:
    """Chain evidence against the way-below oracle's answer at (x, y) on one side.

    A claim x << y must survive each canonical chain with sup above y: some
    member, scanned no shallower than the replay depth, lies above x.  A
    denial is refuted by a directed set with sup above y and no member above
    x (Gierz et al., 2003, I-1.1): the singleton {y} when x is not below y,
    else the side's first canonical chain to y, scanned up to ``depth``.

    ``claim`` is the oracle's answer when the caller has asked it already.
    ``cleared``, when given, holds the pairs whose refutation found nothing:
    claims that survived every chain, and denied pairs x <= y whose chain
    left no member above x.  Such a pair is not refuted again, nor is the
    oracle asked, and each new one is added.  The oracle and the chains are
    fixed by (x, y) and the depth, so a second refutation would clear again.
    """
    if cleared is not None and (x, y) in cleared:
        return None
    claim = getattr(fam, side.wb)(x, y) if claim is None else claim
    if not claim and not fam.nat_le(x, y):
        return None  # a denial with x not below y: the singleton {y} bears it out
    claim_refuted, missing, too_small, no_kill = side.kinds
    chains, above_x = getattr(fam, side.chains_to), partial(fam.nat_le, x)
    kind = None
    if claim:
        deep = depth if depth > DEFAULT_DEPTH else DEFAULT_DEPTH
        for cw in chains(y):
            sup = getattr(cw, side.sup)
            if sup is None or not fam.nat_le(y, sup):
                continue
            if not any(map(above_x, iter_chain(cw, deep))):
                kind = claim_refuted
                break
    else:
        cw = next(iter(chains(y)), None)
        if cw is None:
            kind = missing
        else:
            sup = getattr(cw, side.sup)
            if sup is None or not fam.nat_le(y, sup):
                kind = too_small
            elif any(map(above_x, iter_chain(cw, depth))):
                kind = no_kill
    if kind is not None:
        return _fail(fam, kind, chain=cw, **dict(zip(side.keys, (x, y))), _depth=depth)
    if cleared is not None:
        cleared.add((x, y))
    return None


def _refuted(side: _Side, kind: str):
    """The law of one way-below refutation kind: the side's refutation, re-run
    at the instance's pair and depth, finds that kind."""
    def violated(fam, chain, _depth, **pair):
        ce = _wb_refutation(fam, side, *(pair[k] for k in side.keys), _depth)
        return ce is not None and ce["kind"] == kind
    return violated


def _wb_law(fam: SymbolicFamily, s, t, es, et) -> tuple:
    """(violated, lhs, claim) of the way-below characterization at (s, t),
    given es = sigma(s) and et = sigma(t): lhs is s << t, and claim is
    es << et as ``wb_sigma`` answers it when s <= t, else None, as it is not
    asked.  The law is violated when lhs is not 's <= t and es << et'."""
    lhs = fam.wb_s(s, t)
    claim = fam.wb_sigma(es, et) if fam.nat_le(s, t) else None
    return lhs != bool(claim), lhs, claim


def _order_forms(fam: SymbolicFamily, s, t) -> list:
    """s <= t, s* <= t*, t s* s = s and s s* t = s: equivalent forms of the order."""
    return [fam.nat_le(s, t), fam.nat_le(fam.inv(s), fam.inv(t)),
            fam.op(t, fam.sigma(s)) == s, fam.op(fam.op(s, fam.inv(s)), t) == s]


_BASIC_KINDS = ("ss*-not-idempotent", "s*s-not-idempotent", "star-not-involution",
                "antihomomorphism", "idempotent-not-self-inverse")

# kind -> violated(fam, **instance): the one test of each failure kind, shared
# by the scans and by replay.  The identities are those of every inverse
# semigroup (Lawson, 1998, 1.4).  A law whose scan meets a hypothesis by
# construction (eps idempotent, a <= t, a maximum in _D, a member on its chain
# up to _depth, a pair consecutive on it, a bound it lists or one above its
# members up to _depth, s << t and s2 << t2) tests it after the conclusion,
# so that a replay outside it is False at no cost to a scan.  A
# biconditional kind's instance is the failing side's witness: the side that
# holds is sampled evidence, and it is not replayed.
_VIOLATED: dict[str, Callable[..., bool]] = {
    "ss*-not-idempotent": lambda fam, s, t: not fam.is_idempotent(fam.op(s, fam.inv(s))),
    "s*s-not-idempotent": lambda fam, s, t: not fam.is_idempotent(fam.op(fam.inv(s), s)),
    "star-not-involution": lambda fam, s, t: fam.inv(fam.inv(s)) != s,
    "antihomomorphism": lambda fam, s, t: fam.inv(fam.op(s, t)) != fam.op(fam.inv(t),
                                                                         fam.inv(s)),
    "idempotent-not-self-inverse": lambda fam, s, t: fam.is_idempotent(s) and fam.inv(s) != s,
    "characterizations-disagree": lambda fam, s, t, **_: len(set(_order_forms(fam, s, t))) > 1,
    "teps-not-below-t": lambda fam, t, eps: (
        not fam.nat_le(fam.op(t, eps), t) and fam.is_idempotent(eps)),
    "sigma-not-monotone-at-max": lambda fam, t, a: (
        not fam.nat_le(fam.sigma(a), fam.sigma(t)) and fam.nat_le(a, t)),
    "sigma-image-escapes-sup": lambda fam, chain, a, _depth: not fam.nat_le(
        fam.sigma(a), fam.sigma(chain.sup_in_s)) and _on_chain(chain, a, _depth),
    "cond-distr-chain": lambda fam, chain, s, a, _depth: not fam.nat_le(
        fam.op(s, a), fam.op(s, chain.sup_in_s)) and _on_chain(chain, a, _depth),
    "cond-distr-finite": lambda fam, t, s, a: (
        not fam.nat_le(fam.op(s, a), fam.op(s, t)) and fam.nat_le(a, t)),
    "d-not-in-translate": lambda fam, chain, d: fam.op(d, fam.sigma(d)) != d,
    "translate-escapes-d": lambda fam, chain, d, x, _depth: (
        not fam.nat_le(fam.op(x, fam.sigma(d)), d)
        and _on_chain(chain, d, _depth) and _on_chain(chain, x, _depth)),
    "translate-finite": lambda fam, d, _D: (
        (fam.op(d, fam.sigma(d)) != d
         or any(not fam.nat_le(fam.op(x, fam.sigma(d)), d) for x in _D))
        and any(all(fam.nat_le(x, m) for x in _D) for m in _D)),
    "chain-not-monotone": lambda fam, chain, a, b, _depth: (
        not fam.nat_le(a, b) and (a, b) in pairwise(iter_chain(chain, _depth))),
    "chain-not-idempotent": lambda fam, chain, a, _depth: (
        chain.in_sigma and not fam.is_idempotent(a) and _on_chain(chain, a, _depth)),
    "claimed-sup-not-upper-bound": lambda fam, chain, claim, member, sup, _depth: (
        getattr(chain, claim) == sup and not fam.nat_le(member, sup)
        and _on_chain(chain, member, _depth)),
    "claimed-upper-bound-fails": lambda fam, chain, member, upper_bound, _depth: (
        not fam.nat_le(member, upper_bound) and upper_bound in chain.upper_bounds
        and _on_chain(chain, member, _depth)),
    "mirror-family": lambda fam, chain, bad_bound, _depth, **_: not fam.nat_le(
        chain.sup_in_sigma, bad_bound) and _dominates(fam, bad_bound, chain, _depth),
    "not-reduced": lambda fam, eps, s: (fam.is_idempotent(eps) and eps != fam.zero
                                        and fam.nat_le(eps, s) and not fam.is_idempotent(s)),
    "bounded-chain-without-sup": lambda fam, chain: (chain in fam.witnesses and bool(
        chain.upper_bounds) and chain.sup_in_s is None),
    "ssc-family": lambda fam, chain, s, member, _depth: not fam.nat_le(
        fam.op(member, s), fam.op(chain.sup_in_s, s)) and _on_chain(chain, member, _depth),
    "ssc-family-finite": lambda fam, t, s, a: (
        not fam.nat_le(fam.op(a, s), fam.op(t, s)) and fam.nat_le(a, t)),
    "meet-cont-chain": lambda fam, chain, eps, a, _depth: (
        chain.sup_in_sigma is not None
        and not fam.nat_le(fam.op(eps, a), fam.op(eps, chain.sup_in_sigma))
        and fam.is_idempotent(eps) and _on_chain(chain, a, _depth)),
    "not-multiplicative": lambda fam, _side, s, t, s2, t2: (
        not getattr(fam, _side.wb)(fam.op(s, s2), fam.op(t, t2))
        and getattr(fam, _side.wb)(s, t) and getattr(fam, _side.wb)(s2, t2)),
    "inseparable": lambda fam, eps, a, b, tried: a != b and all(
        fam.op(a, p) == fam.op(b, p) for p in tried if fam.wb_sigma(p, eps)),
    "not-approximated": lambda fam, _side, x, _depth: not _approximated(fam, _side, x, _depth),
    # x is not compact, so no one compact below x is its sup
    "not-algebraic": lambda fam, _side, x, _tried: (
        not getattr(fam, _side.wb)(x, x) and len(_compacts_below(fam, _side, x, _tried)) <= 1),
    "wb-char": lambda fam, s, t, **_: _wb_law(fam, s, t, fam.sigma(s), fam.sigma(t))[0],
    **{kind: _refuted(side, kind) for side in (_S, _SIGMA) for kind in side.kinds},
    **dict.fromkeys(("meet-cont-biconditional", "mult-biconditional", "mirror-theorem",
                     "separation-biconditional"),
                    lambda fam, _witness, **_: _violated(fam, _witness)),
}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


SUITES: dict[str, Callable] = {}  # name -> suite, in the order of definition


def _lemma(notes: str = ""):
    """Make a family check a suite, registered in SUITES, whose carrier
    verdict is its lemma: pass, with ``notes`` and nothing examined, as
    validation makes each carrier an inverse semigroup on which the law
    holds.  A budget or depth below 1 is refused with ValueError, and no
    budget means ``DEFAULT_BUDGET``."""
    def suite(family_check):
        name = family_check.__name__.removeprefix("check_")

        def check(subject, subject_id=None, *, depth=DEFAULT_DEPTH,
                  seed=0, budget=None) -> CheckReport:
            require_positive(depth=depth, budget=budget)
            if budget is None:
                budget = DEFAULT_BUDGET
            if isinstance(subject, FiniteInvSemigroup):
                sid = subject_id or f"carrier(n={subject.n})"
                return CheckReport(name, sid, *_verdict(0, notes=notes))
            sid = subject_id or getattr(subject, "name", repr(subject))
            return CheckReport(name, sid, *family_check(subject, depth, seed, budget))
        check.__name__ = check.__qualname__ = family_check.__name__
        check.__doc__ = family_check.__doc__
        SUITES[name] = check
        return check
    return suite


@_lemma()
def check_basic_rules(fam: SymbolicFamily, depth, seed, budget):
    """s s* and s* s idempotent; (s*)* = s; (s t)* = t* s*; s* = s on idempotents.

    Lemma: these are identities of every inverse semigroup (Lawson, Inverse
    Semigroups, 1998, 1.4).
    """
    rng, sample = seeded(seed, "basic_rules", fam.name), fam.sample
    laws = [(kind, _VIOLATED[kind]) for kind in _BASIC_KINDS]
    for examined in range(1, budget + 1):
        s, t = sample(rng), sample(rng)
        for kind, violated in laws:
            if violated(fam, s, t):
                return _verdict(examined, _fail(fam, kind, s, t))
    return _verdict(budget)


@_lemma()
def check_order_characterizations(fam: SymbolicFamily, depth, seed, budget):
    """The five equivalent forms of the intrinsic order agree pairwise: s in tE,
    t* s s* = s*, t s* s = s, s in Et and s s* t = s.

    Lemma: the forms of the natural partial order are equivalent in every
    inverse semigroup (Lawson, 1998, 1.4).
    """
    rng, sample, sample_idempotent = (seeded(seed, "order_characterizations", fam.name),
                                      fam.sample, fam.sample_idempotent)
    disagree, escapes = _VIOLATED["characterizations-disagree"], _VIOLATED["teps-not-below-t"]
    for examined in range(1, 2 * budget, 2):
        s, t = sample(rng), sample(rng)
        if disagree(fam, s, t):
            return _verdict(examined, _fail(fam, "characterizations-disagree", s, t,
                                            values=_order_forms(fam, s, t)))
        eps = sample_idempotent(rng)  # constructed witness: s' = t*eps must land below t
        if escapes(fam, t, eps):
            return _verdict(examined + 1, _fail(fam, "teps-not-below-t", t, eps))
    return _verdict(2 * budget)


@_lemma()
def check_sigma_sup(fam: SymbolicFamily, depth, seed, budget):
    """If sup A exists then sup sigma(A) exists and equals sigma(sup A).

    Lemma: in an inverse semigroup an existing sup commutes with
    s -> s* s (Lawson, 1998, 1.4).
    """
    rng = seeded(seed, "sigma_sup", fam.name)
    return _verdict(*_scan(
        fam, ("sigma-not-monotone-at-max", ((t, a) for _ in range(max(budget // 10, 200))
                                            for t, A in [_translates(fam, rng, 3)]
                                            for a in A)),
        ("sigma-image-escapes-sup",
         ((cw, a, depth) for cw, ms in _sup_chains(fam, depth) for a in ms))))


@_lemma()
def check_conditional_distributivity(fam: SymbolicFamily, depth, seed, budget):
    """If sup A exists and a a* <= s* s for all a, then sup(sA) = s sup A.

    Lemma: in an inverse semigroup multiplication distributes over every
    existing sup (Lawson, 1998, 1.4); the hypothesis only narrows the
    instances.
    """
    rng = seeded(seed, "cond_distr", fam.name)
    pool = _elem_pool(fam, rng, 10)
    return _verdict(*_scan(
        fam, ("cond-distr-chain", ((cw, s, a, depth) for cw, ms in _sup_chains(fam, depth)
                                   for s in pool if _in_domain(fam, s, ms) for a in ms)),
        ("cond-distr-finite", ((t, s, a) for _ in range(300)
                               for t, A in [_translates(fam, rng, 2)]
                               for s in [fam.sample(rng)] if _in_domain(fam, s, A)
                               for a in A))))


def _in_domain(fam: SymbolicFamily, s, A) -> bool:
    """The hypothesis of conditional distributivity: a a* <= s* s for all a in A."""
    target = fam.sigma(s)
    return all(fam.nat_le(fam.op(a, fam.inv(a)), target) for a in A)


@_lemma()
def check_greatest_of_translate(fam: SymbolicFamily, depth, seed, budget):
    """d is the greatest element of D d* d for directed D and d in D.

    Lemma: a finite directed D lies below its maximum m (Gierz et al.,
    2003), and d <= m gives d = m d* d; so each x in D has x d* d <= m d* d
    = d, as the order is compatible with multiplication (Lawson, 1998, 1.4),
    and d d* d = d lies in D d* d.
    """
    rng, reach = seeded(seed, "greatest_translate", fam.name), min(depth, 16)
    chains = [(cw, chain_members(cw, reach)) for cw in fam.witnesses]
    return _verdict(*_scan(
        fam, ("d-not-in-translate", ((cw, d) for cw, ms in chains for d in ms)),
        ("translate-escapes-d", ((cw, d, x, reach) for cw, ms in chains for d in ms for x in ms)),
        ("translate-finite", ((d, D) for _ in range(300) for D in [_translates(fam, rng, 2)[1]]
                              for d in D))))


@_lemma()
def check_mirror(fam: SymbolicFamily, depth, seed, budget):
    """Directed subsets of Sigma with a sup in Sigma keep that sup in S.

    Lemma: a finite directed Delta contains its maximum delta (Gierz et al.,
    2003), its sup in Sigma and in S, as Delta and delta have the same
    upper bounds.
    """
    _ok, ce, n = _family_mirror(fam, depth, seed)
    return _verdict(n, ce, "chain witnesses + reduced route agree")


@_lemma("ssc=True, meet-continuous=True")
def check_meet_continuity_mirror(fam: SymbolicFamily, depth, seed, budget):
    """S separately Scott-continuous iff Sigma meet-continuous (mirror S).

    Lemma: both sides hold on a carrier.  A finite directed D has a maximum
    m, its sup (Gierz et al., 2003), and d <= m gives d s <= m s and
    eps d <= eps m, as the order is compatible with multiplication (Lawson,
    1998, 1.4); so sup(D s) = (sup D) s, and on Sigma, where the meet is
    the product, eps sup D = sup(eps D).
    """
    ok, _ce, n0 = _family_mirror(fam, depth, seed)
    if not ok:
        return _na("subject is not mirror")
    ssc_ok, ssc_ce, n1 = _family_ssc(fam, depth, seed)
    # meet-continuity: idempotents translate sigma-chains below the translated sup
    rng = seeded(seed, "meet_cont", fam.name)
    n2, mc_ce = _scan(fam, ("meet-cont-chain", (
        (cw, eps, a, depth) for cw in fam.witnesses if cw.sup_in_sigma is not None
        for eps in _idem_pool(fam, rng, 6) for a in chain_members(cw, depth))))
    mc_ok = mc_ce is None
    ce = None if ssc_ok == mc_ok else _fail(fam, "meet-cont-biconditional", ssc=ssc_ok,
                                            meet_continuous=mc_ok, _witness=ssc_ce or mc_ce)
    return _verdict(n0 + n1 + n2, ce, f"ssc={ssc_ok}, meet-continuous={mc_ok}")


def _ssc_mirror_gate(fam: SymbolicFamily, depth: int, seed: int):
    """The hypotheses of the way-below suites: both oracles, mirror and ssc.
    Returns (examined, None) when they hold, else (0, a not-applicable result)."""
    if fam.wb_s is None or fam.wb_sigma is None:
        return 0, _na("no way-below oracle installed")
    mirror_ok, _c, n0 = _family_mirror(fam, depth, seed)
    ssc_ok, _c2, n1 = _family_ssc(fam, depth, seed)
    if not (mirror_ok and ssc_ok):
        return 0, _na("not a ssc mirror subject")
    return n0 + n1, None


@_lemma()
def check_wb_characterization(fam: SymbolicFamily, depth, seed, budget):
    """s << t iff s <= t and sigma(s) << sigma(t), on ssc mirror subjects.

    Lemma: way-below is the order on a finite poset (Gierz et al., 2003),
    and s <= t gives s* s <= t* t (Lawson, 1998, 1.4); so both sides say
    s <= t.
    """
    n0, na = _ssc_mirror_gate(fam, depth, seed)
    if na:
        return na
    # the oracle biconditional on sampled pairs, then chain refutation of each
    # side's answer: both sides are handed the law's answers where it asked
    # them, and a pair whose refutation cleared is not refuted again on its
    # side; the sigma values are interned, so that the sigma memo holds one
    # object per distinct idempotent
    rng, sample, sigma = seeded(seed, "wb_char", fam.name), fam.sample, fam.sigma
    cleared_s, cleared_sigma, intern = set(), set(), {}.setdefault
    for examined in range(n0 + 1, n0 + budget + 1):
        s, t = sample(rng), sample(rng)
        if rng.random() < 0.3:
            s = fam.op(t, fam.sample_idempotent(rng))  # force comparable pairs too
        es, et = sigma(s), sigma(t)
        es, et = intern(es, es), intern(et, et)
        violated, lhs, claim = _wb_law(fam, s, t, es, et)
        if violated:
            return _verdict(examined, _fail(fam, "wb-char", s, t, lhs=lhs, rhs=not lhs))
        bad = (_wb_refutation(fam, _S, s, t, depth, lhs, cleared_s)
               or _wb_refutation(fam, _SIGMA, es, et, depth, claim, cleared_sigma))
        if bad is not None:
            return _verdict(examined, bad)
    return _verdict(n0 + budget, notes="oracle biconditional + chain refutation")


@_lemma("mult(S)=True, mult(Sigma)=True")
def check_multiplicativity_mirror(fam: SymbolicFamily, depth, seed, budget):
    """Way-below multiplicative on S iff multiplicative on Sigma.

    Lemma: both sides hold on a carrier.  Way-below is the order on a finite
    poset (Gierz et al., 2003), and x <= y gives x u <= y u and u x <= u y
    (Lawson, 1998, 1.4), which give the law (see
    ``way_below_multiplicative`` in ``tests/reference.py``).
    """
    n0, na = _ssc_mirror_gate(fam, depth, seed)
    if na:
        return na
    multS, witS, nS = _multiplicative(fam, depth, seed, _S, budget)
    multE, witE, nE = _multiplicative(fam, depth, seed, _SIGMA, budget)
    ce = None if multS == multE else _fail(fam, "mult-biconditional", mult_S=multS,
                                           mult_Sigma=multE, _witness=witS or witE)
    return _verdict(n0 + nS + nE, ce, f"mult(S)={multS}, mult(Sigma)={multE}")


@_lemma("continuous=True, algebraic=True")
def check_mirror_theorem(fam: SymbolicFamily, depth, seed, budget):
    """Continuity and algebraicity hold for S iff they hold for Sigma.

    Lemma: both hold on a carrier and on its Sigma.  Way-below is the order
    on a finite poset, so every element is compact and is the maximum of the
    directed set of elements below it (Gierz et al., 2003).
    """
    if fam.wb_s is None or fam.wb_sigma is None:
        return _na("no way-below oracle installed; continuity evidence is partial")
    ok, _c, n0 = _family_mirror(fam, depth, seed)
    if not ok:
        return _na("subject is not mirror")
    contS, xS, n1 = _continuity(fam, depth, seed, _S)
    contE, xE, n2 = _continuity(fam, depth, seed, _SIGMA)
    algS, wS, n3 = _algebraic(fam, depth, seed, _S)
    algE, wE, n4 = _algebraic(fam, depth, seed, _SIGMA)
    # the failing side's counterexample: of continuity if the sides disagree on it
    ce = None if contS == contE and algS == algE else _fail(
        fam, "mirror-theorem", cont_S=contS, cont_Sigma=contE, alg_S=algS, alg_Sigma=algE,
        _witness=(xS or xE) if contS != contE else (wS or wE))
    return _verdict(n0 + n1 + n2 + n3 + n4, ce, f"continuous={contS}, algebraic={algS}")


@_lemma("criterion=True, mirror=True")
def check_separation_criterion(fam: SymbolicFamily, depth, seed, budget):
    """The H-class separation criterion holds iff the subject is mirror.

    Lemma: a carrier is mirror (see ``check_mirror``) and meets the
    criterion.  In a finite Sigma eps << eps (Gierz et al., 2003), and
    distinct a, b with a* a = b* b = eps give a eps = a != b = b eps.
    """
    if fam.wb_sigma is None:
        return _na("no sigma way-below oracle installed")
    rng = seeded(seed, "separation", fam.name)
    # a sampled H-class of each eps, and candidate separators: the canonical
    # approximants of eps and sampled idempotents
    examined, wit = _scan(fam, ("inseparable", (
        (eps, a, b, tried) for eps in _idem_pool(fam, rng, 12)
        for H, tried in [(fam.h_class_sample(eps, rng, 6),
                          [m for cw in fam.sigma_chains_to(eps) for m in chain_members(cw, depth)]
                          + _idem_pool(fam, rng, 10))]
        for a, b in combinations(H, 2) if a != b)))
    criterion = wit is None
    mirror_ok, mirror_ce, n0 = _family_mirror(fam, depth, seed)
    ce = None if criterion == mirror_ok else _fail(
        fam, "separation-biconditional", criterion=criterion, mirror=mirror_ok,
        _witness=wit or mirror_ce)
    return _verdict(examined + n0, ce, f"criterion={criterion}, mirror={mirror_ok}")


@_lemma()
def check_continuity_implies_ssc(fam: SymbolicFamily, depth, seed, budget):
    """A continuous mirror subject must be separately Scott-continuous.

    Lemma: a carrier is continuous, mirror and separately Scott-continuous
    (see ``check_mirror_theorem``, ``check_mirror`` and
    ``check_meet_continuity_mirror``).
    """
    mirror_ok, _c, n0 = _family_mirror(fam, depth, seed)
    if not mirror_ok:
        return _na("subject is not mirror")
    if fam.wb_s is None:
        return _na("no way-below oracle installed")
    contS, _x, n1 = _continuity(fam, depth, seed, _S)
    if not contS:
        return _na("subject is not continuous")
    _ok, ce, n2 = _family_ssc(fam, depth, seed)
    return _verdict(n0 + n1 + n2, ce)


@_lemma("cdc(S)=True, cdc(Sigma)=True")
def check_conditional_dcpo_mirror(fam: SymbolicFamily, depth, seed, budget):
    """Conditional directed-completeness of S iff of Sigma (mirror S).

    Lemma: both hold on a carrier, as a finite directed set has a maximum,
    its sup, in S and in Sigma (Gierz et al., 2003).
    """
    ok, _c, n0 = _family_mirror(fam, depth, seed)
    if not ok:
        return _na("subject is not mirror")
    # evidence at finite scale only: bounded canonical chains carry sups
    n1, ce = _scan(fam, ("bounded-chain-without-sup", ((cw,) for cw in fam.witnesses)))
    return _verdict(n0 + n1, ce, "bounded canonical chains all carry sups (weak evidence)")


def run_suite(name: str, subject, subject_id=None, **kw) -> CheckReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name](subject, subject_id, **kw)


def run_suites(subject, subject_id=None, names="all", **kw) -> list[CheckReport]:
    picked = list(SUITES) if names in ("all", None) else (
        [names] if isinstance(names, str) else list(names))
    return [run_suite(nm, subject, subject_id, **kw) for nm in picked]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _classify_finite(S: FiniteInvSemigroup, subject_id: str, depth: int,
                     seed: int) -> Classification:
    """Reducedness scanned, as a property of the table; the other four flags
    hold on every finite inverse semigroup, and their evidence names the
    lemma."""
    way_below = "lemma: on a finite poset way-below is the order"
    return Classification(
        subject=subject_id, depth=depth, seed=seed,
        reduced=Flag(is_reduced(S), "exhaustive over all idempotent/up-set pairs", S.n),
        mirror=Flag(True, "lemma: a finite directed set has a maximum, "
                          "its sup in Sigma and in S", 0),
        continuous=Flag(True, f"{way_below}, so each element is the maximum "
                              "of its approximants", 0),
        algebraic=Flag(True, f"{way_below}, so every element is compact", 0),
        stably_continuous=Flag(True, f"{way_below}, which multiplication "
                                     "preserves (Lawson, 1998, 1.4)", 0),
    )


def _algebraic_witness(fam: SymbolicFamily, ce: Optional[dict]) -> Optional[dict]:
    """The ``algebraic`` witness of a not-algebraic counterexample: its x,
    and why the compacts tried below x miss it."""
    if ce is None:
        return None
    side, x, tried = ce["_raw"].values()
    compacts = _compacts_below(fam, side, x, tried)
    return {"witness": fam.describe(x),
            "why": "no compact element below the witness" if not compacts else
                   f"the only compact below is {fam.describe(compacts[0])}, "
                   "whose sup misses the witness"}


def _classify_family(fam: SymbolicFamily, subject_id: str, depth: int, seed: int,
                     budget) -> Classification:
    """The flags as the suites' gates give them; a family without way-below
    oracles gets value None for the three flags that read them."""
    red_ok, red_ce, red_n = _family_reduced(fam, depth, seed)
    red_note = ("sampled pairs (idempotent below element), and the chain members "
                f"to depth {depth} below each non-idempotent upper bound of a witness chain")
    if fam.zero is not None:
        red_note += "; the zero element is excluded, as the mirror route requires"
    mirror_ok, mirror_ce, mir_n = _family_mirror(fam, depth, seed)

    if fam.wb_s is None or fam.wb_sigma is None:
        cont, alg, stably = (Flag(None, "not classified (partial family)", 0)
                             for _ in range(3))
    else:
        contS, _x, nS = _continuity(fam, depth, seed, _S)
        contE, _xE, nE = _continuity(fam, depth, seed, _SIGMA)
        algS, alg_ce, alg_n = _algebraic(fam, depth, seed, _S)
        mult_ok, _wit, mult_n = _multiplicative(fam, depth, seed, _S, budget or DEFAULT_BUDGET)
        cont = Flag(contS, f"approximation chains at depth {depth}; "
                           f"sigma side agrees ({contE})", nS + nE)
        alg = Flag(algS, "compact approximants sampled against the way-below oracle",
                   alg_n, _algebraic_witness(fam, alg_ce))
        stably = Flag(bool(contS) and mult_ok,
                      "continuity plus sampled way-below multiplicativity", nS + mult_n)
    return Classification(
        subject=subject_id, depth=depth, seed=seed,
        reduced=Flag(red_ok, red_note, red_n, red_ce),
        mirror=Flag(mirror_ok, f"chain witnesses at depth {depth} + reduced route",
                    mir_n, mirror_ce),
        continuous=cont,
        algebraic=alg,
        stably_continuous=stably,
    )


def classify(subject: Union[FiniteInvSemigroup, SymbolicFamily],
             subject_id: str | None = None, *, depth: int = DEFAULT_DEPTH, seed: int = 0,
             budget=None) -> Classification:
    """Classification record {reduced, mirror, continuous, algebraic, stably
    continuous}, each flag carrying the evidence that produced it.  A budget
    or depth below 1 is refused with ValueError."""
    require_positive(depth=depth, budget=budget)
    if isinstance(subject, FiniteInvSemigroup):
        return _classify_finite(subject, subject_id or f"carrier(n={subject.n})",
                                depth, seed)
    return _classify_family(subject, subject_id or subject.name, depth, seed, budget)


def replay_counterexample(subject, report: CheckReport) -> bool:
    """Re-run the single failed instance on a family; True iff it still
    violates the law of its kind.

    A carrier passes every suite by lemma, so nothing replays on it.  An
    unknown kind or a missing ``_raw`` raises KeyError, and a ``_raw`` that
    does not fit its kind raises TypeError.  A biconditional kind replays the failing side's
    witness; the side that holds is sampled evidence and is not replayed.
    """
    if (report.verdict != "fail" or not report.counterexample
            or isinstance(subject, FiniteInvSemigroup)):
        return False
    return _violated(subject, report.counterexample)
