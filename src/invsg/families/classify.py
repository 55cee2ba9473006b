"""Evidence-backed classification of subjects.

Every flag carries its evidence: the route that produced it and at what
depth/budget.  On a finite carrier reducedness is scanned, as a property of
the table; the other four flags hold on every finite inverse semigroup, and
their evidence names the lemma (see ``invsg.checkers``).  Symbolic families
are classified via their oracles and canonical chains.  Families without
way-below oracles get partial records (value None where no evidence exists).
"""

from __future__ import annotations

from typing import Union

from ..core import FiniteInvSemigroup, is_reduced
from .base import DEFAULT_DEPTH, Classification, Flag, SymbolicFamily, require_positive

__all__ = ["classify"]


def _classify_finite(S: FiniteInvSemigroup, subject_id: str, depth: int,
                     seed: int) -> Classification:
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


def _classify_family(fam: SymbolicFamily, depth: int, seed: int,
                     budget) -> Classification:
    from .. import checkers

    rng = checkers._rng(seed, "classify", fam.name)
    red_ok, red_ce, red_n = checkers._family_reduced(fam, rng)
    red_note = "sampled pairs (idempotent below element)"
    if fam.zero is not None:
        red_note += "; the zero element is excluded, as the mirror route requires"
    mirror_ok, mirror_ce, mir_n = checkers._mirror(fam, depth, seed)

    if fam.wb_s is None or fam.wb_sigma is None:
        cont, alg, stably = (Flag(None, "not classified (partial family)", 0)
                             for _ in range(3))
    else:
        contS, _x, nS = checkers._continuity(fam, checkers._S, rng, depth)
        contE, _xE, nE = checkers._continuity(fam, checkers._SIGMA, rng, depth)
        cont_n = nS + nE
        algS, alg_wit, alg_n = checkers._algebraic(fam, checkers._S, rng)
        mult_ok, _wit, mult_n = checkers._multiplicative(fam, checkers._S, rng, budget)
        cont = Flag(contS, f"approximation chains at depth {depth}; "
                           f"sigma side agrees ({contE})", cont_n)
        alg = Flag(algS, "compact approximants sampled against the way-below oracle",
                   alg_n, alg_wit)
        stably = Flag(bool(contS) and mult_ok,
                      "continuity plus sampled way-below multiplicativity", mult_n)
    return Classification(
        subject=fam.name, depth=depth, seed=seed,
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
    return _classify_family(subject, depth, seed, 2000 if budget is None else budget)
