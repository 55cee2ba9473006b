"""The non-mirror counterexample semigroup [0,1] with an extra point omega.

The product is min on the rational interval [0,1], omega acts as an identity
on [0,1), and omega * omega = 1 (so omega * 1 = omega).  Every point of the
interval is idempotent; omega is not, and sigma(omega) = 1.  The half-open
interval is a directed set of idempotents whose supremum in the idempotent
semilattice is 1, yet its upper bounds in the whole semigroup are the two
incomparable elements 1 and omega: no supremum exists there, which is
exactly the mirror failure this family exists to exhibit.

The element omega turns out to be compact (any directed set whose sup
dominates omega must contain omega), and so is 1, which makes the whole
semigroup continuous even though it is not mirror.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import FiniteInvSemigroup, tabulate
from .base import (DEFAULT_DEPTH, ChainWitness, SymbolicFamily, below, finite_chain,
                   require_positive)

__all__ = ["OMEGA", "cex_op", "cex_inv", "cex_le", "cex_mirror_witness",
           "cex_family", "cex_truncation"]


class _Omega:
    __slots__ = ()

    def __repr__(self):
        return "omega"


OMEGA = _Omega()
_ONE = Fraction(1)
_ZERO = Fraction(0)


def cex_op(s, t):
    if s is OMEGA and t is OMEGA:
        return _ONE
    if s is OMEGA:
        return OMEGA if t == 1 else t
    if t is OMEGA:
        return OMEGA if s == 1 else s
    return min(s, t)


def cex_inv(s):
    return s  # every element is its own inverse (omega*omega*omega = omega)


def cex_le(x, y) -> bool:
    if x is OMEGA:
        return y is OMEGA
    if y is OMEGA:
        return x < 1
    return x <= y


def _is_idem(s) -> bool:
    return s is not OMEGA


def _wb_s(x, y) -> bool:
    if y is OMEGA:
        return cex_le(x, OMEGA)   # everything below omega, omega included
    if x is OMEGA:
        return False
    if x == 0:
        return True
    if x == 1:
        return y == 1             # 1 is compact: a sup >= 1 must be 1 itself
    return x < y


def _wb_sigma(eps, delta) -> bool:
    return eps == 0 or eps < delta


def cex_mirror_witness() -> ChainWitness:
    """The chain k -> 1 - 2^-k: sup 1 in Sigma, no sup in S (bounds 1, omega)."""

    def member(k: int):
        return 1 - Fraction(1, 2 ** k)

    return ChainWitness(label="unit-interval-chain", member=member, in_sigma=True,
                        sup_in_sigma=_ONE, sup_in_s=None,
                        upper_bounds=(_ONE, OMEGA))


def _chains_to(y) -> tuple[ChainWitness, ...]:
    if y is OMEGA:
        return (finite_chain("constant-omega", [Fraction(1, 2), OMEGA], False),)
    if y == 0:
        return (finite_chain("constant-0", [_ZERO], True),)
    if y == 1:
        # ascending to 1 has no sup in S; the attained chain does
        return (cex_mirror_witness(), finite_chain("constant-1", [Fraction(1, 2), _ONE], True))

    def member(k: int):
        return y * (1 - Fraction(1, 2 ** k))

    asc = ChainWitness(label=f"interval-approach-{y}", member=member, in_sigma=True,
                       sup_in_sigma=y, sup_in_s=y,
                       upper_bounds=(y, OMEGA))
    return (asc,)


# The sampled interior points m/q (0 < m < q), for q = 2..16, stored as
# _INTERIOR[q - 2][m - 1].  A draw picks q, then m.
_INTERIOR = tuple(tuple(Fraction(m, q) for m in range(1, q)) for q in range(2, 17))


def _sample(rng: random.Random):
    roll = below(rng, 8)
    if roll == 0:
        return OMEGA
    if roll == 1:
        return _ONE
    if roll == 2:
        return _ZERO
    points = _INTERIOR[below(rng, 15)]
    return points[below(rng, len(points))]


def _sample_idem(rng: random.Random):
    s = _sample(rng)
    return _ONE if s is OMEGA else s


def _h_class_sample(eps, rng: random.Random, k: int) -> list:
    if eps == 1:
        return [_ONE, OMEGA]
    return [eps]


def cex_family(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The counterexample family; its Fraction values are exact at every
    depth, so ``depth`` is ignored."""
    witnesses = (cex_mirror_witness(),) + _chains_to(Fraction(1, 2)) + _chains_to(OMEGA)
    return SymbolicFamily(
        name="cex",
        op=cex_op,
        inv=cex_inv,
        nat_le=cex_le,
        is_idempotent=_is_idem,
        describe=lambda s: "omega" if s is OMEGA else str(s),
        sample=_sample,
        sample_idempotent=_sample_idem,
        witnesses=witnesses,
        chains_to=_chains_to,
        h_class_sample=_h_class_sample,
        wb_s=_wb_s,
        wb_sigma=_wb_sigma,
        zero=_ZERO,
        claimed={"reduced": False, "mirror": False, "continuous": True,
                 "algebraic": False, "stably_continuous": True},
    )


def cex_truncation(levels: int = 2) -> FiniteInvSemigroup:
    """A finite sub-semigroup {0, 1/2, ..., 1, omega}, e.g. for H-class tests.

    Finite, hence mirror, unlike the full family it is cut from.
    """
    require_positive(levels=levels)
    vals = [Fraction(i, levels) for i in range(levels + 1)] + [OMEGA]
    return tabulate(vals, cex_op, vals)
