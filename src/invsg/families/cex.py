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

A family stores each point x of [0,1] as the int x 720720 2^K, where
720720 = lcm(2..16) covers every sampled denominator and K is the scale
``base.family_scale`` sizes to the depth the family is built for, as the
rotation family stores its radii; omega stays a sentinel.  The chain member
y (1 - 2^-k) is y - (y >> k), exact up to the scale's limit, and past it
``TooLarge``.  The product, the order and way-below are written once, over
the value that encodes 1 (``_oracles``): the family runs them on its ints,
and the Fraction API (``cex_op``, ``cex_le``, ``cex_truncation``) on
Fractions, with 1 as itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import FiniteInvSemigroup, tabulate
from .base import (DEFAULT_DEPTH, ChainWitness, SymbolicFamily, family_scale, finite_chain,
                   grid_rows, require_positive)
from .rotation import rotation_wb_sigma

__all__ = ["OMEGA", "CexScale", "cex_op", "cex_inv", "cex_le", "cex_family", "cex_truncation"]

_POINTS = 720720  # lcm(2..16): the sampled points m/q are multiples of 1/_POINTS


class _Omega:
    __slots__ = ()

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


def _oracles(one):
    """The product, the order and way-below on S, over the value ``one``
    that encodes 1 (the interval's points compare as numbers)."""

    def op(s, t):
        if s is OMEGA:
            return one if t is OMEGA else (OMEGA if t == one else t)
        if t is OMEGA:
            return OMEGA if s == one else s
        return s if s <= t else t

    def le(x, y) -> bool:
        if x is OMEGA:
            return y is OMEGA
        if y is OMEGA:
            return x < one
        return x <= y

    def wb_s(x, y) -> bool:
        if y is OMEGA:
            return le(x, OMEGA)   # everything below omega, omega included
        if x is OMEGA:
            return False
        if x == 0:
            return True
        if x == one:
            return y == one       # 1 is compact: a sup >= 1 must be 1 itself
        return x < y

    return op, le, wb_s


cex_op, cex_le = _oracles(Fraction(1))[:2]


def cex_inv(s):
    return s  # every element is its own inverse (omega*omega*omega = omega)


def _is_idem(s) -> bool:
    return s is not OMEGA


class CexScale:
    """The encoding of the cex values at the exact scale for a depth
    (``TooLarge`` past ``base.MAX_DEPTH``)."""

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.scale = scale = family_scale(depth)
        self.one = _POINTS << scale.bits   # the encoding of 1
        self.op, self.le, self.wb_s = _oracles(self.one)
        # The sampled interior points m/q (0 < m < q), stored, for q = 2..16,
        # as interior[q - 2][m - 1].  A draw picks q (getrandbits(4) until
        # below 15), then m in its row, as ``base.grid_rows`` says.
        self.interior = grid_rows(tuple(m * (self.one // q) for m in range(1, q))
                                  for q in range(2, 17))

    def value(self, x):
        """The rational that x encodes, or omega."""
        return x if x is OMEGA else Fraction(x, self.one)

    def describe(self, x) -> str:
        return str(self.value(x))

    def mirror_witness(self) -> ChainWitness:
        """The chain k -> 1 - 2^-k: sup 1 in Sigma, no sup in S (bounds 1, omega)."""
        one, label = self.one, lambda: "unit-interval-chain"
        return ChainWitness(label=label, member=lambda k: self.scale.approach(one, k, label),
                            in_sigma=True,
                            sup_in_sigma=one, sup_in_s=None, upper_bounds=(one, OMEGA))

    def chains_to(self, y) -> tuple[ChainWitness, ...]:
        one, half = self.one, self.one >> 1
        if y is OMEGA:
            return (finite_chain("constant-omega", [half, OMEGA], False),)
        if y == 0:
            return (finite_chain("constant-0", [0], True),)
        if y == one:
            # ascending to 1 has no sup in S; the attained chain does
            return (self.mirror_witness(), finite_chain("constant-1", [half, one], True))
        label = lambda: f"interval-approach-{self.describe(y)}"
        asc = ChainWitness(label=label,
                           member=lambda k: self.scale.approach(y, k, label), in_sigma=True,
                           sup_in_sigma=y, sup_in_s=y, upper_bounds=(y, OMEGA))
        return (asc,)

    def sample(self, rng: random.Random):
        g = rng.getrandbits
        roll = g(4)  # below(rng, 8): 8.bit_length() is 4
        while roll >= 8:
            roll = g(4)
        if roll == 0:
            return OMEGA
        if roll == 1:
            return self.one
        if roll == 2:
            return 0
        q = g(4)
        while q >= 15:
            q = g(4)
        points, n, k = self.interior[q]
        m = g(k)
        while m >= n:
            m = g(k)
        return points[m]

    def sample_idempotent(self, rng: random.Random):
        s = self.sample(rng)
        return self.one if s is OMEGA else s

    def h_class_sample(self, eps, rng: random.Random, k: int) -> list:
        return [self.one, OMEGA] if eps == self.one else [eps]


def cex_family(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The counterexample family on the exact scale for ``depth``."""
    enc = CexScale(depth)
    witnesses = ((enc.mirror_witness(),) + enc.chains_to(enc.one >> 1)
                 + enc.chains_to(OMEGA))
    return SymbolicFamily(
        name="cex",
        op=enc.op,
        inv=cex_inv,
        nat_le=enc.le,
        is_idempotent=_is_idem,
        describe=enc.describe,
        sample=enc.sample,
        sample_idempotent=enc.sample_idempotent,
        witnesses=witnesses,
        chains_to=enc.chains_to,
        h_class_sample=enc.h_class_sample,
        wb_s=enc.wb_s,
        wb_sigma=rotation_wb_sigma,   # Sigma is [0,1], ordered as the rotation radii
        zero=0,
    )


def cex_truncation(levels: int = 2) -> FiniteInvSemigroup:
    """A finite sub-semigroup {0, 1/2, ..., 1, omega}, e.g. for H-class tests.

    Finite, hence mirror, unlike the full family it is cut from.
    """
    require_positive(levels=levels)
    vals = [Fraction(i, levels) for i in range(levels + 1)] + [OMEGA]
    return tabulate(vals, cex_op, vals)
