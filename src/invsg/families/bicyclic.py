"""Bicyclic monoids over the positive cones N and the nonnegative dyadics.

Elements are pairs (a, b) over the cone P with

    (a, b) + (c, d) = (a - b + max(b, c), d - c + max(b, c)),

identity (0, 0), involution (a, b)* = (b, a), idempotents the diagonal, and
(a, b) <= (c, d) iff c = d + a - b and d <= b.  The idempotent semilattice
is P with the numeric order reversed.

Over N every directed subset of the idempotents attains its supremum (the
numeric minimum exists), so way-below collapses to the order and everything
is compact.  Over the dyadics the infimum may only be approached, so
(a, a) is way below (b, b) exactly when a > b strictly and no element is
compact.

A dyadic coordinate x is stored as the int x 2^K, where K is the scale
``base.family_scale`` sizes to the depth the family is built for (200 bits
at the default depth).  The product, the order and way-below use only +, -,
max, <= and ==, and each of them commutes with scaling by 2^K, so both cones
share ``bicyclic_op``, ``bicyclic_inv``, ``bicyclic_le`` and the way-below
oracles on ints, at every K.  The sampled dyadics have denominators up to 8
and chain member k adds 2^-k with k up to the scale's limit < K, so every
value is an exact integer; ``describe`` prints x as the Fraction x / 2^K.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import NotIdempotent
from .base import (DEFAULT_DEPTH, Scale, SymbolicFamily, below, chain_to,
                   family_scale, finite_chain)

__all__ = ["bicyclic_op", "bicyclic_le", "bicyclic_wb", "bicyclic_nat", "bicyclic_dyadic"]


def bicyclic_op(x, y):
    a, b = x
    c, d = y
    m = max(b, c)
    return (a - b + m, d - c + m)


def bicyclic_inv(x):
    a, b = x
    return (b, a)


def bicyclic_le(x, y) -> bool:
    a, b = x
    c, d = y
    return c == d + a - b and d <= b


def bicyclic_wb(cone: str, eps, delta, describe=repr) -> bool:
    """Way-below between idempotents (a,a) and (b,b) over the given cone.

    A non-idempotent argument raises ``NotIdempotent`` named by ``describe``.
    The default ``repr`` prints the pair as given: a stored dyadic pair
    carries no scale, so only its family can print it as rationals, and its
    ``wb_sigma`` passes its own ``describe``."""
    a, aa = eps
    b, bb = delta
    if a != aa or b != bb:
        raise NotIdempotent(describe(eps if a != aa else delta))
    if cone == "nat":
        return bicyclic_le(eps, delta)  # every idempotent is compact
    if cone == "dyadic":
        return a > b
    raise ValueError(f"unknown cone {cone!r}")


def _wb_s(cone: str):
    def wb(s, t) -> bool:
        if not bicyclic_le(s, t):
            return False
        if cone == "nat":
            return True
        return s[1] > t[1]
    return wb


def _describe_nat(x) -> str:
    return f"({x[0]},{x[1]})"


def _chains_to_nat(t):
    a, b = t
    items = [(a + j, b + j) for j in (3, 2, 1, 0)]
    return (finite_chain(f"principal-chain-to-({a},{b})", items, a == b),)


class _Dyadic:
    """The dyadic cone at one exact scale: x is stored as the int x 2^bits."""

    def __init__(self, scale: Scale):
        self.check, self.bits = scale.check, scale.bits
        self.one = 1 << self.bits
        # The sampled coordinates m / 2^j (m < 65, j < 4), stored: table[m][j]
        # is m << (bits - j).  A draw picks m, then j.
        self.table = tuple(tuple(m << (self.bits - j) for j in range(4))
                           for m in range(65))

    def describe(self, x) -> str:
        one = self.one
        return f"({Fraction(x[0], one)},{Fraction(x[1], one)})"

    def sample(self, rng: random.Random):
        table = self.table
        return (table[below(rng, 65)][below(rng, 4)], table[below(rng, 65)][below(rng, 4)])

    def chains_to(self, t):
        a, b = t
        bits, check = self.bits, self.check

        def member(k: int):
            check(k)
            e = 1 << (bits - k)
            return (a + e, b + e)

        return (chain_to(t, a == b, lambda: f"dyadic-approach-{self.describe(t)}", member),
                finite_chain(lambda: f"constant-{self.describe(t)}", [t], a == b))


def _sample_nat(rng: random.Random):
    return (below(rng, 9), below(rng, 9))


def _idem_sampler(pick):
    def sample(rng: random.Random):
        a, _ = pick(rng)
        return (a, a)
    return sample


def _h_class_sample(pick):
    def hs(eps, rng: random.Random, k: int) -> list:
        e = eps[0]
        out = [eps]
        for _ in range(k):
            a, _ = pick(rng)
            out.append((a, e))
        return out
    return hs


def _family(cone: str, depth: int) -> SymbolicFamily:
    if cone == "nat":
        witnesses = _chains_to_nat((0, 0)) + _chains_to_nat((2, 2)) + _chains_to_nat((5, 3))
        chains_to = _chains_to_nat
        describe = _describe_nat
        sample = _sample_nat
        named = repr
    else:
        dyadic = _Dyadic(family_scale(depth))
        one, chains_to, describe = dyadic.one, dyadic.chains_to, dyadic.describe
        witnesses = (chains_to((one, one)) + chains_to((3 * one, 3 * one))
                     + chains_to((5 * one // 2, one // 2)))
        sample, named = dyadic.sample, describe
    return SymbolicFamily(
        name=f"bicyclic-{cone}",
        op=bicyclic_op,
        inv=bicyclic_inv,
        nat_le=bicyclic_le,
        is_idempotent=lambda x: x[0] == x[1],
        describe=describe,
        sample=sample,
        sample_idempotent=_idem_sampler(sample),
        witnesses=witnesses,
        chains_to=chains_to,
        h_class_sample=_h_class_sample(sample),
        wb_s=_wb_s(cone),
        wb_sigma=lambda e, d: bicyclic_wb(cone, e, d, named),
        zero=None,  # the bicyclic monoid has no zero element
    )


def bicyclic_nat(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The bicyclic monoid over N; its values are exact at every depth, so
    ``depth`` is ignored."""
    return _family("nat", depth)


def bicyclic_dyadic(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The bicyclic monoid over the dyadics, on the exact scale for ``depth``
    (``TooLarge`` past ``base.MAX_DEPTH``)."""
    return _family("dyadic", depth)
