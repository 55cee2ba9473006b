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
at the default depth).  The product and the order use only +, -, max, <= and
==, and each of them commutes with scaling by 2^K, so both cones share
``bicyclic_op``, ``bicyclic_inv`` and ``bicyclic_le`` on ints, at every K.
Each cone has its own way-below oracles: over N they are the order, and over
the dyadics the order with a strict inequality of coordinates.  The sampled
dyadics have denominators up to 8 and chain member k adds 2^-k with k up to
the scale's limit < K, so every value is an exact integer; ``describe``
prints x as the Fraction x / 2^K.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from ..core import NotIdempotent
from .base import DEFAULT_DEPTH, SymbolicFamily, chain_to, family_scale, finite_chain

__all__ = ["bicyclic_op", "bicyclic_le", "bicyclic_nat", "bicyclic_dyadic"]


def bicyclic_op(x, y):
    a, b = x
    c, d = y
    # one comparison, not max(b, c): the builtin call took 40% of a product (CPython 3.11)
    m = b if b > c else c
    return (a - b + m, d - c + m)


def bicyclic_inv(x):
    a, b = x
    return (b, a)


def bicyclic_le(x, y) -> bool:
    a, b = x
    c, d = y
    return c == d + a - b and d <= b


def _wb_sigma(describe, wb):
    """Way-below between idempotents (a,a) and (b,b): ``wb(a, b)``.  A
    non-idempotent argument raises ``NotIdempotent`` named by ``describe``."""
    def wb_sigma(eps, delta) -> bool:
        a, aa = eps
        b, bb = delta
        if a != aa or b != bb:
            raise NotIdempotent(describe(eps if a != aa else delta))
        return wb(a, b)
    return wb_sigma


def _describe_nat(x) -> str:
    return f"({x[0]},{x[1]})"


def _chains_to_nat(t):
    a, b = t
    items = [(a + j, b + j) for j in (3, 2, 1, 0)]
    return (finite_chain(f"principal-chain-to-({a},{b})", items, a == b),)


class _Dyadic:
    """The dyadic cone at the exact scale for a depth: x is stored as the int
    x 2^bits."""

    def __init__(self, depth: int):
        scale = family_scale(depth)
        self.check, self.bits, self.limit = scale.check, scale.bits, scale.limit
        self.one = 1 << self.bits
        # The sampled coordinates m / 2^j (m < 65, j < 4), stored: table[m][j]
        # is m << (bits - j).  A draw picks m, then j, each as ``below`` draws
        # it: getrandbits(7) until below 65, then getrandbits(3) until below 4.
        self.table = tuple(tuple(m << (self.bits - j) for j in range(4))
                           for m in range(65))

    def describe(self, x) -> str:
        one = self.one
        return f"({Fraction(x[0], one)},{Fraction(x[1], one)})"

    def sample(self, rng: random.Random):
        g, table = rng.getrandbits, self.table
        m = g(7)
        while m >= 65:
            m = g(7)
        j = g(3)
        while j >= 4:
            j = g(3)
        a = table[m][j]
        m = g(7)
        while m >= 65:
            m = g(7)
        j = g(3)
        while j >= 4:
            j = g(3)
        return (a, table[m][j])

    def chains_to(self, t):
        a, b = t
        bits, check, limit = self.bits, self.check, self.limit

        def member(k: int):
            if k > limit:
                check(k)
            e = 1 << (bits - k)
            return (a + e, b + e)

        return (chain_to(t, a == b, lambda: f"dyadic-approach-{self.describe(t)}", member),
                finite_chain(lambda: f"constant-{self.describe(t)}", [t], a == b))


def _sample_nat(rng: random.Random):
    # below(rng, 9) twice, inline: getrandbits(4) until below 9
    g = rng.getrandbits
    a = g(4)
    while a >= 9:
        a = g(4)
    b = g(4)
    while b >= 9:
        b = g(4)
    return (a, b)


def _wb_s_dyadic(s, t) -> bool:
    return bicyclic_le(s, t) and s[1] > t[1]


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


def _family(cone: str, describe, sample, chains_to, witnesses, wb_s, wb) -> SymbolicFamily:
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
        wb_s=wb_s,
        wb_sigma=_wb_sigma(describe, wb),
        zero=None,  # the bicyclic monoid has no zero element
    )


def bicyclic_nat(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The bicyclic monoid over N; its values are exact at every depth, so
    ``depth`` is ignored.  Every idempotent is compact, so way-below on S is
    the order, and (a,a) << (b,b) iff a >= b."""
    witnesses = _chains_to_nat((0, 0)) + _chains_to_nat((2, 2)) + _chains_to_nat((5, 3))
    return _family("nat", _describe_nat, _sample_nat, _chains_to_nat, witnesses,
                   bicyclic_le, operator.ge)


def bicyclic_dyadic(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The bicyclic monoid over the dyadics, on the exact scale for ``depth``
    (``TooLarge`` past ``base.MAX_DEPTH``); (a,a) << (b,b) iff a > b."""
    dyadic = _Dyadic(depth)
    one, chains_to = dyadic.one, dyadic.chains_to
    witnesses = (chains_to((one, one)) + chains_to((3 * one, 3 * one))
                 + chains_to((5 * one // 2, one // 2)))
    return _family("dyadic", dyadic.describe, dyadic.sample, chains_to, witnesses,
                   _wb_s_dyadic, operator.gt)
