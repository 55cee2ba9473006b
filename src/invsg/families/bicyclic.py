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

A dyadic coordinate x is stored as the int x 2^K (K = ``SCALE_BITS``).  The
product, the order and way-below use only +, -, max, <= and ==, and each of
them commutes with scaling by 2^K, so both cones share ``bicyclic_op``,
``bicyclic_inv``, ``bicyclic_le`` and the way-below oracles on ints.  The
sampled dyadics have denominators up to 8 and chain member k adds 2^-k with
k <= ``MAX_CHAIN_INDEX`` < K, so every value is an exact integer; ``describe``
prints x as the Fraction x / 2^K.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import NotIdempotent
from .base import (SCALE_BITS as K, ChainWitness, SymbolicFamily, below,
                   check_chain_index, finite_list_chain)

__all__ = ["bicyclic_op", "bicyclic_le", "bicyclic_wb", "is_dyadic",
           "bicyclic_nat", "bicyclic_dyadic"]


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


def is_dyadic(q: Fraction) -> bool:
    return q >= 0 and (q.denominator & (q.denominator - 1)) == 0


def bicyclic_wb(cone: str, eps, delta) -> bool:
    """Way-below between idempotents (a,a) and (b,b) over the given cone."""
    a, aa = eps
    b, bb = delta
    if a != aa or b != bb:
        bad = eps if a != aa else delta
        raise NotIdempotent(_describe_dyadic(bad) if cone == "dyadic" else repr(bad))
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


def _describe_dyadic(x) -> str:
    return f"({Fraction(x[0], 1 << K)},{Fraction(x[1], 1 << K)})"


def _chains_to_nat(t):
    a, b = t
    items = [(a + j, b + j) for j in (3, 2, 1, 0)]
    return (finite_list_chain(f"principal-chain-to-({a},{b})", items, in_sigma=(a == b),
                              sup_in_sigma=t if a == b else None,
                              sup_in_s=t, upper_bounds=(t,)),)


def _chains_to_dyadic(t):
    a, b = t

    def member(k: int):
        check_chain_index(k)
        e = 1 << (K - k)
        return (a + e, b + e)

    asc = ChainWitness(label=lambda: f"dyadic-approach-{_describe_dyadic(t)}",
                       member=member, in_sigma=(a == b),
                       sup_in_sigma=t if a == b else None,
                       sup_in_s=t, upper_bounds=(t,))
    const = finite_list_chain(lambda: f"constant-{_describe_dyadic(t)}", [t],
                              in_sigma=(a == b),
                              sup_in_sigma=t if a == b else None,
                              sup_in_s=t, upper_bounds=(t,))
    return (asc, const)


# The sampled dyadic coordinates m / 2^j (m < 65, j < 4), stored: _DYADIC[m][j]
# is m << (K - j).  A draw picks m, then j.
_DYADIC = tuple(tuple(m << (K - j) for j in range(4)) for m in range(65))


def _dyadic_coord(rng: random.Random) -> int:
    return _DYADIC[below(rng, 65)][below(rng, 4)]


def _sampler(cone: str):
    if cone == "nat":
        def sample(rng: random.Random):
            return (below(rng, 9), below(rng, 9))
    else:
        def sample(rng: random.Random):
            return (_dyadic_coord(rng), _dyadic_coord(rng))
    return sample


def _idem_sampler(cone: str):
    pick = _sampler(cone)

    def sample(rng: random.Random):
        a, _ = pick(rng)
        return (a, a)
    return sample


def _h_class_sample(cone: str):
    pick = _sampler(cone)

    def hs(eps, rng: random.Random, k: int) -> list:
        e = eps[0]
        out = [eps]
        for _ in range(k):
            a, _ = pick(rng)
            out.append((a, e))
        return out
    return hs


def _family(cone: str) -> SymbolicFamily:
    if cone == "nat":
        witnesses = _chains_to_nat((0, 0)) + _chains_to_nat((2, 2)) + _chains_to_nat((5, 3))
        chains_to = _chains_to_nat
        describe = _describe_nat
    else:
        one = 1 << K
        witnesses = (_chains_to_dyadic((one, one)) + _chains_to_dyadic((3 * one, 3 * one))
                     + _chains_to_dyadic((5 * one // 2, one // 2)))
        chains_to = _chains_to_dyadic
        describe = _describe_dyadic
    claimed = {"reduced": True, "mirror": True, "continuous": True,
               "algebraic": cone == "nat", "stably_continuous": True}
    return SymbolicFamily(
        name=f"bicyclic-{cone}",
        op=bicyclic_op,
        inv=bicyclic_inv,
        nat_le=bicyclic_le,
        is_idempotent=lambda x: x[0] == x[1],
        describe=describe,
        sample=_sampler(cone),
        sample_idempotent=_idem_sampler(cone),
        witnesses=witnesses,
        chains_to=chains_to,
        h_class_sample=_h_class_sample(cone),
        wb_s=_wb_s(cone),
        wb_sigma=lambda e, d: bicyclic_wb(cone, e, d),
        zero=None,  # the bicyclic monoid has no zero element
        claimed=claimed,
    )


def bicyclic_nat() -> SymbolicFamily:
    return _family("nat")


def bicyclic_dyadic() -> SymbolicFamily:
    return _family("dyadic")
