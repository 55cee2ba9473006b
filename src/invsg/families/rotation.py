"""The rotation semigroup on the rational unit disc.

Elements are pairs (r, theta) with r in Q cap [0,1] and the angle theta in
Q cap [0,1) measured in turns, multiplied by

    (r, theta) x (r', theta') = (min(r, r'), theta + theta' mod 1),

with the canonical form theta = 0 whenever r = 0.  The involution is
conjugation, idempotents are the radii (theta = 0), and z <= z' iff r = 0
or (r <= r' and theta = theta').  The idempotent semilattice is [0, 1] with
the numeric order; its only compact element is 0, so the semigroup is
continuous but not algebraic.

Every value is stored as a pair of ints.  Angles lie in (1/27720)Z, since
27720 = lcm(1..12) covers every sampled denominator, the witness angle 1/3
and the character palette, so theta is stored as theta 27720 mod 27720 and
the angle sum is an int sum mod 27720.  Radii lie in (1/(27720 2^K))Z, where
K is the scale ``base.family_scale`` sizes to the depth the family is built
for (200 bits at the default depth), and are stored as r 27720 2^K; they are
only compared and min'd, so the oracles are the same at every K.  A sampled
or witness radius has r 27720 in Z, so the chain member r (1 - 2^-k), stored
as r - (r >> k), is exact for k up to the scale's limit < K; a member that
would round (on a finer radius) raises ``TooLarge`` instead.  A
``RotationScale`` is the encoding at one scale: its ``canonical`` is the one
constructor from rationals and its ``value`` decodes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .base import (DEFAULT_DEPTH, ChainWitness, SymbolicFamily, chain_to, family_scale,
                   finite_chain, grid_rows)

__all__ = ["OutOfRange", "RotationScale", "rotation_op", "rotation_inv", "rotation_le",
           "rotation_wb_sigma", "rotation_family"]

_TURN = 27720                     # angle unit: lcm(1..12) per turn
_ZERO = (0, 0)


class OutOfRange(ValueError):
    pass


def rotation_op(z, z1):
    # one comparison, not min(): the builtin call took 45% of a product (CPython 3.11)
    r = z[0] if z[0] <= z1[0] else z1[0]
    return (r, (z[1] + z1[1]) % _TURN) if r else _ZERO


def rotation_inv(z):
    return (z[0], -z[1] % _TURN)


def rotation_le(z, z1) -> bool:
    r, t = z
    r1, t1 = z1
    return r == 0 or (r <= r1 and t == t1)


def rotation_wb_sigma(eps, delta) -> bool:
    """Way-below between radii: eps << delta iff eps = 0 or eps < delta."""
    return eps == 0 or eps < delta


def _wb_s(z, z1) -> bool:
    r, t = z
    r1, t1 = z1
    return r == 0 or (r < r1 and t == t1)


def _wb_sigma(e, d) -> bool:
    # idempotents carried as full elements (radius, 0)
    return rotation_wb_sigma(e[0], d[0])


# The sampled angles m/q (m < q), stored, for q = 1..12: _ANGLES[q - 1][m].
# A draw picks q (getrandbits(4) until below 12), then m in its row.
_ANGLES = grid_rows(tuple(m * (_TURN // q) for m in range(q)) for q in range(1, 13))


def _rand_angle(rng: random.Random) -> int:
    g = rng.getrandbits
    q = g(4)
    while q >= 12:
        q = g(4)
    angles, n, k = _ANGLES[q]
    m = g(k)
    while m >= n:
        m = g(k)
    return angles[m]


def _h_class_sample(eps, rng: random.Random, k: int) -> list:
    r = eps[0]
    if r == 0:
        return [_ZERO]
    return [eps] + [(r, _rand_angle(rng)) for _ in range(k)]


class RotationScale:
    """The encoding of the rotation values at the exact scale for a depth
    (``TooLarge`` past ``base.MAX_DEPTH``)."""

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.scale = scale = family_scale(depth)
        self.unit = _TURN << scale.bits   # the encoding of radius 1
        self.one = (self.unit, 0)
        # The sampled radii m/q (m <= q), stored, for q = 1..12: radii[q - 1][m].
        # A draw picks q, then m, as an angle is drawn.
        self.radii = grid_rows(tuple(m * (self.unit // q) for m in range(q + 1))
                               for q in range(1, 13))

    def canonical(self, r, theta):
        """The encoded element of radius r in [0, 1] and angle theta in turns
        (rationals); OutOfRange off the grid, never a rounded value."""
        r, theta = Fraction(r), Fraction(theta)
        if not 0 <= r <= 1:
            raise OutOfRange(f"radius {r} outside [0, 1]")
        ri, ti = r * self.unit, theta * _TURN
        if ri.denominator != 1 or ti.denominator != 1:
            raise OutOfRange(f"({r},{theta}) is off the grid "
                             f"(1/{_TURN} 2^{self.scale.bits})Z x (1/{_TURN})Z")
        return _ZERO if r == 0 else (int(ri), int(ti) % _TURN)

    def value(self, z) -> tuple[Fraction, Fraction]:
        """The rationals (r, theta) that z encodes."""
        return Fraction(z[0], self.unit), Fraction(z[1], _TURN)

    def describe(self, z) -> str:
        return "({},{})".format(*self.value(z))

    def approach(self, z, k: int):
        """Member k of the radius chain to z: radius r (1 - 2^-k), same angle."""
        if not k:
            return _ZERO
        return (self.scale.approach(z[0], k, lambda: f"radius chain to {self.describe(z)}"),
                z[1])

    def chains_to(self, z) -> tuple[ChainWitness, ...]:
        r, t = z
        if r == 0:
            return (finite_chain("constant-zero", [_ZERO], True),)
        # r - (r >> k) is exact while 2^k divides r, so up to r's trailing
        # zeros; ``approach`` gives member 0 and refuses a k past them or
        # past the limit
        exact = min(self.scale.limit, (r & -r).bit_length() - 1)

        def member(k: int):
            return (r - (r >> k), t) if 0 < k <= exact else self.approach(z, k)

        return (chain_to(z, t == 0, lambda: f"radius-approach-{self.describe(z)}", member),
                finite_chain(lambda: f"constant-{self.describe(z)}", [z], t == 0))

    def sample(self, rng: random.Random):
        g = rng.getrandbits
        q = g(4)
        while q >= 12:
            q = g(4)
        radii, n, k = self.radii[q]
        m = g(k)
        while m >= n:
            m = g(k)
        r, theta = radii[m], _rand_angle(rng)
        return (r, theta) if r else _ZERO

    def sample_idempotent(self, rng: random.Random):
        g = rng.getrandbits
        q = g(4)
        while q >= 12:
            q = g(4)
        radii, n, k = self.radii[q]
        m = g(k)
        while m >= n:
            m = g(k)
        return (radii[m], 0)


def rotation_family(depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The rotation semigroup on the exact scale for ``depth``."""
    enc = RotationScale(depth)
    witnesses = (enc.chains_to(enc.one) + enc.chains_to(enc.canonical(Fraction(1, 2), 0))
                 + enc.chains_to(enc.canonical(Fraction(3, 4), Fraction(1, 3))))
    return SymbolicFamily(
        name="rotation",
        op=rotation_op,
        inv=rotation_inv,
        nat_le=rotation_le,
        is_idempotent=lambda z: z[1] == 0,
        describe=enc.describe,
        sample=enc.sample,
        sample_idempotent=enc.sample_idempotent,
        witnesses=witnesses,
        chains_to=enc.chains_to,
        h_class_sample=_h_class_sample,
        wb_s=_wb_s,
        wb_sigma=_wb_sigma,
        zero=_ZERO,
    )
