"""Character monoids of finite commutative inverse monoids.

A character is a monoid morphism into the rotation semigroup on the rational
unit disc: chi(1) = 1 and chi(s t) = chi(s) x chi(t) pointwise (compatibility
with the involution then comes for free).  Characters multiply pointwise and
form an inverse monoid themselves; a character is idempotent exactly when all
its values have angle zero.

Values are encoded rotation elements (pairs of ints, see ``rotation``), on
the rotation scale for the depth the family is built for: the family builds
them through that ``RotationScale``'s ``canonical`` and ``approach``,
multiplies them with the rotation oracles, and decodes them only in
``describe``, so no Fraction arithmetic runs in its oracles.  The functions
that build characters take that depth, and a character carries its scale in
its identity value chi(1) = (27720 2^K, 0).

This family only claims structure, order, reducedness and mirror evidence;
continuity classification is partial (the underlying argument is
lattice-theoretic over the cube of idempotent values), so no way-below
oracles are installed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct

from ..core import FiniteInvSemigroup, TooLarge
from .base import DEFAULT_DEPTH, ChainWitness, SymbolicFamily, below, chain_to, finite_chain
from .rotation import RotationScale, rotation_inv, rotation_le, rotation_op

__all__ = ["enumerate_characters", "character_family", "trivial_character"]

_ZERO = (0, 0)  # radius 0 at every scale


def _require_commutative_monoid(S: FiniteInvSemigroup) -> int:
    if S.identity is None:
        raise ValueError("character carrier must be a monoid")
    for a in range(S.n):
        for b in range(S.n):
            if S.table[a][b] != S.table[b][a]:
                raise ValueError("character carrier must be commutative")
    return S.identity


def _violating_pair(S: FiniteInvSemigroup, chi) -> tuple[int, int] | None:
    for s in range(S.n):
        for t in range(S.n):
            if chi[S.table[s][t]] != rotation_op(chi[s], chi[t]):
                return (s, t)
    return None


def trivial_character(S: FiniteInvSemigroup, depth: int = DEFAULT_DEPTH):
    return (RotationScale(depth).one,) * S.n


# The palette: radius 0, or a nonzero radius here with an angle here.
_PALETTE_R = (Fraction(1, 2), Fraction(1))
_PALETTE_TH = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def enumerate_characters(S: FiniteInvSemigroup, depth: int = DEFAULT_DEPTH) -> list[tuple]:
    """All characters with values on a rational palette (brute force)."""
    e = _require_commutative_monoid(S)
    if S.n > 5:
        raise TooLarge("character carrier order", 5)
    enc = RotationScale(depth)
    values = [_ZERO] + [enc.canonical(r, th) for r in _PALETTE_R for th in _PALETTE_TH]
    slots = [i for i in range(S.n) if i != e]
    found = []
    for pick in iproduct(values, repeat=len(slots)):
        chi = [None] * S.n
        chi[e] = enc.one
        for i, v in zip(slots, pick):
            chi[i] = v
        chi = tuple(chi)
        if _violating_pair(S, chi) is None:
            found.append(chi)
    return found


def _units(S: FiniteInvSemigroup) -> list[int]:
    return [s for s in range(S.n) if S.sigma[s] == S.identity]


def _damped(S: FiniteInvSemigroup, one, radius):
    """``one`` on the units, the encoded idempotent ``radius`` elsewhere;
    always a character."""
    units = set(_units(S))
    return tuple(one if s in units else radius for s in range(S.n))


def character_family(S: FiniteInvSemigroup, depth: int = DEFAULT_DEPTH) -> SymbolicFamily:
    """The character monoid of a finite commutative inverse monoid, on the
    rotation scale for ``depth``.  It samples products of the palette
    characters, which include the trivial one, as the palette holds 1."""
    enc = RotationScale(depth)
    pool = enumerate_characters(S, depth=depth)
    triv = trivial_character(S, depth)

    def op(chi, psi):
        # pool members and their products are characters by construction, so
        # the family oracle does not re-validate the morphism law
        return tuple(rotation_op(a, b) for a, b in zip(chi, psi))

    def inv(chi):
        return tuple(rotation_inv(v) for v in chi)

    def nat_le(chi, psi) -> bool:
        # chi <= psi iff chi = psi * sigma(chi); that condition is pointwise,
        # and per coordinate it collapses to the rotation-semigroup order
        return all(rotation_le(c, p) for c, p in zip(chi, psi))

    def is_idem(chi) -> bool:
        return all(v[1] == 0 for v in chi)

    def describe(chi) -> str:
        return "[" + ", ".join(f"{S.name_of(i)}:{enc.describe(v)}"
                               for i, v in enumerate(chi)) + "]"

    def sample(rng: random.Random):
        # a product of one to three pool members; pool[below(rng, len(pool))]
        # is the draw of ``choice`` on the pool
        chi = pool[below(rng, len(pool))]
        for _ in range(below(rng, 3)):
            chi = op(chi, pool[below(rng, len(pool))])
        return chi

    def sample_idem(rng: random.Random):
        chi = sample(rng)
        return op(inv(chi), chi)

    def chains_to(chi) -> tuple[ChainWitness, ...]:
        idem = is_idem(chi)

        def member(k: int):
            damp = enc.approach(enc.one, k)
            return tuple(rotation_op(v, damp) for v in chi)

        return (chain_to(chi, idem, "damped-chain", member),
                finite_chain("constant", [chi], idem))

    def h_class_sample(eps, rng: random.Random, k: int) -> list:
        out = [chi for chi in pool if op(inv(chi), chi) == eps]
        return out[: max(k, 2)] if out else []

    # the unit-indicator character is the zero element whenever it absorbs
    zero_candidate = _damped(S, enc.one, _ZERO)
    is_zero = all(op(zero_candidate, chi) == zero_candidate for chi in pool)

    def main_witness() -> ChainWitness:
        def member(k: int):
            return _damped(S, enc.one, enc.approach(enc.one, k))

        return chain_to(triv, True, "damped-to-trivial", member)

    return SymbolicFamily(
        name=f"characters:{S.n}",
        op=op,
        inv=inv,
        nat_le=nat_le,
        is_idempotent=is_idem,
        describe=describe,
        sample=sample,
        sample_idempotent=sample_idem,
        witnesses=(main_witness(),) + chains_to(triv),
        chains_to=chains_to,
        h_class_sample=h_class_sample,
        wb_s=None,
        wb_sigma=None,
        zero=zero_candidate if is_zero else None,
    )
