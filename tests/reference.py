"""Test-only references: definitional domain theory, coset products and
checked character products.

No verdict, CLI verb or documented API calls these, so they live with the
tests that use them as references or helpers (``tests/test_reach.py`` keeps
``src/invsg`` to what is reached).

- Finite-poset laws.  On a finite poset every directed subset contains its
  maximum, which is its sup, so way-below is the order and each law over
  directed sets is decided on comparable pairs (Gierz et al., Continuous
  Lattices and Domains, 2003).  ``way_below_def`` keeps the definitional
  quantification over all subsets for small posets; the tests check the
  collapse against it.
- Coset monoids.  ``coset_product`` is the product of two cosets on its own,
  and ``groups_of_order_at_most`` the named groups up to an order.
- Characters.  ``character_op`` is the product of two characters that first
  checks both are characters on one scale, and ``is_character`` that check.
- Carrier validation and enumeration the direct way.  ``validate_reference``
  runs Light's test on the greedy generators from the highest id down and
  the exhaustive inverse scan; ``inverse_subsemigroups_reference`` grows
  each subsemigroup from all of its ids; ``enumerate_reference``
  deduplicates the inverse subsemigroups of I_n by the canonical table of
  every one.  The tests check the constructor and the enumeration against
  them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator

from invsg.core import (FiniteInvSemigroup, NoInverse, NonUniqueInverse, NotAssociative,
                        bits, generated, mask_of, restrict, right_generators)
from invsg.families.base import MAX_DEPTH, family_scale
from invsg.families.characters import _violating_pair
from invsg.families.cosets import GROUP_NAMES, _product_rows, all_cosets, group_by_name
from invsg.families.rotation import _TURN, rotation_op
from invsg.pbij import canonical_table, symmetric_inverse_monoid
from invsg.poset import FinitePoset, TooLargeForDefinitionalCheck, sup, way_below_matrix

# -- finite posets ------------------------------------------------------------

# Definitional checks enumerate all subsets; 2^12 is the audit-friendly cap.
DEFINITIONAL_LIMIT = 12


class NotAMeetSemilattice(Exception):
    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"elements {x} and {y} have no meet")


def is_directed(P: FinitePoset, A: Iterable[int]) -> bool:
    """Nonempty, and every pair has an upper bound inside the subset."""
    mask = mask_of(A)
    if mask == 0:
        return False
    members = list(bits(mask))
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if not P.up[x] & P.up[y] & mask:
                return False
    return True


def way_below_def(P: FinitePoset, x: int, y: int) -> bool:
    """Definitional way-below: enumerate all subsets, no cleverness.

    For every directed subset D with a supremum, ``y <= sup D`` must force
    some member of D above ``x``.
    """
    if P.n > DEFINITIONAL_LIMIT:
        raise TooLargeForDefinitionalCheck(
            f"|P| = {P.n} > {DEFINITIONAL_LIMIT}")
    for mask in range(1, 1 << P.n):
        members = list(bits(mask))
        if not is_directed(P, members):
            continue
        v = sup(P, members)
        if v is None or not P.leq(y, v):
            continue
        if not any(P.leq(x, d) for d in members):
            return False
    return True


def compacts(P: FinitePoset) -> tuple[int, ...]:
    wb = way_below_matrix(P)
    return tuple(x for x in range(P.n) if (wb[x] >> x) & 1)


def is_continuous(P: FinitePoset) -> bool:
    """Every element is the directed sup of the elements way-below it; true on
    a finite poset, where way-below is the order and the approximants of s form
    its down-set, directed with maximum s."""
    wb = way_below_matrix(P)
    for s in range(P.n):
        approx = [x for x in range(P.n) if (wb[x] >> s) & 1]
        if not is_directed(P, approx):
            return False
        if sup(P, approx) != s:
            return False
    return True


def is_algebraic(P: FinitePoset) -> bool:
    """Every element is the directed sup of the compact elements below it; true
    on a finite poset, where every element is compact."""
    wb = way_below_matrix(P)
    kmask = 0
    for x in range(P.n):
        if (wb[x] >> x) & 1:
            kmask |= 1 << x
    for s in range(P.n):
        below = [x for x in bits(P.down[s] & kmask)]
        if not is_directed(P, below):
            return False
        if sup(P, below) != s:
            return False
    return True


def meet_table(P: FinitePoset) -> list[list[int]]:
    """Binary meets; raises NotAMeetSemilattice at the first missing meet."""
    n = P.n
    tbl = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lb = P.down[x] & P.down[y]
            best = -1
            for c in bits(lb):
                if lb & ~P.up[c] == 0:
                    best = c
                    break
            if best < 0:
                raise NotAMeetSemilattice(x, y)
            tbl[x][y] = best
    return tbl


def is_meet_continuous(P: FinitePoset) -> bool:
    """eps meet (sup D) = sup (eps meet D) for every directed D with a sup.

    A directed D has a maximum m = sup D, and eps meet m lies in eps meet D;
    so the law holds on D iff eps meet d <= eps meet m for each d in D, and
    {d, m} is directed for d <= m.  Checked on every such pair and every eps.
    """
    meets = meet_table(P)
    for m in range(P.n):
        for d in bits(P.down[m]):
            for eps in range(P.n):
                if not (P.up[meets[eps][d]] >> meets[eps][m]) & 1:
                    return False
    return True


def way_below_multiplicative(P: FinitePoset, mul: Callable[[int, int], int]) -> bool:
    """x << y and x' << y' imply xx' << yy'.

    Way-below is the order, so the law with x' = y' = u, or x = y = u, says
    that x <= y gives xu <= yu and ux <= uy; conversely, these give
    xx' <= yx' <= yy'.  So it is checked on pairs x <= y and elements u.
    """
    wb = way_below_matrix(P)
    return all((wb[mul(x, u)] >> mul(y, u)) & 1 and (wb[mul(u, x)] >> mul(u, y)) & 1
               for x in range(P.n) for y in bits(wb[x]) for u in range(P.n))


# -- coset monoids ------------------------------------------------------------


class NotACoset(Exception):
    pass


def groups_of_order_at_most(k: int) -> dict[str, FiniteInvSemigroup]:
    return {name: g for name in GROUP_NAMES if (g := group_by_name(name)).n <= k}


def coset_product(G: FiniteInvSemigroup, C: frozenset[int], C1: frozenset[int]) -> frozenset[int]:
    """The smallest coset containing the setwise product C*C1."""
    cosets = all_cosets(G)
    index = {c: i for i, c in enumerate(cosets)}
    for D in (C, C1):
        if frozenset(D) not in index:
            raise NotACoset(f"{sorted(D)} is not a coset of this group")
    return cosets[_product_rows(G, cosets)(frozenset(C))[index[frozenset(C1)]]]


# -- characters ---------------------------------------------------------------

_MAX_BITS = family_scale(MAX_DEPTH).bits


class NotACharacter(Exception):
    def __init__(self, pair, detail=""):
        self.pair = pair
        super().__init__(f"morphism law fails at the pair {pair}{detail}")


def _is_one(z) -> bool:
    """Whether z is the encoded radius 1, angle 0 on some family's scale:
    (27720 2^b, 0) with b <= the bits of the deepest scale."""
    if type(z[0]) is not int or z[1] != 0 or z[0] <= 0 or z[0] % _TURN:
        return False
    q = z[0] // _TURN
    return q & (q - 1) == 0 and q.bit_length() <= _MAX_BITS + 1


def is_character(S: FiniteInvSemigroup, chi) -> bool:
    return (len(chi) == S.n and _is_one(chi[S.identity])
            and _violating_pair(S, chi) is None)


def character_op(S: FiniteInvSemigroup, chi, psi):
    """Pointwise rotation product of two characters of S on one scale."""
    e = S.identity
    for c in (chi, psi):
        if len(c) != S.n or not _is_one(c[e]):
            raise NotACharacter((e, e), " (identity value)")
        bad = _violating_pair(S, c)
        if bad is not None:
            raise NotACharacter(bad)
    if chi[e] != psi[e]:
        raise NotACharacter((e, e), " (the two characters are on different scales)")
    return tuple(rotation_op(a, b) for a, b in zip(chi, psi))


# -- carrier validation and enumeration ---------------------------------------


def validate_reference(table) -> tuple[tuple[int, ...], int | None, tuple[int, ...]]:
    """``(inv, identity, idempotents)`` of an in-range square table, or the
    first failed axiom raised as ``FiniteInvSemigroup`` names it: Light's
    test on ``right_generators``, then every element's inverses by an
    exhaustive scan.  Unique inverses make the table inverse, so its
    idempotents commute (Lawson, 1998, 1.1)."""
    tbl = tuple(map(tuple, table))
    n = len(tbl)
    gens, _ = right_generators(n, lambda x, y: tbl[x][y])
    for a in gens if n > 1 else ():   # [[0]] is associative
        arow = tbl[a]
        times_a = itemgetter(*arow)
        for x in range(n):
            row = tbl[x]
            lhs = tbl[row[a]]
            if times_a(row) != lhs:
                raise NotAssociative(x, a, next(y for y in range(n)
                                                if lhs[y] != row[arow[y]]))
    inv = []
    for s in range(n):
        found = [t for t in range(n)
                 if tbl[tbl[s][t]][s] == s and tbl[tbl[t][s]][t] == t]
        if not found:
            raise NoInverse(s)
        if len(found) > 1:
            raise NonUniqueInverse(s, found[0], found[1])
        inv.append(found[0])
    idem = tuple(s for s in range(n) if tbl[s][s] == s)
    identity = next((e for e in range(n)
                     if all(tbl[e][t] == t == tbl[t][e] for t in range(n))), None)
    return tuple(inv), identity, idem


def inverse_subsemigroups_reference(S: FiniteInvSemigroup, limit=None) -> set[int]:
    """The bitmasks of the nonempty inverse subsemigroups of S with at most
    ``limit`` elements, each grown by closing all of its ids with one more."""
    found: set[int] = set()
    frontier = [0]
    for m in frontier:            # grows while it is read
        for x in range(S.n):
            if not m >> x & 1:
                grown = generated(S, m | 1 << x, limit)
                if grown is not None and grown not in found:
                    found.add(grown)
                    frontier.append(grown)
    return found


def enumerate_reference(n: int, max_order: int) -> Iterator[FiniteInvSemigroup]:
    """The inverse subsemigroups of I_n with at most ``max_order`` elements,
    in order of size, then bitmask, each yielded unless an earlier one has
    its canonical table."""
    C = symmetric_inverse_monoid(n).carrier
    emitted: set[tuple] = set()
    for m in sorted(inverse_subsemigroups_reference(C, max_order),
                    key=lambda v: (bin(v).count("1"), v)):
        sub = restrict(C, list(bits(m)))
        key = canonical_table(sub.table)
        if key not in emitted:
            emitted.add(key)
            yield sub
