"""Partial bijections, symmetric inverse monoids and finite pseudogroups.

A partial bijection on the ground set ``0..n-1`` is stored as a length-n
tuple with ``-1`` for "undefined"; subsets of the ground set travel as
bitmasks.  The product convention matches the carrier tables everywhere:
``f * g`` applies ``g`` first, then ``f``, so ``table[s][t] = s*t`` has the
left factor applied second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import core
from .core import FiniteInvSemigroup, TooLarge, bits, mask_of

__all__ = [
    "GroundMismatch",
    "NotATopology",
    "NotInverseClosed",
    "PartialBijection",
    "GeneratedSemigroup",
    "symmetric_inverse_monoid",
    "closure",
    "enumerate_inverse_subsemigroups",
    "canonical_table",
    "FiniteTopology",
    "all_topologies",
    "pseudogroup_of_space",
    "closed_set_adjunction",
]


class GroundMismatch(Exception):
    pass


class NotATopology(Exception):
    pass


class NotInverseClosed(Exception):
    """Unreachable for closure-built sets; guards table construction."""


def _compose(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """The mapping of ``f * g``: apply ``g`` first, then ``f``."""
    return tuple(-1 if v == -1 else f[v] for v in g)


class PartialBijection:
    """A partial injective map on ``0..ground-1``."""

    __slots__ = ("ground", "mapping")

    def __init__(self, ground: int, mapping: Sequence[int]):
        m = tuple(int(v) for v in mapping)
        if len(m) != ground:
            raise ValueError("mapping length must equal the ground size")
        seen = set()
        for v in m:
            if v == -1:
                continue
            if not 0 <= v < ground:
                raise ValueError(f"image point {v} out of range")
            if v in seen:
                raise ValueError("mapping is not injective")
            seen.add(v)
        self.ground = ground
        self.mapping = m

    # -- constructors --

    @classmethod
    def on_set(cls, n: int, points: Iterable[int]) -> "PartialBijection":
        """The partial identity on a subset of the ground set; a point outside
        ``0..n-1`` raises ValueError."""
        pts = set(points)
        outside = pts.difference(range(n))
        if outside:
            raise ValueError(f"point {min(outside)} out of range")
        return cls(n, tuple(i if i in pts else -1 for i in range(n)))

    # -- structure --

    def dom_mask(self) -> int:
        return mask_of(i for i, v in enumerate(self.mapping) if v != -1)

    def image_mask(self) -> int:
        return mask_of(v for v in self.mapping if v != -1)

    def inverse(self) -> "PartialBijection":
        out = [-1] * self.ground
        for i, v in enumerate(self.mapping):
            if v != -1:
                out[v] = i
        return PartialBijection(self.ground, out)

    def __mul__(self, other: "PartialBijection") -> "PartialBijection":
        if self.ground != other.ground:
            raise GroundMismatch(f"ground sizes {self.ground} != {other.ground}")
        return PartialBijection(self.ground, _compose(self.mapping, other.mapping))

    def le(self, other: "PartialBijection") -> bool:
        """Natural order: restriction of the bigger map."""
        if self.ground != other.ground:
            raise GroundMismatch(f"ground sizes {self.ground} != {other.ground}")
        return all(v == -1 or other.mapping[i] == v
                   for i, v in enumerate(self.mapping))

    def __eq__(self, other):
        return (isinstance(other, PartialBijection)
                and self.ground == other.ground and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.ground, self.mapping))

    def __repr__(self):
        pairs = ", ".join(f"{i}->{v}" for i, v in enumerate(self.mapping) if v != -1)
        return "{" + pairs + "}"


@dataclass(frozen=True)
class GeneratedSemigroup:
    """A carrier together with its faithful partial-bijection representation."""

    carrier: FiniteInvSemigroup
    rep: tuple[PartialBijection, ...]

    def index(self, f: PartialBijection) -> int:
        try:
            return self.rep.index(f)
        except ValueError:
            raise KeyError(f"{f} is not an element of this semigroup") from None

    def verify_faithful(self) -> bool:
        C = self.carrier
        for s in range(C.n):
            if self.rep[C.inv[s]] != self.rep[s].inverse():
                return False
            for t in range(C.n):
                if self.rep[C.table[s][t]] != self.rep[s] * self.rep[t]:
                    return False
        return True


def _partial(n: int, dom: Iterable[int], img: Iterable[int]) -> PartialBijection:
    """The partial bijection sending ``dom`` to ``img``, point by point."""
    mp = [-1] * n
    for d, i in zip(dom, img):
        mp[d] = i
    return PartialBijection(n, mp)


def _sorted_elements(elems: Iterable[PartialBijection]) -> list[PartialBijection]:
    return sorted(set(elems), key=lambda f: ((dom := f.dom_mask()).bit_count(),
                                             dom, f.mapping))


def _build(elems: Iterable[PartialBijection]) -> GeneratedSemigroup:
    """The validated carrier of a product-closed set of partial bijections.

    Maps are composed only for ``x * a`` and ``a * z`` with ``a`` in the
    right generators A of ``core.right_generators``: 2 n |A| products, not
    n^2.  The first give the steps ``y = p * a``; the second are the rows of
    the generators.  Every other row follows its step as ``y * z = p * (a *
    z)``, the row of ``p`` read at the row of ``a``, which is exact because
    composition of partial maps is associative.  A product that leaves the
    set is still always found: every ``x * a`` is composed, and if none
    escapes, neither does any ``x * y = ((x * a1) * ...) * ak``.
    """
    rep = _sorted_elements(elems)
    maps = [f.mapping for f in rep]
    index = {m: i for i, m in enumerate(maps)}

    def mul(x: int, y: int) -> int:
        try:
            return index[_compose(maps[x], maps[y])]
        except KeyError:
            raise NotInverseClosed(f"{rep[x]} * {rep[y]} escapes the element set") from None

    n = len(rep)
    gens, steps = core.right_generators(n, mul)
    table: list = [None] * n
    for a in gens:
        table[a] = tuple(mul(a, z) for z in range(n))
    times = {a: itemgetter(*table[a]) for a in gens}
    for y, p, a in steps:
        table[y] = times[a](table[p])
    carrier = FiniteInvSemigroup(table, names=[repr(f) for f in rep])
    return GeneratedSemigroup(carrier, tuple(rep))


def symmetric_inverse_monoid(n: int) -> GeneratedSemigroup:
    """Every partial bijection of an n-point set, as a validated carrier."""
    if n < 1:
        raise ValueError(f"symmetric inverse monoid ground must be positive, got {n}")
    if n > 5:
        raise TooLarge("symmetric inverse monoid ground", 5)
    pts = range(n)
    return _build(_partial(n, dom, img) for k in range(n + 1)
                  for dom in combinations(pts, k) for img in permutations(pts, k))


def closure(ground: int, gens: Iterable[PartialBijection]) -> GeneratedSemigroup:
    """Smallest product- and inverse-closed set containing the generators: the
    left-normed products of the generators and their inverses, grown by right
    multiplication with them, as in ``core.generated``."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.ground != ground:
            raise GroundMismatch(f"generator ground {g.ground} != {ground}")
    A = list(dict.fromkeys(gens + [g.inverse() for g in gens]))
    current = set(A)
    reached = A.copy()
    for f in reached:             # grows while it is read
        for a in A:
            p = f * a
            if p not in current:
                current.add(p)
                reached.append(p)
    return _build(current)


# -- isomorphism-canonical tables --------------------------------------------


def _iso_fingerprints(table: Sequence[Sequence[int]]) -> list[tuple]:
    """Per-element invariants preserved by any semigroup isomorphism."""
    n = len(table)
    idem = [table[x][x] == x for x in range(n)]
    fps = []
    for x in range(n):
        row = table[x]
        col = [table[y][x] for y in range(n)]
        # index of the first idempotent power and the power-cycle length
        seen = {x: 0}
        y, k = x, 0
        while True:
            y = table[y][x]
            k += 1
            if y in seen:
                tail, cyc = seen[y], k - seen[y]
                break
            seen[y] = k
        fps.append((idem[x], len(set(row)), len(set(col)),
                    sum(idem[v] for v in row), sum(idem[v] for v in col),
                    tail, cyc))
    # one refinement round: append the multiset of neighbour fingerprints
    refined = []
    for x in range(n):
        nb = sorted((fps[table[x][y]], fps[table[y][x]]) for y in range(n))
        refined.append((fps[x], tuple(nb)))
    return refined


def canonical_table(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Minimal relabeling of the table over all element permutations.

    Permutations are restricted to fingerprint-preserving ones, which is
    sound (isomorphisms preserve the fingerprints) and keeps the search
    feasible for carriers of order <= 10; past 5,000,000 permutations it
    raises ``TooLarge``.
    """
    n = len(table)
    fps = _iso_fingerprints(table)
    blocks: dict[tuple, list[int]] = {}
    for x in range(n):
        blocks.setdefault(fps[x], []).append(x)
    ordered = [blocks[k] for k in sorted(blocks.keys(), key=repr)]
    total = math.prod(math.factorial(len(b)) for b in ordered)
    if total > 5_000_000:
        raise TooLarge("canonicalization permutation count", 5_000_000)

    best = None
    for parts in product(*[permutations(b) for b in ordered]):
        g = [x for part in parts for x in part]  # new index -> old element
        pos = [0] * n
        for i, x in enumerate(g):
            pos[x] = i
        cand = tuple(tuple(pos[table[g[i]][g[j]]] for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


def enumerate_inverse_subsemigroups(n: int, max_order: int) -> Iterator[FiniteInvSemigroup]:
    """All product- and inverse-closed subsets of I_n up to isomorphism, validated.

    The subsemigroups come from ``core.inverse_subsemigroups``, first up to
    conjugation f -> p f p^-1 by the permutations p of Sym(n), automorphisms
    of I_n: the least mask of each orbit.  Conjugates are isomorphic, so the
    least mask of an isomorphism class is the least of its orbit, and is
    among them.  They are taken in order of size, then bitmask, and the
    first of each isomorphism class is yielded, so the stream is
    deterministic.  They are bucketed by the sorted fingerprints of their
    elements, an isomorphism invariant: the first in a bucket is new, and
    canonical tables tell the rest apart, computed only in a bucket that
    gets a second subsemigroup.
    """
    if n > 3:
        raise TooLarge("enumeration ground", 3)
    if max_order > 10:
        raise TooLarge("enumeration max order", 10)
    In = symmetric_inverse_monoid(n)
    C = In.carrier
    maps = [f.mapping for f in In.rep]
    index = {f: i for i, f in enumerate(maps)}
    conj = []
    for p in permutations(range(n)):
        q = sorted(range(n), key=p.__getitem__)     # p^-1
        conj.append([index[_compose(p, _compose(f, q))] for f in maps])
    first: dict[tuple, tuple] = {}      # bucket -> the table of its first
    keys: dict[tuple, set] = {}         # bucket -> its canonical tables so far
    for m in sorted(core.inverse_subsemigroups(C, max_order, conj),
                    key=lambda v: (bin(v).count("1"), v)):
        sub = core.restrict(C, list(bits(m)))
        bucket = tuple(sorted(_iso_fingerprints(sub.table)))
        if bucket not in first:
            first[bucket] = sub.table
            yield sub
            continue
        if bucket not in keys:
            keys[bucket] = {canonical_table(first[bucket])}
        key = canonical_table(sub.table)
        if key not in keys[bucket]:
            keys[bucket].add(key)
            yield sub


# -- finite topological spaces ------------------------------------------------


class FiniteTopology:
    """Open sets of a finite space, stored as bitmasks over the points."""

    def __init__(self, points: int, opens: Iterable[int]):
        full = (1 << points) - 1
        op = frozenset(int(o) for o in opens)
        for o in op:
            if o & ~full:
                raise NotATopology(f"open set {o:b} uses points outside the space")
        if 0 not in op or full not in op:
            raise NotATopology("the empty set and the full set must be open")
        for a in op:
            for b in op:
                if (a | b) not in op:
                    raise NotATopology(f"not closed under union: {a:b}, {b:b}")
                if (a & b) not in op:
                    raise NotATopology(f"not closed under intersection: {a:b}, {b:b}")
        self.points = points
        self.opens = op

    def closed_sets(self) -> list[int]:
        full = (1 << self.points) - 1
        return sorted(full ^ o for o in self.opens)

    def __repr__(self):
        return f"FiniteTopology(points={self.points}, opens={sorted(self.opens)})"


def all_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on an n-point set, by brute force (n <= 3)."""
    if n > 3:
        raise TooLarge("topology enumeration points", 3)
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    for pick in range(1 << len(middles)):
        opens = {0, full}
        for i in bits(pick):
            opens.add(middles[i])
        try:
            yield FiniteTopology(n, opens)
        except NotATopology:
            continue


def _is_partial_homeo(T: FiniteTopology, f: PartialBijection) -> bool:
    U, V = f.dom_mask(), f.image_mask()
    if U not in T.opens or V not in T.opens:
        return False
    inv = f.inverse()
    return all(mask_of(map(inv.mapping.__getitem__, bits(O & V))) in T.opens
               and mask_of(map(f.mapping.__getitem__, bits(O & U))) in T.opens
               for O in T.opens)


def pseudogroup_of_space(T: FiniteTopology) -> GeneratedSemigroup:
    """All homeomorphisms between open subspaces, closed under the product."""
    if T.points > 4:
        raise TooLarge("pseudogroup points", 4)
    elems = []
    opens = sorted(T.opens)
    for U in opens:
        upts = list(bits(U))
        for V in opens:
            if bin(U).count("1") != bin(V).count("1"):
                continue
            for img in permutations(list(bits(V))):
                f = _partial(T.points, upts, img)
                if _is_partial_homeo(T, f):
                    elems.append(f)
    return _build(elems)


def closed_set_adjunction(T: FiniteTopology, P: GeneratedSemigroup) -> tuple[dict, dict]:
    """The two maps i(F) = id on X\\F and j(f) = X \\ dom(f).

    ``i`` sends a closed set to an idempotent of the pseudogroup and ``j``
    sends an idempotent back; together they form the adjunction between
    closed sets under reverse inclusion and the idempotent semilattice.
    """
    full = (1 << T.points) - 1
    i_map: dict[int, int] = {}
    for F in T.closed_sets():
        pid = PartialBijection.on_set(T.points, bits(full ^ F))
        i_map[F] = P.index(pid)
    j_map: dict[int, int] = {}
    for e in core.idempotents(P.carrier):
        j_map[e] = full ^ P.rep[e].dom_mask()
    return i_map, j_map
