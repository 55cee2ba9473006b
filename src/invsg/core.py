"""Finite inverse semigroups as validated multiplication tables.

Elements are dense integer ids ``0..n-1``; ``table[s][t]`` is the product
``s*t`` (with ``t`` applied first when elements act as maps).  A carrier is
immutable after validation and every operation here is a pure function, so
values can be shared freely between threads.

Isomorphism-invariant data (the intrinsic order, the idempotent set) is
always derived from the table, never stored authoritatively.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import countOf, itemgetter
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "NotInverseSemigroup",
    "NotAssociative",
    "NoInverse",
    "NonUniqueInverse",
    "NotIdempotent",
    "TooLarge",
    "FiniteInvSemigroup",
    "idempotents",
    "sup_finite",
    "h_class",
    "is_reduced",
    "restrict",
    "tabulate",
    "generated",
    "inverse_subsemigroups",
    "to_json",
    "from_json",
    "load_carrier",
    "bits",
    "mask_of",
    "right_generators",
]

# Validation reads O(|A| n^2) table entries in Light's test, A its right
# generators, and O(|A| n) more to find the inverses along the generator steps:
# I_5 (n = 1,546, |A| = 3), the largest carrier built here, is validated in
# about 0.19 s, 0.11 s of it Light's test and its greedy passes, 0.07 s the
# type and range check of the entries and 1 ms the inverses, which the
# exhaustive scan took 0.13 s to find; coset:S4 (n = 234) in 15 ms, with |A| =
# 8 from the ascending greedy where the descending one needs 55 (Python 3.11,
# one core of a Xeon host).


class NotInverseSemigroup(Exception):
    """The multiplication table fails an inverse-semigroup axiom."""


class NotAssociative(NotInverseSemigroup):
    def __init__(self, s: int, t: int, u: int):
        self.triple = (s, t, u)
        super().__init__(f"({s}*{t})*{u} != {s}*({t}*{u})")


class NoInverse(NotInverseSemigroup):
    def __init__(self, s: int):
        self.element = s
        super().__init__(f"element {s} has no t with s*t*s = s and t*s*t = t")


class NonUniqueInverse(NotInverseSemigroup):
    def __init__(self, s: int, t1: int, t2: int):
        self.element = s
        self.witnesses = (t1, t2)
        super().__init__(f"element {s} has two inverses: {t1} and {t2}")


class NotIdempotent(ValueError):
    def __init__(self, e: int):
        self.element = e
        super().__init__(f"element {e} is not idempotent")


class TooLarge(Exception):
    """A carrier, enumeration or chain past its desk-scale limit."""

    def __init__(self, what: str, limit: int, remedy: str = ""):
        super().__init__(f"{what} exceeds the desk-scale limit {limit}"
                         + (f"; {remedy}" if remedy else ""))


def bits(mask: int):
    """Yield the set bit positions of a Python-int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """The Python-int bitmask with the given bit positions set."""
    m = 0
    for x in ids:
        m |= 1 << x
    return m


def right_generators(n: int, mul: Callable[[int, int], int]
                     ) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A set A of ids whose left-normed products a1*a2*...*ak give all ids.

    ``mul(x, y)`` is the product of ids ``x`` and ``y``; it is called only
    with a right factor in A.  A is picked greedily, highest uncovered id
    first, and its right closure is grown breadth-first.  Returns ``(A,
    steps)``: ``steps`` holds one ``(y, p, a)`` with ``y = mul(p, a)`` and
    ``a`` in A for every id ``y`` not in A, in an order where ``p`` is in A or
    has an earlier step.  Every product ``x * a`` with ``a`` in A is computed
    exactly once, so a ``mul`` that raises on an escaping product sees them
    all.
    """
    return _greedy(n, mul, range(n - 1, -1, -1))


def _greedy(n: int, mul: Callable[[int, int], int], order: Iterable[int],
            cap: Optional[int] = None
            ) -> Optional[tuple[list[int], list[tuple[int, int, int]]]]:
    """The greedy of ``right_generators``, taking uncovered ids in ``order``;
    None as soon as it needs a ``cap``-th generator."""
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    covered = [False] * n
    reached: list[int] = []       # covered ids, in the order they were reached
    for g in order:
        if covered[g]:
            continue
        if cap is not None and len(gens) + 1 >= cap:
            return None
        gens.append(g)
        old = len(reached)        # these ids have met every earlier generator
        covered[g] = True
        reached.append(g)
        # breadth-first, as the list grows while it is read
        for i, x in enumerate(reached):
            for a in gens if i >= old else (g,):
                y = mul(x, a)
                if not covered[y]:
                    covered[y] = True
                    steps.append((y, x, a))
                    reached.append(y)
    return gens, steps


def _check_associative(table) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Light's test: (x*a)*y == x*(a*y) for every right generator a.

    The a that pass for all x, y are closed under the product: if a and b
    pass, then (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  Every
    element is a left-normed product of the generators A, built in this
    table, so if all of A passes, every element does and the table is
    associative.  The test reads |A| n^2 entries, so A is the smaller of the
    greedy sets taken from the highest id down and from the lowest id up
    (the second is given up once it is no smaller).  The later members of A
    often generate the first, picked when nothing was covered (on I_5 they
    do), so A drops it if the rest cover all n ids; that greedy pass of n |A|
    Python products is tried only when 32 |A| < n, as the n^2 reads it
    saves are each about 32 times cheaper, in C.  The first failing (x, a,
    y) is raised.  Returns A and its steps, as ``right_generators`` does.
    Rows must be tuples, as ``FiniteInvSemigroup`` stores them.
    """
    n = len(table)

    def mul(x: int, y: int) -> int:
        return table[x][y]

    gens, steps = right_generators(n, mul)
    gens, steps = _greedy(n, mul, range(n), len(gens)) or (gens, steps)
    if 1 < len(gens) and 32 * len(gens) < n:
        fewer = _greedy(n, mul, gens[1:])
        if len(fewer[0]) + len(fewer[1]) == n:
            gens, steps = fewer
    if n == 1:
        return gens, steps        # [[0]] is the only 1x1 table in range
    for a in gens:
        arow = table[a]
        times_a = itemgetter(*arow)   # row of x -> row of x*a, if a passes
        for x in range(n):
            row = table[x]
            lhs = table[row[a]]
            if times_a(row) != lhs:
                y = next(y for y in range(n) if lhs[y] != row[arow[y]])
                raise NotAssociative(x, a, y)
    return gens, steps


def _inverses_along(table, gens, steps) -> Optional[tuple[int, ...]]:
    """The inverse of every id, found along the steps of the generators, or
    None when a check fails.

    Each generator a must have exactly one t with a*t*a = a and t*a*t = t;
    each step y = p*a then takes y* = a* p* and checks y y* y = y and y* y y*
    = y*.  So every element gets an inverse in O(n), and once the
    idempotents commute too, the table is an inverse semigroup (Lawson,
    *Inverse Semigroups*, 1998, 1.1), whose inverses are unique: these are
    the ones the exhaustive scan would find.
    """
    n = len(table)
    inv = [-1] * n
    for a in gens:
        arow = table[a]
        found = [t for t in range(n)
                 if table[arow[t]][a] == a and table[table[t][a]][t] == t]
        if len(found) != 1:
            return None
        inv[a] = found[0]
    for y, p, a in steps:
        z = table[inv[a]][inv[p]]
        if table[table[y][z]][y] != y or table[table[z][y]][z] != z:
            return None
        inv[y] = z
    return tuple(inv)


def _compute_inverses(table) -> tuple[int, ...]:
    # The exhaustive scan, run only after a failed check, to name the first
    # element without a unique inverse: NoInverse, or NonUniqueInverse with
    # its first two inverses.
    n = len(table)
    inv = []
    for s in range(n):
        found = -1
        for t in range(n):
            if table[table[s][t]][s] == s and table[table[t][s]][t] == t:
                if found >= 0:
                    raise NonUniqueInverse(s, found, t)
                found = t
        if found < 0:
            raise NoInverse(s)
        inv.append(found)
    return tuple(inv)


class FiniteInvSemigroup:
    """A validated multiplication table with cached inverses and order.

    The inverse of s is ``S.inv[s]``, its source is ``S.sigma[s] = s* s``,
    and ``S.le(s, t)`` is the natural order.
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        # tuple(row) is the row itself when it is a tuple: no copy of the table
        tbl = tuple(map(tuple, table))
        n = len(tbl)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        if any(len(row) != n for row in tbl):
            raise ValueError("multiplication table must be square")
        # exact types: a bool or a float entry is rejected, not converted,
        # even where it equals an int entry that a set would keep instead
        if countOf(map(type, chain.from_iterable(tbl)), int) != n * n:
            raise ValueError("table entries must be ints")
        values = set().union(*tbl)
        if min(values) < 0 or max(values) >= n:
            x = next(x for x in chain.from_iterable(tbl) if not 0 <= x < n)
            raise ValueError(f"table entry {x} out of range [0, {n})")
        self.n = n
        self.table = tbl
        self.names = tuple(str(x) for x in names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError("names must match the element count")

        inv = _inverses_along(tbl, *_check_associative(tbl))
        idem = tuple(s for s in range(n) if tbl[s][s] == s)
        clash = next(((e, f) for e in idem for f in idem if tbl[e][f] != tbl[f][e]),
                     None)
        if inv is None or clash is not None:
            # not an inverse semigroup: the exhaustive scan names the first
            # element without a unique inverse.  It raises on a clash too, as
            # a semigroup in which each element has exactly one inverse is
            # inverse, so its idempotents commute (Lawson, 1998, 1.1)
            inv = _compute_inverses(tbl)
        self.inv = inv
        for s in range(n):
            if inv[inv[s]] != s:
                # unreachable once inverses are unique; kept as a hard guard
                raise NotInverseSemigroup(f"inv is not an involution at {s}")
        self._idempotents = idem
        self._idem_mask = mask_of(idem)

        # source map sigma(s) = s* s, always idempotent
        self.sigma = tuple(tbl[self.inv[s]][s] for s in range(n))

        # an identity is idempotent
        self.identity = next((e for e in idem
                              if all(tbl[e][t] == t == tbl[t][e] for t in range(n))), None)

        self._up: Optional[list[int]] = None

    # -- basic operations -------------------------------------------------

    def mul(self, s: int, t: int) -> int:
        return self.table[s][t]

    def is_idempotent(self, s: int) -> bool:
        return (self._idem_mask >> s) & 1 == 1

    def le(self, s: int, t: int) -> bool:
        """Intrinsic order: s <= t iff s = t * (s* s)."""
        return self.table[t][self.sigma[s]] == s

    def up_masks(self) -> list[int]:
        """up_masks()[s] is the bitmask of all t with s <= t (cached)."""
        if self._up is None:
            tbl = self.table
            self._up = [mask_of(t for t, row in enumerate(tbl) if row[sig] == s)
                        for s, sig in enumerate(self.sigma)]
        return self._up

    def name_of(self, s: int) -> str:
        return self.names[s] if self.names is not None else str(s)

    def __repr__(self):
        return f"FiniteInvSemigroup(n={self.n})"


# -- spec operations -------------------------------------------------------


def idempotents(S: FiniteInvSemigroup) -> tuple[int, ...]:
    """The commuting idempotents of S, sorted by element id."""
    return S._idempotents


def sup_finite(S: FiniteInvSemigroup, A: Iterable[int]) -> Optional[int]:
    """Least upper bound of a nonempty element set, or None if there is none."""
    members = list(A)
    if not members:
        raise ValueError("sup_finite needs a nonempty set")
    up = S.up_masks()
    ub = (1 << S.n) - 1
    for a in members:
        ub &= up[a]
    for u in bits(ub):
        if ub & ~up[u] == 0:  # u is below every upper bound
            return u
    return None


def h_class(S: FiniteInvSemigroup, eps: int) -> tuple[int, ...]:
    """All s with sigma(s) = eps; eps must be idempotent."""
    if not S.is_idempotent(eps):
        raise NotIdempotent(eps)
    return tuple(s for s in range(S.n) if S.sigma[s] == eps)


def is_reduced(S: FiniteInvSemigroup) -> bool:
    """True iff every element above an idempotent is idempotent."""
    up = S.up_masks()
    for e in idempotents(S):
        if up[e] & ~S._idem_mask:
            return False
    return True


def restrict(S: FiniteInvSemigroup, subset: Sequence[int]) -> FiniteInvSemigroup:
    """The sub-carrier on a product-closed subset, revalidated from scratch."""
    sub = list(subset)
    names = [S.name_of(x) for x in sub] if S.names is not None else None
    return tabulate(sub, S.mul, names)


def tabulate(elems: Sequence, mul: Callable, names: Optional[Iterable] = None
             ) -> FiniteInvSemigroup:
    """The validated carrier of a product-closed list: id i is ``elems[i]``.

    Elements are told apart by ``==`` and hash.  A repeated element, or a
    product that is not in the list, raises ValueError.
    """
    index = {x: i for i, x in enumerate(elems)}
    if len(index) < len(elems):
        repeated = next(x for i, x in enumerate(elems) if index[x] != i)
        raise ValueError(f"element {repeated} is listed twice")
    table = [[index.get(mul(s, t)) for t in elems] for s in elems]
    for s, row in zip(elems, table):
        if None in row:
            t = elems[row.index(None)]
            raise ValueError(f"subset not closed under product: {s}*{t} = {mul(s, t)}")
    return FiniteInvSemigroup(table, names)


def generated(S: FiniteInvSemigroup, mask: int, limit: Optional[int] = None
              ) -> Optional[int]:
    """The inverse subsemigroup generated by the ids in ``mask``, as a
    bitmask, or None once it has more than ``limit`` elements.

    A, the ids and their inverses, is closed under ``*`` since (a1...ak)* =
    ak*...a1*, so the closure is the left-normed products of A; they are
    grown breadth-first by right multiplication with A.
    """
    cur = mask | mask_of(S.inv[x] for x in bits(mask))
    gens = list(bits(cur))
    reached = gens.copy()
    for x in reached:             # grows while it is read
        row = S.table[x]
        for a in gens:
            y = row[a]
            if not cur >> y & 1:
                cur |= 1 << y
                reached.append(y)
        if limit is not None and len(reached) > limit:
            return None
    return cur


def inverse_subsemigroups(S: FiniteInvSemigroup, limit: Optional[int] = None,
                          symmetries: Sequence[Sequence[int]] = ()) -> set[int]:
    """The bitmasks of all nonempty inverse subsemigroups of S, or of those
    with at most ``limit`` elements; given ``symmetries``, a group of
    automorphisms of S as id maps, the least mask of each orbit of them.

    They are grown one generator at a time from the empty set; each is
    reached, as every closure on the way stays inside it.  A closure m keeps
    the ids g that generated it and grows from g | x, whose closure is that
    of m | x as m = <g>, on fewer generators.  As g | x and g | x* have one
    closure, and x* is outside m when x is, only the one of x, x* with the
    larger id is grown.

    With symmetries, a new closure is replaced by the least of its images,
    and g by its image under the same map, which generates it.  Every least
    mask C is still reached: C = <D | x> for a maximal inverse subsemigroup
    D of C (D empty if there is none), some image p(D) has been grown, as D
    is smaller, and growing it by p(x), or p(x)* = p(x*), gives p(C), whose
    least image is C.
    """
    shifts = [[1 << y for y in p] for p in symmetries]   # p(A) = sum of these over A
    found: set[int] = set()
    seen = set() if shifts else found       # every member of the orbits found
    frontier = [(0, 0)]
    for m, g in frontier:         # grows while it is read
        for x in range(S.n):
            if not m >> x & 1 and S.inv[x] >= x:
                gen = g | 1 << x
                grown = generated(S, gen, limit)
                if grown is None or grown in seen:
                    continue
                if shifts:
                    ids, gids = list(bits(grown)), list(bits(gen))
                    orbit = [(sum(map(s.__getitem__, ids)), sum(map(s.__getitem__, gids)))
                             for s in shifts]
                    seen.update(image for image, _ in orbit)
                    grown, gen = min(orbit)
                found.add(grown)
                frontier.append((grown, gen))
    return found


# -- JSON carrier format ----------------------------------------------------


def to_json(S: FiniteInvSemigroup) -> dict:
    obj: dict = {"n": S.n, "table": [list(row) for row in S.table]}
    if S.names is not None:
        obj["names"] = list(S.names)
    return obj


def from_json(obj) -> FiniteInvSemigroup:
    """Build a carrier from ``{"n": int, "table": [[int]]}`` (+ optional names).

    This is the boundary for outside input.  The structure is checked here;
    the constructor checks the entry types exactly, so a float entry or a
    JSON ``true`` is rejected, not converted to an int.
    """
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except RecursionError:
            raise ValueError("carrier JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValueError("carrier JSON must be an object with a 'table' field")
    table, names = obj["table"], obj.get("names")
    if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
        raise ValueError("carrier JSON: 'table' must be a list of lists")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(x, str) for x in names)):
        raise ValueError("carrier JSON: 'names' must be a list of strings")
    if "n" in obj and not (_is_int(obj["n"]) and obj["n"] == len(table)):
        raise ValueError("carrier JSON: 'n' does not match the table size")
    return FiniteInvSemigroup(table, names)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_carrier(path: str) -> FiniteInvSemigroup:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
