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
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "NotInverseSemigroup",
    "NotAssociative",
    "NoInverse",
    "NonUniqueInverse",
    "IdempotentsDontCommute",
    "NotIdempotent",
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

# Validation reads O(|A| n^2) table entries, A the right generators of Light's
# test: I_5 (n = 1,546, |A| = 4), the largest carrier built here, is built and
# validated in about 0.75 s, 0.25 s of it Light's test, 0.25 s the inverse scan
# and 0.14 s the type and range check of the entries (Python 3.11, one core of
# a Xeon host).


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


class IdempotentsDontCommute(NotInverseSemigroup):
    def __init__(self, e: int, f: int):
        self.pair = (e, f)
        super().__init__(f"idempotents {e} and {f} do not commute")


class NotIdempotent(ValueError):
    def __init__(self, e: int):
        self.element = e
        super().__init__(f"element {e} is not idempotent")


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
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    covered = [False] * n
    order: list[int] = []         # covered ids, in the order they were reached

    def visit(x: int, a: int) -> None:
        y = mul(x, a)
        if not covered[y]:
            covered[y] = True
            steps.append((y, x, a))
            order.append(y)

    for g in range(n - 1, -1, -1):
        if covered[g]:
            continue
        gens.append(g)
        old = len(order)          # these ids have met every earlier generator
        covered[g] = True
        order.append(g)
        for x in order[:old]:
            visit(x, g)
        head = old                # breadth-first over the ids reached since
        while head < len(order):
            x = order[head]
            head += 1
            for a in gens:
                visit(x, a)
    return gens, steps


def _check_associative(table) -> None:
    """Light's test: (x*a)*y == x*(a*y) for every right generator a.

    The a that pass for all x, y are closed under the product: if a and b
    pass, then (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  Every
    element is a left-normed product of the generators A, built in this
    table, so if all of A passes, every element does and the table is
    associative.  The first failing (x, a, y) is raised.  Rows must be
    tuples, as ``FiniteInvSemigroup`` stores them.
    """
    n = len(table)
    if n == 1:
        return                    # [[0]] is the only 1x1 table in range
    gens, _ = right_generators(n, lambda x, y: table[x][y])
    for a in gens:
        arow = table[a]
        times_a = itemgetter(*arow)   # row of x -> row of x*a, if a passes
        for x in range(n):
            row = table[x]
            lhs = table[row[a]]
            if times_a(row) != lhs:
                y = next(y for y in range(n) if lhs[y] != row[arow[y]])
                raise NotAssociative(x, a, y)


def _compute_inverses(table) -> tuple[int, ...]:
    # Exhaustive search, failing fast with the first counterexample element.
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
        # exact types: a bool or a float entry is rejected, not converted
        if not set(map(type, chain.from_iterable(tbl))) <= {int}:
            raise ValueError("table entries must be ints")
        values = set(chain.from_iterable(tbl))
        if min(values) < 0 or max(values) >= n:
            x = next(x for x in chain.from_iterable(tbl) if not 0 <= x < n)
            raise ValueError(f"table entry {x} out of range [0, {n})")
        self.n = n
        self.table = tbl
        self.names = tuple(str(x) for x in names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError("names must match the element count")

        _check_associative(tbl)
        self.inv = _compute_inverses(tbl)
        for s in range(n):
            if self.inv[self.inv[s]] != s:
                # unreachable once inverses are unique; kept as a hard guard
                raise NotInverseSemigroup(f"inv is not an involution at {s}")

        idem = tuple(s for s in range(n) if tbl[s][s] == s)
        for e in idem:
            for f in idem:
                if tbl[e][f] != tbl[f][e]:
                    raise IdempotentsDontCommute(e, f)
        self._idempotents = idem
        self._idem_mask = sum(1 << e for e in idem)

        # source map sigma(s) = s* s, always idempotent
        self.sigma = tuple(tbl[self.inv[s]][s] for s in range(n))

        self.identity = None
        for e in range(n):
            if all(tbl[e][t] == t == tbl[t][e] for t in range(n)):
                self.identity = e
                break

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
            up = []
            for s in range(self.n):
                sig = self.sigma[s]
                m = 0
                for t in range(self.n):
                    if self.table[t][sig] == s:
                        m |= 1 << t
                up.append(m)
            self._up = up
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

    Elements are told apart by ``==`` and hash.  A product that is not in
    the list raises ValueError.
    """
    index = {x: i for i, x in enumerate(elems)}
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


def inverse_subsemigroups(S: FiniteInvSemigroup, limit: Optional[int] = None) -> set[int]:
    """The bitmasks of all nonempty inverse subsemigroups of S, or of those
    with at most ``limit`` elements.

    They are grown one generator at a time from the empty set; each is
    reached, as every closure on the way stays inside it.
    """
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
