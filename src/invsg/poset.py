"""Finite-poset domain theory.

Directed subsets, suprema, the way-below relation, compactness, continuity,
algebraicity and meet-continuity on explicit boolean order matrices.  On a
finite poset every directed subset contains its maximum, which is its sup,
so way-below is the order itself and each law over directed sets is decided
on comparable pairs, at every size (Gierz et al., Continuous Lattices and
Domains, 2003).  ``way_below_def`` and ``directed_subsets`` keep the
definitional quantification over all subsets for small posets; the tests
check the collapse against them, and nothing here calls them.

Subsets of a poset are passed around as iterables of element ids and held
internally as Python-int bitmasks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .core import bits, mask_of

__all__ = [
    "NotAPartialOrder",
    "TooLargeForDefinitionalCheck",
    "NotAMeetSemilattice",
    "FinitePoset",
    "is_directed",
    "sup",
    "directed_subsets",
    "way_below_def",
    "way_below_matrix",
    "compacts",
    "is_continuous",
    "is_algebraic",
    "meet_table",
    "is_meet_continuous",
    "way_below_multiplicative",
    "covers",
    "hasse_dot",
    "order_poset",
    "sigma_poset",
]

# Definitional checks enumerate all subsets; 2^12 is the audit-friendly cap.
DEFINITIONAL_LIMIT = 12


class NotAPartialOrder(Exception):
    pass


class TooLargeForDefinitionalCheck(Exception):
    pass


class NotAMeetSemilattice(Exception):
    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"elements {x} and {y} have no meet")


class FinitePoset:
    """An explicit order relation, verified reflexive/antisymmetric/transitive."""

    def __init__(self, le: Sequence[Sequence[bool]]):
        n = len(le)
        rows = tuple(tuple(bool(v) for v in row) for row in le)
        for row in rows:
            if len(row) != n:
                raise NotAPartialOrder("relation matrix must be square")
        up = [0] * n    # up[x] = mask of y with x <= y
        down = [0] * n  # down[y] = mask of x with x <= y
        for x in range(n):
            for y in range(n):
                if rows[x][y]:
                    up[x] |= 1 << y
                    down[y] |= 1 << x
        for x in range(n):
            if not rows[x][x]:
                raise NotAPartialOrder(f"not reflexive at {x}")
        for x in range(n):
            for y in bits(up[x]):
                if x != y and rows[y][x]:
                    raise NotAPartialOrder(f"not antisymmetric at ({x}, {y})")
                if up[y] & ~up[x]:
                    z = next(bits(up[y] & ~up[x]))
                    raise NotAPartialOrder(f"not transitive at ({x}, {y}, {z})")
        self.n = n
        self.le_matrix = rows
        self.up = up
        self.down = down

    @classmethod
    def from_relation(cls, n: int, leq: Callable[[int, int], bool]) -> "FinitePoset":
        return cls([[leq(x, y) for y in range(n)] for x in range(n)])

    def leq(self, x: int, y: int) -> bool:
        return self.le_matrix[x][y]

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self):
        return f"FinitePoset(n={self.n})"


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


def sup(P: FinitePoset, A: Iterable[int]) -> Optional[int]:
    """Least upper bound of a nonempty subset, or None."""
    mask = mask_of(A)
    if mask == 0:
        raise ValueError("sup of the empty set is not defined here")
    ub = P.full_mask()
    for a in bits(mask):
        ub &= P.up[a]
    for u in bits(ub):
        if ub & ~P.up[u] == 0:
            return u
    return None


def _subset_count(P: FinitePoset) -> int:
    return sum(1 << (bin(P.down[m]).count("1") - 1) for m in range(P.n))


def directed_subsets(P: FinitePoset, cost_limit: int = 1 << 16):
    """Yield every directed subset as a bitmask, each exactly once.

    A directed subset of a finite poset contains its maximum, so the subsets
    are exactly ``{m} | B`` with ``B`` ranging over subsets of the strict
    down-set of ``m``; enumeration is grouped by that maximum.
    """
    if _subset_count(P) > cost_limit:
        raise TooLargeForDefinitionalCheck(
            f"directed-subset enumeration would exceed {cost_limit} subsets")
    for m in range(P.n):
        below = P.down[m] & ~(1 << m)
        rest = list(bits(below))
        k = len(rest)
        for pick in range(1 << k):
            mask = 1 << m
            for i in bits(pick):
                mask |= 1 << rest[i]
            yield mask, m


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


def way_below_matrix(P: FinitePoset) -> list[int]:
    """Row masks of the way-below relation: row[x] has bit y iff x << y.

    A directed D with ``y <= sup D`` contains its maximum, which is ``sup D``
    and lies above ``x`` whenever ``x <= y``; ``D = {y}`` refutes the rest.
    So way-below is the order, and row[x] is the up-set of x.
    """
    return list(P.up)


def compacts(P: FinitePoset) -> tuple[int, ...]:
    wb = way_below_matrix(P)
    return tuple(x for x in range(P.n) if (wb[x] >> x) & 1)


def is_continuous(P: FinitePoset) -> bool:
    """Every element is the directed sup of the elements way-below it; true on
    a finite poset, where way-below is the order and the approximants of s form
    its down-set, directed with maximum s.  Kept as a test reference."""
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
    on a finite poset, where every element is compact.  Kept as a test reference."""
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


# -- Hasse diagrams ----------------------------------------------------------


def covers(P: FinitePoset) -> list[tuple[int, int]]:
    """The transitive reduction: (x, y) with y covering x."""
    out = []
    for x in range(P.n):
        strict_up = P.up[x] & ~(1 << x)
        for y in bits(strict_up):
            between = strict_up & P.down[y] & ~(1 << y)
            if between == 0:
                out.append((x, y))
    return out


def hasse_dot(P: FinitePoset, labels: Optional[Sequence[str]] = None) -> str:
    """DOT digraph of the transitive reduction, edges pointing upward."""
    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lab = [labels[i] if labels is not None else str(i) for i in range(P.n)]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(P.n):
        lines.append(f"  n{i} [label={q(lab[i])}];")
    for x, y in covers(P):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- adapters from carriers ---------------------------------------------------


def order_poset(S) -> FinitePoset:
    """The intrinsic order of a finite inverse semigroup as a poset."""
    return FinitePoset.from_relation(S.n, S.le)


def sigma_poset(S) -> tuple[FinitePoset, tuple[int, ...]]:
    """The idempotent subposet and the id map back into the carrier."""
    idem = tuple(e for e in range(S.n) if S.is_idempotent(e))
    P = FinitePoset.from_relation(len(idem), lambda i, j: S.le(idem[i], idem[j]))
    return P, idem
