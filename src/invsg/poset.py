"""Finite posets: suprema, directed subsets, way-below and Hasse diagrams.

A poset is an explicit boolean order matrix, verified on construction.
``invsg hasse`` draws the order of a carrier, or of a family's sample
window, with ``order_poset``, ``covers`` and ``hasse_dot``.

On a finite poset every directed subset contains its maximum, which is its
sup, so way-below is the order itself (Gierz et al., Continuous Lattices and
Domains, 2003), and ``way_below_matrix`` is the up-sets.  ``sup`` and
``directed_subsets`` quantify as the definitions do.  No verdict calls them
or ``way_below_matrix``: the tests check the collapse against them, and the
tracer of ``perfbench/`` wraps all three.  The definitional way-below
and the laws of continuity, algebraicity and meet-continuity are test
references, in ``tests/reference.py``.

Subsets of a poset are passed around as iterables of element ids and held
internally as Python-int bitmasks.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Iterable, Optional, Sequence

from .core import bits, mask_of

__all__ = [
    "NotAPartialOrder",
    "TooLargeForDefinitionalCheck",
    "FinitePoset",
    "sup",
    "directed_subsets",
    "way_below_matrix",
    "covers",
    "hasse_dot",
    "order_poset",
    "sigma_poset",
]


class NotAPartialOrder(Exception):
    pass


class TooLargeForDefinitionalCheck(Exception):
    pass


class FinitePoset:
    """An explicit order relation, verified reflexive/antisymmetric/transitive."""

    def __init__(self, le: Sequence[Sequence[bool]]):
        n = len(le)
        rows = tuple(tuple(bool(v) for v in row) for row in le)
        for row in rows:
            if len(row) != n:
                raise NotAPartialOrder("relation matrix must be square")
        # up[x] = mask of y with x <= y; down[y] = mask of x with x <= y
        up = [mask_of(compress(count(), row)) for row in rows]
        down = [mask_of(compress(count(), col)) for col in zip(*rows)]
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
            yield 1 << m | mask_of(rest[i] for i in bits(pick)), m


def way_below_matrix(P: FinitePoset) -> list[int]:
    """Row masks of the way-below relation: row[x] has bit y iff x << y.

    A directed D with ``y <= sup D`` contains its maximum, which is ``sup D``
    and lies above ``x`` whenever ``x <= y``; ``D = {y}`` refutes the rest.
    So way-below is the order, and row[x] is the up-set of x.
    """
    return list(P.up)


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
