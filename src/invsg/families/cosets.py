"""Coset monoids of finite groups.

A coset of a group G is a set H*g for a subgroup H; any nonempty
intersection of cosets is again a coset, so every product set C*C' has a
smallest enclosing coset, and that product makes the coset collection an
inverse monoid.  The intrinsic order is reverse inclusion and the
idempotents are exactly the subgroups.

Groups are carried as validated FiniteInvSemigroup tables (a group is an
inverse semigroup whose only idempotent is the identity), built by
``core.tabulate``; constructors cover everything needed for the order <= 8
corpus plus S4 for headroom.  The subgroups are the inverse subsemigroups
that ``core.inverse_subsemigroups`` finds.
"""

from __future__ import annotations

from itertools import permutations
from operator import and_
from typing import Callable

from ..core import FiniteInvSemigroup, bits, idempotents, inverse_subsemigroups, tabulate

__all__ = [
    "NotACoset",
    "cyclic_group",
    "direct_product",
    "dihedral_group",
    "quaternion_group",
    "symmetric_group",
    "group_by_name",
    "groups_of_order_at_most",
    "subgroups",
    "all_cosets",
    "coset_product",
    "coset_monoid",
    "GROUP_NAMES",
]

_MAX_GROUP = 24


class NotACoset(Exception):
    pass


def cyclic_group(n: int) -> FiniteInvSemigroup:
    return tabulate(range(n), lambda a, b: (a + b) % n, range(n))


def direct_product(G: FiniteInvSemigroup, H: FiniteInvSemigroup) -> FiniteInvSemigroup:
    elems = [(a, b) for a in range(G.n) for b in range(H.n)]
    return tabulate(elems, lambda x, y: (G.table[x[0]][y[0]], H.table[x[1]][y[1]]),
                    elems)


def dihedral_group(n: int) -> FiniteInvSemigroup:
    """Order 2n: (rotation, flip) pairs with the usual semidirect product."""
    elems = [(r, f) for f in (0, 1) for r in range(n)]

    def mul(x, y):
        r1, f1 = x
        r2, f2 = y
        r = (r1 + r2) % n if f1 == 0 else (r1 - r2) % n
        return (r, f1 ^ f2)

    return tabulate(elems, mul, elems)


def quaternion_group() -> FiniteInvSemigroup:
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def base_mul(a: str, b: str) -> str:
        tbl = {("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
               ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
               ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}
        if a == "1":
            return b
        if b == "1":
            return a
        return tbl[(a, b)]

    def mul(x: str, y: str) -> str:
        sign = -1 if (x.startswith("-") ^ y.startswith("-")) else 1
        r = base_mul(x.lstrip("-"), y.lstrip("-"))
        if r.startswith("-"):
            sign, r = -sign, r[1:]
        return r if sign > 0 else "-" + r

    return tabulate(names, mul, names)


def symmetric_group(n: int) -> FiniteInvSemigroup:
    if n > 4:
        raise ValueError("symmetric groups only up to S4 here")
    elems = list(permutations(range(n)))
    return tabulate(elems, lambda p, q: tuple(p[q[i]] for i in range(n)), elems)


# Each group is built only when it is asked for.
_BUILDERS: dict[str, Callable[[], FiniteInvSemigroup]] = {
    "C1": lambda: cyclic_group(1), "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3), "C4": lambda: cyclic_group(4),
    "C2xC2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "C5": lambda: cyclic_group(5), "C6": lambda: cyclic_group(6),
    "S3": lambda: symmetric_group(3), "C7": lambda: cyclic_group(7),
    "C8": lambda: cyclic_group(8),
    "C4xC2": lambda: direct_product(cyclic_group(4), cyclic_group(2)),
    "C2xC2xC2": lambda: direct_product(direct_product(cyclic_group(2), cyclic_group(2)),
                                       cyclic_group(2)),
    "D4": lambda: dihedral_group(4), "Q8": lambda: quaternion_group(),
    "S4": lambda: symmetric_group(4),
}

GROUP_NAMES = tuple(_BUILDERS)


def group_by_name(name: str) -> FiniteInvSemigroup:
    for k, build in _BUILDERS.items():
        if k.lower() == name.lower():
            return build()
    raise KeyError(f"unknown group {name!r}; known: {', '.join(GROUP_NAMES)}")


def groups_of_order_at_most(k: int) -> dict[str, FiniteInvSemigroup]:
    return {name: g for name, build in _BUILDERS.items() if (g := build()).n <= k}


def subgroups(G: FiniteInvSemigroup) -> list[frozenset[int]]:
    """All subgroups: in a group every inverse subsemigroup contains e = a a*,
    so it is a subgroup, and {e} is the closure of {e}."""
    if G.n > _MAX_GROUP:
        raise ValueError(f"group order {G.n} exceeds the limit {_MAX_GROUP}")
    if len(idempotents(G)) != 1:
        raise ValueError("not a group: more than one idempotent")
    found = [frozenset(bits(m)) for m in inverse_subsemigroups(G)]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def all_cosets(G: FiniteInvSemigroup) -> list[frozenset[int]]:
    """Every right coset H*g, deduplicated, in a deterministic order."""
    out = set()
    for H in subgroups(G):
        for g in range(G.n):
            out.add(frozenset(G.table[h][g] for h in H))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _product_rows(G: FiniteInvSemigroup, cosets: list[frozenset[int]]
                  ) -> Callable[[frozenset[int]], list[int]]:
    """``row(C)``: for each j, the index in ``cosets`` of the smallest coset
    containing the setwise product C*C_j, C_j = ``cosets[j]``.

    Every set of cosets is a bitmask over their indices.  ``containing[x]``
    holds the cosets that contain the element x, so ``up[j]``, the AND of
    ``containing`` over the elements of C_j, holds the cosets that contain
    C_j.  A left translate a*(K*g) = (a*K*a^-1)*(a*g) is again a right coset,
    so a*C_j = C_k for some k, and ``translate_up[a][j]`` is ``up[k]``.  C*C_j
    is the union of the a*C_j over a in C, so the cosets that contain it are
    M, the AND of ``translate_up[a][j]`` over a in C.  M is nonempty (G is in
    it), and the intersection of its members is a nonempty intersection of
    cosets, hence a coset, that contains C*C_j: it is the least member of M
    by inclusion.  Every other member of M strictly contains it and so is
    larger; ``all_cosets`` sorts by size first, so the least member is the
    lowest set bit of M.
    """
    index = {c: i for i, c in enumerate(cosets)}
    containing = [0] * G.n
    for j, C in enumerate(cosets):
        for x in C:
            containing[x] |= 1 << j
    up = []
    for C in cosets:
        m = -1
        for x in C:
            m &= containing[x]
        up.append(m)
    translate_up = [[up[index[frozenset(a_times[x] for x in C)]] for C in cosets]
                    for a_times in G.table]

    def row(C: frozenset[int]) -> list[int]:
        a, *rest = C
        acc = translate_up[a]
        for a in rest:
            acc = list(map(and_, acc, translate_up[a]))
        return [(m & -m).bit_length() - 1 for m in acc]

    return row


def coset_product(G: FiniteInvSemigroup, C: frozenset[int], C1: frozenset[int]) -> frozenset[int]:
    """The smallest coset containing the setwise product C*C1."""
    cosets = all_cosets(G)
    index = {c: i for i, c in enumerate(cosets)}
    for D in (C, C1):
        if frozenset(D) not in index:
            raise NotACoset(f"{sorted(D)} is not a coset of this group")
    return cosets[_product_rows(G, cosets)(frozenset(C))[index[frozenset(C1)]]]


def coset_monoid(G: FiniteInvSemigroup) -> FiniteInvSemigroup:
    """The validated coset monoid; element i is ``all_cosets(G)[i]``."""
    cosets = all_cosets(G)
    row = _product_rows(G, cosets)
    names = ["{" + ",".join(G.name_of(x) for x in sorted(C)) + "}" for C in cosets]
    return FiniteInvSemigroup([row(C) for C in cosets], names=names)
