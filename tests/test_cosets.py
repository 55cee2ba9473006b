import pytest

from invsg import core
from invsg.families import cosets, get_family
from invsg.families import (GROUP_NAMES, all_cosets, coset_monoid, cyclic_group,
                            dihedral_group, direct_product, group_by_name,
                            quaternion_group, subgroups, symmetric_group)

from reference import NotACoset, coset_product, groups_of_order_at_most


def test_group_registry():
    assert len(groups_of_order_at_most(8)) == 14
    assert group_by_name("s3").n == 6
    with pytest.raises(KeyError):
        group_by_name("monster")
    orders = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C2xC2": 4, "C5": 5, "C6": 6,
              "S3": 6, "C7": 7, "C8": 8, "C4xC2": 8, "C2xC2xC2": 8, "D4": 8,
              "Q8": 8, "S4": 24}
    assert GROUP_NAMES == tuple(orders)
    for name in GROUP_NAMES:
        G = group_by_name(name)
        assert G.n == orders[name]
        assert G.identity is not None
        assert core.idempotents(G) == (G.identity,)


def test_a_lookup_builds_only_the_named_group(monkeypatch):
    def refuse(n):
        raise AssertionError(f"built S{n} for another group")

    monkeypatch.setattr(cosets, "symmetric_group", refuse)
    assert group_by_name("C2").n == 2
    assert get_family("coset:D4").n == 35
    with pytest.raises(AssertionError):
        group_by_name("S3")


def test_subgroup_counts():
    # classical values, reproducible by hand
    assert len(subgroups(cyclic_group(8))) == 4
    assert len(subgroups(symmetric_group(3))) == 6
    assert len(subgroups(dihedral_group(4))) == 10
    assert len(subgroups(quaternion_group())) == 6
    c2 = cyclic_group(2)
    assert len(subgroups(direct_product(direct_product(c2, c2), c2))) == 16
    # every nonempty product- and inverse-closed subset, by brute force
    for G in (symmetric_group(3), dihedral_group(4), quaternion_group()):
        closed = []
        for mask in range(1, 1 << G.n):
            H = [x for x in range(G.n) if mask >> x & 1]
            if all(mask >> G.inv[a] & 1 and all(mask >> G.table[a][b] & 1 for b in H)
                   for a in H):
                closed.append(frozenset(H))
        assert sorted(closed, key=lambda s: (len(s), sorted(s))) == subgroups(G)
    with pytest.raises(ValueError, match="not a group"):
        subgroups(coset_monoid(cyclic_group(2)))   # a monoid with two idempotents


def test_coset_product_examples():
    G = symmetric_group(3)
    e = G.identity
    singletons = {g: frozenset([g]) for g in range(G.n)}
    # singletons are cosets of the trivial subgroup; products stay singletons
    for g in range(G.n):
        assert coset_product(G, singletons[e], singletons[g]) == singletons[g]
    # H (x) H = H for every subgroup
    for H in subgroups(G):
        assert coset_product(G, H, H) == H
    with pytest.raises(NotACoset):
        coset_product(G, frozenset([0, 1, 2, 3]), singletons[e])


def test_coset_product_matches_independent_minimal_cover():
    G = symmetric_group(3)
    cosets = all_cosets(G)
    for C in cosets:
        for C1 in cosets:
            prod = {G.table[a][b] for a in C for b in C1}
            candidates = [D for D in cosets if prod <= D]
            best = min(candidates, key=len)
            assert all(best <= D for D in candidates)  # unique minimum
            assert coset_product(G, C, C1) == best


def test_coset_monoid_c2():
    G = cyclic_group(2)
    M = coset_monoid(G)
    assert M.n == 3
    cs = all_cosets(G)
    # order is reverse inclusion
    for i in range(M.n):
        for j in range(M.n):
            assert M.le(i, j) == (cs[j] <= cs[i])
    # idempotents are exactly the subgroups
    idem = [cs[i] for i in core.idempotents(M)]
    assert sorted(map(sorted, idem)) == sorted(map(sorted, subgroups(G)))
    # the whole group sits below the trivial coset {e}
    g_idx = cs.index(frozenset(range(G.n)))
    e_idx = cs.index(frozenset([G.identity]))
    assert M.le(g_idx, e_idx)


@pytest.mark.parametrize("name", sorted(groups_of_order_at_most(8)))
def test_coset_monoids_validate_and_mirror(name):
    from invsg import checkers
    G = group_by_name(name)
    M = coset_monoid(G)
    assert isinstance(M, core.FiniteInvSemigroup)
    cs = all_cosets(G)
    idem = [cs[i] for i in core.idempotents(M)]
    assert sorted(map(sorted, idem)) == sorted(map(sorted, subgroups(G)))
    assert checkers.check_mirror(M, f"coset:{name}").verdict == "pass"


def containment_scan_monoid(G):
    """The reference fill: intersect every coset that contains C*C1."""
    cosets = all_cosets(G)
    index = {c: i for i, c in enumerate(cosets)}

    def prod(C, C1):
        p = {G.table[a][b] for a in C for b in C1}
        best = frozenset(range(G.n))
        for D in cosets:
            if p <= D:
                best &= D
        return index[best]

    table = tuple(tuple(prod(C, C1) for C1 in cosets) for C in cosets)
    names = tuple("{" + ",".join(G.name_of(x) for x in sorted(C)) + "}" for C in cosets)
    return table, names


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_coset_monoid_matches_containment_scan(name):
    G = group_by_name(name)
    M = coset_monoid(G)
    assert (M.table, M.names) == containment_scan_monoid(G)
