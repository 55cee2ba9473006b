import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsg import core, pbij
from invsg.core import TooLarge
from invsg.pbij import (FiniteTopology, GroundMismatch, NotATopology,
                        NotInverseClosed, PartialBijection, _build,
                        all_topologies, canonical_table, closed_set_adjunction,
                        closure, enumerate_inverse_subsemigroups,
                        pseudogroup_of_space, symmetric_inverse_monoid)

from reference import (enumerate_reference, groups_of_order_at_most,
                       inverse_subsemigroups_reference)


def pb(n, d):
    return PartialBijection(n, [d.get(i, -1) for i in range(n)])


def partial_bijections(n):
    maps = []
    pts = list(range(n))
    for k in range(n + 1):
        for dom in permutations(pts, k):
            if list(dom) != sorted(dom):
                continue
            for img in permutations(pts, k):
                maps.append(pb(n, dict(zip(dom, img))))
    return maps


def display_compose(f, f1):
    """Apply-f-then-f1 composition, computed pointwise from first principles."""
    n = f.ground
    out = {}
    for x in range(n):
        y = f.mapping[x]
        if y != -1 and f1.mapping[y] != -1:
            out[x] = f1.mapping[y]
    return pb(n, out)


def test_compose_examples():
    f = pb(2, {0: 1})
    g = pb(2, {1: 0})
    assert g * f == pb(2, {0: 0})
    ident = PartialBijection(2, range(2))
    assert f * ident == f and ident * f == f
    # f composed with its inverse is the partial identity on the image
    assert f * f.inverse() == PartialBijection.on_set(2, [1])
    # and the other orientation fixes the domain pointwise
    assert f.inverse() * f == PartialBijection.on_set(2, [0])


def test_compose_matches_display_on_all_i2_pairs():
    maps = partial_bijections(2)
    assert len(maps) == 7
    for f in maps:
        for g in maps:
            assert g * f == display_compose(f, g)
            # table convention: the left factor is applied second
            assert f * g == display_compose(g, f)


def test_compose_associative_exhaustive_on_i2():
    maps = partial_bijections(2)
    for f in maps:
        for g in maps:
            for h in maps:
                assert (f * g) * h == f * (g * h)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compose_associative_random_on_i3(data):
    maps = partial_bijections(3)
    f, g, h = (data.draw(st.sampled_from(maps)) for _ in range(3))
    assert (f * g) * h == f * (g * h)


def test_ground_mismatch():
    with pytest.raises(GroundMismatch):
        pb(2, {0: 0}) * pb(3, {0: 0})


def test_invert_examples():
    assert pb(3, {}).inverse() == pb(3, {})
    assert pb(2, {0: 1}).inverse() == pb(2, {1: 0})
    pid = PartialBijection.on_set(3, [0, 2])
    assert pid.inverse() == pid
    f = pb(3, {0: 2, 1: 0})
    assert f.inverse().inverse() == f


@pytest.mark.parametrize("point", [2, 5, -1])
def test_a_partial_identity_off_the_ground_set_is_refused(point):
    with pytest.raises(ValueError, match=f"point {point} out of range"):
        PartialBijection.on_set(2, [0, point])


def test_symmetric_inverse_monoid_counts():
    assert symmetric_inverse_monoid(1).carrier.n == 2
    assert symmetric_inverse_monoid(2).carrier.n == 7
    assert symmetric_inverse_monoid(3).carrier.n == 34
    for n in range(1, 4):
        expected = sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
        assert symmetric_inverse_monoid(n).carrier.n == expected
    with pytest.raises(TooLarge):
        symmetric_inverse_monoid(6)
    for n in (0, -1):
        with pytest.raises(ValueError):
            symmetric_inverse_monoid(n)


def test_generated_semigroup_is_faithful(I2, I3):
    assert I2.verify_faithful()
    assert I3.verify_faithful()
    assert symmetric_inverse_monoid(4).verify_faithful()
    for T in all_topologies(3):
        assert pseudogroup_of_space(T).verify_faithful()


def test_generated_table_is_the_all_pairs_product_table():
    for n in range(1, 5):
        gs = symmetric_inverse_monoid(n)
        index = {f: i for i, f in enumerate(gs.rep)}
        direct = tuple(tuple(index[display_compose(g, f)] for g in gs.rep)
                       for f in gs.rep)   # f * g applies g first
        assert gs.carrier.table == direct


def test_build_refuses_every_set_not_closed_under_products(I2, I3):
    with pytest.raises(NotInverseClosed):
        _build([pb(2, {0: 1}), pb(2, {1: 0})])
    subsets = [[f for i, f in enumerate(I2.rep) if (mask >> i) & 1]
               for mask in range(1, 1 << I2.carrier.n)]
    subsets += [[f for f in I3.rep if f != g] for g in I3.rep]
    for elems in subsets:
        closed = all(f * g in elems for f in elems for g in elems)
        try:
            _build(elems)
        except NotInverseClosed:
            assert not closed
        except core.NotInverseSemigroup:
            assert closed
        else:
            assert closed


def test_natural_order_is_restriction(I2):
    S = I2.carrier
    for i, f in enumerate(I2.rep):
        for j, g in enumerate(I2.rep):
            restriction = f.le(g)
            assert S.le(i, j) == restriction


def test_closure_examples():
    triv = closure(2, [PartialBijection(2, range(2))])
    assert triv.carrier.n == 1
    swap = pb(2, {0: 1, 1: 0})
    c2 = closure(2, [swap])
    assert c2.carrier.n == 2 and c2.carrier.identity is not None
    mixed = closure(2, [pb(2, {0: 0}), pb(2, {0: 1})])
    assert mixed.verify_faithful()          # validated by construction
    with pytest.raises(ValueError):
        closure(2, [])


def test_closure_is_the_generated_inverse_subsemigroup():
    # core.generated closes the same generators on the table of I_4
    I4 = symmetric_inverse_monoid(4)
    rng = random.Random(7)
    for _ in range(30):
        gens = rng.sample(range(I4.carrier.n), rng.randint(1, 3))
        closed = closure(4, [I4.rep[g] for g in gens])
        mask = core.generated(I4.carrier, core.mask_of(gens))
        assert set(closed.rep) == {I4.rep[x] for x in core.bits(mask)}
        assert closed.carrier.table == core.restrict(I4.carrier, list(core.bits(mask))).table


def test_enumerate_i1():
    subs = list(enumerate_inverse_subsemigroups(1, 2))
    # three ambient subsemigroups, two isomorphism classes (the 2-chain
    # semilattice and the 2-element monoid coincide)
    assert sorted(s.n for s in subs) == [1, 2]


def test_enumerate_i2_matches_bruteforce_subset_scan(I2, i2_subsemigroups):
    C = I2.carrier
    ambient = []
    for mask in range(1, 1 << C.n):
        members = [i for i in range(C.n) if (mask >> i) & 1]
        closed = all((mask >> C.inv[a]) & 1 for a in members) and all(
            (mask >> C.table[a][b]) & 1 for a in members for b in members)
        if closed:
            ambient.append(tuple(members))
    assert len(ambient) == 18
    masks = {core.mask_of(m) for m in ambient}
    assert core.inverse_subsemigroups(C) == masks
    assert core.inverse_subsemigroups(C, limit=3) == {m for m in masks
                                                       if bin(m).count("1") <= 3}
    keys = {canonical_table(core.restrict(C, list(m)).table) for m in ambient}
    assert len(keys) == len(i2_subsemigroups) == 10
    assert sorted(s.n for s in i2_subsemigroups) == [1, 2, 2, 3, 3, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("ground, limit",
                         [(2, None), (2, 4), (2, 7), (2, 12), (2, 20), (3, 10)])
def test_subsemigroups_grown_from_their_generators_match_the_reference(ground, limit, request):
    C = request.getfixturevalue(f"I{ground}").carrier
    got = core.inverse_subsemigroups(C, limit)
    assert got == inverse_subsemigroups_reference(C, limit)
    if ground == 3:
        assert len(got) == 321


@pytest.mark.parametrize("ground, limit",
                         [(1, None), (1, 1), (2, None), (2, 3), (2, 7),
                          (3, 4), (3, 7), (3, 10)])
def test_symmetry_search_keeps_the_least_conjugate_of_each_subsemigroup(ground, limit):
    I = symmetric_inverse_monoid(ground)
    C = I.carrier
    conj = []
    for p in permutations(range(ground)):
        P = PartialBijection(ground, p)
        conj.append([I.index(P * f * P.inverse()) for f in I.rep])
    for p in conj:
        assert sorted(p) == list(range(C.n))
        assert all(C.table[p[x]][p[y]] == p[C.table[x][y]]
                   for x in range(C.n) for y in range(C.n))
    least = {min(core.mask_of(p[x] for x in core.bits(m)) for p in conj)
             for m in inverse_subsemigroups_reference(C, limit)}
    assert core.inverse_subsemigroups(C, limit, conj) == least


@pytest.mark.parametrize("name", sorted(groups_of_order_at_most(8)))
def test_subsemigroups_of_groups_match_the_reference(name):
    # x* != x for most x of most of these groups, so the search grows one of
    # each such pair
    G = groups_of_order_at_most(8)[name]
    assert core.inverse_subsemigroups(G) == inverse_subsemigroups_reference(G)


def test_enumerated_carriers_validate_and_idempotents_commute(i2_subsemigroups):
    for S in i2_subsemigroups:
        assert isinstance(S, core.FiniteInvSemigroup)
        for e in core.idempotents(S):
            for f in core.idempotents(S):
                assert S.mul(e, f) == S.mul(f, e)


def test_enumeration_is_deterministic():
    a = [s.table for s in enumerate_inverse_subsemigroups(2, 7)]
    b = [s.table for s in enumerate_inverse_subsemigroups(2, 7)]
    assert a == b
    with pytest.raises(TooLarge):
        list(enumerate_inverse_subsemigroups(4, 3))
    with pytest.raises(TooLarge):
        list(enumerate_inverse_subsemigroups(2, 11))


@pytest.mark.parametrize("ground, max_order",
                         [(2, m) for m in range(1, 8)] + [(3, m) for m in range(1, 11)])
def test_enumeration_matches_the_canonical_table_reference(ground, max_order):
    got = [(S.table, S.names) for S in enumerate_inverse_subsemigroups(ground, max_order)]
    want = [(S.table, S.names) for S in enumerate_reference(ground, max_order)]
    assert got == want


def permutation_count(table):
    """The fingerprint-preserving permutations ``canonical_table`` searches."""
    sizes = {}
    for fp in pbij._iso_fingerprints(table):
        sizes[fp] = sizes.get(fp, 0) + 1
    return math.prod(math.factorial(k) for k in sizes.values())


def test_enumeration_computes_canonical_tables_only_on_a_fingerprint_collision(monkeypatch):
    counts = []
    real = pbij.canonical_table

    def counted(table):
        counts.append(permutation_count(table))
        return real(table)

    monkeypatch.setattr(pbij, "canonical_table", counted)
    subs = list(enumerate_inverse_subsemigroups(3, 10))
    assert len(subs) == 71
    # 321 subsemigroups of order <= 10; one alone in its bucket has the
    # largest search, and its canonical table is never computed
    assert 4320 in map(permutation_count, (S.table for S in subs))
    assert len(counts) < 321
    assert 4320 not in counts


def test_canonical_tables_split_a_bucket_that_holds_two_classes(monkeypatch):
    # with the real fingerprints no bucket ever holds two isomorphism classes
    # in the domain enumerate accepts; with constant ones a bucket is an
    # order, so the canonical tables alone must tell its classes apart
    grounds = [(2, 7), (3, 4), (3, 5)]
    want = [[S.table for S in enumerate_inverse_subsemigroups(*g)] for g in grounds]
    assert list(map(len, want)) == [10, 18, 27]
    monkeypatch.setattr(pbij, "_iso_fingerprints", lambda table: [()] * len(table))
    assert [[S.table for S in enumerate_inverse_subsemigroups(*g)] for g in grounds] == want


def test_canonical_table_is_isomorphism_invariant(I2):
    S = symmetric_inverse_monoid(2).carrier
    base = canonical_table(S.table)
    # relabel by a few permutations; the canonical form must not move
    for perm in ([1, 0, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0], [2, 0, 1, 4, 3, 6, 5]):
        pos = [0] * 7
        for i, x in enumerate(perm):
            pos[x] = i
        tbl = [[pos[S.table[perm[i]][perm[j]]] for j in range(7)] for i in range(7)]
        assert canonical_table(tbl) == base
    # and it must separate genuinely different tables
    c2 = [[0, 1], [1, 0]]
    sl = [[0, 1], [1, 1]]
    assert canonical_table(c2) != canonical_table(sl)


def test_topology_validation():
    with pytest.raises(NotATopology):
        FiniteTopology(2, [0b00])                 # missing full set
    with pytest.raises(NotATopology):
        FiniteTopology(3, [0b000, 0b001, 0b010, 0b111])  # union 0b011 missing
    t = FiniteTopology(2, (0, 0b01, 0b11))      # the Sierpinski space
    assert t.closed_sets() == [0b00, 0b10, 0b11]


def test_all_topologies_counts():
    assert len(list(all_topologies(1))) == 1
    assert len(list(all_topologies(2))) == 4
    assert len(list(all_topologies(3))) == 29
    with pytest.raises(TooLarge):
        list(all_topologies(4))


def test_pseudogroup_discrete_is_symmetric_inverse_monoid():
    P = pseudogroup_of_space(FiniteTopology(2, range(4)))
    I2 = symmetric_inverse_monoid(2)
    assert canonical_table(P.carrier.table) == canonical_table(I2.carrier.table)


def test_pseudogroup_sierpinski():
    T = FiniteTopology(2, (0, 0b01, 0b11))
    P = pseudogroup_of_space(T)
    # brute force: candidate partial maps between open sets, both-ways continuous
    expected = set()
    for f in partial_bijections(2):
        U, V = f.dom_mask(), f.image_mask()
        if U not in T.opens or V not in T.opens:
            continue
        ok = True
        m = f.mapping
        for O in T.opens:
            pre = sum(1 << x for x in range(2) if m[x] != -1 and (O >> m[x]) & 1)
            img = sum(1 << m[x] for x in range(2) if m[x] != -1 and (O >> x) & 1)
            if pre not in T.opens or img not in T.opens:
                ok = False
                break
        if ok:
            expected.add(f)
    assert set(P.rep) == expected
    # idempotents correspond to the three open sets
    idem = core.idempotents(P.carrier)
    assert sorted(P.rep[e].dom_mask() for e in idem) == sorted(T.opens)


def test_pseudogroup_indiscrete():
    P = pseudogroup_of_space(FiniteTopology(2, (0, 0b11)))
    assert P.carrier.n == 3  # empty map plus the two full homeomorphisms
    doms = sorted(f.dom_mask() for f in P.rep)
    assert doms == [0b00, 0b11, 0b11]


def test_closed_set_adjunction_exhaustive_small():
    for n in (1, 2, 3):
        for T in all_topologies(n):
            P = pseudogroup_of_space(T)
            S = P.carrier
            i_map, j_map = closed_set_adjunction(T, P)
            idem = core.idempotents(S)
            closed = T.closed_sets()
            assert sorted(i_map) == closed and sorted(j_map) == sorted(idem)
            # mutually inverse
            assert all(j_map[i_map[F]] == F for F in closed)
            assert all(i_map[j_map[e]] == e for e in idem)
            # the adjunction, with the closed-set side read in its own
            # reverse-inclusion order: i(F) <= f iff F is below j(f) there,
            # i.e. j(f) subset of F; dually f <= i(F) iff F subset of j(f)
            for F in closed:
                for f in idem:
                    assert S.le(i_map[F], f) == ((F | j_map[f]) == F)
                    assert S.le(f, i_map[F]) == ((F | j_map[f]) == j_map[f])
            # order isomorphism between (closed, reverse inclusion) and Sigma
            for F in closed:
                for F2 in closed:
                    rev = (F | F2) == F  # F contains F2
                    assert S.le(i_map[F], i_map[F2]) == rev
