import json
import random
from itertools import product

import pytest

from invsg import core, pbij
from invsg.core import (FiniteInvSemigroup, NoInverse, NonUniqueInverse, NotAssociative,
                        NotIdempotent, NotInverseSemigroup, h_class, idempotents,
                        is_reduced, sup_finite)
from invsg.families.cex import cex_truncation

from reference import validate_reference

TRIVIAL = [[0]]
# 2-element meet-semilattice {1, e} with 0 = identity, 1 = e
SL2 = [[0, 1], [1, 1]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def brute_le(S, s, t):
    """Order straight from the definition: s = t*eps for some idempotent."""
    return any(S.mul(t, e) == s for e in range(S.n) if S.mul(e, e) == e)


def brute_sup(S, A):
    """Independent least-upper-bound scan using only brute_le."""
    ubs = [u for u in range(S.n) if all(brute_le(S, a, u) for a in A)]
    least = [u for u in ubs if all(brute_le(S, u, v) for v in ubs)]
    assert len(least) <= 1
    return least[0] if least else None


def test_validate_trivial_group():
    S = FiniteInvSemigroup(TRIVIAL)
    assert S.n == 1 and S.inv == (0,) and S.identity == 0


def test_validate_two_element_semilattice():
    S = FiniteInvSemigroup(SL2)
    assert S.inv == (0, 1)
    assert all(S.inv[s] == s for s in range(S.n))
    assert S.identity == 0


def test_validate_symmetric_inverse_monoid(I2):
    # counted independently: sum_k C(2,k)^2 k! = 1 + 4 + 2
    assert I2.carrier.n == 7 == sum({0: 1, 1: 4, 2: 2}.values())


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError):
        FiniteInvSemigroup([[0, 2], [1, 0]])


def test_validate_rejects_nonsquare():
    with pytest.raises(ValueError):
        FiniteInvSemigroup([[0, 1], [1]])


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 1.0]],        # a float that int() used to convert
    [[0, 1], [1, True]],       # a bool is an int subclass
])
def test_constructor_rejects_non_int_entries(table):
    with pytest.raises(ValueError, match="table entries must be ints"):
        core.FiniteInvSemigroup(table)


def test_constructor_reports_the_first_out_of_range_entry():
    with pytest.raises(ValueError, match=r"table entry 5 out of range \[0, 2\)"):
        FiniteInvSemigroup([[0, 5], [1, -3]])


def _late_entry(table, want):
    """The row and column of the last entry of ``table`` equal to ``want``."""
    return max((i, j) for i, row in enumerate(table)
               for j, v in enumerate(row) if v == want)


@pytest.mark.parametrize("spoil", [lambda v: True, float])
def test_entry_check_rejects_a_late_non_int_equal_to_an_earlier_int(I4, spoil):
    # a set of the values keeps the earlier int 1 and would hide the True or 1.0
    table = [list(row) for row in I4.carrier.table]
    assert len(table) == 209
    i, j = _late_entry(table, 1)
    assert i > 100
    table[i][j] = spoil(table[i][j])
    assert table[i][j] == 1
    with pytest.raises(ValueError, match="^table entries must be ints$"):
        FiniteInvSemigroup(table)


@pytest.mark.parametrize("first, later", [(216, -1), (-2, 218)])
def test_entry_check_names_the_first_of_two_out_of_range_entries(I4, first, later):
    # neither the least nor the greatest value tells which entry comes first
    table = [list(row) for row in I4.carrier.table]
    table[40][200], table[150][3] = first, later
    with pytest.raises(ValueError, match=rf"^table entry {first} out of range \[0, 209\)$"):
        FiniteInvSemigroup(table)


def test_constructor_keeps_tuple_rows_without_a_copy(I2):
    rows = [tuple(row) for row in I2.carrier.table]
    S = core.FiniteInvSemigroup(rows)
    assert all(S.table[i] is rows[i] for i in range(S.n))


def test_validate_rejects_nonassociative():
    # subtraction mod 3 is not associative
    tbl = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NotAssociative) as ei:
        FiniteInvSemigroup(tbl)
    s, t, u = ei.value.triple
    assert tbl[tbl[s][t]][u] != tbl[s][tbl[t][u]]


def associative_by_scan(tbl):
    """The n^3 reference: (s*t)*u == s*(t*u) for every triple."""
    n = len(tbl)
    return all(tbl[tbl[s][t]][u] == tbl[s][tbl[t][u]]
               for s in range(n) for t in range(n) for u in range(n))


def light_agrees_with_scan(tbl):
    """Light's test raises a genuine failing triple iff the scan finds one."""
    tbl = tuple(map(tuple, tbl))
    try:
        core._check_associative(tbl)
    except NotAssociative as exc:
        s, t, u = exc.triple
        assert tbl[tbl[s][t]][u] != tbl[s][tbl[t][u]]
        return not associative_by_scan(tbl)
    return associative_by_scan(tbl)


def one_entry_tampers(table):
    n = len(table)
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v != table[i][j]:
                    tampered = [list(row) for row in table]
                    tampered[i][j] = v
                    yield tampered


def test_light_test_agrees_with_scan_on_every_i2_tamper(I2):
    tampers = list(one_entry_tampers(I2.carrier.table))
    assert len(tampers) == 294
    assert all(light_agrees_with_scan(t) for t in tampers)


def test_light_test_agrees_with_scan_on_sampled_i3_tampers(I3):
    tampers = list(one_entry_tampers(I3.carrier.table))
    sample = random.Random(6).sample(tampers, 300)
    assert all(light_agrees_with_scan(t) for t in sample)


def test_light_test_agrees_with_scan_on_every_operation_on_three_points():
    # includes associative tables with no identity, where A has several members
    tables = [[list(ops[0:3]), list(ops[3:6]), list(ops[6:9])]
              for ops in product(range(3), repeat=9)]
    assert len(tables) == 3 ** 9
    assert sum(associative_by_scan(t) for t in tables) == 113   # OEIS A023814
    assert all(light_agrees_with_scan(t) for t in tables)


def validates_as_reference(table) -> str:
    """The outcome of ``FiniteInvSemigroup(table)``, checked against
    ``validate_reference``: the same inverses, identity and idempotents, or
    the same exception with the same args; a ``NotAssociative`` only needs a
    genuinely failing triple, as the two may test different generators."""
    try:
        want = validate_reference(table)
    except NotInverseSemigroup as exc:
        want = exc
    try:
        S = FiniteInvSemigroup(table)
    except NotInverseSemigroup as exc:
        assert type(exc) is type(want), (table, exc, want)
        if isinstance(exc, NotAssociative):
            s, t, u = exc.triple
            assert table[table[s][t]][u] != table[s][table[t][u]], table
        else:
            assert exc.args == want.args, table
        return type(exc).__name__
    assert (S.inv, S.identity, idempotents(S)) == want, table
    return "valid"


def test_validation_matches_the_reference_on_every_table_up_to_three_points():
    outcomes = {}
    for n in (1, 2, 3):
        for entries in product(range(n), repeat=n * n):
            table = [entries[i * n:(i + 1) * n] for i in range(n)]
            kind = validates_as_reference(table)
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert sum(outcomes.values()) == 1 + 16 + 19_683
    # 1, 8 and 113 associative tables on 1, 2 and 3 points (OEIS A023814)
    assert outcomes["NotAssociative"] == (16 - 8) + (19_683 - 113)
    assert {"valid", "NoInverse", "NonUniqueInverse"} <= set(outcomes)


def test_a_regular_table_whose_idempotents_do_not_commute_is_rejected_as_the_reference_does():
    # maps of {0, 1, 2}, g applied first in f*g: 0 = (2,1,2), 1 = (1,2,1),
    # 2 = (0,2,2) and the constants 3 = (2,2,2), 4 = (1,1,1); every element
    # has an inverse along the generator steps, but the constants are
    # idempotents that do not commute, so 3 has the two inverses 3 and 4
    table = ((0, 1, 3, 3, 4), (1, 0, 4, 4, 3), (3, 3, 2, 3, 3),
             (3, 3, 3, 3, 3), (4, 4, 4, 4, 4))
    assert core._inverses_along(table, *core._check_associative(table)) is not None
    assert validates_as_reference(table) == "NonUniqueInverse"
    with pytest.raises(NonUniqueInverse) as ei:
        FiniteInvSemigroup(table)
    assert (ei.value.element, ei.value.witnesses) == (3, (3, 4))


def test_the_right_zero_band_has_two_inverses_of_its_first_element():
    # x*y = y: both elements are idempotents, and 0*1 = 1 != 0 = 1*0, so the
    # idempotents do not commute; the clash is named as a non-unique inverse
    with pytest.raises(NonUniqueInverse) as ei:
        FiniteInvSemigroup([[0, 1], [0, 1]])
    assert (ei.value.element, ei.value.witnesses) == (0, (0, 1))


def test_a_failed_step_check_falls_back_to_the_exhaustive_scan():
    # each generator is its own and only inverse, but the first step 0 = 3*2
    # takes 0* = 2* 3* = 1, and 1*0*1 = 0 != 1; element 1 has no inverse
    table = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 1), (0, 0, 0, 3))
    gens, steps = core._check_associative(table)
    assert gens == [3, 2] and steps[0] == (0, 3, 2)
    for a in gens:
        assert [t for t in range(4)
                if table[table[a][t]][a] == a and table[table[t][a]][t] == t] == [a]
    assert core._inverses_along(table, gens, steps) is None
    with pytest.raises(NoInverse) as ei:
        FiniteInvSemigroup(table)
    assert ei.value.element == 1


@pytest.mark.parametrize("name", ["I2", "I3"])
def test_validation_matches_the_reference_on_every_one_entry_tamper(name, request):
    table = request.getfixturevalue(name).carrier.table
    outcomes = {}
    for tampered in one_entry_tampers(table):
        kind = validates_as_reference(tampered)
        outcomes[kind] = outcomes.get(kind, 0) + 1
    n = len(table)
    assert sum(outcomes.values()) == n * n * (n - 1)
    assert "NotAssociative" in outcomes


def test_right_generators_cover_every_corpus_carrier(finite_corpus):
    for label, S in finite_corpus:
        calls = []

        def mul(x, y):
            calls.append((x, y))
            return S.mul(x, y)

        gens, steps = core.right_generators(S.n, mul)
        # each x * a exactly once: what lets pbij._build see every escape
        assert sorted(calls) == sorted((x, a) for x in range(S.n) for a in gens)
        reached = set(gens)
        for y, p, a in steps:
            assert a in gens and p in reached and S.mul(p, a) == y, label
            reached.add(y)
        assert sorted(reached) == list(range(S.n)) == sorted(gens + [y for y, _, _ in steps])


@pytest.mark.parametrize("k", [4, 5])
def test_light_test_drops_the_first_generator_on_the_largest_carriers(k):
    # I_4 (n = 209) and I_5 (n = 1,546) are past the gate 32 |A| < n, and the
    # first greedy generator is a product of the later ones
    table = pbij.symmetric_inverse_monoid(k).carrier.table
    gens, steps = core._check_associative(table)
    assert len(gens) == 3
    built = set(gens)
    for y, p, a in steps:
        assert a in gens and p in built and y not in built
        assert table[p][a] == y
        built.add(y)
    assert len(built) == len(gens) + len(steps) == len(table)


def test_light_test_keeps_the_first_generator_when_the_rest_miss_it(I4):
    # I_4 with a new identity 209 adjoined: no product of other ids gives it,
    # so the trial without it covers 209 of the 210 ids and is dropped
    n = I4.carrier.n
    table = [row + (j,) for j, row in enumerate(I4.carrier.table)] + [tuple(range(n + 1))]
    gens, steps = core._check_associative(tuple(table))
    assert gens[0] == n and 32 * len(gens) < n + 1
    assert len(gens) + len(steps) == n + 1
    S = FiniteInvSemigroup(table)
    assert S.identity == n and S.inv[n] == n


def test_every_sampled_tamper_of_i4_is_rejected_with_a_genuine_triple(I4):
    table = I4.carrier.table
    n = len(table)
    rng = random.Random(4)
    for _ in range(100):
        i, j = rng.randrange(n), rng.randrange(n)
        tampered = [list(row) for row in table]
        tampered[i][j] = (table[i][j] + rng.randrange(1, n)) % n
        # each of these fails associativity, on a table past the trial's gate
        with pytest.raises(NotAssociative) as ei:
            FiniteInvSemigroup(tampered)
        s, t, u = ei.value.triple
        assert tampered[tampered[s][t]][u] != tampered[s][tampered[t][u]]


def test_validate_rejects_no_inverse():
    # left-zero-ish: everything multiplies to 0, so 1 has no inverse
    with pytest.raises(NoInverse) as ei:
        FiniteInvSemigroup([[0, 0], [0, 0]])
    assert ei.value.element == 1


def test_validate_rejects_non_unique_inverse():
    # right-zero band: s*t = t; both elements invert every element
    with pytest.raises(NonUniqueInverse):
        FiniteInvSemigroup([[0, 1], [0, 1]])


def test_inverse_of_examples(I2):
    S = I2.carrier
    assert FiniteInvSemigroup(TRIVIAL).inv[0] == 0
    for e in idempotents(S):
        assert S.inv[e] == e
    f = I2.index(pbij_map({0: 1}))
    g = I2.index(pbij_map({1: 0}))
    assert S.inv[f] == g
    # brute-force oracle: the inverse must satisfy sts = s and tst = t
    for s in range(S.n):
        t = S.inv[s]
        assert S.mul(S.mul(s, t), s) == s and S.mul(S.mul(t, s), t) == t
    # antihomomorphism on all pairs
    for s in range(S.n):
        for t in range(S.n):
            assert S.inv[S.mul(s, t)] == S.mul(S.inv[t], S.inv[s])


def pbij_map(d):
    from invsg.pbij import PartialBijection
    return PartialBijection(2, [d.get(i, -1) for i in range(2)])


def test_idempotents_examples(I2):
    assert idempotents(FiniteInvSemigroup(C3)) == (0,)
    assert idempotents(FiniteInvSemigroup(SL2)) == (0, 1)
    S = I2.carrier
    # brute force over all 7 elements: exactly the 4 partial identities
    squares = tuple(s for s in range(S.n) if S.mul(s, s) == s)
    assert idempotents(S) == squares
    assert len(squares) == 4
    for e in squares:
        assert I2.rep[e] == I2.rep[e].inverse()
        assert I2.rep[e].dom_mask() == I2.rep[e].image_mask()


def test_natural_le_examples(I2):
    S = I2.carrier
    for s in range(S.n):
        assert S.le(s, s)
    sl = FiniteInvSemigroup(SL2)
    assert sl.le(1, 0) and not sl.le(0, 1)
    a = I2.index(pbij_map({0: 0}))
    full = I2.index(pbij_map({0: 0, 1: 1}))
    assert S.le(a, full)
    assert not S.le(full, a)


def test_natural_le_agrees_with_all_five_characterizations(I2, i2_subsemigroups):
    small = [FiniteInvSemigroup(t) for t in (TRIVIAL, SL2, C3)]
    for S in small + [I2.carrier] + i2_subsemigroups:
        idem = idempotents(S)
        for s in range(S.n):
            for t in range(S.n):
                le = S.le(s, t)
                c_def = any(S.mul(t, e) == s for e in idem)
                c_star = S.le(S.inv[s], S.inv[t])
                c_tss = S.mul(t, S.mul(S.inv[s], s)) == s
                c_eps_left = any(S.mul(e, t) == s for e in idem)
                c_sst = S.mul(S.mul(s, S.inv[s]), t) == s
                assert le == c_def == c_star == c_tss == c_eps_left == c_sst


def test_natural_le_is_compatible_partial_order(I2):
    S = I2.carrier
    n = S.n
    for s in range(n):
        for t in range(n):
            if S.le(s, t) and S.le(t, s):
                assert s == t
            for u in range(n):
                if S.le(s, t) and S.le(t, u):
                    assert S.le(s, u)
    for s in range(n):
        for t in range(n):
            for s2 in range(n):
                for t2 in range(n):
                    if S.le(s, t) and S.le(s2, t2):
                        assert S.le(S.mul(s, s2), S.mul(t, t2))


def test_source_examples(I2):
    S = I2.carrier
    for e in idempotents(S):
        assert S.sigma[e] == e
    G = FiniteInvSemigroup(C3)
    for g in range(3):
        assert G.sigma[g] == G.identity
    f = I2.index(pbij_map({0: 1}))
    pid0 = I2.index(pbij_map({0: 0}))
    assert S.sigma[f] == pid0
    # order preservation
    for s in range(S.n):
        for t in range(S.n):
            if S.le(s, t):
                assert S.le(S.sigma[s], S.sigma[t])


def test_sup_finite_examples(I2):
    S = I2.carrier
    for s in range(S.n):
        assert sup_finite(S, [s]) == s
    a, b = I2.index(pbij_map({0: 0})), I2.index(pbij_map({1: 1}))
    full = I2.index(pbij_map({0: 0, 1: 1}))
    assert sup_finite(S, [a, b]) == full
    f = I2.index(pbij_map({0: 1}))
    assert sup_finite(S, [f, a]) is None
    with pytest.raises(ValueError):
        sup_finite(S, [])


def test_sup_finite_matches_brute_oracle(I2):
    S = I2.carrier
    for mask in range(1, 1 << S.n):
        A = [i for i in range(S.n) if (mask >> i) & 1]
        assert sup_finite(S, A) == brute_sup(S, A)


def test_sigma_of_sup_commutes_exhaustively(i2_subsemigroups):
    # whenever sup A exists, sigma(sup A) = sup sigma(A); all carriers n <= 5
    for S in i2_subsemigroups:
        if S.n > 5:
            continue
        for mask in range(1, 1 << S.n):
            A = [i for i in range(S.n) if (mask >> i) & 1]
            v = sup_finite(S, A)
            if v is None:
                continue
            sv = sup_finite(S, [S.sigma[a] for a in A])
            assert sv == S.sigma[v]


def test_sup_of_idempotent_sets_lands_in_sigma(I2):
    # sup_finite restricted to idempotents computes the semilattice sup
    S = I2.carrier
    idem = idempotents(S)
    for mask in range(1, 1 << len(idem)):
        A = [idem[i] for i in range(len(idem)) if (mask >> i) & 1]
        v = sup_finite(S, A)
        if v is None:
            continue
        assert S.is_idempotent(v)
        sigma_ubs = [u for u in idem if all(S.le(a, u) for a in A)]
        assert v in sigma_ubs
        assert all(S.le(v, u) for u in sigma_ubs)


def test_h_class_examples(I2):
    G = FiniteInvSemigroup(C3)
    assert h_class(G, G.identity) == (0, 1, 2)
    sl = FiniteInvSemigroup(SL2)
    for e in (0, 1):
        assert h_class(sl, e) == (e,)
    T = cex_truncation(2)  # {0, 1/2, 1, omega}
    one = T.names.index("1")
    omega = T.names.index("omega")
    assert set(h_class(T, one)) == {one, omega}
    with pytest.raises(NotIdempotent):
        h_class(T, omega)


def test_is_reduced_examples(I2):
    assert is_reduced(FiniteInvSemigroup(SL2))
    assert is_reduced(FiniteInvSemigroup(C3))
    assert not is_reduced(I2.carrier)  # {0->1} sits above the empty map


def test_every_finite_carrier_is_mirror(i2_subsemigroups):
    # directed subsets of Sigma with a sup in Sigma keep it in S
    for S in i2_subsemigroups:
        idem = idempotents(S)
        for mask in range(1, 1 << len(idem)):
            D = [idem[i] for i in range(len(idem)) if (mask >> i) & 1]
            ok = all(any(S.le(x, r) and S.le(y, r) for r in D)
                     for x in D for y in D)
            if not ok:
                continue
            delta = brute_sup(S, D)
            if delta is None or not S.is_idempotent(delta):
                continue
            assert brute_sup(S, D) == delta  # the same element is the sup in S


def test_restrict_rejects_unclosed_subset(I2):
    S = I2.carrier
    f = I2.index(pbij_map({0: 1}))
    with pytest.raises(ValueError):
        core.restrict(S, [f])


def test_restrict_rejects_a_repeated_element(I2):
    # {0} is an inverse subsemigroup, but listed twice it would make two ids
    S = I2.carrier
    with pytest.raises(ValueError, match="element 0 is listed twice"):
        core.restrict(S, [0, 0])
    with pytest.raises(ValueError, match="is listed twice"):
        core.tabulate([1, 0, 1], lambda s, t: s * t)
    assert core.restrict(S, [0]).n == 1


def test_json_roundtrip(I2):
    S = I2.carrier
    blob = json.dumps(core.to_json(S))
    S2 = core.from_json(blob)
    assert S2.table == S.table and S2.names == S.names
    with pytest.raises(ValueError):
        core.from_json({"n": 3, "table": [[0]]})
    with pytest.raises(ValueError, match="nested too deeply"):
        core.from_json("[" * 200000 + "]" * 200000)
