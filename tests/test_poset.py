from itertools import product

import pytest

from invsg import poset
from invsg.poset import (FinitePoset, NotAMeetSemilattice, NotAPartialOrder,
                         TooLargeForDefinitionalCheck, compacts, covers,
                         hasse_dot, is_algebraic, is_continuous, is_directed,
                         is_meet_continuous, sup, way_below_def,
                         way_below_matrix, way_below_multiplicative)

from test_collapse import tampered


def chain(n):
    return FinitePoset.from_relation(n, lambda x, y: x <= y)


def antichain(n):
    return FinitePoset.from_relation(n, lambda x, y: x == y)


def diamond():
    # bottom 0, incomparable 1 and 2, top 3
    le = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    return FinitePoset.from_relation(4, lambda x, y: x == y or (x, y) in le)


def bowtie():
    # two bottoms 0, 1 below two tops 2, 3
    le = {(0, 2), (0, 3), (1, 2), (1, 3)}
    return FinitePoset.from_relation(4, lambda x, y: x == y or (x, y) in le)


def m3():
    # bottom, three incomparable middles, top
    le = {(0, i) for i in range(5)} | {(i, 4) for i in range(5)}
    return FinitePoset.from_relation(5, lambda x, y: x == y or (x, y) in le)


def b3():
    return FinitePoset.from_relation(8, lambda x, y: (x & y) == x)


CORPUS = [chain(1), chain(3), chain(5), antichain(3), diamond(), bowtie(), m3(), b3()]


def test_poset_validation_errors():
    with pytest.raises(NotAPartialOrder):
        FinitePoset([[False]])
    with pytest.raises(NotAPartialOrder):  # 0<1 and 1<0
        FinitePoset([[True, True], [True, True]])
    with pytest.raises(NotAPartialOrder):  # missing transitive edge
        FinitePoset([[True, True, False], [False, True, True], [False, False, True]])


def test_is_directed():
    P = diamond()
    assert not is_directed(P, [])
    assert is_directed(P, [1])
    assert not is_directed(P, [1, 2])       # no upper bound inside the set
    assert is_directed(P, [1, 2, 3])
    assert is_directed(P, [0, 1])


def test_sup_examples():
    C = chain(3)
    assert sup(C, [0, 1]) == 1
    D = diamond()
    assert sup(D, [1, 2]) == 3
    B = bowtie()
    assert sup(B, [0, 1]) is None            # two minimal upper bounds
    with pytest.raises(ValueError):
        sup(C, [])


def test_way_below_definitional_examples():
    P = diamond()
    assert not way_below_def(P, 3, 1)        # x not below y: take D = {y}
    for x in range(4):
        for y in range(4):
            if P.leq(x, y):
                assert way_below_def(P, x, y)
    assert way_below_def(P, 0, 3)            # bottom is way below everything


def test_way_below_def_equals_fast_on_corpus():
    for P in CORPUS:
        if P.n > 6:
            continue
        wb = way_below_matrix(P)
        for x in range(P.n):
            for y in range(P.n):
                assert way_below_def(P, x, y) == bool((wb[x] >> y) & 1) == P.leq(x, y)


def test_way_below_matrix_matches_pairwise():
    for P in CORPUS:
        if P.n > 6:
            continue
        wb = way_below_matrix(P)
        for x in range(P.n):
            for y in range(P.n):
                assert bool((wb[x] >> y) & 1) == way_below_def(P, x, y)


def test_way_below_matrix_matches_definition_on_the_corpus(finite_corpus):
    # the audit the collapse replaced: every order poset with <= 12 elements
    pairs = 0
    for sid, S in finite_corpus:
        for P in (poset.order_poset(S), poset.sigma_poset(S)[0]):
            if P.n > poset.DEFINITIONAL_LIMIT:
                continue
            wb = way_below_matrix(P)
            for x in range(P.n):
                for y in range(P.n):
                    pairs += 1
                    assert bool((wb[x] >> y) & 1) == way_below_def(P, x, y), sid
    assert pairs == 1156


def test_way_below_guard():
    P = chain(13)
    with pytest.raises(TooLargeForDefinitionalCheck):
        way_below_def(P, 0, 12)


def test_way_below_order_sandwich():
    # x' <= x << y <= y' forces x' << y', with << from the definition
    for P in CORPUS:
        if P.n > 6:
            continue
        for x in range(P.n):
            for y in range(P.n):
                if way_below_def(P, x, y):
                    assert P.leq(x, y)
                    for x2 in range(P.n):
                        for y2 in range(P.n):
                            if P.leq(x2, x) and P.leq(y, y2):
                                assert way_below_def(P, x2, y2)


def test_finite_posets_are_continuous_and_algebraic():
    for P in CORPUS:
        assert compacts(P) == tuple(range(P.n))
        assert is_continuous(P)
        assert is_algebraic(P)


def test_meet_continuity():
    assert is_meet_continuous(chain(4))
    assert is_meet_continuous(m3())          # M3 is a lattice
    assert is_meet_continuous(b3())
    assert is_meet_continuous(chain(13))     # no size limit: the collapse
    assert is_meet_continuous(FinitePoset.from_relation(16, lambda x, y: (x & y) == x))
    with pytest.raises(NotAMeetSemilattice):
        is_meet_continuous(bowtie())


def test_way_below_multiplicative():
    C = chain(1)
    assert way_below_multiplicative(C, lambda a, b: 0)
    B = b3()
    assert way_below_multiplicative(B, lambda a, b: a & b)


def test_way_below_multiplicative_on_i2(I2):
    S = I2.carrier
    P = poset.order_poset(S)
    assert way_below_multiplicative(P, S.mul)


def ref_multiplicative(P, mul):
    """The definition: x <= y and x' <= y' give xx' <= yy', on all 4-tuples."""
    pairs = [(x, y) for x in range(P.n) for y in range(P.n) if P.leq(x, y)]
    return all(P.leq(mul(x, x2), mul(y, y2)) for x, y in pairs for x2, y2 in pairs)


def test_way_below_multiplicative_agrees_with_the_4_tuple_law(I2):
    C = chain(3)
    held = 0
    for table in product(range(3), repeat=9):
        def mul(a, b):
            return table[3 * a + b]
        got = way_below_multiplicative(C, mul)
        assert got == ref_multiplicative(C, mul), table
        held += got
    assert held == 175  # the monotone maps from the 3 x 3 grid to the chain
    for T in tampered(I2.carrier):
        P = poset.order_poset(T)
        assert way_below_multiplicative(P, T.mul) == ref_multiplicative(P, T.mul), T.table


def test_covers_and_dot():
    D = diamond()
    assert sorted(covers(D)) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    dot = hasse_dot(D, labels=["bot", "a", "b", "top"])
    assert dot.startswith("digraph hasse {")
    assert '"bot"' in dot and "n0 -> n1;" in dot and "n0 -> n3;" not in dot
    assert len(covers(b3())) == 12


def test_order_poset_adapters(I2):
    S = I2.carrier
    P = poset.order_poset(S)
    assert P.n == S.n
    Psig, sig = poset.sigma_poset(S)
    assert Psig.n == 4 and all(S.is_idempotent(e) for e in sig)
    # B2: the idempotent semilattice of I_2 is the powerset of a 2-set
    assert sorted(len(list(b for b in range(Psig.n) if Psig.leq(b, t)))
                  for t in range(Psig.n)) == [1, 2, 2, 4]
