import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsg import checkers
from invsg.checkers import classify
from invsg.core import NotIdempotent
from invsg.families import (OMEGA, bicyclic_dyadic, bicyclic_le, bicyclic_nat,
                            bicyclic_op, cex_family, cex_le,
                            cex_op, cex_truncation,
                            rotation_family, rotation_le, rotation_op,
                            rotation_wb_sigma)
from invsg.families.base import (DEFAULT_DEPTH, chain_members, family_scale, finite_chain,
                                 iter_chain)
from invsg.families.cex import CexScale
from invsg.families.rotation import OutOfRange, RotationScale

# the rotation encoding at the default depth, the one rotation_family() uses
rot_canonical, rot_value = (RotationScale(DEFAULT_DEPTH).canonical,
                            RotationScale(DEFAULT_DEPTH).value)

ALL_FAMILIES = [bicyclic_nat, bicyclic_dyadic, rotation_family, cex_family]


# -- bicyclic ----------------------------------------------------------------

def test_bicyclic_op_examples():
    assert bicyclic_op((0, 0), (3, 5)) == (3, 5)
    assert bicyclic_op((2, 1), (3, 4)) == (4, 4)      # max(b, c) = 3 by hand
    a, b = 4, 2
    s = (a, b)
    assert bicyclic_op(bicyclic_op(s, (b, a)), s) == s


def test_bicyclic_le_examples():
    assert bicyclic_le((4, 4), (3, 3))
    assert not bicyclic_le((3, 3), (4, 4))
    assert bicyclic_le((7, 2), (7, 2))
    assert bicyclic_le((6, 3), (5, 2)) and not bicyclic_le((5, 2), (6, 3))


naturals = st.integers(min_value=0, max_value=30)
dyadics = st.builds(lambda k, j: Fraction(k, 2 ** j),
                    st.integers(min_value=0, max_value=120),
                    st.integers(min_value=0, max_value=4))


@settings(max_examples=300, deadline=None)
@given(naturals, naturals, naturals, naturals, naturals, naturals)
def test_bicyclic_associative_nat(a, b, c, d, e, f):
    x, y, z = (a, b), (c, d), (e, f)
    assert bicyclic_op(bicyclic_op(x, y), z) == bicyclic_op(x, bicyclic_op(y, z))


@settings(max_examples=300, deadline=None)
@given(dyadics, dyadics, dyadics, dyadics, dyadics, dyadics)
def test_bicyclic_associative_dyadic(a, b, c, d, e, f):
    x, y, z = (a, b), (c, d), (e, f)
    assert bicyclic_op(bicyclic_op(x, y), z) == bicyclic_op(x, bicyclic_op(y, z))


def test_bicyclic_wb_examples():
    nat, dyadic = bicyclic_nat(), bicyclic_dyadic()
    one = 1 << family_scale(DEFAULT_DEPTH).bits  # the dyadic encoding of 1
    assert nat.wb_sigma((4, 4), (3, 3))
    assert nat.wb_sigma((3, 3), (3, 3))          # everything compact over N
    assert not dyadic.wb_sigma((3 * one, 3 * one), (3 * one, 3 * one))
    assert dyadic.wb_sigma((4 * one, 4 * one), (3 * one, 3 * one))
    with pytest.raises(NotIdempotent):
        nat.wb_sigma((1, 2), (3, 3))


@pytest.mark.parametrize("build", [bicyclic_nat, bicyclic_dyadic])
def test_a_bicyclic_family_names_a_non_idempotent_as_it_describes_it(build):
    # as every other message and counterexample of the family names it
    fam, rng = build(), random.Random(0)
    x = next(x for x in iter(lambda: fam.sample(rng), None) if not fam.is_idempotent(x))
    for args in ((x, fam.sigma(x)), (fam.sigma(x), x)):
        with pytest.raises(NotIdempotent) as err:
            fam.wb_sigma(*args)
        assert str(err.value) == f"element {fam.describe(x)} is not idempotent"


# -- rotation ----------------------------------------------------------------

def test_rotation_op_examples():
    assert rotation_op(rot_canonical(Fraction(1, 2), Fraction(1, 3)),
                       rot_canonical(Fraction(3, 4), Fraction(1, 2))) == \
        rot_canonical(Fraction(1, 2), Fraction(5, 6))
    z = rot_canonical(Fraction(2, 3), Fraction(1, 7))
    assert rotation_op(z, rot_canonical(Fraction(1), Fraction(0))) == z
    # inversion is conjugation and squares to the identity map
    fam = rotation_family()
    assert fam.inv(z) == rot_canonical(Fraction(2, 3), Fraction(6, 7))
    assert fam.inv(fam.inv(z)) == z


def test_rotation_canonical_and_range():
    assert rot_value(rot_canonical(0, Fraction(1, 3))) == (Fraction(0), Fraction(0))
    assert rot_value(rot_canonical(Fraction(1, 2), Fraction(7, 3))) == \
        (Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(OutOfRange):
        rot_canonical(Fraction(3, 2), 0)


def test_rotation_le_examples():
    anything = rot_canonical(Fraction(9, 11), Fraction(3, 5))
    assert rotation_le(rot_canonical(Fraction(0), Fraction(0)), anything)
    assert rotation_le(rot_canonical(Fraction(1, 2), Fraction(1, 3)),
                       rot_canonical(Fraction(3, 4), Fraction(1, 3)))
    assert not rotation_le(rot_canonical(Fraction(1, 2), Fraction(1, 3)),
                           rot_canonical(Fraction(3, 4), Fraction(1, 2)))


def test_rotation_wb_sigma_examples():
    def radius(r):
        return rot_canonical(r, 0)[0]

    assert rotation_wb_sigma(radius(Fraction(0)), radius(Fraction(0)))
    assert not rotation_wb_sigma(radius(Fraction(1)), radius(Fraction(1)))
    assert rotation_wb_sigma(radius(Fraction(1, 2)), radius(Fraction(3, 4)))
    # witness chain kills the false claim 1 << 1
    fam = rotation_family()
    one = rot_canonical(Fraction(1), Fraction(0))
    cw = fam.sigma_chains_to(one)[0]
    members = chain_members(cw, 64)
    assert cw.sup_in_sigma == one
    assert not any(fam.nat_le(one, m) for m in members)


# -- cex ---------------------------------------------------------------------

def test_cex_op_table():
    assert cex_op(OMEGA, OMEGA) == Fraction(1)
    assert cex_op(OMEGA, Fraction(1, 2)) == Fraction(1, 2)
    assert cex_op(Fraction(1, 2), OMEGA) == Fraction(1, 2)
    assert cex_op(OMEGA, Fraction(1)) is OMEGA
    assert cex_op(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 3)


def test_cex_incomparability_of_one_and_omega():
    assert not cex_le(Fraction(1), OMEGA)
    assert not cex_le(OMEGA, Fraction(1))
    assert cex_le(Fraction(1, 2), OMEGA)
    assert cex_le(OMEGA, OMEGA)
    # exhaustive over idempotent shapes in a finite truncation
    T = cex_truncation(4)
    one, om = T.names.index("1"), T.names.index("omega")
    assert not T.le(one, om) and not T.le(om, one)
    assert all(T.le(i, om) for i in range(T.n) if T.names[i] not in ("1", "omega"))


def test_cex_mirror_witness_content():
    enc = CexScale()
    cw, fam, value = enc.mirror_witness(), cex_family(), enc.value
    members = chain_members(cw, 64)
    assert value(members[0]) == 0 and value(members[3]) == Fraction(7, 8)
    assert all(fam.is_idempotent(m) for m in members)
    assert value(cw.sup_in_sigma) == Fraction(1) and cw.sup_in_s is None
    assert set(map(fam.describe, cw.upper_bounds)) == {"1", "omega"}
    for u in cw.upper_bounds:
        assert all(fam.nat_le(m, u) for m in members)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cex_associativity(data):
    vals = [OMEGA, Fraction(1), Fraction(0), Fraction(1, 2), Fraction(2, 3),
            Fraction(1, 7), Fraction(15, 16)]
    x, y, z = (data.draw(st.sampled_from(vals)) for _ in range(3))
    assert cex_op(cex_op(x, y), z) == cex_op(x, cex_op(y, z))


# -- family-level invariants ---------------------------------------------------

@pytest.mark.parametrize("make", ALL_FAMILIES, ids=lambda m: m.__name__)
def test_family_axioms_on_samples(make):
    # budget >= 10^4 sampled instances per family, deterministic seed
    fam = make()
    rng = random.Random(7)
    for _ in range(10_000):
        s, t, u = fam.sample(rng), fam.sample(rng), fam.sample(rng)
        assert fam.op(fam.op(s, t), u) == fam.op(s, fam.op(t, u))
        assert fam.inv(fam.inv(s)) == s
        assert fam.inv(fam.op(s, t)) == fam.op(fam.inv(t), fam.inv(s))
        # order compatibility on constructed comparable pairs
        eps = fam.sample_idempotent(rng)
        a = fam.op(s, eps)
        assert fam.nat_le(a, s)
        assert fam.nat_le(fam.op(a, t), fam.op(s, t))


@pytest.mark.parametrize("make", ALL_FAMILIES, ids=lambda m: m.__name__)
def test_family_order_characterizations_on_samples(make):
    fam = make()
    rng = random.Random(11)
    for _ in range(2500):
        s, t = fam.sample(rng), fam.sample(rng)
        le = fam.nat_le(s, t)
        assert le == (fam.op(t, fam.sigma(s)) == s)
        assert le == fam.nat_le(fam.inv(s), fam.inv(t))
        assert le == (fam.op(fam.op(s, fam.inv(s)), t) == s)


def _assert_chain_claims(fam, cw):
    """The chain is monotone to depth 64 and each member lies below every
    claimed sup and listed bound."""
    ms = chain_members(cw, 64)
    for a, b in zip(ms, ms[1:]):
        assert fam.nat_le(a, b), cw.name
    for u in (cw.sup_in_sigma, cw.sup_in_s, *cw.upper_bounds):
        if u is not None:
            assert all(fam.nat_le(m, u) for m in ms), (cw.name, fam.describe(u))


@pytest.mark.parametrize("make", ALL_FAMILIES, ids=lambda m: m.__name__)
def test_family_chain_witnesses_verify(make):
    # the witnesses, and the chains to sampled points that feed every
    # way-below refutation
    fam = make()
    rng = random.Random(29)
    chains = list(fam.witnesses)
    for _ in range(300):
        chains += fam.chains_to(fam.sample(rng))
        chains += fam.sigma_chains_to(fam.sample_idempotent(rng))
    assert any(cw.in_sigma for cw in chains[len(fam.witnesses):])
    for cw in chains:
        _assert_chain_claims(fam, cw)


def test_finite_chain_claims_its_last_item():
    fam = bicyclic_nat()
    x, y = (3, 3), (1, 1)
    assert fam.nat_le(x, y)
    cw = finite_chain("pair", [x, y], True)
    assert (cw.sup_in_s, cw.sup_in_sigma, cw.upper_bounds) == (y, y, (y,))
    assert [cw.member(k) for k in range(4)] == [x, y, y, y] and cw.length == 2
    assert finite_chain("pair", [x, y], False).sup_in_sigma is None


@pytest.mark.parametrize("depth", [1, 2, 3])  # depth + 1 below, at and above the length 3
def test_iter_chain_stops_at_a_finite_chain_or_at_the_depth(depth):
    items = [(3, 3), (2, 2), (1, 1)]
    cw = finite_chain("triple", items, True)
    assert list(iter_chain(cw, depth)) == items[:min(len(items), depth + 1)]


@pytest.mark.parametrize("make", [bicyclic_nat, bicyclic_dyadic, rotation_family,
                                  cex_family], ids=lambda m: m.__name__)
def test_family_wb_factors_through_sigma(make):
    # s << t iff s <= t and sigma(s) << sigma(t); cex is exempt (not mirror)
    fam = make()
    rng = random.Random(13)
    mismatches = 0
    for _ in range(4000):
        t = fam.sample(rng)
        s = fam.op(t, fam.sample_idempotent(rng)) if rng.random() < 0.5 else fam.sample(rng)
        lhs = fam.wb_s(s, t)
        rhs = fam.nat_le(s, t) and fam.wb_sigma(fam.sigma(s), fam.sigma(t))
        if lhs != rhs:
            mismatches += 1
            assert fam.name == "cex", (fam.describe(s), fam.describe(t))
    if fam.name == "cex":
        assert mismatches > 0  # 1 << 1 in S while 1 is not way-below 1 in Sigma
    else:
        assert mismatches == 0


@pytest.mark.parametrize("make", ALL_FAMILIES, ids=lambda m: m.__name__)
def test_family_refuters_kill_false_wb_claims(make):
    # every denied pair is refuted on both sides: by the singleton {y} when x
    # is not below y, else by the first canonical chain to y on that side
    fam = make()
    rng = random.Random(17)
    denied = by_chain = 0
    for _ in range(1500):
        t = fam.sample(rng)
        s = fam.op(t, fam.sample_idempotent(rng)) if rng.random() < 0.5 else fam.sample(rng)
        for side, x, y in ((checkers._S, s, t), (checkers._SIGMA, fam.sigma(s), fam.sigma(t))):
            if getattr(fam, side.wb)(x, y):
                continue
            assert checkers._wb_refutation(fam, side, x, y, 64) is None
            denied += 1
            by_chain += fam.nat_le(x, y)
    assert denied > 100
    # over N way-below is the order, so no denied pair is comparable
    assert (by_chain > 0) == (fam.name != "bicyclic-nat"), by_chain


def test_family_reducedness_semantics():
    # bicyclic: literally reduced; rotation: reduced away from its zero;
    # cex: not reduced (omega sits above every idempotent below 1)
    fam = rotation_family()
    rng = random.Random(23)
    for _ in range(2000):
        s = fam.sample(rng)
        eps = fam.op(s, fam.sample_idempotent(rng))
        if fam.is_idempotent(eps) and eps != fam.zero and fam.nat_le(eps, s):
            assert fam.is_idempotent(s)
    cex = cex_family()
    assert cex.is_idempotent(Fraction(1, 2))
    assert cex.nat_le(Fraction(1, 2), OMEGA) and not cex.is_idempotent(OMEGA)


@pytest.mark.parametrize("k", [5, 10])
def test_reduced_probes_chain_members_to_the_depth(k):
    # an is_idempotent that also accepts member k of a chain bounded by the
    # non-idempotent (5/2,1/2) breaks reducedness there; the probe must reach
    # k, which used to stop at member 8
    fam = bicyclic_dyadic()
    cw = next(cw for cw in fam.witnesses if cw.name == "dyadic-approach-(5/2,1/2)")
    bad = cw.member(k)
    broken = dataclasses.replace(
        fam, is_idempotent=lambda x: x == bad or fam.is_idempotent(x))
    assert classify(broken, depth=DEFAULT_DEPTH).reduced.value is False


# The documented classification of each registry family.
CLAIMED = {
    "bicyclic-nat": {"reduced": True, "mirror": True, "continuous": True,
                     "algebraic": True, "stably_continuous": True},
    "bicyclic-dyadic": {"reduced": True, "mirror": True, "continuous": True,
                        "algebraic": False, "stably_continuous": True},
    "rotation": {"reduced": True, "mirror": True, "continuous": True,
                 "algebraic": False, "stably_continuous": True},
    "cex": {"reduced": False, "mirror": False, "continuous": True,
            "algebraic": False, "stably_continuous": True},
}


@pytest.mark.parametrize("make", ALL_FAMILIES, ids=lambda m: m.__name__)
def test_family_classification_matches_claims(make):
    fam = make()
    record = classify(fam, depth=64, seed=0, budget=1500)
    got = record.values()
    for flag, expected in CLAIMED[fam.name].items():
        assert got[flag] == expected, (fam.name, flag, got)


def test_classification_of_finite_carriers():
    T = cex_truncation(2)
    record = classify(T, "cex-truncation")
    assert record.values() == {"reduced": False, "mirror": True, "continuous": True,
                               "algebraic": True, "stably_continuous": True}
