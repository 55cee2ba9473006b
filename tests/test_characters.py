import random
from fractions import Fraction

import pytest

from invsg import checkers, core
from invsg.checkers import classify
from invsg.families import (character_family, coset_monoid, cyclic_group,
                            enumerate_characters, trivial_character)
from invsg.families.base import DEFAULT_DEPTH, MAX_DEPTH
from invsg.families.rotation import RotationScale

from reference import NotACharacter, character_op, is_character

# the rotation encoding at the default depth, the one the character functions use
rot_canonical, rot_value = (RotationScale(DEFAULT_DEPTH).canonical,
                            RotationScale(DEFAULT_DEPTH).value)

ONE = rot_canonical(Fraction(1), Fraction(0))
HALF = rot_canonical(Fraction(1, 2), Fraction(0))
ZERO = rot_canonical(Fraction(0), Fraction(0))
MINUS = rot_canonical(Fraction(1), Fraction(1, 2))


def two_chain():
    return core.FiniteInvSemigroup([[0, 1], [1, 1]])  # identity 0, idempotent e = 1


def mixed3():
    # C2 with an external identity: 0 = 1, 1 = e, 2 = a with a*a = e
    return core.FiniteInvSemigroup([[0, 1, 2], [1, 1, 2], [2, 2, 1]])


def test_trivial_character_is_identity():
    S = two_chain()
    triv = trivial_character(S)
    for chi in enumerate_characters(S):
        assert character_op(S, triv, chi) == chi


def test_character_idempotent_iff_interval_valued():
    S = mixed3()
    fam = character_family(S)
    for chi in enumerate_characters(S):
        assert fam.is_idempotent(chi) == all(v[1] == 0 for v in chi)


def test_two_chain_characters_are_radii():
    S = two_chain()
    chars = enumerate_characters(S)
    # chi(e) may be any idempotent value; the palette carries three radii
    assert sorted(c[1] for c in chars) == [ZERO, HALF, ONE]
    # a non-palette radius still works: chi(e) = 1/3
    chi = (ONE, rot_canonical(Fraction(1, 3), Fraction(0)))
    assert is_character(S, chi)
    assert character_op(S, chi, chi) == chi  # idempotent


def test_character_op_rejects_non_characters():
    S = two_chain()
    bad = (ONE, MINUS)  # chi(e) must be idempotent since e*e = e
    assert not is_character(S, bad)
    with pytest.raises(NotACharacter) as ei:
        character_op(S, bad, trivial_character(S))
    assert ei.value.pair == (1, 1)


def test_characters_carry_their_scale():
    S = mixed3()
    deep = character_family(S, depth=MAX_DEPTH)
    chi = deep.sample(random.Random(3))
    assert is_character(S, chi)  # a character on the depth-1024 scale
    assert character_op(S, chi, chi) == deep.op(chi, chi)
    shallow = enumerate_characters(S)[-1]
    assert is_character(S, shallow)
    with pytest.raises(NotACharacter, match="different scales"):
        character_op(S, chi, shallow)
    # an identity value off every family's scale is no character
    assert not is_character(S, ((3 * ONE[0], 0),) + shallow[1:])
    assert not is_character(S, ((ONE[0] << 4000, 0),) + shallow[1:])


def test_characters_on_groups_are_circle_valued():
    G = cyclic_group(2)
    chars = enumerate_characters(G)
    assert len(chars) == 2
    for chi in chars:
        assert all(rot_value(v)[0] == 1 for v in chi)  # no zero values on a group
    assert sorted(c[1] for c in chars) == [ONE, MINUS]


def test_character_involution_compatibility():
    # chi(s*) = chi(s)* holds automatically for morphisms
    S = mixed3()
    fam = character_family(S)
    for chi in enumerate_characters(S):
        starred = tuple(chi[S.inv[s]] for s in range(S.n))
        assert starred == fam.inv(chi)


def test_character_family_order_matches_derived_form():
    S = mixed3()
    fam = character_family(S)
    rng = random.Random(3)
    for _ in range(400):
        chi, psi = fam.sample(rng), fam.sample(rng)
        derived = fam.op(psi, fam.sigma(chi)) == chi
        assert fam.nat_le(chi, psi) == derived


def test_character_family_zero_detection():
    assert character_family(mixed3()).zero is not None
    assert character_family(cyclic_group(2)).zero is None


def test_character_family_mirror_and_reduced():
    for S in (two_chain(), cyclic_group(2), mixed3()):
        fam = character_family(S)
        assert checkers.check_mirror(fam).verdict == "pass"
        ok, ce, _n = checkers._family_reduced(fam, DEFAULT_DEPTH, 5)
        assert ok, ce


def test_character_family_partial_suites_are_not_applicable():
    fam = character_family(two_chain())
    r = checkers.check_wb_characterization(fam)
    assert r.verdict == "not-applicable"
    r2 = checkers.check_mirror_theorem(fam)
    assert r2.verdict == "not-applicable"


def test_character_family_continuity_is_not_classified():
    # no way-below oracle is installed, so nothing about continuity is examined
    flag = classify(character_family(coset_monoid(cyclic_group(2)))).continuous
    assert (flag.value, flag.budget) == (None, 0)


def test_character_carrier_must_be_commutative_monoid():
    from invsg.families import symmetric_group
    with pytest.raises(ValueError):
        character_family(symmetric_group(3))
    no_identity = core.FiniteInvSemigroup([[0]])  # fine
    assert character_family(no_identity).name.startswith("characters:")
