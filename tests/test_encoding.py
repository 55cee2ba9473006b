"""The integer encodings of the dyadic bicyclic, rotation, character and
cex families against Fraction references, and their exact scale, which
follows the depth a family is built for.

The references restate each closed form on Fractions; the encoded oracles
must agree with them after decoding, and no oracle may hand back anything
but ints (and, for cex, the sentinel omega).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsg import core
from invsg.checkers import classify, run_suites
from invsg.cli import main
from invsg.families import (FAMILY_BUILDERS, OMEGA, bicyclic_dyadic, bicyclic_nat,
                            cex_family, cex_le, cex_op, character_family,
                            rotation_family)
from invsg.families.base import (DEFAULT_DEPTH, MAX_DEPTH, chain_limit, chain_members,
                                 family_scale)
from invsg.families.cex import cex_scale
from invsg.families.rotation import rotation_scale
from invsg.pbij import TooLarge

K = family_scale(DEFAULT_DEPTH).bits  # the scale of a family built at the default depth
MAX_CHAIN_INDEX = chain_limit(MAX_DEPTH)  # the deepest chain index any check reads
rot_canonical, rot_value = (rotation_scale(DEFAULT_DEPTH).canonical,
                            rotation_scale(DEFAULT_DEPTH).value)

# -- Fraction references ------------------------------------------------------


def ref_bicyclic_op(x, y):
    (a, b), (c, d) = x, y
    m = max(b, c)
    return (a - b + m, d - c + m)


def ref_bicyclic_le(x, y):
    (a, b), (c, d) = x, y
    return c == d + a - b and d <= b


def ref_bicyclic_wb_s(x, y):
    return ref_bicyclic_le(x, y) and x[1] > y[1]


def ref_bicyclic_wb_sigma(e, d):
    return e[0] > d[0]


def ref_rot_op(z, w):
    r = min(z[0], w[0])
    return (r, (z[1] + w[1]) % 1) if r else (Fraction(0), Fraction(0))


def ref_rot_le(z, w):
    return z[0] == 0 or (z[0] <= w[0] and z[1] == w[1])


def ref_rot_wb_s(z, w):
    return z[0] == 0 or (z[0] < w[0] and z[1] == w[1])


def ref_rot_wb_sigma(e, d):
    return e[0] == 0 or e[0] < d[0]


# cex: the points of [0, 1] as Fractions, omega as itself


def ref_cex_op(s, t):
    if s is OMEGA and t is OMEGA:
        return Fraction(1)
    if s is OMEGA:
        return OMEGA if t == 1 else t
    if t is OMEGA:
        return OMEGA if s == 1 else s
    return min(s, t)


def ref_cex_le(x, y):
    if x is OMEGA:
        return y is OMEGA
    if y is OMEGA:
        return x < 1
    return x <= y


def ref_cex_wb_s(x, y):
    if y is OMEGA:
        return ref_cex_le(x, OMEGA)
    if x is OMEGA:
        return False
    if x == 0:
        return True
    if x == 1:
        return y == 1
    return x < y


def ref_cex_wb_sigma(e, d):
    return e == 0 or e < d


def interval_member(y, k):
    """Member k of the approach chain to the point y: y (1 - 2^-k)."""
    return y * (1 - Fraction(1, 2 ** k))


def dyadic_decoder(depth):
    """The decoder of a dyadic family built for ``depth``."""
    one = 1 << family_scale(depth).bits
    return lambda x: (Fraction(x[0], one), Fraction(x[1], one))


def rotation_decoder(depth):
    """The decoder of a rotation family built for ``depth``."""
    return rotation_scale(depth).value


def dyadic_member(t, k):
    """Member k of the approach chain to t: both coordinates plus 2^-k."""
    e = Fraction(1, 2 ** k)
    return (t[0] + e, t[1] + e)


def radius_member(z, k):
    """Member k of the radius chain to z: radius r (1 - 2^-k), same angle."""
    r = z[0] * (1 - Fraction(1, 2 ** k))
    return (r, z[1]) if r else (Fraction(0), Fraction(0))


REFERENCES = {
    # name: (build, decoder at a depth, op, inv, le, wb_s, wb_sigma, chain member)
    "bicyclic-dyadic": (bicyclic_dyadic, dyadic_decoder, ref_bicyclic_op,
                        lambda x: (x[1], x[0]), ref_bicyclic_le, ref_bicyclic_wb_s,
                        ref_bicyclic_wb_sigma, dyadic_member),
    "rotation": (rotation_family, rotation_decoder, ref_rot_op, lambda z: (z[0], -z[1] % 1),
                 ref_rot_le, ref_rot_wb_s, ref_rot_wb_sigma, radius_member),
}
CHAIN_INDICES = (0, 1, 2, 63, 192)


def mixed3():
    # C2 with an external identity: 0 = 1, 1 = e, 2 = a with a*a = e
    return core.FiniteInvSemigroup([[0, 1, 2], [1, 1, 2], [2, 2, 1]])


def _pool(fam, rng, k):
    """k sampled elements, k constructed ones below them, and every witness
    sup and upper bound."""
    pool = [fam.sample(rng) for _ in range(k)]
    pool += [fam.op(x, fam.sample_idempotent(rng)) for x in pool]
    for cw in fam.witnesses:
        pool += [v for v in (cw.sup_in_s, cw.sup_in_sigma) if v is not None]
        pool += list(cw.upper_bounds)
    return pool


@pytest.fixture(scope="module")
def families():
    return {name: ref[0]() for name, ref in REFERENCES.items()}


# -- the oracles agree with the references --------------------------------------


@pytest.mark.parametrize("name", REFERENCES)
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_oracles_agree_with_the_fraction_reference(families, name, seed):
    _build, decoder, op, inv, le, wb_s, wb_sigma, _member = REFERENCES[name]
    fam, value = families[name], decoder(DEFAULT_DEPTH)
    pool = _pool(fam, random.Random(seed), 4)
    values = [value(s) for s in pool]
    for s, vs in zip(pool, values):
        assert value(fam.inv(s)) == inv(vs)
        assert fam.describe(s) == "({},{})".format(*vs)
        e, ve = fam.sigma(s), value(fam.sigma(s))
        for t, vt in zip(pool, values):
            assert value(fam.op(s, t)) == op(vs, vt)
            assert fam.nat_le(s, t) == le(vs, vt)
            assert fam.wb_s(s, t) == wb_s(vs, vt)
            assert fam.wb_sigma(e, fam.sigma(t)) == wb_sigma(ve, value(fam.sigma(t)))


@pytest.mark.parametrize("name", REFERENCES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_chain_members_agree_with_the_fraction_reference(families, name, seed):
    _build, decoder, *_ops, member = REFERENCES[name]
    fam, value = families[name], decoder(DEFAULT_DEPTH)
    pool = _pool(fam, random.Random(seed), 3)
    chains = list(fam.witnesses)
    for x in pool:
        chains += fam.chains_to(x) + fam.sigma_chains_to(fam.sigma(x))
    for cw in chains:
        if cw.length is not None:
            continue  # a finite list holds its members literally
        sup = value(cw.sup_in_s)
        for k in CHAIN_INDICES:
            assert value(cw.member(k)) == member(sup, k), (cw.name, k)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_character_oracles_agree_with_the_fraction_reference(seed):
    S = mixed3()
    fam = character_family(S)
    rng = random.Random(seed)

    def value(chi):
        return tuple(rot_value(v) for v in chi)

    pool = [fam.sample(rng) for _ in range(4)] + [fam.sample_idempotent(rng)]
    for chi in pool:
        assert value(fam.inv(chi)) == tuple((r, -t % 1) for r, t in value(chi))
        assert fam.describe(chi) == "[" + ", ".join(
            f"{S.name_of(i)}:({r},{t})" for i, (r, t) in enumerate(value(chi))) + "]"
        for psi in pool:
            assert value(fam.op(chi, psi)) == tuple(
                ref_rot_op(a, b) for a, b in zip(value(chi), value(psi)))
            assert fam.nat_le(chi, psi) == all(
                ref_rot_le(a, b) for a, b in zip(value(chi), value(psi)))
        damped, _const = fam.chains_to(chi)
        for k in CHAIN_INDICES:
            damp = (1 - Fraction(1, 2 ** k), Fraction(0))
            assert value(damped.member(k)) == tuple(ref_rot_op(v, damp) for v in value(chi))


def test_character_main_witness_agrees_with_the_fraction_reference():
    S = mixed3()
    cw = character_family(S, depth=MAX_DEPTH).witnesses[0]
    value = rotation_decoder(MAX_DEPTH)
    units = [s for s in range(S.n) if S.sigma[s] == S.identity]
    for k in CHAIN_INDICES + (MAX_CHAIN_INDEX,):
        damp = radius_member((Fraction(1), Fraction(0)), k)
        assert tuple(value(v) for v in cw.member(k)) == tuple(
            (Fraction(1), Fraction(0)) if s in units else damp for s in range(S.n))


def _cex_pool(fam, rng, k):
    """The pool of ``_pool``, with each witness's members up to index 3."""
    return _pool(fam, rng, k) + [m for cw in fam.witnesses for m in chain_members(cw, 3)]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cex_oracles_agree_with_the_fraction_reference(seed):
    fam, value = cex_family(), cex_scale(DEFAULT_DEPTH).value
    pool = _cex_pool(fam, random.Random(seed), 6)
    values = [value(s) for s in pool]
    for s, vs in zip(pool, values):
        assert fam.inv(s) == s
        assert fam.is_idempotent(s) == (vs is not OMEGA)
        assert fam.describe(s) == ("omega" if vs is OMEGA else str(vs))
        for t, vt in zip(pool, values):
            assert value(fam.op(s, t)) == ref_cex_op(vs, vt) == cex_op(vs, vt)
            assert fam.nat_le(s, t) == ref_cex_le(vs, vt) == cex_le(vs, vt)
            assert fam.wb_s(s, t) == ref_cex_wb_s(vs, vt)
            if vs is not OMEGA and vt is not OMEGA:
                assert fam.wb_sigma(s, t) == ref_cex_wb_sigma(vs, vt)


def test_the_cex_fraction_api_runs_the_family_code():
    fam = cex_family()
    assert cex_op.__code__ is fam.op.__code__
    assert cex_le.__code__ is fam.nat_le.__code__


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cex_chain_members_agree_with_the_fraction_reference(seed):
    fam, value = cex_family(), cex_scale(DEFAULT_DEPTH).value
    chains = list(fam.witnesses)
    for x in _cex_pool(fam, random.Random(seed), 3):
        chains += fam.chains_to(x)
    for cw in chains:
        if cw.length is not None:
            continue  # a finite list holds its members literally
        sup = value(cw.sup_in_sigma)  # the unit-interval chain has no sup in S
        for k in CHAIN_INDICES:
            assert value(cw.member(k)) == interval_member(sup, k), (cw.name, k)


# -- the exact scale ------------------------------------------------------------


@pytest.mark.parametrize("name", REFERENCES)
def test_the_largest_chain_index_is_exact_and_the_next_is_refused(name):
    build, decoder, *_ops, member = REFERENCES[name]
    for depth in (1, 64, 1024):
        fam, value = build(depth), decoder(depth)
        deepest = max(3 * depth, 64)  # the deepest index the checks at this depth read
        for cw in fam.witnesses:
            if cw.length is not None:
                continue
            assert value(cw.member(deepest)) == member(value(cw.sup_in_s), deepest)
            with pytest.raises(TooLarge):
                cw.member(deepest + 1)


def test_the_largest_cex_chain_index_is_exact_and_the_next_is_refused():
    for depth in (1, 64, 1024):
        fam, value = cex_family(depth), cex_scale(depth).value
        deepest = max(3 * depth, 64)
        omega_chains = [cw for cw in fam.witnesses if cw.length is None]
        assert [cw.name for cw in omega_chains] == ["unit-interval-chain",
                                                    "interval-approach-1/2"]
        for cw in omega_chains:
            assert value(cw.member(deepest)) == interval_member(value(cw.sup_in_sigma),
                                                               deepest)
            with pytest.raises(TooLarge):
                cw.member(deepest + 1)


@pytest.mark.parametrize("name", REFERENCES)
def test_sampled_values_are_as_wide_as_the_default_scale(families, name):
    fam = families[name]
    assert K == 200
    rng = random.Random(3)
    seen = []
    for _ in range(2000):
        eps = fam.sample_idempotent(rng)
        seen += [fam.sample(rng), eps] + fam.h_class_sample(eps, rng, 2)
    # a dyadic coordinate m / 2^j is m 2^(K - j) with m < 65; a radius is at
    # most 27720 2^K < 2^(K + 15)
    assert max(c.bit_length() for x in seen for c in x) <= K + 15


@pytest.mark.parametrize("name", [*REFERENCES, "cex"])
def test_the_build_depth_changes_no_report(name):
    build = FAMILY_BUILDERS[name]
    deep, shallow = build(1024), build(64)
    assert ([r.to_json() for r in run_suites(deep, name, depth=64, seed=3, budget=500)]
            == [r.to_json() for r in run_suites(shallow, name, depth=64, seed=3, budget=500)])
    assert (classify(deep, depth=64, seed=3, budget=500).to_json()
            == classify(shallow, depth=64, seed=3, budget=500).to_json())


@pytest.mark.parametrize("build", [rotation_family, bicyclic_dyadic, cex_family,
                                   lambda depth=DEFAULT_DEPTH: character_family(mixed3(), depth=depth)])
def test_a_family_checked_deeper_than_built_names_the_depth_to_build(build):
    fam = build()  # built for the default depth, whose chains end at index 192
    with pytest.raises(TooLarge, match=r"^chain index 300 exceeds the desk-scale limit 192; "
                                       r"the family was built for depth 64; "
                                       r"rebuild it with depth=100$"):
        run_suites(fam, fam.name, depth=100, seed=3, budget=50)
    run_suites(build(depth=100), fam.name, depth=100, seed=3, budget=50)  # the remedy runs
    with pytest.raises(TooLarge, match=r"^chain index 3075 exceeds the desk-scale limit 3072; "
                                       r"the family was built for depth 1024; "
                                       r"no family is built past depth 1024$"):
        run_suites(build(depth=MAX_DEPTH), fam.name, depth=1025, seed=3, budget=50)


def test_a_rounding_radius_chain_member_is_refused():
    fam = rotation_family()
    # radius 1/2^(K+3) is stored as the odd int 27720 / 8, so its chain member
    # at index 1, half of it, would round
    z = rot_canonical(Fraction(1, 2 ** (K + 3)), 0)
    assert z[0] == 3465
    cw = fam.chains_to(z)[0]
    assert cw.member(0) == (0, 0)
    with pytest.raises(TooLarge, match=rf"^exact radius chain to \(1/{2 ** (K + 3)},0\): "
                                       r"index exceeds the desk-scale limit 0$"):
        cw.member(1)


def test_a_rounding_cex_chain_member_is_refused():
    # the point 1/(720720 2^K) is stored as 1, so its chain member at index 1
    # would round
    cw = cex_family().chains_to(1)[0]
    assert cw.member(0) == 0
    with pytest.raises(TooLarge, match=rf"^exact interval-approach-1/{720720 * 2 ** K}: "
                                       r"index exceeds the desk-scale limit 0$"):
        cw.member(1)


def test_a_non_idempotent_dyadic_is_named_as_describe_prints_it():
    from invsg.core import NotIdempotent
    fam = bicyclic_dyadic()
    one = 1 << K
    s = (17 * one, 65 * one // 2)
    assert fam.describe(s) == "(17,65/2)"
    with pytest.raises(NotIdempotent, match=r"^element \(17,65/2\) is not idempotent$"):
        fam.wb_sigma(s, fam.sigma(s))


def test_off_grid_values_are_refused_not_rounded():
    from invsg.families import OutOfRange
    for r, theta in ((Fraction(1, 2), Fraction(1, 13)),
                     (Fraction(1, 2 ** (K + 4)), 0),
                     (Fraction(1, 13), 0)):
        with pytest.raises(OutOfRange):
            rot_canonical(r, theta)


@pytest.mark.parametrize("argv", [
    ["check", "--subject", "family:rotation"],
    ["check", "--subject", "family:bicyclic-dyadic"],
    ["classify", "--family", "rotation"],
    ["classify", "--family", "bicyclic-dyadic"],
    ["check", "--suite", "mirror", "--subject", "family:cex"],
    ["classify", "--family", "cex"],
])
def test_a_depth_past_the_exact_scale_exits_3(argv, capsys):
    # checks read chains to index max(3 * depth, 64); 3 * 1025 > MAX_CHAIN_INDEX
    assert main(argv + ["--depth", "1025"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("limit: ") and err.count("\n") == 1


@pytest.mark.parametrize("family", ["rotation", "bicyclic-dyadic", "cex"])
def test_the_largest_depth_still_runs(family, capsys):
    assert 3 * 1024 == MAX_CHAIN_INDEX
    fails_mirror = family == "cex"  # at every depth: exit 1
    assert main(["check", "--suite", "mirror", "--subject", f"family:{family}",
                 "--depth", "1024"]) == int(fails_mirror)


@pytest.mark.parametrize("family, code", [("bicyclic-nat", 0)])
def test_the_depth_limit_leaves_other_families_alone(family, code, capsys):
    assert main(["check", "--suite", "mirror", "--subject", f"family:{family}",
                 "--depth", "1025"]) == code
    assert main(["classify", "--family", family, "--depth", "1025"]) == 0


# -- no Fraction on the hot path -------------------------------------------------


def _coords(x):
    if isinstance(x, tuple):
        for c in x:
            yield from _coords(c)
    else:
        yield x


# name: (build, the non-int values allowed)
PLAIN = {"bicyclic-nat": (bicyclic_nat, ()), "bicyclic-dyadic": (bicyclic_dyadic, ()),
         "rotation": (rotation_family, ()), "characters": (lambda: character_family(mixed3()), ()),
         "cex": (cex_family, (OMEGA,))}


@pytest.mark.parametrize("name", PLAIN)
def test_every_oracle_value_is_a_plain_int(name):
    build, allowed = PLAIN[name]
    fam = build()
    rng = random.Random(29)
    seen = []
    for _ in range(300):
        s, t = fam.sample(rng), fam.sample(rng)
        eps = fam.sample_idempotent(rng)
        seen += [s, t, eps, fam.op(s, t), fam.op(s, eps), fam.inv(s), fam.sigma(s)]
        seen += fam.h_class_sample(fam.sigma(s), rng, 2)
    for x in seen[:60]:
        for cw in fam.chains_to(x) + fam.sigma_chains_to(fam.sigma(x)):
            seen += [cw.member(k) for k in CHAIN_INDICES]
    for cw in fam.witnesses:
        seen += [cw.member(k) for k in CHAIN_INDICES] + list(cw.upper_bounds)
        seen += [v for v in (cw.sup_in_s, cw.sup_in_sigma) if v is not None]
    bad = [x for x in seen
           if not all(type(c) is int or c in allowed for c in _coords(x))]
    assert not bad, fam.describe(bad[0])
