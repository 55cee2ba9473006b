"""The family samplers draw exactly what ``random.Random.randrange`` drew.

Reports are reproducible from ``--seed`` only if every draw is pinned, so
``below`` is checked against ``randrange`` value by value and on the final
generator state, and each family sampler against a copy of its former
``randrange`` formula, at depth 1, at the default depth and at ``MAX_DEPTH``:
the samplers draw their indices inline, from grids built for the scale.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from invsg import core
from invsg.families import FAMILY_BUILDERS, OMEGA, character_family, enumerate_characters
from invsg.families.base import DEFAULT_DEPTH, MAX_DEPTH, below, family_scale
from invsg.families.rotation import _TURN

SRC = Path(__file__).resolve().parents[1] / "src" / "invsg"

SIZES = ([*range(1, 301)] + [(1 << k) + d for k in range(1, 70) for d in (-1, 1)]
         + [3 ** 200 + 11])


@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_below_draws_what_randrange_draws(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for n in SIZES:
        for _ in range(3):
            assert below(ours, n) == ref.randrange(n), n
    assert ours.getstate() == ref.getstate()


def _old_bicyclic(cone, K):
    if cone == "nat":
        def sample(rng):
            return (rng.randrange(0, 9), rng.randrange(0, 9))
    else:
        def sample(rng):
            def coord():
                return rng.randrange(0, 65) << (K - rng.randrange(0, 4))
            return (coord(), coord())

    def sample_idempotent(rng):
        a, _ = sample(rng)
        return (a, a)

    def h_class_sample(eps, rng, k):
        return [eps] + [(sample(rng)[0], eps[0]) for _ in range(k)]
    return sample, sample_idempotent, h_class_sample


def _old_rotation(K):
    unit = _TURN << K

    def radius(rng):
        q = rng.randrange(1, 13)
        return rng.randrange(0, q + 1) * (unit // q)

    def angle(rng):
        q = rng.randrange(1, 13)
        return rng.randrange(0, q) * (_TURN // q)

    def sample(rng):
        r, theta = radius(rng), angle(rng)
        return (r, theta) if r else (0, 0)

    def h_class_sample(eps, rng, k):
        r = eps[0]
        return [(0, 0)] if r == 0 else [eps] + [(r, angle(rng)) for _ in range(k)]
    return sample, lambda rng: (radius(rng), 0), h_class_sample


def _old_cex(K):
    # the old Fraction draws, encoded on the scale: x as x 720720 2^K,
    # 720720 = lcm(2..16)
    def encode(x):
        return x if x is OMEGA else int(x * (720720 << K))

    def sample(rng):
        roll = rng.randrange(8)
        if roll == 0:
            return OMEGA
        if roll == 1:
            return encode(Fraction(1))
        if roll == 2:
            return encode(Fraction(0))
        q = rng.randrange(2, 17)
        return encode(Fraction(rng.randrange(1, q), q))

    def sample_idempotent(rng):
        s = sample(rng)
        return encode(Fraction(1)) if s is OMEGA else s

    def h_class_sample(eps, rng, k):
        return [encode(Fraction(1)), OMEGA] if eps == encode(Fraction(1)) else [eps]
    return sample, sample_idempotent, h_class_sample


OLD = {"bicyclic-nat": lambda K: _old_bicyclic("nat", K),
       "bicyclic-dyadic": lambda K: _old_bicyclic("dyadic", K),
       "rotation": _old_rotation, "cex": _old_cex}


def _draws(sample, sample_idempotent, h_class_sample, rng, rounds=2000):
    out = []
    for _ in range(rounds):
        out.append(sample(rng))
        eps = sample_idempotent(rng)
        out.append(eps)
        out.append(h_class_sample(eps, rng, 3))
    return out


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("seed", range(5))
def test_family_samplers_draw_the_old_values(name, seed):
    for depth in (1, DEFAULT_DEPTH, MAX_DEPTH):
        fam = FAMILY_BUILDERS[name](depth)
        ours, ref = random.Random(seed), random.Random(seed)
        got = _draws(fam.sample, fam.sample_idempotent, fam.h_class_sample, ours)
        assert got == _draws(*OLD[name](family_scale(depth).bits), ref), depth
        assert ours.getstate() == ref.getstate(), depth


@pytest.mark.parametrize("seed", range(5))
def test_character_sampler_draws_the_old_values(seed):
    S = core.FiniteInvSemigroup([[0, 1, 2], [1, 1, 2], [2, 2, 1]])
    pool = enumerate_characters(S)  # the family's pool
    fam = character_family(S)

    def old_sample(rng):
        chi = rng.choice(pool)
        for _ in range(rng.randrange(0, 3)):
            chi = fam.op(chi, rng.choice(pool))
        return chi

    ours, ref = random.Random(seed), random.Random(seed)
    assert [fam.sample(ours) for _ in range(2000)] == [old_sample(ref) for _ in range(2000)]
    assert ours.getstate() == ref.getstate()


def test_no_randrange_is_left_in_the_source():
    users = [p.name for p in SRC.rglob("*.py")
             if "randrange(" in p.read_text(encoding="utf-8")]
    assert users == []
