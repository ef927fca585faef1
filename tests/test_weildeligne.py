"""Weil-Deligne dictionary: round trips, semisimplification, block data."""

import random
from fractions import Fraction

import pytest

from wadm.exact import FieldData
from wadm.isocrystal import Block, PhiModule, UnsupportedRegimeError, t_N
from wadm.weildeligne import (
    SteinbergChain,
    Unramified,
    WDRep,
    block_decompose,
    f_semisimplify,
    mod_of_wd,
    wd_of_mod,
)

QP = FieldData(p=3, e=1, f=1)
F2 = FieldData(p=2, e=1, f=2)


def test_mod_of_wd_rank_one():
    rep = WDRep(QP, (Unramified(Fraction(5, 2), 1),))
    module = mod_of_wd(rep)
    assert module.rank == 1
    assert module.blocks[0].slope == Fraction(5, 2)


def test_mod_of_wd_two_step_cycle():
    # f = 2, dim 1: the two-step cycle composes to the wrap map, so the
    # slope on each isotypic component is still the stored valuation
    rep = WDRep(F2, (Unramified(Fraction(3), 1),))
    module = mod_of_wd(rep)
    assert module.rank == 1
    assert t_N(module) == 3


def test_mod_of_wd_steinberg():
    rep = WDRep(QP, (SteinbergChain(Fraction(1, 2), 1, 2),))
    module = mod_of_wd(rep)
    assert module.steinberg is not None
    assert [b.slope for b in module.blocks] == [Fraction(1, 2), Fraction(3, 2)]


def test_mod_of_wd_steinberg_twist_scales_with_degree():
    field = FieldData(p=2, e=2, f=1)
    rep = WDRep(field, (SteinbergChain(0, 1, 2),))
    module = mod_of_wd(rep)
    assert [b.slope for b in module.blocks] == [0, field.degree]


def test_mod_of_wd_rejects_ramified_and_mixed():
    with pytest.raises(UnsupportedRegimeError):
        mod_of_wd(WDRep(QP, (Unramified(0, 1),), ramified=True))
    mixed = WDRep(QP, (Unramified(0, 1), SteinbergChain(1, 1, 2)))
    with pytest.raises(UnsupportedRegimeError):
        mod_of_wd(mixed)


def test_wd_of_mod_examples():
    assert wd_of_mod(PhiModule.of_slopes(QP, [2])).parts == (Unramified(2, 1, (1,)),)
    chain = PhiModule.chain(QP, 1, 1, Fraction(1))
    assert wd_of_mod(chain).parts == (SteinbergChain(1, 1, 2),)


def test_summands_are_the_module_types():
    assert Unramified is Block
    part = Unramified(Fraction(1, 2), 2)
    assert part.val == part.slope == Fraction(1, 2) and part.dimension == 2
    chain = SteinbergChain(0, 2, 3)
    assert chain.blocks(2) == (Block(0, 2), Block(2, 2), Block(4, 2))
    assert mod_of_wd(WDRep(F2, (chain,))).steinberg is chain
    with pytest.raises(ValueError):
        PhiModule.chain(QP, 1, 0, 0)  # a chain has at least two twists


def _random_rep(rng):
    field = FieldData(p=rng.choice((2, 3, 5)), e=rng.randint(1, 2), f=rng.randint(1, 3))
    if rng.random() < 0.4:
        piece = rng.randint(1, 2)
        length = rng.randint(2, 3)
        return WDRep(field, (SteinbergChain(Fraction(rng.randint(-6, 6), 2), piece, length),))
    parts = []
    dim = 0
    target = rng.randint(1, 6)
    vals = rng.sample([Fraction(k, 2) for k in range(-12, 13)], 6)
    while dim < target:
        mult = rng.randint(1, min(3, target - dim))
        # random partition of mult
        jordan = []
        left = mult
        while left:
            part = rng.randint(1, left)
            jordan.append(part)
            left -= part
        parts.append(Unramified(vals.pop(), mult, tuple(jordan)))
        dim += mult
    return WDRep(field, tuple(parts))


def test_round_trip_canonical_random():
    rng = random.Random(7)
    for _ in range(200):
        rep = _random_rep(rng)
        assert wd_of_mod(mod_of_wd(rep)) == rep.canonical()


def test_mod_of_wd_preserves_t_N():
    rng = random.Random(11)
    for _ in range(200):
        rep = _random_rep(rng)
        module = mod_of_wd(rep)
        expected = sum((tn for tn, _ in block_decompose(rep)), Fraction(0))
        assert t_N(module) == expected


def test_f_semisimplify():
    rep = WDRep(QP, (Unramified(1, 2, (2,)),))
    ss = f_semisimplify(rep)
    assert ss.parts == (Unramified(1, 2, (1, 1)),)
    assert f_semisimplify(ss) == ss
    chain = WDRep(QP, (SteinbergChain(0, 1, 3),))
    assert f_semisimplify(chain) == chain


def test_block_decompose_examples():
    rep = WDRep(QP, (Unramified(0, 1), Unramified(2, 1)))
    assert block_decompose(rep) == ((0, 1), (2, 1))
    stb = WDRep(QP, (SteinbergChain(Fraction(1, 2), 1, 2),))
    assert block_decompose(stb) == ((2 * Fraction(1, 2) + 1, 2),)


def test_block_decompose_dimensions_sum():
    rng = random.Random(13)
    for _ in range(100):
        rep = _random_rep(rng)
        assert sum(d for _, d in block_decompose(rep)) == rep.dimension


def test_semisimplification_invisible_to_blocks():
    rng = random.Random(17)
    for _ in range(100):
        rep = _random_rep(rng)
        assert block_decompose(f_semisimplify(rep)) == block_decompose(rep)
