"""Filtered modules: polygons, admissibility criteria, and the subobject oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wadm.isocrystal
from wadm.exact import FieldData, _reduced_echelon, rank as mat_rank
from wadm.isocrystal import (
    Block,
    Filtration,
    PhiModule,
    Polygon,
    UnsupportedRegimeError,
    admissible_by_inequalities,
    block_polygons,
    build_admissible_filtration,
    chain_sum_bounds,
    hodge_polygon,
    inequality_rows,
    newton_polygon,
    polygon_dominates,
    polygon_rows,
    steinberg_filtration,
    t_H,
    t_N,
    weak_admissible,
    _induced_t_H_on_subspace,
    _tail_forms,
)

QP = FieldData(p=3, e=1, f=1)


def F(*vals):
    return [Fraction(v) for v in vals]


# --- t_N / t_H ----------------------------------------------------------------


def test_t_N_single_slope():
    assert t_N(PhiModule.of_slopes(QP, [1])) == 1


def test_t_N_sum():
    assert t_N(PhiModule.of_slopes(QP, [0, 1])) == 1


def test_t_N_chain_twist():
    # rank-1 base at slope v, one twist: v + (v + [L:Q_p]) = 2v + 1 over Q_p
    module = PhiModule.chain(QP, piece_rank=1, s=1, base_slope=Fraction(1, 2))
    assert t_N(module) == 2 * Fraction(1, 2) + 1


def test_t_N_chain_twist_ramified_field():
    field = FieldData(p=2, e=2, f=1)
    module = PhiModule.chain(field, piece_rank=1, s=1, base_slope=0)
    assert t_N(module) == field.degree


def test_t_H_examples():
    assert t_H([[0, 1]]) == 1
    assert t_H([[0, 2], [1, 3]]) == 6
    assert t_H([[0, 0, 0]]) == 0
    assert t_H([[-1, 2, 2]]) == 3


@pytest.mark.parametrize("entry", [
    t_H,
    hodge_polygon,
    lambda jumps: block_polygons([(Fraction(1), 2)], jumps),
    lambda jumps: Filtration(jumps, (((1, 0), (0, 1)),)),
], ids=["t_H", "hodge_polygon", "block_polygons", "Filtration"])
@pytest.mark.parametrize("jumps, message", [
    ([], "at least one embedding"),
    ([[0, 1], [0]], "needs 2 jumps, got 1"),
    ([[1, 0]], "sorted nondecreasingly"),
], ids=["empty", "ragged", "unsorted"])
def test_jump_type_is_checked_at_every_entry(entry, jumps, message):
    with pytest.raises(ValueError, match=message):
        entry(jumps)


# --- polygons -------------------------------------------------------------------


def test_newton_polygon_vertices():
    poly = newton_polygon(PhiModule.of_slopes(QP, [0, 1]))
    assert poly.vertices == ((0, 0), (1, 0), (2, 1))


def test_newton_polygon_merges_collinear():
    poly = newton_polygon(PhiModule.of_slopes(QP, [Fraction(1, 2), Fraction(1, 2)]))
    assert poly.vertices == ((0, 0), (2, 1))
    # the merged segment still carries the value 1/2 at x = 1, where the
    # other path has a vertex
    row = list(polygon_rows(poly, Polygon.from_slopes([0, 1])))[1]
    assert row == (1, Fraction(1, 2), 0, True)


def test_hodge_polygon_vertices():
    poly = hodge_polygon([[-2, 0]])
    assert poly.vertices == ((0, 0), (1, -2), (2, -2))


def test_hodge_polygon_with_graded_dims():
    # two embeddings, graded dims (1, 2) each: position sums -1, 3, 3
    jumps = [[0, 1, 1], [-1, 2, 2]]
    poly = hodge_polygon(jumps)
    assert poly.vertices == ((0, 0), (1, -1), (3, 5))
    assert poly.vertices[-1][1] == t_H(jumps)


def test_hodge_polygon_pattern_mismatch():
    # graded dims (1, 1) and (2,) differ across embeddings; the polygon is
    # that of the position-wise sums 0 + 0 and 1 + 0
    jumps = [[0, 1], [0, 0]]
    poly = hodge_polygon(jumps)
    assert poly.vertices == ((0, 0), (1, 0), (2, 1))
    assert poly.vertices[-1][1] == t_H(jumps)


def test_polygon_dominates_examples():
    n01 = Polygon.from_slopes([0, 1])
    nhalf = Polygon.from_slopes([Fraction(1, 2), Fraction(1, 2)])
    assert polygon_dominates(n01, n01)
    assert polygon_dominates(nhalf, n01)
    assert not polygon_dominates(n01, nhalf)


def test_polygon_rows_carry_the_verdict():
    n01 = Polygon.from_slopes([0, 1])
    nhalf = Polygon.from_slopes([Fraction(1, 2), Fraction(1, 2)])
    assert [ok for *_, ok in polygon_rows(n01, nhalf)] == [True, False, True]
    assert [ok for *_, ok in polygon_rows(nhalf, n01)] == [True, True, True]
    # the last row asks for equality, not just hodge <= newton
    low = Polygon.from_slopes([0, 0])
    assert list(polygon_rows(n01, low))[-1] == (2, 1, 0, False)
    assert not polygon_dominates(n01, low)


def test_polygon_dominates_width_mismatch():
    with pytest.raises(ValueError):
        polygon_dominates(Polygon.from_slopes([0]), Polygon.from_slopes([0, 1]))
    with pytest.raises(ValueError, match="unequal widths"):
        list(polygon_rows(Polygon.from_slopes([0]), Polygon.from_slopes([0, 1])))


def _slopes_nondecreasing(poly):
    """Lower convexity: segment slopes, read off the vertices, never decrease."""
    v = poly.vertices
    slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(v, v[1:])]
    return all(s <= t for s, t in zip(slopes, slopes[1:]))


def test_polygon_invariants_random():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        slopes = [Fraction(rng.randint(-20, 20), 2) for _ in range(n)]
        module = PhiModule(QP, tuple(Block(s, 1) for s in slopes))
        poly = newton_polygon(module)
        assert _slopes_nondecreasing(poly)
        assert poly.vertices[-1] == (n, t_N(module))
    for _ in range(100):
        sigmas = rng.randint(1, 3)
        n = rng.randint(1, 5)
        jumps = [sorted(rng.sample(range(-10, 11), n)) for _ in range(sigmas)]
        poly = hodge_polygon(jumps)
        assert _slopes_nondecreasing(poly)
        assert poly.vertices[-1] == (n, t_H(jumps))


# --- partial-sum inequalities ----------------------------------------------------


def test_inequalities_gl2_pass():
    # zeta valuations (0, 2), i.e. slopes (0, -2); jumps (-2, 0)
    module = PhiModule.of_slopes(QP, [0, -2])
    assert admissible_by_inequalities(module, [F(-2, 0)])


def test_inequalities_gl2_fail():
    module = PhiModule.of_slopes(QP, [1, -3])  # zeta valuations (-1, 3)
    assert not admissible_by_inequalities(module, [F(-2, 0)])


def test_inequalities_rank_one_equality_only():
    for c in (Fraction(0), Fraction(3), Fraction(-5, 2)):
        assert admissible_by_inequalities(PhiModule.of_slopes(QP, [c]), [[c]])
        if c != 0:
            assert not admissible_by_inequalities(PhiModule.of_slopes(QP, [-c]), [[c]])


def test_inequalities_reject_chain_module():
    module = PhiModule.chain(QP, 1, 1, 0)
    with pytest.raises(ValueError):
        admissible_by_inequalities(module, [F(0, 1)])


def _random_plain_module(rng, field, n, half=True, distinct=False):
    denom = 2 if half else 1
    pool = [Fraction(k, denom) for k in range(-10 * denom, 10 * denom + 1)]
    if distinct:
        slopes = rng.sample(pool, n)
    else:
        slopes = [rng.choice(pool) for _ in range(n)]
    return PhiModule(field, tuple(Block(s, 1) for s in slopes))


def _random_jumps(rng, field, n, half=True, repeat=False):
    denom = 2 if half else 1
    if repeat:
        # a coarse pool drawn with replacement: runs repeat, and the graded
        # dimensions differ across embeddings
        return [sorted(rng.choice(range(-2, 3)) for _ in range(n)) for _ in range(field.degree)]
    pool = [Fraction(k, denom) for k in range(-10 * denom, 10 * denom + 1)]
    return [sorted(rng.sample(pool, n)) for _ in range(field.degree)]


def test_inequalities_match_polygons_random():
    # the inequality test and the polygon test are independently coded;
    # they must agree everywhere, also when jumps repeat
    for repeat in (False, True):
        rng = random.Random(17)
        verdicts = set()
        patterns_differ = 0
        for _ in range(300):
            field = FieldData(p=rng.choice((2, 3, 5)), e=rng.randint(1, 2), f=rng.randint(1, 2))
            n = rng.randint(1, 6)
            module = _random_plain_module(rng, field, n)
            jumps = _random_jumps(rng, field, n, repeat=repeat)
            # bias half the cases toward endpoint equality so both verdicts occur
            if rng.random() < 0.5:
                delta = (t_N(module) - sum(sum(sig) for sig in jumps)) / field.degree / n
                jumps = [[j + delta for j in sig] for sig in jumps]
            got = admissible_by_inequalities(module, jumps)
            want = polygon_dominates(newton_polygon(module), hodge_polygon(jumps))
            assert got == want
            verdicts.add(got)
            dims = {tuple(len(list(run)) for _, run in itertools.groupby(sig)) for sig in jumps}
            patterns_differ += len(dims) > 1
        assert verdicts == {True, False}
        assert (patterns_differ > 30) == repeat


def test_repeated_jumps_with_differing_graded_dims():
    # slopes (0, -1) over e = 2: the inequalities, the polygons and the
    # oracle on the built witness all accept the jump type
    field = FieldData(p=3, e=2, f=1)
    module = PhiModule.of_slopes(field, [0, -1])
    jumps = [[0, 0], [-1, 0]]
    assert admissible_by_inequalities(module, jumps)
    assert polygon_dominates(newton_polygon(module), hodge_polygon(jumps))
    assert weak_admissible(module, build_admissible_filtration(module, jumps))


# --- weak admissibility oracle ---------------------------------------------------


def _line_flag_filtration(jumps, line):
    """Rank-2, one embedding: deepest step is the given line."""
    e0 = (Fraction(1), Fraction(0))
    e1 = (Fraction(0), Fraction(1))
    other = e1 if line != e1 else e0
    return Filtration([jumps], ((other, line),))


def test_weak_admissible_generic_line():
    module = PhiModule.of_slopes(QP, [0, 2])
    filt = _line_flag_filtration(F(0, 2), (Fraction(1), Fraction(1)))
    assert weak_admissible(module, filt)


def test_weak_admissible_eigenline_fails():
    module = PhiModule.of_slopes(QP, [0, 2])
    filt = _line_flag_filtration(F(0, 2), (Fraction(1), Fraction(0)))
    assert not weak_admissible(module, filt)


def test_weak_admissible_rank_one():
    for slope, jump in ((0, 0), (2, 2), (1, 0)):
        module = PhiModule.of_slopes(QP, [slope])
        filt = Filtration([[jump]], (((Fraction(1),),),))
        assert weak_admissible(module, filt) == (slope == jump)


def test_weak_admissible_unsupported_regimes():
    repeated = PhiModule.of_slopes(QP, [1, 1])
    flags = (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),)
    filt = Filtration([F(0, 2)], flags)
    with pytest.raises(UnsupportedRegimeError):
        weak_admissible(repeated, filt)
    jordan = PhiModule(QP, (Block(1, 2, (2,)),))
    with pytest.raises(UnsupportedRegimeError):
        weak_admissible(jordan, filt)


def test_weak_admissible_raises_before_any_elimination(monkeypatch):
    # the rank cap and the regime are checked before a flag tail is reduced
    slopes = list(range(13))
    module = PhiModule.of_slopes(QP, slopes)
    witness = build_admissible_filtration(module, [sorted(slopes)])
    repeated = PhiModule.of_slopes(QP, [1, 1])
    filt = Filtration([F(0, 2)], (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),))

    def eliminated(rows):
        pytest.fail("a flag tail was reduced")

    monkeypatch.setattr(wadm.isocrystal, "_reduced_echelon", eliminated)
    with pytest.raises(UnsupportedRegimeError, match="capped at rank 12"):
        weak_admissible(module, witness)
    with pytest.raises(UnsupportedRegimeError, match="not enumerable"):
        weak_admissible(repeated, filt)


# --- explicit construction --------------------------------------------------------


def test_build_rank_one():
    module = PhiModule.of_slopes(QP, [Fraction(3, 2)])
    filt = build_admissible_filtration(module, [[Fraction(3, 2)]])
    assert weak_admissible(module, filt)


def test_build_gl2_example():
    module = PhiModule.of_slopes(QP, [0, -2])
    filt = build_admissible_filtration(module, [F(-2, 0)])
    assert weak_admissible(module, filt)


def test_build_requires_inequalities():
    module = PhiModule.of_slopes(QP, [1, -3])
    with pytest.raises(ValueError):
        build_admissible_filtration(module, [F(-2, 0)])


def test_build_oracle_roundtrip_random():
    # constructive direction: whenever the inequalities hold, the built
    # filtration passes the brute-force oracle
    rng = random.Random(29)
    built = 0
    for _ in range(400):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=rng.randint(1, 2))
        n = rng.randint(1, 4)
        module = _random_plain_module(rng, field, n, distinct=True)
        jumps = _random_jumps(rng, field, n)
        # force the endpoint equality so a decent fraction is admissible
        delta = (t_N(module) - sum(sum(sig) for sig in jumps)) / field.degree / n
        jumps = [[j + delta for j in sig] for sig in jumps]
        if not admissible_by_inequalities(module, jumps):
            continue
        filt = build_admissible_filtration(module, jumps)
        assert weak_admissible(module, filt)
        built += 1
    assert built > 50


def test_build_repeated_jumps_example():
    # a jump repeated d times has graded dimension d
    module = PhiModule.of_slopes(QP, [1, 0, -1])
    filt = build_admissible_filtration(module, [[-1, -1, 2]])
    assert filt.jumps == ((Fraction(-1), Fraction(-1), Fraction(2)),)
    assert weak_admissible(module, filt)


def test_build_oracle_roundtrip_repeated_jumps_random():
    # jumps drawn from a coarse grid repeat; the inequalities allow that,
    # and the built witness must still pass the oracle
    rng = random.Random(41)
    narrow = [Fraction(k, 4) for k in range(-8, 9)]
    built = 0
    for _ in range(120):
        field = FieldData(p=3, e=rng.randint(1, 2), f=1)
        n = rng.randint(2, 7)
        module = PhiModule.of_slopes(field, rng.sample(narrow, n))
        jumps = [sorted(rng.choice(range(-6, 7, 3)) for _ in range(n)) for _ in range(field.degree)]
        delta = (t_N(module) - sum(map(sum, jumps))) / field.degree / n
        jumps = [[j + delta for j in sigma] for sigma in jumps]
        if all(len(set(sigma)) == n for sigma in jumps):
            continue
        if not admissible_by_inequalities(module, jumps):
            continue
        filt = build_admissible_filtration(module, jumps)
        assert filt.jumps == tuple(tuple(sigma) for sigma in jumps)
        assert weak_admissible(module, filt), (module, jumps)
        built += 1
    assert built > 50


@st.composite
def _flagged_filtrations(draw):
    """Random independent integer flags over 1-3 embeddings; the jumps come
    from a small range of integers, halves and thirds (all multiples of
    1/6), so they often repeat and their denominators mix in one type."""
    n = draw(st.integers(1, 5))
    embeddings = draw(st.integers(1, 3))
    jump = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    jumps = [sorted(draw(st.lists(jump, min_size=n, max_size=n))) for _ in range(embeddings)]
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    flags = [draw(st.lists(row, min_size=n, max_size=n)) for _ in range(embeddings)]
    assume(all(mat_rank(flag) == n for flag in flags))
    return Filtration(jumps, flags)


@settings(max_examples=150, deadline=None)
@given(_flagged_filtrations())
def test_induced_t_H_is_supermodular(filt):
    # dim(F ∩ V_S) is supermodular in S, and the induced t_H is a positive
    # combination of those terms plus a modular one (Fujishige 2005), so
    # t_H(S | T) + t_H(S & T) >= t_H(S) + t_H(T) for every pair of subsets
    n = filt.rank
    tails = _tail_forms(filt, 6)  # the jumps are multiples of 1/6
    subsets = [frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)]
    th = {s: Fraction(_induced_t_H_on_subspace(filt, tails, sorted(s)), 6) for s in subsets}
    assert th[frozenset()] == 0
    assert th[frozenset(range(n))] == t_H(filt.jumps)
    for s, t in itertools.combinations(subsets, 2):
        assert th[s | t] + th[s & t] >= th[s] + th[t], (filt, sorted(s), sorted(t))


def _reference_induced_t_H(filt, coords) -> Fraction:
    """The induced t_H over Fraction, one restriction and one ``rank`` per
    step and jump * (graded dimension) per step (the oracle's form before
    its common integer scale)."""
    total = Fraction(0)
    comp = [i for i in range(filt.rank) if i not in set(coords)]
    for jumps, flags in zip(filt.jumps, filt.flags):
        steps = [(k, j) for k, j in enumerate(jumps) if k == 0 or j != jumps[k - 1]]
        dims = []
        for start, _ in steps:
            tail = flags[start:]
            dims.append(len(tail) - mat_rank([[v[c] for c in comp] for v in tail]))
        dims.append(0)
        for (_, jump), dim, dim_next in zip(steps, dims, dims[1:]):
            total += jump * (dim - dim_next)
    return total


def _reference_weak_admissible(module, filt) -> bool:
    """The oracle's verdict over Fraction on ``_reference_induced_t_H``: the
    partial chains of a chain module, every coordinate subset otherwise."""
    n = module.rank
    if module.steinberg is not None:
        p = module.steinberg.piece_dim
        subobjects = [(range((k + 1) * p), sum(b.slope * b.mult for b in module.blocks[:k + 1]))
                      for k in range(module.steinberg.length)]
    else:
        slopes = module.slopes_expanded()
        subobjects = [(c, sum(slopes[i] for i in c)) for size in range(1, n + 1)
                      for c in itertools.combinations(range(n), size)]
    for coords, tn in subobjects:
        th = _reference_induced_t_H(filt, coords)
        if th > tn or (len(coords) == n and th != tn):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(_flagged_filtrations(), st.sampled_from([6, 12]))
def test_induced_t_H_matches_fraction_reference(filt, den):
    tails = _tail_forms(filt, den)
    for size in range(filt.rank + 1):
        for coords in itertools.combinations(range(filt.rank), size):
            got = _induced_t_H_on_subspace(filt, tails, coords)
            assert type(got) is int
            assert got == den * _reference_induced_t_H(filt, coords), (filt, coords)


def test_weak_admissible_matches_fraction_reference():
    # jumps in integers, halves and thirds against slopes in fifths (zeta
    # modules) or a chain base (t_H - twist) / n shifted by thirds, so that
    # a scale clearing only the jumps' denominators breaks the total; half
    # the zeta cases are the admissible construction, the rest random flags
    rng = random.Random(43)
    verdicts = []
    for _ in range(150):
        field = FieldData(p=3, e=rng.randint(1, 3), f=1)
        n = rng.randint(2, 4)
        jumps = [sorted(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
                 for _ in range(field.degree)]
        slopes = [Fraction(rng.randint(-20, 20), 5) for _ in range(n - 1)]
        slopes.append(t_H(jumps) - sum(slopes))  # the totals agree
        if len(set(slopes)) < n:
            continue
        module = PhiModule.of_slopes(field, slopes)
        if rng.random() < 0.5 and admissible_by_inequalities(module, jumps):
            filt = build_admissible_filtration(module, jumps)
        else:
            flags = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if mat_rank(flags) != n:
                continue
            filt = Filtration(jumps, [flags] * field.degree)
        verdicts.append(weak_admissible(module, filt))
        assert verdicts[-1] == _reference_weak_admissible(module, filt), (slopes, jumps, filt)
    for _ in range(100):
        field = FieldData(p=2, e=rng.randint(1, 2), f=rng.randint(1, 2))
        p_rank, s = rng.randint(1, 2), rng.randint(1, 2)
        n = (s + 1) * p_rank
        jumps = [sorted(Fraction(k, rng.choice((1, 2))) for k in rng.sample(range(-9, 10), n))
                 for _ in range(field.degree)]
        if any(a == b for sigma in jumps for a, b in zip(sigma, sigma[1:])):
            continue
        twist = field.degree * p_rank * s * (s + 1) // 2
        base = (t_H(jumps) - twist) / n + Fraction(rng.randint(-1, 1), 3)
        module = PhiModule.chain(field, p_rank, s, base)
        filt = steinberg_filtration(module, jumps)
        verdicts.append(weak_admissible(module, filt))
        assert verdicts[-1] == _reference_weak_admissible(module, filt), (base, jumps)
    assert 30 < sum(verdicts) < len(verdicts) - 30


@pytest.mark.parametrize("shared", [True, False], ids=["equal-flags", "distinct-flags"])
def test_tail_forms_are_shared_by_equal_flags_only(shared):
    # two embeddings with different jumps: embeddings with equal flags are
    # one filtration with their position-wise summed jumps, so equal flags
    # give one triple per nonzero step of those sums, and distinct flags one
    # group per embedding, each with a triple per nonzero step of its jumps
    rng = random.Random(15)
    field = FieldData(p=3, e=2, f=1)
    verdicts = []
    while len(verdicts) < 60:
        n = rng.randint(2, 5)
        jumps = [sorted(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                 for _ in range(2)]
        slopes = [Fraction(rng.randint(-20, 20), 5) for _ in range(n - 1)]
        slopes.append(t_H(jumps) - sum(slopes))
        if len(set(slopes)) < n:
            continue
        module = PhiModule.of_slopes(field, slopes)
        if shared and rng.random() < 0.5 and admissible_by_inequalities(module, jumps):
            filt = build_admissible_filtration(module, jumps)
        else:
            flags = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                     for _ in range(1 if shared else 2)]
            if any(mat_rank(flag) != n for flag in flags):
                continue
            filt = Filtration(jumps, flags * 2 if shared else flags)
        tails = _tail_forms(filt, 2)
        groups = ([(filt.flags[0], [sum(column) for column in zip(*filt.jumps)])] if shared
                  else list(zip(filt.flags, filt.jumps)))
        expect = []
        for flags, sums in groups:
            for k, (prev, j) in enumerate(zip((0, *sums), sums)):
                if j != prev:
                    form = _reduced_echelon(flags[k:])
                    expect.append((2 * (j - prev), frozenset(c for c, _ in form), form))
        assert tails == expect, filt
        for size in range(n + 1):
            for coords in itertools.combinations(range(n), size):
                got = _induced_t_H_on_subspace(filt, tails, coords)
                assert got == 2 * _reference_induced_t_H(filt, coords), (filt, coords)
        verdicts.append(weak_admissible(module, filt))
        assert verdicts[-1] == _reference_weak_admissible(module, filt), (slopes, filt)
    assert 5 < sum(verdicts) < len(verdicts) - 5


def test_a_witness_checks_its_one_flag_set_once(monkeypatch):
    # every embedding of a witness carries the same flags: Filtration ranks
    # them once, not once per embedding
    calls = []

    def counted(rows):
        calls.append(rows)
        return mat_rank(rows)

    monkeypatch.setattr(wadm.isocrystal, "mat_rank", counted)
    module = PhiModule.of_slopes(FieldData(p=3, e=2, f=1), [-2, 0, 2])
    filt = build_admissible_filtration(module, [[-2, 0, 1], [0, 0, 1]])
    assert filt.embeddings == 2 and len(calls) == 1


def test_oracle_necessity_random_flags():
    # any explicit flag passing the oracle implies the inequalities; bias
    # half the instances toward endpoint equality so the implication is
    # exercised nontrivially in both directions
    rng = random.Random(31)
    oracle_passes = 0
    for _ in range(300):
        n = rng.randint(2, 3)
        module = _random_plain_module(rng, QP, n, distinct=True)
        jumps = _random_jumps(rng, QP, n, half=False)
        if rng.random() < 0.5:
            delta = (t_N(module) - sum(sum(s) for s in jumps)) / n
            jumps = [[j + delta for j in s] for s in jumps]
        flags = []
        for _ in range(n):
            flags.append(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)))
        if mat_rank(flags) != n:
            continue
        filt = Filtration(jumps, (tuple(flags),))
        if weak_admissible(module, filt):
            assert admissible_by_inequalities(module, jumps)
            oracle_passes += 1
    assert oracle_passes > 20


# --- chain modules ------------------------------------------------------------------


def test_steinberg_filtration_shape():
    module = PhiModule.chain(QP, piece_rank=1, s=1, base_slope=0)
    filt = steinberg_filtration(module, [F(-1, 2)])
    # deepest step is the last coordinate line (the twisted piece)
    assert filt.flags[0][1] == (Fraction(0), Fraction(1))
    assert Fraction(_induced_t_H_on_subspace(filt, _tail_forms(filt, 2), (0,)), 2) == Fraction(-1)


def test_steinberg_chain_subobject_t_H():
    field = FieldData(p=2, e=1, f=2)
    module = PhiModule.chain(field, piece_rank=2, s=1, base_slope=Fraction(1, 2))
    jumps = [F(-3, -1, 0, 2), F(-2, 0, 1, 4)]
    filt = steinberg_filtration(module, jumps)
    # chain subobject D_0 = first piece: t_H = sum over sigma of the two lowest jumps
    assert _induced_t_H_on_subspace(filt, _tail_forms(filt, 1), (0, 1)) == (-3 - 1) + (-2 + 0)


def test_steinberg_filtration_shape_mismatch():
    module = PhiModule.chain(QP, 1, 1, 0)
    with pytest.raises(ValueError):
        steinberg_filtration(module, [F(0, 1, 2)])
    with pytest.raises(ValueError):
        steinberg_filtration(PhiModule.of_slopes(QP, [0, 1]), [F(0, 1)])


def test_steinberg_filtration_reads_its_jump_type_once(monkeypatch):
    # the strictness check and the Filtration it builds share one read
    calls = []
    real = wadm.isocrystal._jump_lists

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wadm.isocrystal, "_jump_lists", counted)
    field = FieldData(p=2, e=1, f=2)
    module = PhiModule.chain(field, piece_rank=2, s=1, base_slope=Fraction(1, 2))
    filt = steinberg_filtration(module, [F(-3, -1, 0, 2), F(-2, 0, 1, 4)])
    assert len(calls) == 1
    assert filt == Filtration([F(-3, -1, 0, 2), F(-2, 0, 1, 4)], filt.flags)
    for jumps, message in (([F(0, 0, 1, 2)] * 2, "strictly increasing"),
                           ([F(0, 1, 2, 3)], "expected 2 embeddings"),
                           ([F(0, 1, 2)] * 2, "needs 4 jumps")):
        calls.clear()
        with pytest.raises(ValueError, match=message):
            steinberg_filtration(module, jumps)
        assert len(calls) == 1


def test_steinberg_admissible_iff_central_equality():
    rng = random.Random(37)
    hits = 0
    for _ in range(200):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=rng.randint(1, 2))
        p_rank = rng.randint(1, 2)
        s = rng.randint(1, 3)
        n = (s + 1) * p_rank
        jumps = [sorted(rng.sample(range(-12, 13), n)) for _ in range(field.degree)]
        total = sum(sum(sig) for sig in jumps)
        twist = field.degree * p_rank * s * (s + 1) // 2
        if rng.random() < 0.5:
            base = Fraction(total - twist, (s + 1) * p_rank)
        else:
            base = Fraction(total - twist, (s + 1) * p_rank) + Fraction(rng.randint(1, 3))
        module = PhiModule.chain(field, p_rank, s, base)
        filt = steinberg_filtration(module, jumps)
        equality = t_H(filt.jumps) == t_N(module)
        assert weak_admissible(module, filt) == equality
        hits += equality
    assert hits > 50


def test_halfinteger_chain_counterexample():
    # with half-integer jumps the gap hypothesis can fail: central equality
    # holds but the chain filtration is not admissible.  This documents why
    # the chain equivalence is certified for integer jumps only.
    module = PhiModule.chain(QP, 1, 1, Fraction(-1, 4))
    jumps = [[Fraction(0), Fraction(1, 2)]]
    filt = steinberg_filtration(module, jumps)
    assert t_H(filt.jumps) == t_N(module)
    assert not weak_admissible(module, filt)


# --- chain sum bounds ----------------------------------------------------------------


def test_chain_sum_bounds_example():
    assert chain_sum_bounds(1, 0, [-1, 1]) == (True, True)


def test_chain_sum_bounds_degenerate():
    # s = 0: the conclusion is exactly the total hypothesis
    for c in (Fraction(0), Fraction(5, 2)):
        for i0 in range(-4, 5):
            hyp, concl = chain_sum_bounds(2, c, [i0])
            assert hyp == concl


def test_chain_sum_bounds_small_exhaustive():
    for h in range(-2, 3):
        for c2 in range(-4, 5):
            c = Fraction(c2, 2)
            for ivals in itertools.product(range(-4, 5), repeat=3):
                hyp, concl = chain_sum_bounds(h, c, list(ivals))
                if hyp:
                    assert concl


# --- block criterion -------------------------------------------------------------------


def test_block_single_reduces_to_endpoint():
    assert polygon_dominates(*block_polygons([(Fraction(3), 2)], [F(1, 2)]))
    assert not polygon_dominates(*block_polygons([(Fraction(4), 2)], [F(1, 2)]))


def test_block_matches_inequalities_on_unit_blocks():
    rng = random.Random(41)
    for _ in range(300):
        field = FieldData(p=2, e=1, f=rng.randint(1, 2))
        n = rng.randint(1, 5)
        module = _random_plain_module(rng, field, n, half=False)
        jumps = _random_jumps(rng, field, n, half=False)
        if rng.random() < 0.5:
            delta = (t_N(module) - sum(sum(sig) for sig in jumps)) / field.degree / n
            jumps = [[j + delta for j in sig] for sig in jumps]
        blocks = [(b.slope, 1) for b in module.blocks]
        assert polygon_dominates(*block_polygons(blocks, jumps)) == admissible_by_inequalities(
            module, jumps
        )


def test_block_input_order_irrelevant():
    blocks = [(Fraction(0), 1), (Fraction(2), 1)]
    jumps = [F(-2, 4)]
    base = polygon_dominates(*block_polygons(blocks, jumps))
    assert polygon_dominates(*block_polygons(list(reversed(blocks)), jumps)) == base


def test_block_dimension_mismatch():
    with pytest.raises(ValueError):
        block_polygons([(Fraction(0), 2)], [F(0)])


def test_block_interior_vertex_failure():
    # Newton strictly below Hodge at an interior boundary
    blocks = [(Fraction(-2), 1), (Fraction(2), 1)]
    jumps = [F(0, 0)]
    assert not polygon_dominates(*block_polygons(blocks, jumps))


# --- integer rows against their Fraction forms ------------------------------------
#
# The library evaluates the partial-sum rows, the polygons, the block paths
# and the polygon rows in integers, one scale per side.  The references
# below are the same quantities summed in Fraction, each row anew.


def _reference_inequality_rows(module, jumps):
    js = [[Fraction(j) for j in sigma] for sigma in jumps]
    n = module.rank
    vals = sorted(-s for s in module.slopes_expanded())
    rows = []
    lhs = Fraction(0)
    for i in range(1, n + 1):
        lhs += sum(sigma[i - 1] for sigma in js)
        rhs = -sum(vals[n - i:], Fraction(0))
        rows.append((lhs, rhs, lhs <= rhs if i < n else lhs == rhs))
    return rows


def _reference_lower_boundary(slopes):
    ordered = sorted(Fraction(s) for s in slopes)
    pts = [(Fraction(0), Fraction(0))]
    x, y = Fraction(0), Fraction(0)
    for s, group in itertools.groupby(ordered):
        run = len(list(group))
        x, y = x + run, y + s * run
        pts.append((x, y))
    return tuple(pts)


def _reference_block_paths(blocks, jumps):
    data = [(Fraction(tn), int(d)) for tn, d in blocks]
    agg = [sum(column) for column in zip(*[[Fraction(j) for j in sigma] for sigma in jumps])]
    newton_pts, hodge_pts = [(0, 0)], [(0, 0)]
    x, ysum = 0, Fraction(0)
    for tn, d in sorted(data, key=lambda bd: (bd[0], -bd[1])):
        x += d
        ysum += tn
        newton_pts.append((Fraction(x), ysum))
        hodge_pts.append((Fraction(x), sum(agg[:x], Fraction(0))))
    return tuple(newton_pts), tuple(hodge_pts)


def _reference_value_at(poly, x):
    """The path's value at x by a scan of its segments."""
    for a, b in zip(poly.vertices, poly.vertices[1:]):
        if a[0] <= x <= b[0]:
            return a[1] + (b[1] - a[1]) * (x - a[0]) / (b[0] - a[0])
    return poly.vertices[-1][1]


def _reference_polygon_rows(newton, hodge):
    xs = sorted({x for x, _ in newton.vertices} | {x for x, _ in hodge.vertices})
    rows = []
    for x in xs:
        ny, hy = _reference_value_at(newton, x), _reference_value_at(hodge, x)
        rows.append((x, ny, hy, hy <= ny if x < xs[-1] else hy == ny))
    return rows


def _all_fractions(rows):
    return all(type(v) is Fraction for row in rows for v in row[:-1])


# halves and thirds, mixed within one draw; whole values stay plain ints
_RATIONALS = st.tuples(st.integers(-24, 24), st.sampled_from((1, 2, 3))).map(
    lambda t: t[0] // t[1] if t[0] % t[1] == 0 else Fraction(*t))


@st.composite
def _modules_and_jumps(draw):
    """A plain module and a jump type: ranks 1-7, 1-3 embeddings, slopes and
    jumps in halves and thirds; half the draws have equal endpoints."""
    field = FieldData(p=2, e=draw(st.integers(1, 3)), f=1)
    n = draw(st.integers(1, 7))
    jumps = [sorted(draw(st.lists(_RATIONALS, min_size=n, max_size=n)))
             for _ in range(field.degree)]
    slopes = draw(st.lists(_RATIONALS, min_size=n, max_size=n))
    if draw(st.booleans()):
        slopes[-1] = sum(map(Fraction, itertools.chain(*jumps))) - sum(map(Fraction, slopes[:-1]))
    return PhiModule.of_slopes(field, slopes), jumps


@settings(max_examples=300, deadline=None)
@given(_modules_and_jumps())
def test_inequality_rows_match_fraction_reference(data):
    module, jumps = data
    rows = inequality_rows(module, jumps)
    assert rows == _reference_inequality_rows(module, jumps)
    assert _all_fractions(rows)


@settings(max_examples=300, deadline=None)
@given(_modules_and_jumps())
def test_slope_polygons_and_their_rows_match_fraction_reference(data):
    module, jumps = data
    newton, hodge = newton_polygon(module), hodge_polygon(jumps)
    assert newton.vertices == _reference_lower_boundary(module.slopes_expanded())
    assert hodge.vertices == _reference_lower_boundary(
        sum(map(Fraction, column)) for column in zip(*jumps))
    assert all(type(v) is Fraction for poly in (newton, hodge) for vertex in poly.vertices
               for v in vertex)
    rows = list(polygon_rows(newton, hodge))
    assert rows == _reference_polygon_rows(newton, hodge)
    assert _all_fractions(rows)
    assert polygon_dominates(newton, hodge) == all(ok for *_, ok in rows)


@st.composite
def _block_data(draw):
    """Per-piece (Newton number, dimension) pairs, 1-4 pieces of dimension
    1-3, Newton numbers in halves and thirds in any order (so the Newton
    path need not be convex), and a jump type of the total rank."""
    blocks = draw(st.lists(st.tuples(_RATIONALS, st.integers(1, 3)), min_size=1, max_size=4))
    n = sum(d for _, d in blocks)
    jumps = [sorted(draw(st.lists(_RATIONALS, min_size=n, max_size=n)))
             for _ in range(draw(st.integers(1, 3)))]
    return blocks, jumps


@settings(max_examples=300, deadline=None)
@given(_block_data())
def test_block_paths_and_their_rows_match_fraction_reference(data):
    blocks, jumps = data
    newton, hodge = block_polygons(blocks, jumps)
    assert (newton.vertices, hodge.vertices) == _reference_block_paths(blocks, jumps)
    rows = list(polygon_rows(newton, hodge))
    assert rows == _reference_polygon_rows(newton, hodge)
    assert _all_fractions(rows)


def test_non_convex_block_path_rows():
    # Newton numbers 1 and 2 on dimensions 1 and 3: slopes 1 then 2/3
    newton, hodge = block_polygons([(2, 3), (Fraction(1), 1)], [[Fraction(-1, 2), 0, 0, 1]])
    assert newton.vertices == ((0, 0), (1, 1), (4, 3))
    assert hodge.vertices == ((0, 0), (1, Fraction(-1, 2)), (4, Fraction(1, 2)))
    assert not _slopes_nondecreasing(newton)
    rows = list(polygon_rows(newton, hodge))
    assert rows == _reference_polygon_rows(newton, hodge)
    assert [ok for *_, ok in rows] == [True, True, False]


@st.composite
def _rational_paths(draw):
    """Two paths from the origin to a common rational width, with
    breakpoints at rational x (denominators up to 6) and rational y."""
    width = Fraction(draw(st.integers(1, 24)), draw(st.integers(1, 6)))

    def path():
        inner = draw(st.sets(st.integers(1, 35), max_size=5))
        xs = [width * k / 36 for k in sorted(inner)] + [width]
        ys = draw(st.lists(_RATIONALS, min_size=len(xs), max_size=len(xs)))
        return Polygon.from_path(list(zip(xs, ys)))

    return path(), path()


@settings(max_examples=300, deadline=None)
@given(_rational_paths())
def test_polygon_rows_match_fraction_reference_at_rational_x(paths):
    newton, hodge = paths
    rows = list(polygon_rows(newton, hodge))
    assert rows == _reference_polygon_rows(newton, hodge)
    assert _all_fractions(rows)
