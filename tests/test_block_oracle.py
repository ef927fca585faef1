"""Independent validation of the block existence criterion.

For a direct sum of indecomposables whose constituent valuations are
pairwise distinct, the stable subobjects are exactly the direct sums of
per-summand subobjects (partial chains, or a character or zero).  A
filtration with generic flags induces, on every subobject of dimension k,
the k smallest jumps per embedding simultaneously, so an admissible
filtration with a given integer jump type exists iff

    for every subobject of dimension k:
        (sum of the k smallest aggregated jumps) <= t_N(subobject),
    with equality on the whole module.

That brute-force test is implemented here from scratch and held against
the block polygon pair (``polygon_dominates(*block_polygons(...))``) on
random mixed data.
"""

import itertools
import random
from fractions import Fraction

from wadm.exact import FieldData
from wadm.isocrystal import block_polygons, polygon_dominates
from wadm.weildeligne import SteinbergChain, Unramified, WDRep, block_decompose


def _summand_subobjects(part, field):
    """All (dimension, Newton number) pairs of subobjects of one summand,
    including zero and the full summand."""
    if isinstance(part, Unramified):
        assert part.mult == 1
        return [(0, Fraction(0)), (1, part.val)]
    options = [(0, Fraction(0))]
    dim = 0
    tn = Fraction(0)
    for j in range(part.length):
        dim += part.piece_dim
        tn += part.piece_dim * (part.base_val + j * field.degree)
        options.append((dim, tn))
    return options


def _independent_existence(rep, jumps, field):
    total_dim = rep.dimension
    agg = sorted(
        sum(sigma[j] for sigma in jumps) for j in range(total_dim)
    )
    # per-sigma jumps are already sorted, so aggregated prefix sums are the
    # minimal induced Hodge numbers per dimension
    prefix = [Fraction(0)]
    for v in agg:
        prefix.append(prefix[-1] + v)
    per_summand = [_summand_subobjects(p, field) for p in rep.parts]
    total_tn = sum((opts[-1][1] for opts in per_summand), Fraction(0))
    if prefix[total_dim] != total_tn:
        return False
    for combo in itertools.product(*per_summand):
        k = sum(d for d, _ in combo)
        tn = sum((t for _, t in combo), Fraction(0))
        if 0 < k < total_dim and prefix[k] > tn:
            return False
    return True


def _random_mixed_rep(rng, field):
    """Characters and up to two chains, all constituent valuations
    pairwise distinct (so subobjects are direct sums)."""
    while True:
        parts = []
        dim = 0
        target = rng.randint(2, 6)
        nchains = rng.randint(0, 2)
        for _ in range(nchains):
            piece = 1
            length = rng.randint(2, 3)
            if dim + piece * length > target:
                continue
            base = Fraction(rng.randint(-16, 16), 2)
            parts.append(SteinbergChain(base, piece, length))
            dim += piece * length
        while dim < target:
            parts.append(Unramified(Fraction(rng.randint(-16, 16), 2), 1))
            dim += 1
        vals = []
        for p in parts:
            if isinstance(p, Unramified):
                vals.append(p.val)
            else:
                vals.extend(p.base_val + j * field.degree for j in range(p.length))
        if len(set(vals)) == len(vals):
            return WDRep(field, tuple(parts))


def test_block_criterion_matches_independent_oracle():
    rng = random.Random(911)
    agreements = positives = 0
    for _ in range(300):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=1)
        rep = _random_mixed_rep(rng, field)
        n = rep.dimension
        jumps = [sorted(rng.sample(range(-12, 13), n)) for _ in range(field.degree)]
        if rng.random() < 0.6:
            # force the total equality by retuning the first summand's level
            total_needed = sum(sum(s) for s in jumps)
            current = sum(tn for tn, _ in block_decompose(rep))
            first = rep.parts[0]
            if isinstance(first, Unramified):
                shift = total_needed - current
                new_first = Unramified(first.val + shift, 1)
            else:
                shift = Fraction(total_needed - current, first.length * first.piece_dim)
                new_first = SteinbergChain(first.base_val + shift, first.piece_dim,
                                           first.length)
            candidate = WDRep(field, (new_first,) + rep.parts[1:])
            vals = []
            for p in candidate.parts:
                if isinstance(p, Unramified):
                    vals.append(p.val)
                else:
                    vals.extend(p.base_val + j * field.degree for j in range(p.length))
            if len(set(vals)) != len(vals):
                continue  # retuning collided; skip rather than bias
            rep = candidate
        got = polygon_dominates(*block_polygons(block_decompose(rep), jumps))
        want = _independent_existence(rep, jumps, field)
        assert got == want, (rep, jumps)
        agreements += 1
        positives += got
    assert agreements > 250 and positives > 20


def test_block_criterion_tie_ordering():
    # two summands with equal Newton numbers but different dimensions: the
    # wider one must come first; check against the independent oracle on a
    # case where the tie order matters
    field = FieldData(p=3, e=1, f=1)
    rep = WDRep(
        field,
        (SteinbergChain(Fraction(-1, 2), 1, 2), Unramified(Fraction(0), 1)),
    )
    # chain t_N = -1/2 + 1/2 = 0 over dim 2; character t_N = 0 over dim 1
    blocks = block_decompose(rep)
    assert sorted(blocks) == [(0, 1), (0, 2)]
    for jumps in ([[-2, 0, 2]], [[-1, 0, 1]], [[-3, 1, 2]]):
        got = polygon_dominates(*block_polygons(blocks, jumps))
        want = _independent_existence(rep, jumps, field)
        assert got == want, jumps
