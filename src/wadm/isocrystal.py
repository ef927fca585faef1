"""Filtered Frobenius modules: slope/jump bookkeeping, Newton and Hodge
polygons, the weak admissibility criterion and its brute-force subobject
oracle, explicit admissible filtrations, Steinberg chain modules, and the
block polygon existence criterion.

Each existence criterion is evaluated here once: ``inequality_rows`` and
``block_polygons`` return the evaluated rows and paths that the checker
reports, and the boolean criteria are thin views of them.  ``Block`` and
``SteinbergChain`` are also the two Weil-Deligne summand types.

Normalization, fixed once (see FieldData for the valuation conventions):

* A block's ``slope`` is the val_L of its Frobenius-power eigenvalue, so
  the normalized Newton number t_N is just sum(slope * multiplicity).
  With eigenvalues written as inverses zeta_j^{-1}, slope_j = -val_L(zeta_j);
  that sign flip happens only at the checker boundary.
* The normalized Hodge number t_H is sum over embeddings of
  jump * graded dimension.  Both t_N and t_H carry the same coefficient
  field factor in the unnormalized theory, so admissibility comparisons
  are unaffected by dividing it out.
* A Steinberg chain piece twisted n times has its slope shifted by
  n*[L:Q_p] (each twist multiplies the Frobenius by p, hence its f-th
  power by q).

Half-integer jumps are accepted by every operation; no formula here is
sensitive to integrality.  The chain and block criteria, however, are
equivalences only for integer jumps (the gap hypothesis of the chain sum
lemma can fail at half-integer gaps), which the tests document.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import FieldData, rank as mat_rank
from .rootdata import Vec, vec

SUBOBJECT_ENUM_CAP = 12


class UnsupportedRegimeError(RuntimeError):
    """The module is outside the subobject-enumerable regimes.

    Raised instead of returning a possibly wrong verdict: with repeated
    eigenvalue labels and no declared chain structure the set of stable
    subobjects is not finite.
    """


@dataclass(frozen=True)
class Block:
    """One isotypic piece: slope (val_L of the eigenvalue), multiplicity,
    and the Jordan partition of the multiplicity.

    Under the Weil-Deligne dictionary this is also an unramified summand
    (``weildeligne.Unramified``), whose geometric Frobenius valuation
    ``val`` is the slope."""

    slope: Fraction
    mult: int
    jordan: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", Fraction(self.slope))
        jordan = tuple(sorted((int(v) for v in self.jordan), reverse=True)) or (1,) * self.mult
        object.__setattr__(self, "jordan", jordan)
        if self.mult < 1:
            raise ValueError("multiplicity must be >= 1")
        if any(p < 1 for p in jordan) or sum(jordan) != self.mult:
            raise ValueError(f"jordan {jordan} is not a partition of {self.mult}")

    @property
    def val(self) -> Fraction:
        return self.slope

    @property
    def dimension(self) -> int:
        return self.mult

    def blocks(self, degree: int) -> tuple["Block", ...]:
        return (self,)


@dataclass(frozen=True)
class SteinbergChain:
    """An indecomposable chain D_0 + D_0(1) + ... of ``length`` twists of a
    piece of dimension ``piece_dim`` at slope ``base_val``; the nilpotent
    operator maps twist n to twist n-1 by the identity."""

    base_val: Fraction
    piece_dim: int
    length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_val", Fraction(self.base_val))
        if self.piece_dim < 1 or self.length < 2:
            raise ValueError("piece_dim must be >= 1 and length >= 2")

    @property
    def dimension(self) -> int:
        return self.piece_dim * self.length

    def blocks(self, degree: int) -> tuple[Block, ...]:
        """One block per twist; twist n shifts the slope by n*[L:Q_p]."""
        return tuple(
            Block(self.base_val + n * degree, self.piece_dim) for n in range(self.length)
        )


@dataclass(frozen=True)
class PhiModule:
    """Slope data of a Frobenius module over the coefficient ring.

    Coordinates: the blocks occupy consecutive standard basis vectors in
    the order given (a chain module's twist j occupies coordinates
    j*piece_dim .. (j+1)*piece_dim - 1).  Filtration flags are written
    in this basis.
    """

    field: FieldData
    blocks: tuple[Block, ...]
    steinberg: Optional[SteinbergChain] = None

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a module needs at least one block")
        if self.steinberg is not None and \
                self.blocks != self.steinberg.blocks(self.field.degree):
            raise ValueError("blocks do not match the declared chain structure")

    @classmethod
    def of_slopes(cls, field: FieldData, slopes: Sequence) -> "PhiModule":
        """Multiplicity-one blocks, one per listed slope."""
        return cls(field, tuple(Block(Fraction(s), 1) for s in slopes))

    @classmethod
    def chain(cls, field: FieldData, piece_rank: int, s: int, base_slope) -> "PhiModule":
        """The chain module with s+1 twists of a rank piece_rank base (s >= 1)."""
        chain = SteinbergChain(base_slope, piece_rank, s + 1)
        return cls(field, chain.blocks(field.degree), chain)

    @property
    def rank(self) -> int:
        return sum(b.mult for b in self.blocks)

    def slopes_expanded(self) -> list[Fraction]:
        out: list[Fraction] = []
        for b in self.blocks:
            out.extend([b.slope] * b.mult)
        return out

    def has_distinct_unit_blocks(self) -> bool:
        slopes = [b.slope for b in self.blocks]
        return all(b.mult == 1 for b in self.blocks) and len(set(slopes)) == len(slopes)


@dataclass(frozen=True)
class Filtration:
    """Per-embedding filtration jumps with graded dimensions, plus optional
    explicit flag vectors realizing the filtration.

    ``levels[sigma]`` is a strictly increasing sequence of (jump, dim)
    pairs whose dims sum to the module rank.  When flags are present,
    ``flags[sigma]`` lists rank-many independent coordinate vectors; at
    the t-th jump the filtration step is the span of the last
    (dims[t] + dims[t+1] + ...) vectors, so earlier vectors leave first.
    """

    levels: tuple[tuple[tuple[Fraction, int], ...], ...]
    flags: Optional[tuple[tuple[Vec, ...], ...]] = None

    def __post_init__(self) -> None:
        levels = tuple(
            tuple((Fraction(j), int(d)) for j, d in sigma) for sigma in self.levels
        )
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("at least one embedding required")
        ranks = set()
        for sigma in levels:
            jumps = [j for j, _ in sigma]
            if any(d < 1 for _, d in sigma):
                raise ValueError("graded dimensions must be >= 1")
            if any(a >= b for a, b in zip(jumps, jumps[1:])):
                raise ValueError("jumps must be strictly increasing")
            ranks.add(sum(d for _, d in sigma))
        if len(ranks) != 1:
            raise ValueError("per-embedding dimensions must sum to a common rank")
        if self.flags is not None:
            n = ranks.pop()
            flags = tuple(tuple(vec(v) for v in sigma) for sigma in self.flags)
            object.__setattr__(self, "flags", flags)
            if len(flags) != len(levels):
                raise ValueError("flags must cover every embedding")
            for sigma in flags:
                if len(sigma) != n or any(len(v) != n for v in sigma):
                    raise ValueError("each flag needs rank-many vectors of full length")
                if mat_rank(sigma) != n:
                    raise ValueError("flag vectors must be linearly independent")

    @classmethod
    def of_jumps(cls, jumps_per_embedding: Sequence[Sequence], flags=None) -> "Filtration":
        """All graded dimensions 1: one jump per basis line."""
        levels = tuple(
            tuple((Fraction(j), 1) for j in sigma) for sigma in jumps_per_embedding
        )
        return cls(levels, flags)

    @property
    def embeddings(self) -> int:
        return len(self.levels)

    @property
    def rank(self) -> int:
        return sum(d for _, d in self.levels[0])

    def dims_pattern(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(d for _, d in sigma) for sigma in self.levels)


# ---------------------------------------------------------------------------
# Newton / Hodge invariants
# ---------------------------------------------------------------------------


def t_N(module: PhiModule) -> Fraction:
    """Normalized Newton number: sum of slope * multiplicity."""
    return sum((b.slope * b.mult for b in module.blocks), Fraction(0))


def t_H(filtration: Filtration) -> Fraction:
    """Normalized Hodge number: sum over embeddings of jump * graded dim."""
    return sum(
        (j * d for sigma in filtration.levels for j, d in sigma), Fraction(0)
    )


@dataclass(frozen=True)
class Polygon:
    """Piecewise-linear path from (0, 0) with strictly increasing rational
    x-coordinates.  Slope-built polygons are lower-convex; block paths may
    not be."""

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        verts = tuple((Fraction(x), Fraction(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts or verts[0] != (0, 0):
            raise ValueError("polygon must start at (0, 0)")
        if any(a[0] >= b[0] for a, b in zip(verts, verts[1:])):
            raise ValueError("x-coordinates must be strictly increasing")

    @classmethod
    def from_slopes(cls, slopes: Sequence) -> "Polygon":
        """Lower boundary with the given slope multiset, one unit of x each;
        collinear segments are merged."""
        ordered = sorted(Fraction(s) for s in slopes)
        pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
        x, y = Fraction(0), Fraction(0)
        for s, group in itertools.groupby(ordered):
            run = len(list(group))
            x, y = x + run, y + s * run
            pts.append((x, y))
        return cls(tuple(pts))

    @classmethod
    def from_path(cls, points: Sequence[tuple]) -> "Polygon":
        """Path through the given breakpoints, starting from the origin."""
        return cls(((Fraction(0), Fraction(0)),) + tuple(points))

    @property
    def width(self) -> Fraction:
        return self.vertices[-1][0]

    @property
    def endpoint(self) -> tuple[Fraction, Fraction]:
        return self.vertices[-1]

    def slopes(self) -> list[Fraction]:
        return [
            (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(self.vertices, self.vertices[1:])
        ]

    def is_convex(self) -> bool:
        s = self.slopes()
        return all(a <= b for a, b in zip(s, s[1:]))

    def value_at(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0 or x > self.width:
            raise ValueError(f"x = {x} outside [0, {self.width}]")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a[0] <= x <= b[0]:
                return a[1] + (b[1] - a[1]) * (x - a[0]) / (b[0] - a[0])
        return self.vertices[-1][1]  # pragma: no cover


def newton_polygon(module: PhiModule) -> Polygon:
    """Lower boundary of the sorted slope multiset; x counts dimension."""
    return Polygon.from_slopes(module.slopes_expanded())


def hodge_polygon(filtration: Filtration) -> Polygon:
    """Polygon of the per-level jump totals across embeddings.

    Requires the graded dimension pattern to agree across embeddings so
    that level j of one embedding lines up with level j of another.
    """
    patterns = set(filtration.dims_pattern())
    if len(patterns) != 1:
        raise ValueError("graded dimension patterns differ across embeddings")
    dims = patterns.pop()
    slopes: list[Fraction] = []
    for t, d in enumerate(dims):
        total = sum(sigma[t][0] for sigma in filtration.levels)
        slopes.extend([total] * d)
    return Polygon.from_slopes(slopes)


def polygon_rows(newton: Polygon, hodge: Polygon):
    """(x, newton value, hodge value) at every breakpoint of either path,
    x ascending."""
    for x in sorted({x for x, _ in newton.vertices} | {x for x, _ in hodge.vertices}):
        yield x, newton.value_at(x), hodge.value_at(x)


def polygon_dominates(newton: Polygon, hodge: Polygon) -> bool:
    """True iff the hodge path lies on or below the newton path at every
    breakpoint and both endpoints coincide exactly."""
    if newton.width != hodge.width:
        raise ValueError(f"unequal widths: {newton.width} vs {hodge.width}")
    if newton.endpoint != hodge.endpoint:
        return False
    return all(hy <= ny for _, ny, hy in polygon_rows(newton, hodge))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def _check_jumps_shape(module: PhiModule, jumps: Sequence[Sequence]) -> list[list[Fraction]]:
    n = module.rank
    if len(jumps) != module.field.degree:
        raise ValueError(f"expected {module.field.degree} embeddings of jumps, got {len(jumps)}")
    out = []
    for sigma in jumps:
        js = [Fraction(j) for j in sigma]
        if len(js) != n:
            raise ValueError(f"each embedding needs {n} jumps, got {len(js)}")
        if any(a > b for a, b in zip(js, js[1:])):
            raise ValueError("jumps must be sorted nondecreasingly")
        out.append(js)
    return out


def inequality_rows(module: PhiModule, jumps: Sequence[Sequence]) -> list[tuple]:
    """The partial-sum inequalities deciding existence of an admissible
    filtration with the given jump type, evaluated: one (lhs, rhs, ok) row
    per 1 <= i <= n.

    With zeta-valuations v = sorted(-slope) ascending, row i compares the
    sum of the first i aggregated jumps (lhs) with -(sum of the last i
    values of v) (rhs): lhs <= rhs for i < n, lhs == rhs at i = n.
    Requires a plain module (no chain structure); repeated slopes are
    fine, the test is purely numerical.
    """
    if module.steinberg is not None:
        raise ValueError("the inequality test applies to modules without chain structure")
    js = _check_jumps_shape(module, jumps)
    n = module.rank
    vals = sorted(-s for s in module.slopes_expanded())
    rows = []
    lhs = Fraction(0)
    for i in range(1, n + 1):
        lhs += sum(sigma[i - 1] for sigma in js)
        rhs = -sum(vals[n - i:], Fraction(0))
        rows.append((lhs, rhs, lhs <= rhs if i < n else lhs == rhs))
    return rows


def admissible_by_inequalities(module: PhiModule, jumps: Sequence[Sequence]) -> bool:
    """Whether every partial-sum inequality of ``inequality_rows`` holds."""
    return all(ok for _, _, ok in inequality_rows(module, jumps))


def _induced_t_H_on_subspace(filtration: Filtration, coords: Sequence[int]) -> Fraction:
    """t_H of the filtration induced on the coordinate subspace, by exact
    intersection of the explicit flags with that subspace."""
    total = Fraction(0)
    n = filtration.rank
    comp = [i for i in range(n) if i not in set(coords)]
    for sigma_levels, sigma_flags in zip(filtration.levels, filtration.flags):
        dims_here = []
        start = 0
        for _, d in sigma_levels:
            tail = sigma_flags[start:]
            restricted = [[v[c] for c in comp] for v in tail]
            dims_here.append(len(tail) - mat_rank(restricted))
            start += d
        dims_here.append(0)
        for (jump, _), dim_t, dim_next in zip(sigma_levels, dims_here, dims_here[1:]):
            total += jump * (dim_t - dim_next)
    return total


def _subobject_coords(module: PhiModule):
    """Enumerate the stable subobjects as coordinate index tuples, paired
    with their Newton numbers.  The full module comes last."""
    if module.steinberg is not None:
        p = module.steinberg.piece_dim
        for nchain in range(module.steinberg.length):
            coords = tuple(range((nchain + 1) * p))
            tn = sum(
                (b.slope * b.mult for b in module.blocks[: nchain + 1]), Fraction(0)
            )
            yield coords, tn
        return
    if not module.has_distinct_unit_blocks():
        raise UnsupportedRegimeError(
            "repeated or multi-dimensional eigenvalue labels without declared "
            "chain structure: stable subobjects are not enumerable"
        )
    n = module.rank
    if n > SUBOBJECT_ENUM_CAP:
        raise UnsupportedRegimeError(f"subobject enumeration capped at rank {SUBOBJECT_ENUM_CAP}")
    slopes = module.slopes_expanded()
    proper = []
    for size in range(1, n):
        for coords in itertools.combinations(range(n), size):
            proper.append((coords, sum((slopes[i] for i in coords), Fraction(0))))
    for item in proper:
        yield item
    yield tuple(range(n)), t_N(module)


def weak_admissible(module: PhiModule, filtration: Filtration) -> bool:
    """Brute-force weak admissibility oracle.

    Checks t_H = t_N on the whole module and t_H <= t_N on every stable
    subobject, with the induced filtration computed by exact intersection
    of the explicit flags with the subobject coordinate subspace.  The
    supported regimes are (a) multiplicity-one blocks with pairwise
    distinct slopes (subobjects are the coordinate subsets) and (b) chain
    modules (subobjects are the partial chains).
    """
    if filtration.flags is None:
        raise ValueError("the admissibility oracle needs explicit flags")
    if filtration.rank != module.rank:
        raise ValueError("filtration rank does not match the module")
    if filtration.embeddings != module.field.degree:
        raise ValueError(f"expected {module.field.degree} embeddings")
    n = module.rank
    full = tuple(range(n))
    for coords, tn in _subobject_coords(module):
        th = _induced_t_H_on_subspace(filtration, coords)
        if coords == full:
            if th != tn:
                return False
        elif th > tn:
            return False
    return True


def build_admissible_filtration(module: PhiModule, jumps: Sequence[Sequence]) -> Filtration:
    """Construct an explicit admissible filtration for the given jump type.

    The flag vectors are f_j = e_{tau(n+1-j)} + sum_m x_j^(j-m) e_{tau(n+1-j+m)}
    (1-based) with tau the stable sort of the zeta-valuations and x_j = j;
    the resulting generalized Vandermonde minors are all nonzero, so the
    flags are in generic position deterministically.  Requires the
    partial-sum inequalities to hold and the distinct-slope regime.
    """
    if module.steinberg is not None or not module.has_distinct_unit_blocks():
        raise UnsupportedRegimeError(
            "explicit construction needs multiplicity-one blocks with distinct slopes"
        )
    js = _check_jumps_shape(module, jumps)
    if not admissible_by_inequalities(module, jumps):
        raise ValueError("the partial-sum inequalities fail: no admissible filtration exists")
    n = module.rank
    vals = [-b.slope for b in module.blocks]
    tau = sorted(range(n), key=lambda i: (vals[i], i))
    flag: list[Vec] = []
    for j in range(1, n + 1):
        coeffs = [Fraction(0)] * n
        coeffs[tau[n - j]] = Fraction(1)
        xj = Fraction(j)
        for m in range(1, j):
            coeffs[tau[n - j + m]] = xj ** (j - m)
        flag.append(tuple(coeffs))
    flags = tuple(tuple(flag) for _ in js)
    return Filtration.of_jumps(js, flags)


def steinberg_filtration(module: PhiModule, jumps: Sequence[Sequence]) -> Filtration:
    """The chain filtration along the twist blocks of a chain module.

    At the jump with index j*piece_dim (0-based) the filtration steps
    down to the span of the twists >= j; within a twist block the flag
    descends one coordinate at a time.
    """
    if module.steinberg is None:
        raise ValueError("steinberg_filtration needs a chain module")
    js = _check_jumps_shape(module, jumps)
    for sigma in js:
        if any(a >= b for a, b in zip(sigma, sigma[1:])):
            raise ValueError("chain filtration jumps must be strictly increasing")
    n = module.rank
    identity = tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    )
    flags = tuple(identity for _ in js)
    return Filtration.of_jumps(js, flags)


def chain_sum_bounds(h: int, c, ivals: Sequence[int]) -> tuple[bool, bool]:
    """Gap-and-total hypotheses versus prefix-sum conclusions.

    hypotheses_ok: i_{n-1} + h <= i_n for all n, and
    i_0 + ... + i_s <= (s+1)c + h(1+...+s).
    conclusions_ok: i_0 + ... + i_n <= (n+1)c + h(1+...+n) for 0 <= n <= s.
    """
    c = Fraction(c)
    vals = [int(v) for v in ivals]
    if not vals:
        raise ValueError("need at least i_0")
    s = len(vals) - 1
    gaps = all(vals[n - 1] + h <= vals[n] for n in range(1, s + 1))
    total = sum(vals) <= (s + 1) * c + h * s * (s + 1) / Fraction(2)
    hypotheses_ok = gaps and total
    conclusions_ok = all(
        sum(vals[: n + 1]) <= (n + 1) * c + h * n * (n + 1) / Fraction(2)
        for n in range(s + 1)
    )
    return hypotheses_ok, conclusions_ok


def block_polygons(blocks: Sequence[tuple], jumps: Sequence[Sequence]) -> tuple[Polygon, Polygon]:
    """The (newton, hodge) paths of a module declared as a direct sum of
    indecomposable pieces, given per-piece (Newton number, dimension).

    Pieces are ordered by Newton number ascending, ties by dimension
    descending; both paths have a vertex at every block boundary: the
    Newton path through the cumulative Newton numbers, the Hodge path
    through the aggregated jump prefix sums.
    """
    if not blocks:
        raise ValueError("need at least one block")
    data = [(Fraction(tn), int(d)) for tn, d in blocks]
    if any(d < 1 for _, d in data):
        raise ValueError("block dimensions must be >= 1")
    total_dim = sum(d for _, d in data)
    agg_lists = []
    for sigma in jumps:
        js = [Fraction(j) for j in sigma]
        if len(js) != total_dim:
            raise ValueError(
                f"jump count {len(js)} does not match total block dimension {total_dim}"
            )
        if any(a > b for a, b in zip(js, js[1:])):
            raise ValueError("jumps must be sorted nondecreasingly")
        agg_lists.append(js)
    agg = [sum(sigma[j] for sigma in agg_lists) for j in range(total_dim)]
    ordered = sorted(data, key=lambda bd: (bd[0], -bd[1]))
    newton_pts = []
    hodge_pts = []
    x = 0
    ysum = Fraction(0)
    for tn, d in ordered:
        x += d
        ysum += tn
        newton_pts.append((Fraction(x), ysum))
        hodge_pts.append((Fraction(x), sum(agg[:x], Fraction(0))))
    return Polygon.from_path(newton_pts), Polygon.from_path(hodge_pts)


def block_existence_criterion(blocks: Sequence[tuple], jumps: Sequence[Sequence]) -> bool:
    """Existence criterion for declared direct sums: the block Newton path
    of ``block_polygons`` dominates its Hodge path at the block
    boundaries, with equal endpoints."""
    return polygon_dominates(*block_polygons(blocks, jumps))
