"""Filtered Frobenius modules: slopes and jump types, Newton and Hodge
polygons, the weak admissibility criterion and its brute-force subobject
oracle, explicit admissible filtrations, Steinberg chain modules, and the
block polygons.

Each existence criterion is evaluated here once: ``inequality_rows`` and
``block_polygons`` return the evaluated rows and paths that the checker
reports.  ``Block`` and ``SteinbergChain`` are also the two Weil-Deligne
summand types.  Each input has one form: a jump type is, per embedding,
the rank-many jumps sorted nondecreasingly, as ``t_H``,
``hodge_polygon`` and every criterion take it (each reads it once, through
``_jump_lists``, as integers at one scale); a ``Filtration`` is a jump
type with its explicit flag vectors, which the subobject oracle reads.

Normalization, fixed once (see FieldData for the valuation conventions):

* A block's ``slope`` is the val_L of its Frobenius-power eigenvalue, so
  the normalized Newton number t_N is just sum(slope * multiplicity).
  With eigenvalues written as inverses zeta_j^{-1}, slope_j = -val_L(zeta_j);
  that sign flip happens only at the checker boundary.
* The normalized Hodge number t_H is the sum of every embedding's jumps
  (a jump of graded dimension d is listed d times).  Both t_N and t_H
  carry the same coefficient field factor in the unnormalized theory, so
  admissibility comparisons are unaffected by dividing it out.
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
import math
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (FieldData, RatLike, UnsupportedRegimeError, _Frozen, _reduced_echelon,
                    rank as mat_rank)

SUBOBJECT_ENUM_CAP = 12


class Block(_Frozen):
    """One isotypic piece: slope (val_L of the eigenvalue), multiplicity,
    and the Jordan partition of the multiplicity.

    Under the Weil-Deligne dictionary this is also an unramified summand
    (``weildeligne.Unramified``), whose geometric Frobenius valuation
    ``val`` is the slope."""

    __slots__ = _fields = ("slope", "mult", "jordan")

    def __init__(self, slope: Fraction, mult: int, jordan: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "slope", Fraction(slope))
        object.__setattr__(self, "mult", mult)
        jordan = tuple(sorted((int(v) for v in jordan), reverse=True)) or (1,) * mult
        object.__setattr__(self, "jordan", jordan)
        if mult < 1:
            raise ValueError("multiplicity must be >= 1")
        if any(p < 1 for p in jordan) or sum(jordan) != mult:
            raise ValueError(f"jordan {jordan} is not a partition of {mult}")

    @property
    def val(self) -> Fraction:
        return self.slope

    @property
    def dimension(self) -> int:
        return self.mult

    def blocks(self, degree: int) -> tuple["Block", ...]:
        return (self,)


class SteinbergChain(_Frozen):
    """An indecomposable chain D_0 + D_0(1) + ... of ``length`` twists of a
    piece of dimension ``piece_dim`` at slope ``base_val``; the nilpotent
    operator maps twist n to twist n-1 by the identity."""

    __slots__ = _fields = ("base_val", "piece_dim", "length")

    def __init__(self, base_val: Fraction, piece_dim: int, length: int) -> None:
        object.__setattr__(self, "base_val", Fraction(base_val))
        object.__setattr__(self, "piece_dim", piece_dim)
        object.__setattr__(self, "length", length)
        if piece_dim < 1 or length < 2:
            raise ValueError("piece_dim must be >= 1 and length >= 2")

    @property
    def dimension(self) -> int:
        return self.piece_dim * self.length

    def blocks(self, degree: int) -> tuple[Block, ...]:
        """One block per twist; twist n shifts the slope by n*[L:Q_p]."""
        return tuple(
            Block(self.base_val + n * degree, self.piece_dim) for n in range(self.length)
        )


class PhiModule(_Frozen):
    """Slope data of a Frobenius module over the coefficient ring.

    Coordinates: the blocks occupy consecutive standard basis vectors in
    the order given (a chain module's twist j occupies coordinates
    j*piece_dim .. (j+1)*piece_dim - 1).  Filtration flags are written
    in this basis.
    """

    __slots__ = _fields = ("field", "blocks", "steinberg")

    def __init__(self, field: FieldData, blocks: tuple[Block, ...],
                 steinberg: Optional[SteinbergChain] = None) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "steinberg", steinberg)
        if not blocks:
            raise ValueError("a module needs at least one block")
        if steinberg is not None and blocks != steinberg.blocks(field.degree):
            raise ValueError("blocks do not match the declared chain structure")

    @classmethod
    def of_slopes(cls, field: FieldData, slopes: Sequence) -> "PhiModule":
        """Multiplicity-one blocks, one per listed slope."""
        return cls(field, tuple(Block(s, 1) for s in slopes))  # Block makes each a Fraction

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


def _jump_lists(jumps: Sequence[Sequence], rank: Optional[int] = None,
                embeddings: Optional[int] = None) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(js, scale): a jump type, checked, as integers at one scale.

    The checks: ``embeddings`` lists if given, at least one, each of
    ``rank`` jumps (default: as many as the first) and sorted
    nondecreasingly.  ``scale`` is the lcm of the jump denominators and
    ``js[sigma][k]`` is ``scale`` times jump k, an ``int``.  An ``int``
    jump is read as it is; any other entry goes through ``Fraction``."""
    js = tuple(tuple(j if type(j) is int else Fraction(j) for j in sigma) for sigma in jumps)
    if embeddings is not None and len(js) != embeddings:
        raise ValueError(f"expected {embeddings} embeddings of jumps, got {len(js)}")
    if not js:
        raise ValueError("at least one embedding required")
    n = len(js[0]) if rank is None else rank
    for sigma in js:
        if len(sigma) != n:
            raise ValueError(f"each embedding needs {n} jumps, got {len(sigma)}")
        if any(a > b for a, b in zip(sigma, sigma[1:])):
            raise ValueError("jumps must be sorted nondecreasingly")
    scale = math.lcm(*[j.denominator for sigma in js for j in sigma])
    return tuple(tuple(j.numerator * (scale // j.denominator) for j in sigma)
                 for sigma in js), scale


class Filtration(_Frozen):
    """An explicit filtration: a jump type and the flag vectors realizing it.

    ``jumps[sigma]`` lists rank-many jumps, sorted nondecreasingly; a jump
    repeated d times has graded dimension d.  ``flags[sigma]`` lists
    rank-many independent coordinate vectors, vector k carrying jump k:
    the filtration step at jump j is the span of the vectors whose jump is
    >= j, so earlier vectors leave first.  Flag entries are kept as given
    (int or Fraction), so integral flags reach ``exact.rank`` as plain ints.
    ``jumps`` holds ``Fraction``s, built once from ``_jump_lists``; each
    distinct flag set is checked once, in order.
    """

    __slots__ = _fields = ("jumps", "flags")

    def __init__(self, jumps: Sequence[Sequence],
                 flags: Sequence[Sequence[Sequence[RatLike]]]) -> None:
        self._set(*_jump_lists(jumps), flags)

    def _set(self, js: Sequence[Sequence[int]], scale: int,
             flags: Sequence[Sequence[Sequence[RatLike]]]) -> None:
        """The fields, from a jump type that ``_jump_lists`` has read."""
        object.__setattr__(self, "jumps", tuple(tuple(Fraction(j, scale) for j in sigma)
                                                for sigma in js))
        n = self.rank
        flags = tuple(tuple(tuple(v) for v in sigma) for sigma in flags)
        object.__setattr__(self, "flags", flags)
        if len(flags) != self.embeddings:
            raise ValueError("flags must cover every embedding")
        for sigma in dict.fromkeys(flags):
            if len(sigma) != n or any(len(v) != n for v in sigma):
                raise ValueError("each flag needs rank-many vectors of full length")
            if mat_rank(sigma) != n:
                raise ValueError("flag vectors must be linearly independent")

    @property
    def embeddings(self) -> int:
        return len(self.jumps)

    @property
    def rank(self) -> int:
        return len(self.jumps[0])


# ---------------------------------------------------------------------------
# Newton / Hodge invariants
# ---------------------------------------------------------------------------


def t_N(module: PhiModule) -> Fraction:
    """Normalized Newton number: sum of slope * multiplicity."""
    return sum((b.slope * b.mult for b in module.blocks), Fraction(0))


def t_H(jumps: Sequence[Sequence]) -> Fraction:
    """Normalized Hodge number: the sum of every jump of a jump type, summed
    as integers at the ``_jump_lists`` scale."""
    js, scale = _jump_lists(jumps)
    return Fraction(sum(map(sum, js)), scale)


class Polygon(_Frozen):
    """Piecewise-linear path from (0, 0) with strictly increasing rational
    x-coordinates.  Slope-built polygons are lower-convex; block paths may
    not be."""

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: Sequence[tuple]) -> None:
        verts = tuple((x if type(x) is Fraction else Fraction(x),
                       y if type(y) is Fraction else Fraction(y)) for x, y in vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts or verts[0] != (0, 0):
            raise ValueError("polygon must start at (0, 0)")
        if any(a[0] >= b[0] for a, b in zip(verts, verts[1:])):
            raise ValueError("x-coordinates must be strictly increasing")

    @classmethod
    def from_slopes(cls, slopes: Sequence) -> "Polygon":
        """Lower boundary with the given slope multiset, one unit of x each;
        collinear segments are merged."""
        slopes = [s if type(s) is Fraction else Fraction(s) for s in slopes]
        scale = math.lcm(*[s.denominator for s in slopes])
        return _lower_boundary([s.numerator * (scale // s.denominator) for s in slopes], scale)

    @classmethod
    def from_path(cls, points: Sequence[tuple]) -> "Polygon":
        """Path through the given breakpoints, starting from the origin."""
        return cls(((Fraction(0), Fraction(0)),) + tuple(points))

    @property
    def width(self) -> Fraction:
        return self.vertices[-1][0]


def newton_polygon(module: PhiModule) -> Polygon:
    """Lower boundary of the sorted slope multiset; x counts dimension."""
    return Polygon.from_slopes(module.slopes_expanded())


def _lower_boundary(scaled: Sequence[int], scale: int) -> Polygon:
    """``Polygon.from_slopes`` of the slopes s / scale, s in ``scaled``:
    the integer slopes are sorted and summed, and each vertex, where the
    next slope differs, gets one ``Fraction`` y."""
    ordered = sorted(scaled)
    pts = [(Fraction(0), Fraction(0))]
    y = 0
    for x, s in enumerate(ordered, 1):
        y += s
        if x == len(ordered) or ordered[x] != s:
            pts.append((Fraction(x), Fraction(y, scale)))
    return Polygon(tuple(pts))


def hodge_polygon(jumps: Sequence[Sequence]) -> Polygon:
    """Lower boundary of a jump type's position-wise jump sums across
    embeddings (slope k is the sum of every embedding's k-th jump), summed
    as integers at the ``_jump_lists`` scale; x counts dimension and the
    endpoint is (rank, t_H)."""
    js, scale = _jump_lists(jumps)
    return _lower_boundary(list(map(sum, zip(*js))), scale)


def polygon_rows(newton: Polygon, hodge: Polygon):
    """(x, newton value, hodge value, ok) at every breakpoint of either
    path, x ascending; ``ok`` is hodge <= newton, with equality at the
    last x.  Raises ValueError when the widths differ.

    One merge walk over both vertex lists: a vertex's value is its own y,
    and only an x where the other path has no vertex interpolates on that
    path's segment across it."""
    if newton.width != hodge.width:
        raise ValueError(f"unequal widths: {newton.width} vs {hodge.width}")
    nv, hv = newton.vertices, hodge.vertices
    last = newton.width

    def across(verts, k, x):  # the value at x on the segment ending at vertex k
        (x0, y0), (x1, y1) = verts[k - 1], verts[k]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    a = b = 0
    while True:
        xa, xb = nv[a][0], hv[b][0]
        if xa == xb:
            x, ny, hy = xa, nv[a][1], hv[b][1]
            a += 1
            b += 1
        elif xa < xb:
            x, ny, hy = xa, nv[a][1], across(hv, b, xa)
            a += 1
        else:
            x, ny, hy = xb, across(nv, a, xb), hv[b][1]
            b += 1
        if x == last:
            yield x, ny, hy, hy == ny
            return
        yield x, ny, hy, hy <= ny


def polygon_dominates(newton: Polygon, hodge: Polygon) -> bool:
    """True iff the hodge path lies on or below the newton path at every
    breakpoint and both endpoints coincide exactly; raises ValueError when
    the widths differ."""
    return all(ok for *_, ok in polygon_rows(newton, hodge))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def inequality_rows(module: PhiModule, jumps: Sequence[Sequence]) -> list[tuple]:
    """The partial-sum inequalities deciding existence of an admissible
    filtration with the given jump type, evaluated: one (lhs, rhs, ok) row
    per 1 <= i <= n.

    With zeta-valuations v = sorted(-slope) ascending, row i compares the
    sum of the first i aggregated jumps (lhs) with -(sum of the last i
    values of v) (rhs): lhs <= rhs for i < n, lhs == rhs at i = n.
    Requires a plain module (no chain structure); repeated slopes are
    fine, the test is purely numerical.

    -(sum of the last i values of v) is the sum of the i smallest slopes,
    so both sides are running prefix sums, each in integers at its own
    scale (the ``_jump_lists`` scale, and the lcm of the slope
    denominators); a row compares them cross-multiplied and builds its
    two ``Fraction`` sides only for the caller.
    """
    if module.steinberg is not None:
        raise ValueError("the inequality test applies to modules without chain structure")
    js, jump_scale = _jump_lists(jumps, module.rank, module.field.degree)
    n = module.rank
    slopes = module.slopes_expanded()
    slope_scale = math.lcm(*[s.denominator for s in slopes])
    ascending = sorted(s.numerator * (slope_scale // s.denominator) for s in slopes)
    rows = []
    lhs = rhs = 0
    for i, column in enumerate(zip(*js), 1):
        lhs += sum(column)
        rhs += ascending[i - 1]
        left, right = lhs * slope_scale, rhs * jump_scale
        rows.append((Fraction(lhs, jump_scale), Fraction(rhs, slope_scale),
                     left <= right if i < n else left == right))
    return rows


def admissible_by_inequalities(module: PhiModule, jumps: Sequence[Sequence]) -> bool:
    """Whether every partial-sum inequality of ``inequality_rows`` holds."""
    return all(ok for _, _, ok in inequality_rows(module, jumps))


def _tail_forms(filtration: Filtration, den: int) -> list[tuple]:
    """One ``(step, pivots, form)`` triple for each flag set and each
    position k where the summed jumps of the embeddings with that flag set
    step by a nonzero amount:

    * ``step`` is ``den`` times (sum of the k-th jumps - sum of the
      (k-1)-th jumps), the first one counted from 0 (``den`` must clear
      every jump's denominator, so the steps are integers);
    * ``form`` is ``exact._reduced_echelon`` of the flag tail from vector
      k on, which spans the filtration step at each of those jumps, and
      ``pivots`` is the set of its pivot columns.

    Grouping by flags is exact: t_H(S) = sum over sigma and k of
    step_sigma,k * dim(F_k & V_S), and F_k depends only on the flags."""
    groups: dict = {}
    for sigma, flags in zip(filtration.jumps, filtration.flags):
        groups.setdefault(flags, []).append(sigma)
    tails = []
    for flags, sigmas in groups.items():
        prev = 0
        for k, column in enumerate(zip(*sigmas)):
            total = sum(j.numerator * (den // j.denominator) for j in column)
            if total != prev:
                form = _reduced_echelon(flags[k:])
                tails.append((total - prev, frozenset(c for c, _ in form), form))
            prev = total
    return tails


def _induced_t_H_on_subspace(filtration: Filtration, tails: Sequence[tuple],
                             coords: Sequence[int]) -> int:
    """``den`` times the t_H of the filtration induced on the coordinate
    subspace V_S (S = ``coords``), by exact intersection of the explicit
    flags with that subspace; ``tails`` is the filtration's
    ``_tail_forms`` at scale ``den``, walked once.

    A step F meets V_S in dimension dim F - rank(F restricted to the
    columns outside S).  With F in reduced echelon form with pivot columns
    P, the rows whose pivot is outside S are the only rows nonzero on
    those pivot columns, where they form a diagonal block, so that rank is
    |P - S| + rank(Y) and dim(F & V_S) = |P & S| - rank(Y), with Y the rows
    whose pivot is in S restricted to the columns outside S | P.  The
    scaled t_H is the integer sum of each scaled step times that
    dimension, with one ``rank`` call per step, on Y (which may be empty)."""
    inside = set(coords)
    comp = [i for i in range(filtration.rank) if i not in inside]
    total = 0
    for step, pivots, form in tails:
        cols = [c for c in comp if c not in pivots]
        y = [[row[c] for c in cols] for pivot, row in form if pivot in inside]
        total += step * (len(y) - mat_rank(y))
    return total


def _subobject_coords(module: PhiModule, den: int):
    """The stable subobjects as coordinate index tuples, paired with
    ``den`` times their Newton numbers, as integers (``den`` must clear
    every slope's denominator).  The full module comes last.  An
    unsupported regime or a rank past ``SUBOBJECT_ENUM_CAP`` raises
    ``UnsupportedRegimeError`` here, at the call; the subsets themselves
    are enumerated lazily."""
    scaled = [int(b.slope * b.mult * den) for b in module.blocks]
    if module.steinberg is not None:
        p = module.steinberg.piece_dim
        return [(tuple(range((nchain + 1) * p)), sum(scaled[: nchain + 1]))
                for nchain in range(module.steinberg.length)]
    if not module.has_distinct_unit_blocks():
        raise UnsupportedRegimeError(
            "repeated or multi-dimensional eigenvalue labels without declared "
            "chain structure: stable subobjects are not enumerable"
        )
    n = module.rank
    if n > SUBOBJECT_ENUM_CAP:
        raise UnsupportedRegimeError(f"subobject enumeration capped at rank {SUBOBJECT_ENUM_CAP}")
    return ((coords, sum(map(scaled.__getitem__, coords)))
            for size in range(1, n + 1) for coords in itertools.combinations(range(n), size))


def weak_admissible(module: PhiModule, filtration: Filtration) -> bool:
    """Brute-force weak admissibility oracle.

    Checks t_H = t_N on the whole module and t_H <= t_N on every stable
    subobject, with the induced filtration computed by exact intersection
    of the explicit flags with the subobject coordinate subspace.  The
    supported regimes are (a) multiplicity-one blocks with pairwise
    distinct slopes (subobjects are the coordinate subsets) and (b) chain
    modules (subobjects are the partial chains).

    Both sides are compared as integers: once per call, ``den`` is the lcm
    of the denominators of every jump and every slope, and each
    subobject's t_H and t_N are computed times ``den``.  The embeddings
    with equal flags count as one filtration with their summed jumps, and
    each flag tail where that filtration steps down is brought to reduced
    echelon form once per call (``_tail_forms``), so a subset makes one
    ``rank`` call per (flag set, nonzero step), on the small block of that
    form the subset leaves over.
    """
    if filtration.rank != module.rank:
        raise ValueError("filtration rank does not match the module")
    if filtration.embeddings != module.field.degree:
        raise ValueError(f"expected {module.field.degree} embeddings")
    den = math.lcm(*[j.denominator for sigma in filtration.jumps for j in sigma],
                   *[b.slope.denominator for b in module.blocks])
    full = tuple(range(module.rank))
    subobjects = _subobject_coords(module, den)  # raises for an unsupported module first
    tails = _tail_forms(filtration, den)
    for coords, tn in subobjects:
        th = _induced_t_H_on_subspace(filtration, tails, coords)
        if coords == full:
            if th != tn:
                return False
        elif th > tn:
            return False
    return True


def _generic_flags(module: PhiModule) -> tuple:
    """Every embedding's flag vectors f_j = e_{tau(n+1-j)} + sum_m x_j^(j-m)
    e_{tau(n+1-j+m)} (1-based), tau the stable sort of the zeta-valuations
    and x_j = j: the generalized Vandermonde minors are all nonzero, so the
    flags are in generic position deterministically."""
    n = module.rank
    vals = [-b.slope for b in module.blocks]
    tau = sorted(range(n), key=lambda i: (vals[i], i))
    flag = []
    for j in range(1, n + 1):
        coeffs = [0] * n
        coeffs[tau[n - j]] = 1
        for m in range(1, j):
            coeffs[tau[n - j + m]] = j ** (j - m)
        flag.append(tuple(coeffs))
    return (tuple(flag),) * module.field.degree


def build_admissible_filtration(module: PhiModule, jumps: Sequence[Sequence]) -> Filtration:
    """Construct an explicit admissible filtration for the given jump type on
    the ``_generic_flags``, once the distinct-slope regime and the
    partial-sum inequalities are checked (the checker decides both itself)."""
    if module.steinberg is not None or not module.has_distinct_unit_blocks():
        raise UnsupportedRegimeError(
            "explicit construction needs multiplicity-one blocks with distinct slopes"
        )
    if not admissible_by_inequalities(module, jumps):
        raise ValueError("the partial-sum inequalities fail: no admissible filtration exists")
    return Filtration(jumps, _generic_flags(module))


def steinberg_filtration(module: PhiModule, jumps: Sequence[Sequence]) -> Filtration:
    """The chain filtration along the twist blocks of a chain module.

    At the jump with index j*piece_dim (0-based) the filtration steps
    down to the span of the twists >= j; within a twist block the flag
    descends one coordinate at a time.
    """
    if module.steinberg is None:
        raise ValueError("steinberg_filtration needs a chain module")
    js, scale = _jump_lists(jumps, module.rank, module.field.degree)
    for sigma in js:
        if any(a >= b for a, b in zip(sigma, sigma[1:])):
            raise ValueError("chain filtration jumps must be strictly increasing")
    n = module.rank
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    filt = object.__new__(Filtration)
    filt._set(js, scale, (identity,) * len(js))  # the jump type read once, above
    return filt


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
    js, jump_scale = _jump_lists(jumps, sum(d for _, d in data))
    hodge_sums = list(itertools.accumulate(map(sum, zip(*js)), initial=0))
    newton_scale = math.lcm(*[tn.denominator for tn, _ in data])
    ordered = sorted(((tn.numerator * (newton_scale // tn.denominator), d) for tn, d in data),
                     key=lambda td: (td[0], -td[1]))
    newton_pts = []
    hodge_pts = []
    x = newton_sum = 0
    for tn, d in ordered:
        x += d
        newton_sum += tn
        newton_pts.append((Fraction(x), Fraction(newton_sum, newton_scale)))
        hodge_pts.append((Fraction(x), Fraction(hodge_sums[x], jump_scale)))
    return Polygon.from_path(newton_pts), Polygon.from_path(hodge_pts)
