"""Split root data, Weyl groups, the dominance order, and Weyl-orbit
valuation domains.

Vectors live in the rational span V of the character lattice X*(T) of a
maximal split torus; cocharacters live in the dual lattice.  Both are
plain tuples, paired by the standard dot product: integer vectors (roots,
coroots, cocharacters, highest weights, 2*eta) pair to an ``int``, and a
vector with a Fraction entry (eta, orbit points) pairs to a ``Fraction``.
Integer inputs are checked, never truncated: a non-integral root,
cocharacter or highest weight raises ``ValueError``.  A Weyl group
element is stored as its integer matrix on cocharacters; on weights it
acts by the inverse transpose, and weight orbits come from the simple
reflections directly (``weyl_orbit``).  Positive roots, orbits and Weyl
elements come from one closure (``_closure``), dominant representatives
from one walk (``_chamber_walk``); they end because W is finite, which a
``RootDatum`` is by construction: its constructor reads finiteness off the
Cartan matrix in a leaf elimination, root data's one linear algebra, which
also solves for 2*eta and the dominance forms (``_cartan_solve``).  Every
simple reflection is one step, ``_reflect``: x - c * v on v's nonzero
entries, kept with the datum (``RootDatum.entries``).  On a weight,
c = <x, alpha_i^vee> and v = alpha_i; on a cocharacter (a column of a Weyl
element), c = <alpha_i, x> and v = alpha_i^vee.  The chamber walk writes
the same step out on one list.

The dominance side of membership runs on integers only.  ``in_Vxi`` scales
its point once, by twice the lcm of its denominators; twice eta_L and twice
the bound eta_L + xi_L are integer vectors cached per (datum, field, xi) in
``_domain_bound`` (which validates xi once per entry, and which the norm
``satake.norm_xi_val`` reads too), so a point only multiplies them by its
lcm.  The chamber walk and the dominance test (``_in_root_cone``, integer
dot products with forms solved once per datum from the Cartan matrix,
``_cone_forms``) then see integer vectors and build no ``Fraction``.
``dominance_leq`` scales z2 - z to integers and calls the same test.  Both
are invariant under positive scaling, so the verdicts are those of the
rational vectors.  The hull side (eta summed off the root closure) runs on
integers too: ``_hull_points`` caches the orbit points per (datum, field,
xi) as integer columns, s times the points for s the lcm of their
denominators, and ``in_hull`` multiplies them by the lcm of its point's
denominators, so its LP gets integer rows and builds no ``Fraction``.  An
outside point needs only one separating inequality: when the LP is
infeasible its Farkas certificate is such a cut, valid on the whole hull,
and ``in_hull`` keeps it (checked against every orbit point) in the hull's
cached value, at most as many cuts as the hull has points.  A point is first
tested against the kept cuts, one integer dot product each, and the LP runs
only when none separates it.

Conventions, fixed once for the whole library:

* GL_n uses the lower-triangular Borel, so its simple roots are
  e_{i+1} - e_i and dominant weights have nondecreasing coordinates.
  The half sum of positive roots is then (-d/2, -d/2+1, ..., d/2) for
  GL_{d+1}.
* The dominance order z <= z' holds iff z' - z is a non-negative
  rational combination of the simple roots (coefficients need not be
  integral).  For GL_n this is tail-partial-sum majorization with
  equal totals.
* Membership domains: with xi a dominant integral weight per embedding,
  xi_L the coordinate-wise sum over the e*f embeddings and
  eta_L = [L:Q_p]*eta, the unnormalized domain is
  {z : (z + eta_L)^dom <= eta_L + xi_L} and the normalized one is
  {z : z^dom <= eta_L + xi_L}.  The unnormalized domain equals the
  convex hull of the Weyl translates w(eta_L + xi_L) - eta_L, which
  ``in_hull`` decides independently by exact linear programming.
* The general-linear weight dictionary: a highest weight a_1 <= ... <=
  a_{d+1} of GL_{d+1} per embedding has the jump type
  i_j = -a_{d+2-j} - (d+1-j) (``jumps_from_weights``, inverted by
  ``weights_from_jumps``).  It lives here, with the weights, so that the
  query parsers and ``wadm convert-weights`` read it without the checker.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, Union

from .exact import FieldData, _Frozen, _integer_rows, farkas_certificate, rank as mat_rank

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]

# The most elements an enumeration of a finite Weyl group or of one of its
# orbits may hold before it raises ``OrbitCapError``.
ORBIT_CAP = 10**6


class InfiniteWeylGroupError(RuntimeError):
    """Raised where a ``RootDatum`` is built: its Cartan matrix is not of
    finite type (``_cartan_solve`` names the check that failed), so W is
    infinite."""


class OrbitCapError(RuntimeError):
    """An enumeration of a finite Weyl group (``weyl_elements``) or of an
    orbit (``weyl_orbit``, ``in_hull``) passed ``ORBIT_CAP``."""


def vec(values: Iterable) -> Vec:
    """The entries as a tuple of ``Fraction``s: a ``Fraction`` is kept as it
    is, anything else (``int``, ``bool``, ``"1/2"``, ``0.5``) is converted."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _int_tuple(values: Iterable) -> IntVec:
    """The entries as an int tuple; raises ValueError naming the first
    entry that is not an integer (where ``int`` alone would truncate it)."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(v for v, i in zip(values, ints) if v != i)
        raise ValueError(f"expected an integer entry, got {bad}")
    return ints


def dot(x: Sequence, y: Sequence) -> Union[int, Fraction]:
    """The standard pairing: an ``int`` for integer vectors (also for empty
    ones), a ``Fraction`` as soon as one entry is a Fraction."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch in pairing")
    return sum(a * b for a, b in zip(x, y))


def _closure(seeds: Iterable, images: Callable, bound: float = math.inf,
             error: Exception | None = None) -> tuple:
    """Breadth-first closure of ``seeds`` under ``images(x)``, in the order
    found; raises ``error`` once it holds more than ``bound`` elements."""
    order = list(seeds)
    seen = set(order)
    for x in order:
        if len(order) > bound:
            raise error
        for y in images(x):
            if y not in seen:
                seen.add(y)
                order.append(y)
    return tuple(order)


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


class WeylElement(_Frozen):
    """A Weyl group element as its integer matrix on cocharacters."""

    __slots__ = _fields = ("cochar",)

    def __init__(self, cochar: IntMatrix) -> None:
        object.__setattr__(self, "cochar", cochar)

    def on_cochar(self, lam: Sequence[int]) -> IntVec:
        if len(lam) != len(self.cochar):
            raise ValueError("dimension mismatch in pairing")
        return tuple(sum(map(operator.mul, row, lam)) for row in self.cochar)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(_matmul(self.cochar, other.cochar))


class RootDatum(_Frozen):
    """A split root datum: simple roots and coroots in a rank-r lattice pair.

    ``simple_roots[i]`` has integer coordinates in the character lattice,
    ``simple_coroots[i]`` in the cocharacter lattice; the Cartan pairing
    a_ij = <alpha_i, alpha_j^vee> must be 2 on the diagonal and a
    non-positive integer off it.  ``entries[i]`` holds the nonzero
    (index, value) entries of alpha_i^vee and of alpha_i, which every
    reflection (``_reflect``) and ``cartan`` read.  ``cartan[i]`` is Cartan
    row i, sparse: its (j, a_ij) entries with a_ij != 0, and the diagonal.
    ``cartan`` and ``entries`` are computed once, and neither compared nor
    printed.  The constructor ends with ``_two_eta``, whose leaf elimination
    proves W finite (an infinite W raises ``InfiniteWeylGroupError``) and A
    invertible, so the roots are independent; only a refused datum is ranked.
    """

    _fields = ("rank", "simple_roots", "simple_coroots", "name")
    __slots__ = _fields + ("cartan", "entries", "_hash")

    def __init__(self, rank: int, simple_roots: Sequence[Sequence[int]],
                 simple_coroots: Sequence[Sequence[int]], name: str = "") -> None:
        roots = tuple(_int_tuple(r) for r in simple_roots)
        coroots = tuple(_int_tuple(r) for r in simple_coroots)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "simple_roots", roots)
        object.__setattr__(self, "simple_coroots", coroots)
        object.__setattr__(self, "name", name)
        if len(roots) != len(coroots):
            raise ValueError("simple roots and coroots must come in equal numbers")
        for r in roots + coroots:
            if len(r) != rank:
                raise ValueError("root/coroot length must equal the rank")
        entries = tuple(tuple(tuple((j, v) for j, v in enumerate(vector) if v) for vector in pair)
                        for pair in zip(coroots, roots))
        cartan = tuple(tuple((j, c) for j, cov in enumerate(coroots)
                             if (c := sum(v * cov[k] for k, v in alpha)) or i == j)
                       for i, (_, alpha) in enumerate(entries))
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "entries", entries)
        for i, row in enumerate(cartan):
            for j, c in row:
                if i == j and c != 2:
                    raise ValueError(f"<alpha_{i}, alpha_{i}^vee> = {c}, expected 2")
                if i != j and c > 0:
                    raise ValueError(f"<alpha_{i}, alpha_{j}^vee> = {c} > 0 off the diagonal")
        # Hashed once, not on every cache lookup keyed by a datum.  The name
        # is left out: equal data still hash equal, and a hash of ints
        # alone does not depend on the process's string hash seed.
        object.__setattr__(self, "_hash", hash((rank, roots, coroots)))
        try:
            _two_eta(self)  # raises for an infinite W, so no other call has to
        except InfiniteWeylGroupError:
            if mat_rank(roots) < len(roots):
                raise ValueError("simple roots must be linearly independent") from None
            raise

    def __hash__(self) -> int:
        return self._hash

    # -- constructors -------------------------------------------------------

    @classmethod
    @lru_cache(maxsize=None)
    def gl(cls, n: int) -> "RootDatum":
        """GL_n with the lower-triangular Borel (dominant = nondecreasing)."""
        if n < 1:
            raise ValueError(f"gl(n) needs n >= 1, got {n}")
        roots = []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = -1, 1
            roots.append(tuple(v))
        return cls(n, roots, roots, f"gl({n})")

    @classmethod
    def sl(cls, n: int) -> "RootDatum":
        """SL_n (simply connected type A_{n-1} datum)."""
        if n < 2:
            raise ValueError("n must be >= 2")
        cartan = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n - 1)]
            for i in range(n - 1)
        ]
        return cls.from_cartan(cartan, name=f"sl({n})")

    @classmethod
    def sp4(cls) -> "RootDatum":
        """Sp_4 in the standard rank-2 coordinates (short root e1-e2, long 2e2)."""
        return cls(2, ((1, -1), (0, 2)), ((1, -1), (0, 1)), "sp(4)")

    @classmethod
    def from_cartan(cls, cartan: Sequence[Sequence[int]], kind: str = "simply_connected",
                    name: str = "") -> "RootDatum":
        """Generic datum from a Cartan matrix C[i][j] = <alpha_i, alpha_j^vee>.

        kind="simply_connected": the coweight lattice has the simple coroots
        as standard basis, so roots are the rows of C.  kind="adjoint": the
        character lattice has the simple roots as standard basis, so coroots
        are the columns of C.
        """
        n = len(cartan)
        rows = tuple(_int_tuple(r) for r in cartan)
        if any(len(r) != n for r in rows):
            raise ValueError("Cartan matrix must be square")
        ident = _identity(n)
        if kind == "simply_connected":
            return cls(n, rows, ident, name)
        if kind == "adjoint":
            cols = tuple(tuple(rows[i][j] for i in range(n)) for j in range(n))
            return cls(n, ident, cols, name)
        raise ValueError(f"unknown kind {kind!r}")

    # -- basic actions ------------------------------------------------------

    @property
    def nsimple(self) -> int:
        return len(self.simple_roots)

    def is_dominant(self, z: Sequence) -> bool:
        return all(dot(z, cov) >= 0 for cov in self.simple_coroots)


def _reflect(z: Sequence, c, move: Sequence[tuple[int, int]]) -> tuple:
    """z - c * v, with v given by its nonzero (index, value) entries
    ``move``: a simple reflection once its pairing c is read (integer
    vectors stay integer, Fraction vectors stay Fraction)."""
    z = list(z)
    for j, v in move:
        z[j] -= c * v
    return tuple(z)


def _reflections(datum: RootDatum, z: Sequence) -> Iterator[tuple]:
    """The images of a weight z under the simple reflections that move it:
    c = <z, alpha_i^vee> is read once on the coroot's entries, and s_i z is
    z - c * alpha_i on the root's.  A reflection with c = 0 fixes z, and the
    closure has already seen z itself, so that image is skipped."""
    for cov, alpha in datum.entries:
        c = 0
        for j, v in cov:
            c += z[j] * v
        if c:
            yield _reflect(z, c, alpha)


@lru_cache(maxsize=None)
def positive_roots(datum: RootDatum) -> tuple[IntVec, ...]:
    """The positive roots, sorted: the closure of the simple roots under
    ``_reflections``, never entering a negated simple root.  s_i sends
    alpha_i to -alpha_i and permutes the other positive roots (Humphreys,
    Lemma 10.2B), so the closure holds exactly the positive roots, and it
    ends because W is finite.  Only the hull side's eta reads it."""
    negated = {tuple(-v for v in r) for r in datum.simple_roots}
    return tuple(sorted(_closure(
        datum.simple_roots, lambda b: (r for r in _reflections(datum, b) if r not in negated))))


@lru_cache(maxsize=None)
def all_roots(datum: RootDatum) -> tuple[IntVec, ...]:
    """The full (finite) root system: the positive roots and their
    negatives, integer vectors, sorted."""
    pos = positive_roots(datum)
    return tuple(sorted(pos + tuple(tuple(-v for v in r) for r in pos)))


def _row_step(a, x: tuple, b, y: tuple) -> tuple:
    """a * x + b * y for rationals a, b and (integer vector, denominator) rows,
    reduced last by the gcd of its entries and denominator."""
    fx, fy = a.numerator * b.denominator * y[1], b.numerator * a.denominator * x[1]
    v = [fx * p + fy * q for p, q in zip(x[0], y[0])]
    g = math.gcd(d := a.denominator * x[1] * b.denominator * y[1], *v)
    return [w // g for w in v], d // g


def _cartan_solve(datum: RootDatum, rhs: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """``(s, s * X)``: X solves A^T X = B, A the Cartan matrix, B the integer
    rows ``rhs`` (one per simple root), s > 0 the lcm of X's denominators.

    W is finite iff A has finite type (Kac, Infinite-dimensional Lie
    algebras, Ch. 4), which three checks decide, each raising
    ``InfiniteWeylGroupError`` with its own message: a_ij = 0 exactly when
    a_ji = 0; the Dynkin graph is a forest (pruning leaves removes every
    vertex); and the leaves, eliminated in pruning order from pivots 2 by
    p_u -= a_uv a_vu / p_v, all get a pivot > 0.  On a forest these pivots
    are d_v times those of the symmetrized matrix DA, so the last check
    tests that DA is positive definite.  The leaf order has no fill-in (Rose,
    J. Math. Anal. Appl. 32, 1970); B's rows take the same steps (``_row_step``)."""
    links = [dict(row) for row in datum.cartan]
    for i, row in enumerate(links):
        for j, a in row.items():
            if i not in links[j]:
                raise InfiniteWeylGroupError(
                    f"<alpha_{i}, alpha_{j}^vee> = {a} but <alpha_{j}, alpha_{i}^vee> = 0; "
                    "the Weyl group is infinite")
    degree = [len(row) - 1 for row in links]  # neighbours not yet pruned
    leaves = [v for v, d in enumerate(degree) if d <= 1]
    order = []  # (leaf, its neighbour left when it is pruned, or itself)
    while leaves:
        v = leaves.pop()
        degree[v] = -1
        u = next((u for u in links[v] if degree[u] >= 0), v)
        order.append((v, u))
        if u != v:
            degree[u] -= 1
            if degree[u] == 1:
                leaves.append(u)
    if len(order) < len(links):
        v = degree.index(max(degree))
        raise InfiniteWeylGroupError(
            f"the Dynkin graph has a cycle: alpha_{v} is left after pruning its leaves; "
            "the Weyl group is infinite")
    pivot, rows = [Fraction(2)] * len(links), [(list(b), 1) for b in rhs]
    for v, u in order:
        if pivot[v] <= 0:
            raise InfiniteWeylGroupError(
                f"the Cartan matrix is not of finite type: pivot {pivot[v]} at alpha_{v}; "
                "the Weyl group is infinite")
        if u != v:
            f = links[v][u] / pivot[v]
            pivot[u] -= links[u][v] * f
            rows[u] = _row_step(1, rows[u], -f, rows[v])
    for v, u in reversed(order):  # rows[u] holds u's solution by now; a root has no u term
        rows[v] = _row_step(1 / pivot[v], rows[v], -links[u][v] * (u != v) / pivot[v], rows[u])
    s = math.lcm(*[d for _, d in rows])
    return s, tuple(tuple(w * (s // d) for w in x) for x, d in rows)


@lru_cache(maxsize=None)
def _two_eta(datum: RootDatum) -> IntVec:
    """2*eta = sum_j c_j alpha_j as integers, c solving A^T c = 2 * 1 (for
    gl(n), c_j = j(n - j), j from 1); the constructor calls it, as the solve
    proves W finite.  A non-integral c_j raises ``ArithmeticError``."""
    s, c = _cartan_solve(datum, [(2,)] * datum.nsimple)
    two_eta = [0] * datum.rank
    for j, ((x,), (_, alpha)) in enumerate(zip(c, datum.entries)):
        if x % s:
            raise ArithmeticError(
                f"2*eta has the non-integral coefficient {Fraction(x, s)} on alpha_{j}")
        for k, v in alpha:
            two_eta[k] += x // s * v
    return tuple(two_eta)


@lru_cache(maxsize=None)
def half_sum_positive_roots(datum: RootDatum) -> Vec:
    """Half the sum of the positive roots (eta), ``_two_eta`` halved;
    (-d/2,...,d/2) for GL_{d+1}."""
    return tuple(Fraction(v, 2) for v in _two_eta(datum))


def _closure_eta_L(datum: RootDatum, field: FieldData) -> Vec:
    """eta_L summed off the ``positive_roots`` closure: the hull side's own,
    which shares no code with the Cartan solve behind ``_two_eta``."""
    return tuple(Fraction(field.degree * sum(col), 2)
                 for col in zip(*positive_roots(datum), (0,) * datum.rank))


@lru_cache(maxsize=None)
def weyl_elements(datum: RootDatum) -> tuple[WeylElement, ...]:
    """All Weyl group elements, by closure of the simple reflections acting
    on the left.  While the closure runs, an element w is held by its
    columns, cocharacters: s_i w sends each column x to
    x - <alpha_i, x> alpha_i^vee.  Raises ``OrbitCapError`` when W has more
    than ``ORBIT_CAP`` elements."""
    error = OrbitCapError(f"Weyl group order exceeded cap {ORBIT_CAP}")
    closure = _closure([_identity(datum.rank)], lambda cols: (  # s_i w for each i
        tuple(_reflect(x, sum(x[j] * v for j, v in alpha), cov) for x in cols)
        for cov, alpha in datum.entries), ORBIT_CAP, error)
    return tuple(WeylElement(tuple(zip(*cols))) for cols in closure)


def weyl_orbit(datum: RootDatum, z: Sequence) -> frozenset:
    """The W-orbit of z (weight side), as a frozenset of vectors.  Raises
    ``OrbitCapError`` when the orbit has more than ``ORBIT_CAP`` points."""
    start = vec(z)
    if len(start) != datum.rank:
        raise ValueError("vector length must equal the rank")
    error = OrbitCapError(f"orbit size exceeded cap {ORBIT_CAP}")
    return frozenset(_closure([start], lambda z: _reflections(datum, z), ORBIT_CAP, error))


@lru_cache(maxsize=None)
def _dual(datum: RootDatum) -> RootDatum:
    """Roots and coroots swapped; its Cartan matrix is the transpose."""
    return RootDatum(datum.rank, datum.simple_coroots, datum.simple_roots, datum.name)


def _chamber_walk(datum: RootDatum, x: Sequence) -> tuple:
    """The dominant point of the W-orbit of x.  The labels
    c_i = <x, alpha_i^vee> are read once, and every index with a negative
    label goes on a stack.  A popped index whose label is no longer
    negative is skipped; reflecting at one whose label c_i is negative
    adds c_i to its coefficient and subtracts c_i times Cartan row i from
    the labels on that row's nonzero entries only, pushing each label it
    leaves negative.  Reflecting at negative labels in any order reaches
    the orbit's unique dominant point (Humphreys, Section 10.3), in
    |Phi+| steps at most, as s_i permutes the other positive roots
    (Lemma 10.2B); x is rebuilt once at the end.  The labels and the
    rebuild read only the datum's ``entries``, so x must have the datum's
    rank (the callers check)."""
    labels, stack = [], []
    for cov, _ in datum.entries:  # a plain loop: no comprehension frame per coroot
        c = 0
        for j, v in cov:
            c += x[j] * v
        if c < 0:
            stack.append(len(labels))
        labels.append(c)
    coeffs = [0] * datum.nsimple
    cartan = datum.cartan
    while stack:
        i = stack.pop()
        c = labels[i]
        if c < 0:
            coeffs[i] += c
            for k, a in cartan[i]:
                b = labels[k] - c * a
                labels[k] = b
                if b < 0:
                    stack.append(k)
    x = list(x)  # _reflect's step, written out on one list for every k
    for k, (_, alpha) in zip(coeffs, datum.entries):
        if k:
            for j, v in alpha:
                x[j] -= k * v
    return tuple(x)


def dominant_rep(datum: RootDatum, z: Sequence) -> Vec:
    """The dominant point of the W-orbit of z (for GL_n, the nondecreasing
    rearrangement)."""
    if len(z) != datum.rank:
        raise ValueError("dimension mismatch in pairing")
    return _chamber_walk(datum, vec(z))


def antidominant_rep_cochar(datum: RootDatum, lam: Sequence[int]) -> IntVec:
    """The antidominant representative of a cocharacter: <alpha, lam> <= 0
    for every simple root alpha, so -lam is dominant for the dual datum."""
    if len(lam) != datum.rank:
        raise ValueError("dimension mismatch in pairing")
    return tuple(-v for v in _chamber_walk(_dual(datum), [-v for v in _int_tuple(lam)]))


@lru_cache(maxsize=None)
def _cone_forms(datum: RootDatum) -> tuple[IntMatrix, IntMatrix]:
    """``(forms, annihilators)``, integer rows.  The forms are the rows u_i of
    s * A^-T C, C the simple coroots as rows (``_cartan_solve``): as C alpha_j
    is column j of A, u_i . diff = s * c_i for diff = sum_i c_i alpha_i.  The
    q_k = s * e_k - sum_i alpha_i[k] u_i read 0 on every root and span every
    form that does; the annihilators are the first rank - nsimple of them
    independent of those before (nonzero off their support, or by ``exact.rank``)."""
    s, forms = _cartan_solve(datum, datum.simple_coroots)
    annihilators, used, k = [], set(), 0
    while len(annihilators) < datum.rank - datum.nsimple:
        col = [(u, alpha[k]) for u, alpha in zip(forms, datum.simple_roots) if alpha[k]]
        q = [s * (j == k) - sum(c * u[j] for u, c in col) for j in range(datum.rank)]
        support = {j for j, x in enumerate(q) if x}
        if not support <= used or mat_rank(annihilators + [q]) > len(annihilators):
            annihilators.append(tuple(q))
            used |= support
        k += 1
    return forms, tuple(annihilators)


def _in_root_cone(datum: RootDatum, diff: IntVec) -> bool:
    """Whether the integer vector diff is a non-negative rational
    combination of the simple roots: it lies in their span when every
    annihilator of ``_cone_forms`` reads 0, and then its coefficients have
    the signs the forms read, by integer dot products only."""
    forms, annihilators = _cone_forms(datum)
    return (all(sum(map(operator.mul, u, diff)) == 0 for u in annihilators)
            and all(sum(map(operator.mul, u, diff)) >= 0 for u in forms))


def dominance_leq(datum: RootDatum, z: Sequence, z2: Sequence) -> bool:
    """Dominance order: z <= z2 iff z2 - z is a non-negative rational
    combination of the simple roots.  Entries are rationals (``int`` or
    ``Fraction``); z2 - z is scaled to integers first."""
    if len(z) != datum.rank or len(z2) != datum.rank:
        raise ValueError("vector length must equal the rank")
    return _in_root_cone(datum, _integer_rows([[y - x for x, y in zip(z, z2)]])[0])


# ---------------------------------------------------------------------------
# Highest weights and membership domains
# ---------------------------------------------------------------------------


class HighestWeight(_Frozen):
    """A dominant integral weight for each of the e*f embeddings.

    For GL_{d+1} each entry is (a_1, ..., a_{d+1}) with a_j <= a_{j+1}
    (the lower-triangular Borel convention).
    """

    _fields = ("per_embedding",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, per_embedding: Iterable[Iterable[int]]) -> None:
        per_embedding = tuple(_int_tuple(w) for w in per_embedding)
        object.__setattr__(self, "per_embedding", per_embedding)
        object.__setattr__(self, "_hash", hash(per_embedding))  # once, as RootDatum's

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, weights: Iterable[Iterable[int]]) -> "HighestWeight":
        return cls(tuple(weights))

    @classmethod
    def zero(cls, datum: RootDatum, field: FieldData) -> "HighestWeight":
        return cls(tuple((0,) * datum.rank for _ in range(field.degree)))

    @property
    def embeddings(self) -> int:
        return len(self.per_embedding)

    def xi_L(self) -> Vec:
        """Coordinate-wise sum over the embeddings (the valuation of xi)."""
        n = len(self.per_embedding[0])
        return tuple(Fraction(sum(w[i] for w in self.per_embedding)) for i in range(n))


def jumps_from_weights(a_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Jump type of a highest weight: i_j = -a_{d+2-j} - (d+1-j), per
    embedding (1-based j); the inverse of weights_from_jumps.  An entry
    that is not an integer raises ValueError, as in weights_from_jumps."""
    out = []
    for row in a_rows:
        a = list(_int_tuple(row))
        if any(x > y for x, y in zip(a, a[1:])):
            raise ValueError(f"weights must be nondecreasing, got {a}")
        d = len(a) - 1
        out.append([-a[d - j] - (d - j) for j in range(d + 1)])
    return out


def weights_from_jumps(i_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Highest weight of a jump type: a_j = -i_{d+2-j} - (j-1), per
    embedding (1-based j)."""
    out = []
    for row in i_rows:
        i = list(_int_tuple(row))
        if any(x >= y for x, y in zip(i, i[1:])):
            raise ValueError(f"jumps must be strictly increasing, got {i}")
        d = len(i) - 1
        out.append([-i[d - j] - j for j in range(d + 1)])
    return out


# Bound for the per-(datum, field, xi) caches below: a sweep over many
# highest weights keeps only the most recent ones.
_XI_CACHE_SIZE = 256


def validate_highest_weight(datum: RootDatum, field: FieldData, xi: HighestWeight) -> None:
    """Raise ValueError unless xi has [L:Q_p] dominant weights of the
    datum's rank; it runs once per ``_domain_bound`` or ``_hull_points`` entry."""
    if xi.embeddings != field.degree:
        raise ValueError(f"expected {field.degree} embeddings, got {xi.embeddings}")
    for w in xi.per_embedding:
        if len(w) != datum.rank:
            raise ValueError("weight length must equal the rank")
        if not datum.is_dominant(w):
            raise ValueError(f"weight {w} is not dominant for {datum.name or 'datum'}")


@lru_cache(maxsize=_XI_CACHE_SIZE)
def _domain_bound(datum: RootDatum, field: FieldData, xi: HighestWeight) -> tuple[IntVec, IntVec]:
    """Twice eta_L and twice the domain bound eta_L + xi_L, as integers:
    [L:Q_p]*2*eta and that plus 2*xi_L.  Validates xi first."""
    validate_highest_weight(datum, field, xi)
    el = tuple(field.degree * v for v in _two_eta(datum))
    return el, tuple(2 * sum(col) + e for col, e in zip(zip(*xi.per_embedding), el))


def eta_L(datum: RootDatum, field: FieldData) -> Vec:
    """[L:Q_p] times the half sum of positive roots."""
    return tuple(field.degree * v for v in half_sum_positive_roots(datum))


def in_Vxi(datum: RootDatum, field: FieldData, xi: HighestWeight, z: Sequence,
           normalized: bool = False) -> bool:
    """Membership of z in the valuation image of the spectral domain.

    Unnormalized: (z + eta_L)^dom <= eta_L + xi_L.
    Normalized:    z^dom          <= eta_L + xi_L.

    This is spectral membership: for z the val_L-normalized valuation
    vector of a point of the dual torus (its image under the valuation
    map), it is the exact criterion for the character attached to the
    point to extend to the completed Hecke algebra.

    z has rational entries; a ``Fraction`` is read as it is and any other
    entry through ``vec``, as ``in_hull`` reads them.  One pass over z takes
    its numerators and the lcm of its denominators.  Everything is scaled by
    s = 2 * lcm: s*z is an integer vector, and s*eta_L and s*(eta_L + xi_L)
    are lcm times the cached ``_domain_bound``, so the root-cone test gets
    lcm * (2*bound) - (s*z)^dom directly.
    """
    two_el, two_bound = _domain_bound(datum, field, xi)
    if len(z) != datum.rank:
        raise ValueError("vector length must equal the rank")
    lcm = 1
    parts = []
    for v in z:
        if type(v) is not Fraction:
            v = vec((v,))[0]
        d = v.denominator
        if lcm % d:
            lcm = lcm // math.gcd(lcm, d) * d
        parts.append((v.numerator, d))
    scale = 2 * lcm
    if normalized:
        probe = [a * (scale // d) for a, d in parts]
    else:
        probe = [a * (scale // d) + lcm * e for (a, d), e in zip(parts, two_el)]
    rep = _chamber_walk(datum, probe)
    return _in_root_cone(datum, [lcm * b - r for b, r in zip(two_bound, rep)])


# Held for the check and the append of a kept cut, so that callers on
# several threads cannot push a hull's list past its number of points.
_CUTS_LOCK = threading.Lock()


@lru_cache(maxsize=_XI_CACHE_SIZE)
def _hull_points(datum: RootDatum, field: FieldData,
                 xi: HighestWeight) -> tuple[int, IntMatrix, list[tuple[list[int], int]]]:
    """The hull's orbit points w(eta_L + xi_L) - eta_L as integer columns,
    and the hull's cuts: ``(s, rows, cuts)`` with s the lcm of the points'
    denominators, ``rows[i]`` s times the i-th coordinate of every point,
    the points in sorted order, and ``cuts`` an empty list that ``in_hull``
    fills with the separating inequalities it has proved.  Validates xi
    first; raises ``OrbitCapError`` when the orbit has more than
    ``ORBIT_CAP`` points."""
    validate_highest_weight(datum, field, xi)
    el = _closure_eta_L(datum, field)
    top = tuple(a + b for a, b in zip(el, xi.xi_L()))
    pts = sorted(tuple(a - b for a, b in zip(pt, el)) for pt in weyl_orbit(datum, top))
    s = math.lcm(*[v.denominator for pt in pts for v in pt])
    return s, tuple(tuple(pt[i].numerator * (s // pt[i].denominator) for pt in pts)
                    for i in range(datum.rank)), []


def in_hull(datum: RootDatum, field: FieldData, xi: HighestWeight, z: Sequence) -> bool:
    """Membership of z in the convex hull of {w(eta_L + xi_L) - eta_L : w in W},
    decided by exact rational linear programming.  z is read by ``vec``;
    raises ``OrbitCapError`` when the orbit has more than ``ORBIT_CAP``
    points.

    The LP is sum_j x_j P_j = z, sum_j x_j = 1, x >= 0 over the orbit
    points P_j.  Its coordinate rows are scaled by s * lcm(denominators of
    z): lcm times ``_hull_points``' cached integer columns s * P_j, and
    s * lcm * z on the right.  Every row is then an integer row, the only
    kind ``farkas_certificate`` takes.

    When the LP is infeasible, its certificate (y, c) (y on the coordinate
    rows, c on the ones row) gives the cut a = lcm * y: a . (s * P) + c <= 0
    on every orbit point, hence on the whole hull, and > 0 at z.  The cut
    is checked exactly against every orbit point (a failure raises
    ``ArithmeticError``) and kept with the hull's cached points, at most as
    many cuts as the hull has points, since scanning that many costs about
    one pivot.  A later point z' is outside when a cut reads
    a . (s * lcm' * z') + c * lcm' > 0, one integer dot product; only a
    point that no kept cut separates builds the LP.
    """
    s, cols, cuts = _hull_points(datum, field, xi)
    if len(z) != datum.rank:
        raise ValueError("vector length must equal the rank")
    z = vec(z)
    lcm = math.lcm(*[v.denominator for v in z])
    scale = s * lcm
    point = [v.numerator * (scale // v.denominator) for v in z]
    for a, c in cuts:
        if sum(map(operator.mul, a, point)) + c * lcm > 0:
            return False
    rows = [[lcm * x for x in col] for col in cols]
    rows.append([1] * len(cols[0]) if cols else [1])
    y = farkas_certificate(rows, point + [1])
    if y is None:
        return True
    a, c = [lcm * v for v in y[:-1]], y[-1]
    if any(sum(map(operator.mul, a, pt)) + c > 0 for pt in zip(*cols)):
        raise ArithmeticError(f"the LP's certificate {y} does not hold on the orbit points")
    with _CUTS_LOCK:
        if len(cuts) < len(cols[0]):
            cuts.append((a, c))
    return False
