"""Root data: orbits, dominance order, eta, and membership domains."""

import itertools
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wadm.rootdata
from wadm.exact import FieldData, QSqrtQ, farkas_certificate
from wadm.rootdata import (
    HighestWeight,
    InfiniteWeylGroupError,
    OrbitCapError,
    RootDatum,
    WeylElement,
    _in_root_cone,
    all_roots,
    antidominant_rep_cochar,
    dominance_leq,
    dominant_rep,
    dot,
    eta_L,
    half_sum_positive_roots,
    in_hull,
    in_Vxi,
    positive_roots,
    vec,
    weyl_elements,
    weyl_orbit,
)
from wadm.satake import GroupRingElem, cocycle_gamma_val, delta_half_val, norm_xi_val

QP = FieldData(p=3, e=1, f=1)


def frac_vec(*vals):
    return vec(vals)


def _fraction_solve(rows, rhs):
    """One solution of A x = b (free variables at 0), or None, by
    Gauss-Jordan elimination over Fraction: independent of the library's
    integer elimination."""
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(rows[0]) if rows else 0
    pivots = []
    for col in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [v / a[r][col] for v in a[r]]
        for i in range(len(a)):
            f = a[i][col]
            if i != r and f != 0:
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(col)
    if any(row[-1] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][-1]
    return x


@pytest.fixture
def orbit_cap(monkeypatch):
    """``orbit_cap(n)`` sets ``ORBIT_CAP`` to n for the test and clears the
    caches that enumerate under it, so no result found under another cap
    is reused."""
    caches = (wadm.rootdata.weyl_elements, wadm.rootdata._hull_points)

    def set_cap(cap):
        monkeypatch.setattr(wadm.rootdata, "ORBIT_CAP", cap)
        for cache in caches:
            cache.cache_clear()

    yield set_cap
    for cache in caches:
        cache.cache_clear()


# --- eta -------------------------------------------------------------------


def test_eta_gl2():
    assert half_sum_positive_roots(RootDatum.gl(2)) == frac_vec(Fraction(-1, 2), Fraction(1, 2))


def test_eta_gl3():
    assert half_sum_positive_roots(RootDatum.gl(3)) == frac_vec(-1, 0, 1)


def test_eta_gl1_no_roots():
    assert half_sum_positive_roots(RootDatum.gl(1)) == frac_vec(0)


def test_eta_gln_formula():
    for n in (*range(2, 7), 50):
        eta = half_sum_positive_roots(RootDatum.gl(n))
        d = n - 1
        assert eta == tuple(Fraction(-d, 2) + k for k in range(n))


def test_eta_integrality_flag():
    def eta_integral(datum):
        return all(v.denominator == 1 for v in half_sum_positive_roots(datum))

    assert not eta_integral(RootDatum.gl(2))
    assert eta_integral(RootDatum.gl(3))
    assert eta_integral(RootDatum.sp4())
    # adjoint A_1 (PGL_2-type): eta = alpha/2 is not a character
    pgl2 = RootDatum.from_cartan([[2]], kind="adjoint", name="pgl(2)")
    assert not eta_integral(pgl2)


# a hyperbolic Cartan matrix: its reflection closure never terminates
HYPERBOLIC = [[2, -3], [-3, 2]]


def _stand_in(cartan, kind):
    """A plain record with the simple roots and coroots that
    ``RootDatum.from_cartan(cartan, kind)`` would take, built without the
    constructor, for the reference closures on a matrix it refuses."""
    n = len(cartan)
    rows = tuple(map(tuple, cartan))
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    roots, coroots = (rows, ident) if kind == "simply_connected" else (ident, tuple(zip(*rows)))
    return SimpleNamespace(rank=n, nsimple=n, simple_roots=roots, simple_coroots=coroots)


def test_infinite_weyl_group_rejected():
    # the hyperbolic datum is refused where it is built, for both kinds
    for kind in ("simply_connected", "adjoint"):
        with pytest.raises(InfiniteWeylGroupError):
            RootDatum.from_cartan(HYPERBOLIC, kind=kind, name="hyperbolic")
    # the affine matrix [[2,-2],[-2,2]] is rejected at construction time
    # (dependent simple roots)
    with pytest.raises(ValueError):
        RootDatum.from_cartan([[2, -2], [-2, 2]], name="affine-a1")


def _e8_cartan():
    c = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]:
        c[i][j] = c[j][i] = -1
    return c


# (Cartan matrix, number of positive roots)
CARTANS = {
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 9),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], 9),
    "G2": ([[2, -1], [-3, 2]], 6),
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 24),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 12),
    "E8": (_e8_cartan(), 120),
}


@pytest.mark.parametrize("kind", ["simply_connected", "adjoint"])
@pytest.mark.parametrize("name", sorted(CARTANS))
def test_positive_roots_of_finite_types(name, kind):
    cartan, npos = CARTANS[name]
    datum = RootDatum.from_cartan(cartan, kind=kind, name=name)
    assert len(all_roots(datum)) == 2 * npos
    assert len(positive_roots(datum)) == npos
    # eta pairs to 1 with every simple coroot, however the roots were found
    eta = half_sum_positive_roots(datum)
    assert all(dot(eta, cov) == 1 for cov in datum.simple_coroots)


# --- the reflection closures, against the loops they replaced ---------------


def _identity_element(n):
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return WeylElement(one)


def _reference_reflect(datum, i, z):
    """s_i on the weight side over Fraction, dense, independent of ``_reflect``."""
    c = sum(Fraction(a) * Fraction(b) for a, b in zip(z, datum.simple_coroots[i]))
    return tuple(Fraction(v) - c * r for v, r in zip(z, datum.simple_roots[i]))


def _reference_simple_reflection(datum, i):
    """s_i as its dense matrix on cocharacters: x - <alpha_i, x> alpha_i^vee."""
    alpha, cov = datum.simple_roots[i], datum.simple_coroots[i]
    return WeylElement(tuple(
        tuple(int(a == b) - cov[a] * alpha[b] for b in range(datum.rank))
        for a in range(datum.rank)
    ))


def _reference_all_roots(datum):
    bound = datum.nsimple * max(2 * datum.nsimple, 30)
    seen = set()
    frontier = [vec(r) for r in datum.simple_roots]
    seen.update(frontier)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(datum.nsimple):
                img = _reference_reflect(datum, i, r)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > bound:
            raise InfiniteWeylGroupError(f"root closure passed {bound} roots")
        frontier = nxt
    return tuple(sorted(seen))


def _reference_positive_roots(datum):
    lam = _fraction_solve(datum.simple_roots, [1] * datum.nsimple)
    return tuple(
        r for r in _reference_all_roots(datum)
        if sum(Fraction(a) * b for a, b in zip(r, lam)) > 0
    )


def _reference_weyl_elements(datum, cap):
    _reference_all_roots(datum)  # raises for an infinite W
    ident = _identity_element(datum.rank)
    gens = [_reference_simple_reflection(datum, i) for i in range(datum.nsimple)]
    elements = {ident.cochar: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                prod = g * w
                if prod.cochar not in elements:
                    elements[prod.cochar] = prod
                    nxt.append(prod)
        if len(elements) > cap:
            raise OrbitCapError(f"Weyl group order exceeded cap {cap}")
        frontier = nxt
    return tuple(elements.values())


def _reference_weyl_orbit(datum, z, cap):
    start = vec(z)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(datum.nsimple):
                img = _reference_reflect(datum, i, v)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > cap:
            raise OrbitCapError(f"orbit size exceeded cap {cap}")
        frontier = nxt
    return frozenset(seen)


# Weyl group orders of the CARTANS types
WEYL_ORDERS = {"B3": 48, "C3": 48, "G2": 12, "F4": 1152, "D4": 192, "E8": 696729600}
# (datum, |W|)
CLOSURE_DATA = (
    [(RootDatum.from_cartan(cartan, kind=kind, name=f"{name}-{kind}"), WEYL_ORDERS[name])
     for name, (cartan, _) in sorted(CARTANS.items())
     for kind in ("simply_connected", "adjoint")]
    + [(RootDatum.gl(n), math.factorial(n)) for n in (*range(1, 9), 12, 20)]
    + [(RootDatum.sl(3), 6), (RootDatum.sp4(), 8)]
)
# Weyl groups up to |W(F4)| are enumerated in full; on the larger ones
# (gl(7), gl(8), gl(12), gl(20), E8) both closures must stop at a cap of 100,
# with ``OrbitCapError``: W is finite, only larger than the cap
SMALL_ORDER = 1152


def _reference_dominant_rep(datum, z):
    """The reflection loop ``dominant_rep`` replaced: reflect the whole
    vector at the first negative pairing, then rescan."""
    cur = vec(z)
    while True:
        for i in range(datum.nsimple):
            if sum(a * b for a, b in zip(cur, datum.simple_coroots[i])) < 0:
                cur = _reference_reflect(datum, i, cur)
                break
        else:
            return cur


def _reference_antidominant_rep_cochar(datum, lam):
    """The loop ``antidominant_rep_cochar`` replaced, on the cocharacter."""
    cur = tuple(int(v) for v in lam)
    while True:
        for i in range(datum.nsimple):
            c = sum(a * b for a, b in zip(datum.simple_roots[i], cur))
            if c > 0:
                cur = tuple(v - c * r for v, r in zip(cur, datum.simple_coroots[i]))
                break
        else:
            return cur


def _same_outcome(new, reference):
    """Both closures return equal values, or both raise the same error."""
    try:
        expected = reference()
    except (InfiniteWeylGroupError, OrbitCapError) as exc:
        with pytest.raises(type(exc)):
            new()
        return
    assert new() == expected


@pytest.mark.parametrize("datum, order", [pytest.param(d, o, id=d.name) for d, o in CLOSURE_DATA])
def test_closures_match_reference(datum, order, orbit_cap):
    assert all_roots(datum) == _reference_all_roots(datum)
    assert positive_roots(datum) == _reference_positive_roots(datum)
    cap = order if order <= SMALL_ORDER else 100
    orbit_cap(cap)
    # tuple equality: the same Weyl elements in the same order
    _same_outcome(lambda: weyl_elements(datum), lambda: _reference_weyl_elements(datum, cap))
    if order <= SMALL_ORDER:
        assert len(weyl_elements(datum)) == order
    rng = random.Random(datum.name)
    points = [tuple(rng.choice((Fraction(-1, 2), Fraction(2))) for _ in range(datum.rank))]
    if datum.nsimple:
        points.append(tuple(Fraction(3, 2) * v for v in datum.simple_roots[-1]))
    for z in points:
        _same_outcome(lambda: weyl_orbit(datum, z), lambda: _reference_weyl_orbit(datum, z, cap))


@pytest.mark.parametrize("datum", [d for d, _ in CLOSURE_DATA], ids=lambda d: d.name)
def test_chamber_walk_matches_reference(datum):
    rng = random.Random(datum.name)
    for _ in range(20):
        z = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(datum.rank))
        assert dominant_rep(datum, z) == _reference_dominant_rep(datum, z)
        lam = tuple(rng.randint(-9, 9) for _ in range(datum.rank))
        assert antidominant_rep_cochar(datum, lam) == _reference_antidominant_rep_cochar(datum, lam)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 200])
def test_chamber_walk_sorts_for_gl_n(n):
    # for gl(n) the dominant point is the nondecreasing rearrangement and the
    # antidominant cocharacter the nonincreasing one; at large n the walk
    # pops many labels that an earlier step already made positive again
    datum, rng = RootDatum.gl(n), random.Random(n)
    for _ in range(10):
        z = tuple(Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3))) for _ in range(n))
        assert dominant_rep(datum, z) == tuple(sorted(z))
        lam = tuple(rng.randint(-50, 50) for _ in range(n))
        assert antidominant_rep_cochar(datum, lam) == tuple(sorted(lam, reverse=True))


def test_chamber_walk_rejects_infinite_weyl_group():
    # the walks would grow entries without end on this datum; it is refused
    # before a walk can start
    with pytest.raises(InfiniteWeylGroupError):
        dominant_rep(RootDatum.from_cartan(HYPERBOLIC, name="hyperbolic"), (-1, -1))
    with pytest.raises(InfiniteWeylGroupError):
        antidominant_rep_cochar(RootDatum.from_cartan(HYPERBOLIC, name="hyperbolic"), (1, 1))


def test_closures_reject_infinite_weyl_group_at_once():
    # with the default cap the closures alone would run toward 10**6 elements
    for closure in (lambda: weyl_orbit(RootDatum.from_cartan(HYPERBOLIC), (1, 0)),
                    lambda: weyl_elements(RootDatum.from_cartan(HYPERBOLIC))):
        start = time.perf_counter()
        with pytest.raises(InfiniteWeylGroupError):
            closure()
        assert time.perf_counter() - start < 1.0


def test_infinite_weyl_group_raises_at_construction_within_a_second():
    # no datum with an infinite W exists, so the closures (which would run
    # toward 10**6 elements), the chamber walks and the norm (whose loops
    # would not end) never meet one: the constructor raises, at once, for
    # both kinds and for the direct constructor on the dual's roots and
    # coroots, and the message names the check of the Cartan matrix that failed
    not_positive = "^the Cartan matrix is not of finite type: pivot "
    for build, message in (
            (partial(RootDatum.from_cartan, HYPERBOLIC, kind="simply_connected"),
             not_positive + "-5/2 at alpha_0"),
            (partial(RootDatum.from_cartan, HYPERBOLIC, kind="adjoint"),
             not_positive + "-5/2 at alpha_0"),
            (partial(RootDatum, 2, ((1, 0), (0, 1)), HYPERBOLIC), not_positive + "-5/2 at alpha_0"),
            # affine A1, adjoint: independent roots, a pivot of exactly 0
            (partial(RootDatum.from_cartan, [[2, -2], [-2, 2]], kind="adjoint"),
             not_positive + "0 at alpha_0"),
            # affine A2, adjoint: a triangle, with no leaf to prune
            (partial(RootDatum.from_cartan, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
                     kind="adjoint"),
             "^the Dynkin graph has a cycle: alpha_0 is left after pruning its leaves"),
            (partial(RootDatum.from_cartan, [[2, -1], [0, 2]]),
             r"^<alpha_0, alpha_1\^vee> = -1 but <alpha_1, alpha_0\^vee> = 0")):
        start = time.perf_counter()
        with pytest.raises(InfiniteWeylGroupError, match=message + "; the Weyl group is infinite$"):
            build()
        assert time.perf_counter() - start < 1.0


def test_closure_errors_match_reference(orbit_cap):
    # an infinite W: the library refuses the datum where it is built, and the
    # reference closures raise on a stand-in with the same roots and coroots
    with pytest.raises(InfiniteWeylGroupError):
        RootDatum.from_cartan(HYPERBOLIC, name="hyperbolic")
    hyperbolic = _stand_in(HYPERBOLIC, "simply_connected")
    with pytest.raises(InfiniteWeylGroupError):
        _reference_all_roots(hyperbolic)
    with pytest.raises(InfiniteWeylGroupError):
        _reference_weyl_elements(hyperbolic, cap=500)
    # a finite W past the cap: |W(gl(8))| = 40320
    orbit_cap(100)
    for elements in (weyl_elements, partial(_reference_weyl_elements, cap=100)):
        with pytest.raises(OrbitCapError, match="^Weyl group order exceeded cap 100$"):
            elements(RootDatum.gl(8))
    # a regular sp(4) orbit has exactly 8 points
    for cap, fits in ((7, False), (8, True)):
        orbit_cap(cap)
        for orbit in (weyl_orbit, partial(_reference_weyl_orbit, cap=cap)):
            if fits:
                assert len(orbit(RootDatum.sp4(), (1, 3))) == 8
            else:
                with pytest.raises(OrbitCapError, match=f"^orbit size exceeded cap {cap}$"):
                    orbit(RootDatum.sp4(), (1, 3))


@pytest.mark.parametrize(
    "datum",
    [RootDatum.gl(n) for n in range(1, 9)] + [RootDatum.sl(n) for n in range(2, 7)]
    + [RootDatum.sp4()]
    + [RootDatum.from_cartan(cartan, kind=kind, name=f"{name}-{kind}")
       for name, (cartan, _) in sorted(CARTANS.items())
       for kind in ("simply_connected", "adjoint")],
    ids=lambda d: d.name,
)
def test_two_eta_pairs_to_two_with_every_simple_coroot(datum):
    # 2*eta is solved from A^T c = 2 * 1, so this identity checks the
    # elimination and its back-substitution; the sum of the reference
    # closure's positive roots is the independent check
    two_eta = wadm.rootdata._two_eta(datum)
    assert all(dot(two_eta, cov) == 2 for cov in datum.simple_coroots)
    reference = tuple(map(sum, zip(*_reference_positive_roots(datum)))) or (0,) * datum.rank
    assert two_eta == reference and all(type(v) is int for v in two_eta)


# infinite types the random draws below must meet: a cycle (affine A2,
# adjoint: the simply connected roots are dependent), one-sided zeros, and
# affine A1 and a hyperbolic matrix with a pivot of 0 and < 0
INFINITE_CARTANS = [
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
    [[2, -1], [0, 2]],
    [[2, 0, -1], [-1, 2, -1], [0, -1, 2]],
    [[2, -2], [-2, 2]],
    HYPERBOLIC,
]


def _random_cartan(rng, r):
    """An r x r Cartan matrix with off-diagonal entries in {0, -1, -2, -3}:
    each pair i < j is zero both ways, nonzero both ways, or (one time in
    ten) nonzero one way only, so that forests, cycles and one-sided zeros
    all come up, and finite types at every rank."""
    cartan = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        u = rng.random()
        if 0.45 <= u < 0.9:
            cartan[i][j], cartan[j][i] = (rng.choice((-1, -1, -1, -2, -3)) for _ in range(2))
        elif u >= 0.9:
            a, b = rng.choice(((i, j), (j, i)))
            cartan[a][b] = rng.choice((-1, -2, -3))
    return cartan


def test_root_closure_matches_reference_on_random_cartan_matrices():
    # 210 random Cartan matrices of rank 2 to 5 and INFINITE_CARTANS, of both
    # kinds: the constructor refuses exactly those whose reference closure
    # outgrows a finite root system, and every check of the Cartan matrix
    # refuses some; a matrix whose simple roots are dependent is rejected at
    # construction, and so is an infinite type, which the reference closure
    # meets on a stand-in
    rng = random.Random(2021)
    outcomes, checks = set(), set()
    draws = [_random_cartan(rng, r) for r in [2] * 40 + [3] * 50 + [4] * 60 + [5] * 60]
    for cartan in INFINITE_CARTANS + draws:
        r = len(cartan)
        for kind in ("simply_connected", "adjoint"):
            try:
                datum = RootDatum.from_cartan(cartan, kind=kind)
            except ValueError:
                continue
            except InfiniteWeylGroupError as exc:
                checks.add(str(exc).split()[1])  # alpha_i, Dynkin or Cartan
                datum = None
            try:
                expected = _reference_all_roots(_stand_in(cartan, kind))
            except InfiniteWeylGroupError:
                outcomes.add(("infinite", r))
                with pytest.raises(InfiniteWeylGroupError, match="; the Weyl group is infinite$"):
                    RootDatum.from_cartan(cartan, kind=kind)
                continue
            outcomes.add(("finite", r))
            assert datum is not None, cartan
            assert all_roots(datum) == expected, cartan
            assert positive_roots(datum) == _reference_positive_roots(datum), cartan
    assert outcomes == {(kind, r) for kind in ("finite", "infinite") for r in range(2, 6)}
    assert {"Dynkin", "Cartan"} < checks and any(c.startswith("alpha_") for c in checks)


@pytest.mark.parametrize(
    "datum",
    [d for d, _ in CLOSURE_DATA if d.name.split("-")[0] in CARTANS]
    + [RootDatum.from_cartan([], name="rank-0"), RootDatum.gl(1)],
    ids=lambda d: d.name,
)
def test_roots_pair_as_int_and_values_stay_fraction(datum):
    assert all(type(v) is int for r in all_roots(datum) for v in r)
    field = FieldData(p=3, e=1, f=2)
    assert all(type(v) is Fraction for v in half_sum_positive_roots(datum))
    assert all(type(v) is Fraction for v in eta_L(datum, field))
    lam = tuple(range(1, datum.rank + 1))
    w = _reference_simple_reflection(datum, 0) if datum.nsimple else _identity_element(datum.rank)
    assert type(delta_half_val(datum, lam)) is Fraction
    assert type(cocycle_gamma_val(datum, w, lam)) is Fraction
    x = GroupRingElem.monomial(lam, QSqrtQ.of(3, 1, field.q))
    assert type(norm_xi_val(datum, field, HighestWeight.zero(datum, field), x)) is Fraction
    assert all(type(v) is Fraction for v in dominant_rep(datum, lam[::-1]))
    assert all(type(v) is int for v in antidominant_rep_cochar(datum, lam))


# --- orbits ----------------------------------------------------------------


def test_orbit_gl2():
    assert weyl_orbit(RootDatum.gl(2), frac_vec(0, 1)) == {frac_vec(0, 1), frac_vec(1, 0)}


def test_orbit_fixed_point():
    assert weyl_orbit(RootDatum.gl(3), frac_vec(0, 0, 0)) == {frac_vec(0, 0, 0)}


def test_orbit_regular_gl3():
    orbit = weyl_orbit(RootDatum.gl(3), frac_vec(0, 1, 2))
    expected = {tuple(map(Fraction, p)) for p in itertools.permutations((0, 1, 2))}
    assert orbit == expected


def test_orbit_cap_enforced(orbit_cap):
    datum, field, xi = RootDatum.gl(3), FieldData(p=2, e=1, f=1), HighestWeight.of([(0, 1, 2)])
    # found and cached under the default cap, which the fixture's cache_clear drops
    _, columns, _ = wadm.rootdata._hull_points(datum, field, xi)
    assert len(weyl_elements(datum)) == 6 and len(columns[0]) == 6
    orbit_cap(2)
    with pytest.raises(OrbitCapError):
        weyl_orbit(datum, frac_vec(0, 1, 2))
    with pytest.raises(OrbitCapError):
        weyl_elements(datum)
    with pytest.raises(OrbitCapError):
        in_hull(datum, field, xi, frac_vec(0, 0, 3))


def test_orbit_matches_permutations_gln():
    rng = random.Random(5)
    for n in (2, 3, 4):
        datum = RootDatum.gl(n)
        z = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
        assert weyl_orbit(datum, z) == {
            tuple(z[i] for i in p) for p in itertools.permutations(range(n))
        }


def test_weyl_group_sizes():
    assert len(weyl_elements(RootDatum.gl(3))) == 6
    assert len(weyl_elements(RootDatum.sp4())) == 8
    assert len(weyl_elements(RootDatum.sl(3))) == 6
    assert len(weyl_elements(RootDatum.gl(1))) == 1


def test_weyl_elements_preserve_pairing():
    # <w z, w lam> = <z, lam> says W acts on weights by the inverse
    # transpose of its cocharacter matrices; over the whole group, the
    # transposes then sweep out the weight orbit that ``weyl_orbit`` finds
    # by its own reflection closure
    rng = random.Random(9)
    for datum in (RootDatum.gl(3), RootDatum.sp4(), RootDatum.sl(3),
                  RootDatum.from_cartan(CARTANS["G2"][0], kind="adjoint")):
        for _ in range(5):
            z = tuple(Fraction(rng.randint(-5, 5)) for _ in range(datum.rank))
            images = {
                tuple(sum(w.cochar[i][j] * z[i] for i in range(datum.rank))
                      for j in range(datum.rank))
                for w in weyl_elements(datum)
            }
            assert images == weyl_orbit(datum, z)


# --- dominant representatives ----------------------------------------------


def test_dominant_rep_is_sort_for_gln():
    datum = RootDatum.gl(2)
    assert dominant_rep(datum, frac_vec(3, -1)) == frac_vec(-1, 3)
    datum3 = RootDatum.gl(3)
    assert dominant_rep(datum3, frac_vec(1, 1, 0)) == frac_vec(0, 1, 1)


def test_dominant_rep_idempotent():
    rng = random.Random(3)
    for datum in (RootDatum.gl(3), RootDatum.sp4(), RootDatum.sl(4)):
        for _ in range(20):
            z = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(datum.rank))
            d = dominant_rep(datum, z)
            assert datum.is_dominant(d)
            assert dominant_rep(datum, d) == d


def test_dominant_rep_orbit_invariant():
    rng = random.Random(31)
    for datum in (RootDatum.gl(3), RootDatum.sp4()):
        for _ in range(25):
            z = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(datum.rank))
            ref = dominant_rep(datum, z)
            assert all(dominant_rep(datum, y) == ref for y in weyl_orbit(datum, z))


def test_antidominant_cochar():
    datum = RootDatum.gl(2)
    assert antidominant_rep_cochar(datum, (0, 1)) == (1, 0)
    assert antidominant_rep_cochar(datum, (1, 0)) == (1, 0)


# --- dominance order --------------------------------------------------------


def test_dominance_examples_gl2():
    datum = RootDatum.gl(2)
    assert dominance_leq(datum, frac_vec(Fraction(1, 2), Fraction(1, 2)), frac_vec(0, 1))
    assert not dominance_leq(datum, frac_vec(0, 1), frac_vec(Fraction(1, 2), Fraction(1, 2)))


def test_dominance_reflexive():
    rng = random.Random(41)
    for datum in (RootDatum.gl(3), RootDatum.sp4()):
        for _ in range(10):
            z = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(datum.rank))
            assert dominance_leq(datum, z, z)


def _gln_tail_majorize(z, z2):
    """Independent oracle: tail partial sums of z2 dominate, equal totals."""
    n = len(z)
    if sum(z) != sum(z2):
        return False
    return all(sum(z2[j:]) >= sum(z[j:]) for j in range(1, n))


def test_dominance_matches_tail_majorization_gln():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(2, 5)
        datum = RootDatum.gl(n)
        z = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
        z2 = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
        assert dominance_leq(datum, z, z2) == _gln_tail_majorize(z, z2)


def test_dominance_partial_order_random_triples():
    rng = random.Random(47)
    for datum in (RootDatum.gl(3), RootDatum.sp4()):
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(datum.rank)) for _ in range(12)]
        for x, y, z in itertools.product(pts, repeat=3):
            if dominance_leq(datum, x, y) and dominance_leq(datum, y, x):
                assert x == y
            if dominance_leq(datum, x, y) and dominance_leq(datum, y, z):
                assert dominance_leq(datum, x, z)


def _reference_dominance_leq(datum, z, z2):
    """The Fraction test ``dominance_leq`` replaced: solve for z2 - z in
    the simple roots over Fraction."""
    a, b = vec(z), vec(z2)
    if len(a) != datum.rank or len(b) != datum.rank:
        raise ValueError("vector length must equal the rank")
    diff = tuple(y - x for x, y in zip(a, b))
    cols = [[r[i] for r in datum.simple_roots] for i in range(datum.rank)]
    coeffs = _fraction_solve(cols, diff)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def test_dominance_leq_takes_mixed_int_and_fraction_arguments():
    rng = random.Random(61)
    for datum in (RootDatum.gl(3), RootDatum.sp4(), RootDatum.from_cartan(CARTANS["G2"][0])):
        for _ in range(60):
            z = [rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
                 for _ in range(datum.rank)]
            z2 = [rng.randint(-3, 3) for _ in range(datum.rank)]
            for a, b in ((z, z2), (z2, z), (tuple(z), z), (z2, z2)):
                got = dominance_leq(datum, a, b)
                assert type(got) is bool
                assert got == _reference_dominance_leq(datum, a, b)
        with pytest.raises(ValueError, match="vector length must equal the rank"):
            dominance_leq(datum, [0] * (datum.rank + 1), [0] * datum.rank)
    # equal points, and unequal totals on gl(n): z2 - z outside the root span
    assert dominance_leq(RootDatum.gl(2), (Fraction(1, 2), 1), (Fraction(1, 2), 1))
    assert not dominance_leq(RootDatum.gl(2), (0, 0), (0, Fraction(1, 3)))
    assert not dominance_leq(RootDatum.gl(2), (0, 0), (Fraction(-1, 3), 0))


CONE_DATA = [RootDatum.gl(n) for n in range(2, 6)] + [
    RootDatum.sp4(),
    RootDatum.sl(3),
    RootDatum.from_cartan(CARTANS["G2"][0], kind="adjoint", name="G2-adjoint"),
]


def _cone_by_solve(datum, diff):
    """The sign test on ``_fraction_solve``'s Fraction coefficients."""
    return _reference_dominance_leq(datum, [0] * datum.rank, diff)


def _combination(datum, coeffs):
    """sum c_i alpha_i, scaled to an integer vector by a positive factor."""
    scale = math.lcm(*[Fraction(c).denominator for c in coeffs])
    return [sum(c * scale * r[i] for c, r in zip(coeffs, datum.simple_roots))
            for i in range(datum.rank)]


def test_root_cone_boundary():
    # the cone's faces: some coefficients exactly 0, the rest of one sign
    for datum in CONE_DATA:
        k = datum.nsimple
        assert _in_root_cone(datum, [0] * datum.rank)
        for support in itertools.product((0, 1), repeat=k):
            face = _combination(datum, support)
            assert _in_root_cone(datum, face) and _cone_by_solve(datum, face)
            if any(support):
                neg = [-v for v in face]
                assert not _in_root_cone(datum, neg) and not _cone_by_solve(datum, neg)
        for i in range(k):  # just past a face: one coefficient -1/3
            coeffs = [Fraction(-1, 3) if j == i else 1 for j in range(k)]
            assert not _in_root_cone(datum, _combination(datum, coeffs))


coefficient = st.sampled_from([0, 0, 0, 1, 2, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)])


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(CONE_DATA), st.data())
def test_integer_root_cone_matches_fraction_signs(datum, data):
    kind = data.draw(st.sampled_from(["combination", "off-span", "random"]))
    if kind == "random":
        diff = data.draw(st.lists(st.integers(-6, 6), min_size=datum.rank, max_size=datum.rank))
    else:
        coeffs = data.draw(st.lists(coefficient, min_size=datum.nsimple, max_size=datum.nsimple))
        diff = _combination(datum, coeffs)
        if kind == "off-span":  # outside the span on gl(n), where the total moves
            diff[data.draw(st.integers(0, datum.rank - 1))] += data.draw(st.sampled_from([-1, 1]))
    assert _in_root_cone(datum, diff) == _cone_by_solve(datum, diff)


# --- membership domains ------------------------------------------------------


def test_in_vxi_examples_gl2():
    datum = RootDatum.gl(2)
    xi0 = HighestWeight.zero(datum, QP)
    assert in_Vxi(datum, QP, xi0, frac_vec(0, 0), normalized=True)
    assert not in_Vxi(datum, QP, xi0, frac_vec(-1, 1), normalized=True)


def test_in_vxi_gl1_equality_only():
    datum = RootDatum.gl(1)
    xi = HighestWeight.of([(5,)])
    assert in_Vxi(datum, QP, xi, frac_vec(5), normalized=True)
    assert not in_Vxi(datum, QP, xi, frac_vec(4), normalized=True)


def test_in_hull_examples():
    datum = RootDatum.gl(2)
    xi0 = HighestWeight.zero(datum, QP)
    # xi_L is always a hull vertex (w = identity)
    assert in_hull(datum, QP, xi0, frac_vec(0, 0))
    assert in_hull(datum, QP, xi0, frac_vec(1, -1))
    assert in_hull(datum, QP, xi0, frac_vec(Fraction(1, 2), Fraction(-1, 2)))
    assert not in_hull(datum, QP, xi0, frac_vec(-1, 1))
    # far outside the bounding box
    assert not in_hull(datum, QP, xi0, frac_vec(100, -100))


def test_in_vxi_unnormalized_matches_hull_small_sweep():
    datum = RootDatum.gl(2)
    xi = HighestWeight.of([(0, 2)])
    for x2 in range(-8, 9):
        for y2 in range(-8, 9):
            z = (Fraction(x2, 2), Fraction(y2, 2))
            assert in_Vxi(datum, QP, xi, z) == in_hull(datum, QP, xi, z)


def test_in_vxi_normalized_weyl_stable():
    rng = random.Random(53)
    for datum in (RootDatum.gl(3), RootDatum.sp4()):
        field = FieldData(p=2, e=1, f=1)
        xi = HighestWeight.of([dominant_rep(datum, [rng.randint(0, 3) for _ in range(datum.rank)])])
        for _ in range(30):
            z = tuple(Fraction(rng.randint(-5, 5), 2) for _ in range(datum.rank))
            base = in_Vxi(datum, field, xi, z, normalized=True)
            y = rng.choice(sorted(weyl_orbit(datum, z)))
            assert in_Vxi(datum, field, xi, y, normalized=True) == base


def test_vertex_membership_all_presets():
    for datum in (RootDatum.gl(2), RootDatum.gl(3), RootDatum.sp4()):
        field = FieldData(p=2, e=2, f=1)
        xi = HighestWeight.of(
            [dominant_rep(datum, [min(i, 3) for i in range(datum.rank)]) for _ in range(2)]
        )
        el = eta_L(datum, field)
        top = tuple(a + b for a, b in zip(el, xi.xi_L()))
        for y in weyl_orbit(datum, top):
            pt = tuple(a - b for a, b in zip(y, el))
            assert in_hull(datum, field, xi, pt)
            assert in_Vxi(datum, field, xi, pt)


def test_in_vxi_flag_shift_identity():
    # the unnormalized test at z equals the normalized one at z + eta_L
    rng = random.Random(59)
    for datum in (RootDatum.gl(3), RootDatum.sp4()):
        field = FieldData(p=2, e=2, f=1)
        xi = HighestWeight.of(
            [dominant_rep(datum, [rng.randint(0, 3) for _ in range(datum.rank)])
             for _ in range(2)]
        )
        el = eta_L(datum, field)
        for _ in range(40):
            z = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(datum.rank))
            shifted = tuple(a + b for a, b in zip(z, el))
            assert in_Vxi(datum, field, xi, z) == in_Vxi(
                datum, field, xi, shifted, normalized=True
            )


def test_in_vxi_matches_hull_on_other_lattices():
    # simply connected (sl(3)) and adjoint (pgl(2)) normalizations: the two
    # membership tests must agree on a half-lattice box around the orbit
    field = FieldData(p=2, e=1, f=1)
    pgl2 = RootDatum.from_cartan([[2]], kind="adjoint", name="pgl(2)")
    cases = [
        (RootDatum.sl(3), HighestWeight.of([(1, 2)])),
        (pgl2, HighestWeight.of([(2,)])),
    ]
    for datum, xi in cases:
        el = eta_L(datum, field)
        top = tuple(a + b for a, b in zip(el, xi.xi_L()))
        orbit = weyl_orbit(datum, top)
        lows = [min(p[i] for p in orbit) - el[i] - 1 for i in range(datum.rank)]
        highs = [max(p[i] for p in orbit) - el[i] + 1 for i in range(datum.rank)]
        axes = [
            [Fraction(k, 2) for k in range(int(2 * lo), int(2 * hi) + 1)]
            for lo, hi in zip(lows, highs)
        ]
        hits = 0
        for z in itertools.product(*axes):
            a = in_Vxi(datum, field, xi, z)
            b = in_hull(datum, field, xi, z)
            assert a == b, (datum.name, z)
            hits += a
        assert hits > 0


def _reference_in_Vxi(datum, field, xi, z, normalized=False):
    """The Fraction test ``in_Vxi`` replaced (without the weight validation)."""
    zv = vec(z)
    el = eta_L(datum, field)
    bound = tuple(a + b for a, b in zip(el, xi.xi_L()))
    probe = zv if normalized else tuple(a + b for a, b in zip(zv, el))
    return _reference_dominance_leq(datum, dominant_rep(datum, probe), bound)


# every closure datum, plus adjoint A1, where eta = alpha/2 is half-integral
MEMBERSHIP_DATA = [d for d, _ in CLOSURE_DATA] + [
    RootDatum.from_cartan([[2]], kind="adjoint", name="A1-adjoint")
]
# |W| per membership datum; on those with |W| <= 48 the LP hull runs too
MEMBERSHIP_ORDERS = {d.name: order for d, order in CLOSURE_DATA} | {"A1-adjoint": 2}


def _near_the_boundary(rng, datum, bound, den):
    """A point near the domain's boundary: a Weyl image of t * bound, t
    close to 1, moved along a simple root, sometimes off the root span;
    its entries have denominators dividing den."""
    t = Fraction(rng.randint(den - 1, den + 1), den)
    p = [t * b for b in bound]
    if datum.nsimple:
        c = Fraction(rng.randint(-2, 2), den)
        p = [v + c * r for v, r in zip(p, rng.choice(datum.simple_roots))]
    if rng.random() < 0.25:
        p[rng.randrange(datum.rank)] += Fraction(rng.choice((-1, 1)), den)
    for _ in range(rng.randint(0, 2 * datum.nsimple)):
        p = _reference_reflect(datum, rng.randrange(datum.nsimple), p)
    return p


@pytest.mark.parametrize("datum", MEMBERSHIP_DATA, ids=lambda d: d.name)
def test_membership_matches_fraction_reference(datum):
    # points near the domain's boundary, with denominators 1-6
    rng = random.Random(f"membership-{datum.name}")
    hull = MEMBERSHIP_ORDERS[datum.name] <= 48
    verdicts = set()
    for degree in (1, 2, 3):
        field = FieldData(p=2, e=degree, f=1)
        xi = HighestWeight.of(
            [dominant_rep(datum, [rng.randint(-2, 2) for _ in range(datum.rank)])
             for _ in range(degree)]
        )
        el = eta_L(datum, field)
        bound = tuple(a + b for a, b in zip(el, xi.xi_L()))
        for den in range(1, 7):
            for normalized in (False, True):
                for _ in range(3):
                    p = _near_the_boundary(rng, datum, bound, den)
                    z = p if normalized else [a - b for a, b in zip(p, el)]
                    got = in_Vxi(datum, field, xi, z, normalized=normalized)
                    assert got == _reference_in_Vxi(datum, field, xi, z, normalized), (z, normalized)
                    if not normalized and hull:
                        # the hull's cached integer columns, rescaled per point
                        assert in_hull(datum, field, xi, z) == got, z
                    assert dominance_leq(datum, z, bound) == _reference_dominance_leq(datum, z, bound)
                    verdicts.add(got)
    assert verdicts == {True, False}


HULL_DATA = [d for d in MEMBERSHIP_DATA if MEMBERSHIP_ORDERS[d.name] <= 48]


@pytest.mark.parametrize("datum", HULL_DATA, ids=lambda d: d.name)
def test_hull_cuts_keep_the_verdicts(datum):
    # in_hull keeps the LP's Farkas cuts with the hull's cached points and
    # tests them before any LP: the verdicts stay those of in_Vxi (and of
    # the Fraction reference) whatever order the points come in, every
    # kept cut holds on every orbit point, and the list never holds more
    # cuts than the hull has points
    rng = random.Random(f"hull-cuts-{datum.name}")
    field = FieldData(p=2, e=2, f=1)
    xi = HighestWeight.of(
        [dominant_rep(datum, [rng.randint(-2, 2) for _ in range(datum.rank)]) for _ in range(2)]
    )
    el = eta_L(datum, field)
    bound = tuple(a + b for a, b in zip(el, xi.xi_L()))
    points = [tuple(a - b for a, b in zip(_near_the_boundary(rng, datum, bound, den), el))
              for den in range(1, 7) for _ in range(8)]
    expected = {z: in_Vxi(datum, field, xi, z) for z in points}
    assert all(_reference_in_Vxi(datum, field, xi, z) == got for z, got in expected.items())
    assert set(expected.values()) == {True, False}
    shuffled = list(points)
    rng.shuffle(shuffled)
    for order in (points, shuffled):
        wadm.rootdata._hull_points.cache_clear()
        _, cols, cuts = wadm.rootdata._hull_points(datum, field, xi)
        for z in order:
            assert in_hull(datum, field, xi, z) == expected[z], z
            assert len(cuts) <= len(cols[0])
        assert cuts
        for a, c in cuts:
            assert all(sum(x * v for x, v in zip(a, pt)) + c <= 0 for pt in zip(*cols))


def test_hull_cuts_stop_at_the_number_of_orbit_points(monkeypatch):
    # gl(2)'s hull is a segment with 2 points, so at most 2 cuts are kept;
    # points outside it that neither separates still get the LP, whose
    # cut is then dropped
    datum, xi = RootDatum.gl(2), HighestWeight.of([(0, 2)])
    wadm.rootdata._hull_points.cache_clear()
    _, cols, cuts = wadm.rootdata._hull_points(datum, QP, xi)
    past_cap = []

    def certificate(rows, rhs):
        y = farkas_certificate(rows, rhs)
        past_cap.append(y is not None and len(cuts) == 2)
        return y

    monkeypatch.setattr(wadm.rootdata, "farkas_certificate", certificate)
    ring = [(Fraction(a, 2), Fraction(b, 2)) for a in range(-8, 9) for b in range(-8, 9)]
    for z in ring:
        assert in_hull(datum, QP, xi, z) == in_Vxi(datum, QP, xi, z), z
        assert len(cuts) <= len(cols[0]) == 2
    assert len(cuts) == 2 and any(past_cap)


def test_hull_cuts_stay_capped_under_threads():
    # callers on several threads share a hull's list of cuts; they start
    # together on points outside the hull, so their LPs end and try to keep
    # a cut at about the same time: the list still never holds more cuts
    # than the hull has points, and the verdicts hold
    datum, xi = RootDatum.gl(2), HighestWeight.of([(0, 2)])
    ring = [(Fraction(a, 2), Fraction(b, 2)) for a in range(-8, 9) for b in range(-8, 9)]
    outside = [z for z in ring if not in_Vxi(datum, QP, xi, z)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            wadm.rootdata._hull_points.cache_clear()
            _, cols, cuts = wadm.rootdata._hull_points(datum, QP, xi)
            start = threading.Barrier(6)

            def run(k):
                start.wait(timeout=60)
                return [in_hull(datum, QP, xi, z) for z in outside[k % 3::3]]

            with ThreadPoolExecutor(max_workers=6) as pool:
                runs = [pool.submit(run, k) for k in range(6)]
                assert not any(any(run.result(timeout=60)) for run in runs)
            assert len(cuts) <= len(cols[0])
    finally:
        sys.setswitchinterval(interval)


def test_dominance_and_hull_share_no_kernel(monkeypatch):
    # the pair "dominance vs. LP hull": neither side may call the other's kernels
    datum, field = RootDatum.sp4(), FieldData(p=2, e=2, f=1)
    xi = HighestWeight.of([(2, 1), (1, 1)])
    points = [tuple(Fraction(a, 2) for a in z) for z in itertools.product(range(-9, 10, 3), repeat=2)]
    expected = [in_hull(datum, field, xi, z) for z in points]
    assert set(expected) == {True, False}

    def forbidden(name):
        return lambda *args, **kwargs: pytest.fail(f"{name} called")

    with monkeypatch.context() as patch:
        for name in ("farkas_certificate", "_hull_points"):
            patch.setattr(wadm.rootdata, name, forbidden(name))
        assert [in_Vxi(datum, field, xi, z) for z in points] == expected
    # with every root-data cache cleared, so that a kernel reached only
    # through a cached helper (the root closure) is seen too
    for value in vars(wadm.rootdata).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    with monkeypatch.context() as patch:
        for name in ("_chamber_walk", "_in_root_cone", "_cone_forms", "_domain_bound"):
            patch.setattr(wadm.rootdata, name, forbidden(name))
        assert [in_hull(datum, field, xi, z) for z in points] == expected


BAD_XI = {
    "non-dominant": (HighestWeight.of([(1, 0)]), "not dominant"),
    "wrong length": (HighestWeight.of([(0, 1, 2)]), "weight length must equal the rank"),
    "wrong embedding count": (HighestWeight.of([(0, 1), (0, 1)]), "expected 1 embeddings, got 2"),
}


@pytest.mark.parametrize("name", sorted(BAD_XI))
def test_bad_highest_weight_raises_on_every_call(name):
    # validation is cached, a raised error is not
    xi, message = BAD_XI[name]
    datum = RootDatum.gl(2)
    x = GroupRingElem.monomial((1, 0), QSqrtQ.one(QP.q))
    calls = [
        lambda: in_Vxi(datum, QP, xi, (0, 0)),
        lambda: in_Vxi(datum, QP, xi, (0, 0), normalized=True),
        lambda: in_hull(datum, QP, xi, (0, 0)),
        lambda: norm_xi_val(datum, QP, xi, x),
    ]
    for call in calls + calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_equal_highest_weights_share_verdicts_and_cache_entries(monkeypatch):
    datum, field = RootDatum.sp4(), FieldData(p=2, e=2, f=1)
    xi = HighestWeight.of([(2, 1), (1, 1)])
    points = [tuple(Fraction(a, 2) for a in z)
              for z in itertools.product(range(-25, 26, 5), repeat=2)]
    elems = [GroupRingElem.monomial(lam, QSqrtQ.of(Fraction(1, 2), 1, field.q))
             for lam in itertools.product(range(-2, 3), repeat=2)]

    def verdicts(weight):
        return ([in_Vxi(datum, field, weight, z) for z in points],
                [in_Vxi(datum, field, weight, z, normalized=True) for z in points],
                [in_hull(datum, field, weight, z) for z in points],
                [norm_xi_val(datum, field, weight, x) for x in elems])

    validated = []
    validate = wadm.rootdata.validate_highest_weight
    monkeypatch.setattr(wadm.rootdata, "validate_highest_weight",
                        lambda *args: validated.append(args) or validate(*args))
    wadm.rootdata._domain_bound.cache_clear()
    wadm.rootdata._hull_points.cache_clear()
    expected = verdicts(xi)
    assert {True, False} <= set(expected[0]) and {True, False} <= set(expected[1])
    fresh = HighestWeight.of([[2, 1], [1, 1]])
    assert fresh is not xi and fresh == xi
    assert verdicts(fresh) == expected
    # one domain bound and one hull for both equal weights, and one
    # validation per entry built
    assert wadm.rootdata._domain_bound.cache_info().misses == 1
    assert wadm.rootdata._hull_points.cache_info().misses == 1
    assert validated == [(datum, field, xi)] * 2


def test_equal_data_share_a_hash_and_cache_entries():
    data = (3, ((-1, 1, 0), (0, -1, 1)), ((-1, 1, 0), (0, -1, 1)), "gl(3)")
    first, second = RootDatum(*data), RootDatum(*data)
    assert first is not second and first == second and hash(first) == hash(second)
    assert repr(first) == repr(RootDatum.gl(3)) and first == RootDatum.gl(3)
    assert RootDatum(*data[:3]) != first  # the name still counts for equality
    field, xi = FieldData(p=3, e=1, f=1), HighestWeight.of([(0, 1, 2)])
    wadm.rootdata._domain_bound.cache_clear()
    wadm.rootdata._domain_bound(first, field, xi)
    wadm.rootdata._domain_bound(second, field, xi)
    assert wadm.rootdata._domain_bound.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_in_vxi_and_in_hull_read_the_same_point_forms():
    datum = RootDatum.gl(2)
    for xi in (HighestWeight.zero(datum, QP), HighestWeight.of([(0, 2)])):
        for a, b in (("1/2", "-1/2"), ("1/3", "-1/3"), ("-1/2", "1/2"), ("3/2", "-1/2")):
            exact = (Fraction(a), Fraction(b))
            forms = [(a, b), exact]
            if exact[0].denominator == exact[1].denominator == 2:
                forms.append((float(exact[0]), float(exact[1])))
            for z in forms:
                for normalized in (False, True):
                    assert in_Vxi(datum, QP, xi, z, normalized=normalized) == \
                        in_Vxi(datum, QP, xi, exact, normalized=normalized), z
                assert in_Vxi(datum, QP, xi, z) == in_hull(datum, QP, xi, z), (xi, z)
        for z in ((0, 0), (1, -1), (-1, 1), (0.0, 0.0), ("1", "-1"), (True, False)):
            assert in_Vxi(datum, QP, xi, z) == in_hull(datum, QP, xi, z), (xi, z)


def test_highest_weight_caches_are_bounded():
    datum = RootDatum.gl(2)
    caches = (wadm.rootdata._domain_bound, wadm.rootdata._hull_points)
    size = caches[0].cache_info().maxsize
    assert size is not None and all(c.cache_info().maxsize == size for c in caches)
    # validation runs only where an entry is built, so it keeps no cache
    assert not hasattr(wadm.rootdata.validate_highest_weight, "cache_info")
    for k in range(size + 40):  # more distinct weights than the caches hold
        xi = HighestWeight.of([(k, k + 1)])
        in_Vxi(datum, QP, xi, (k, k + 1))
        in_hull(datum, QP, xi, (k, k + 1))
    assert all(c.cache_info().currsize == size for c in caches)


def test_in_vxi_rejects_a_point_of_the_wrong_length():
    # unnormalized, a longer point used to be cut to the rank and answered;
    # the hull raised the LP's dimension mismatch instead of the same error
    datum = RootDatum.gl(2)
    xi0 = HighestWeight.zero(datum, QP)
    for z in ((0, 0, 5), (0,)):
        for normalized in (False, True):
            with pytest.raises(ValueError, match="vector length must equal the rank"):
                in_Vxi(datum, QP, xi0, z, normalized=normalized)
        with pytest.raises(ValueError, match="vector length must equal the rank"):
            in_hull(datum, QP, xi0, z)
        # the chamber walk reads only the coroots' nonzero entries, so its
        # two public callers check the length that ``dot`` used to check
        with pytest.raises(ValueError, match="dimension mismatch in pairing"):
            dominant_rep(datum, z)
        with pytest.raises(ValueError, match="dimension mismatch in pairing"):
            antidominant_rep_cochar(datum, z)


def test_highest_weight_validation():
    datum = RootDatum.gl(2)
    with pytest.raises(ValueError):
        in_Vxi(datum, QP, HighestWeight.of([(1, 0)]), frac_vec(0, 0))  # not dominant
    with pytest.raises(ValueError):
        in_Vxi(datum, QP, HighestWeight.of([(0, 1), (0, 1)]), frac_vec(0, 0))  # wrong count


HALF = Fraction(1, 2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: HighestWeight.of([[HALF, Fraction(3, 2)]]), id="HighestWeight.of"),
    pytest.param(lambda: HighestWeight(((0, HALF),)), id="HighestWeight"),
    pytest.param(lambda: RootDatum(rank=2, simple_roots=((-1, 1),), simple_coroots=((-HALF, HALF),)),
                 id="RootDatum"),
    pytest.param(lambda: RootDatum.from_cartan([[2, -HALF], [-1, 2]]), id="from_cartan"),
    pytest.param(lambda: antidominant_rep_cochar(RootDatum.gl(2), (Fraction(3, 2), 0)),
                 id="antidominant_rep_cochar"),
])
def test_non_integral_entries_are_rejected_not_truncated(build):
    # int() alone would floor these to (0, 1), ((-1, 1),), [[2, 0], ...] and (1, 0)
    with pytest.raises(ValueError, match="expected an integer entry, got (1/2|-1/2|3/2)"):
        build()


def test_integral_entries_become_int():
    xi = HighestWeight.of([[Fraction(2), 3.0]])
    assert xi.per_embedding == ((2, 3),)
    assert all(type(v) is int for v in xi.per_embedding[0])
    anti = antidominant_rep_cochar(RootDatum.gl(2), (0, Fraction(4, 2)))
    assert anti == (2, 0) and all(type(v) is int for v in anti)
    assert RootDatum(rank=2, simple_roots=((Fraction(-1), 1),), simple_coroots=((-1, 1),)).cartan == (((0, 2),),)
    assert [lam for lam, _ in GroupRingElem.monomial((Fraction(2), 1.0), QSqrtQ.one(3)).terms] == [(2, 1)]
