"""Exact scalar arithmetic: field laws, valuations, linear algebra."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wadm.exact import (
    INF,
    _integer_rows,
    _reduced_echelon,
    MILLER_RABIN_BOUND,
    FieldData,
    QSqrtQ,
    farkas_certificate,
    format_qsqrtq,
    format_rat,
    is_prime,
    parse_rat,
    prime_power,
    rank,
    val_p_rat,
    val_q,
)
from wadm.isocrystal import PhiModule, build_admissible_filtration

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_rat_addition_cancels(x, y):
    assert (x + y) - y == x


@given(rationals, rationals)
def test_rat_multiplication_cancels(x, y):
    if y != 0:
        assert (x * y) / y == x


@given(rationals)
def test_rat_text_round_trip(x):
    assert parse_rat(format_rat(x)) == x


@pytest.mark.parametrize("value, text", [
    (0, "0"), (-7, "-7"), (True, "1"), (False, "0"),
    (Fraction(6, -4), "-3/2"), (Fraction(4, 2), "2"), ("3/6", "1/2"), ("-4", "-4"),
], ids=["int-0", "int", "bool-true", "bool-false", "fraction", "integral-fraction",
        "str", "str-int"])
def test_format_rat_of_every_input_form(value, text):
    # an int or a Fraction prints as it is; anything else, bool included,
    # goes through Fraction first
    assert format_rat(value) == text


def test_rat_always_lowest_terms():
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2


def test_prime_power():
    assert prime_power(9) == (3, 2)
    assert prime_power(125) == (5, 3)
    assert prime_power(7) == (7, 1)
    # q = p^2 with p near 1e8: p comes from the exact square root of q
    assert prime_power(100000007**2) == (100000007, 2)
    with pytest.raises(ValueError):
        prime_power(12)
    with pytest.raises(ValueError):
        prime_power(1)
    # prime_power is cached; a rejected q must be rejected every time
    for _ in range(2):
        with pytest.raises(ValueError):
            QSqrtQ.of(1, 0, 12)


def test_primes_match_naive_trial_division():
    for n in range(-2, 2000):
        least = next((d for d in range(2, n + 1) if n % d == 0), None)
        assert is_prime(n) == (least == n)
        powers = [f for f in range(1, n.bit_length() + 1) if least and least**f == n]
        if powers:
            assert prime_power(n) == (least, powers[0])
        else:
            with pytest.raises(ValueError):
                prime_power(n)


def test_primality_of_large_and_pseudoprime_inputs():
    start = time.perf_counter()
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert time.perf_counter() - start < 1.0
    assert prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert is_prime(10000000000037) and not is_prime(10000000000037 * 3)
    # the least strong pseudoprimes to the bases 2..p_k, for k = 1..12
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        FieldData(p=2**89 - 1, e=1, f=1)


def test_field_data_validation():
    fd = FieldData(p=3, e=2, f=2)
    assert fd.q == 9 and fd.degree == 4
    assert fd.e * val_p_rat(3, fd.p) == 2  # val_L
    assert val_q(QSqrtQ.of(9, 0, fd.q)) == 1
    assert val_p_rat(0, fd.p) == INF
    with pytest.raises(ValueError):
        FieldData(p=4, e=1, f=1)
    with pytest.raises(ValueError):
        FieldData(p=3, e=0, f=1)


# --- q-adic valuation of QSqrtQ -------------------------------------------


def test_val_q_of_q_itself():
    # p=3, f=1: x = q
    x = QSqrtQ.of(3, 0, 3)
    assert val_q(x) == 1


def test_val_q_of_sqrtq():
    x = QSqrtQ.of(0, 1, 3)
    assert val_q(x) == Fraction(1, 2)


def test_val_q_mixed_terms():
    # x = q + sqrt(q), p=5, f=1: min(1, 0 + 1/2) = 1/2
    x = QSqrtQ.of(5, 1, 5)
    assert val_q(x) == Fraction(1, 2)


def test_val_q_zero_is_inf():
    assert val_q(QSqrtQ.of(0, 0, 5)) == INF


def _random_qsqrtq(rng, q):
    return QSqrtQ.of(
        Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
        Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
        q,
    )


def test_qsqrtq_commutative_associative():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.choice([2, 3, 5, 8, 27])
        x, y, z = (_random_qsqrtq(rng, q) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_val_q_additive_on_products():
    # Honest valuation only for non-square q (f odd); that is the regime
    # QSqrtQ is used in.
    rng = random.Random(11)
    for _ in range(300):
        q = rng.choice([2, 3, 5, 7, 8, 27])
        x, y = _random_qsqrtq(rng, q), _random_qsqrtq(rng, q)
        if x.is_zero() or y.is_zero():
            continue
        assert val_q(x * y) == val_q(x) + val_q(y)


def test_qsqrtq_text_form():
    assert format_qsqrtq(QSqrtQ.of(Fraction(3, 2), Fraction(-1, 3), 5)) == "3/2-1/3*sqrtq"


def test_qsqrtq_mismatched_q():
    with pytest.raises(ValueError):
        QSqrtQ.one(3) + QSqrtQ.one(5)


def test_qsqrtq_scalar_must_be_rational():
    # a product is built without the constructor's checks, so the scalar
    # is checked on the way in
    for product in (lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x * "2"):
        with pytest.raises(TypeError, match="expected an exact rational"):
            product(QSqrtQ.one(3))
    assert QSqrtQ.one(3) * True == QSqrtQ.one(3) * 1 == QSqrtQ.one(3)


# --- linear algebra --------------------------------------------------------


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0
    # The second row has 0 in the first pivot column and must still take
    # the elimination step, or the later exact divisions go wrong.
    assert rank([[5, 0, 2, 2], [0, 0, -1, 0], [2, 0, 5, 0]]) == 3
    assert rank([]) == 0
    assert rank([[]]) == 0
    with pytest.raises(ValueError, match="ragged matrix"):
        rank([[1, 2], [3]])


def _reference_rank(rows) -> int:
    """Textbook Gaussian elimination over Fraction, independent of ``rank``."""
    a = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                factor = a[i][col] / a[r][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
        r += 1
    return r


entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7])).map(
    lambda x: x.numerator if x.denominator == 1 else x  # mixed int and Fraction entries
)


@st.composite
def designed_rank_matrices(draw):
    """An m x r times r x n product (rank <= r), then a few one-entry
    perturbations and zeroed rows; shapes run from empty to tall and wide.
    Half the factors are sparse, so pivot columns often hold zeros."""
    m, n, r = draw(st.integers(0, 9)), draw(st.integers(0, 9)), draw(st.integers(0, 6))
    factor = st.one_of(st.just(0), entries) if draw(st.booleans()) else entries
    left = draw(st.lists(st.lists(factor, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(factor, min_size=n, max_size=n), min_size=r, max_size=r))
    rows = [[sum((x * right[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(n)]
            for row in left]
    if m and n:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
            rows[i][j] += draw(entries)
        for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
            rows[i] = [0] * n
    return [[v.numerator if v.denominator == 1 else v for v in row] for row in rows]


@settings(max_examples=400, deadline=None)
@given(designed_rank_matrices())
def test_rank_matches_fraction_elimination(rows):
    assert rank(rows) == _reference_rank(rows)


@settings(max_examples=400, deadline=None)
@given(designed_rank_matrices(), st.data())
def test_reduced_echelon_clears_pivot_columns_and_keeps_restricted_ranks(rows, data):
    # the oracle reads a flag tail's reduced form in place of the tail, so
    # each pivot column must be zero off its pivot row, and the form must
    # keep the rank of the rows restricted to any column subset
    n = len(rows[0]) if rows else 0
    form = _reduced_echelon(rows)
    assert [c for c, _ in form] == sorted({c for c, _ in form})
    for c, row in form:
        assert len(row) == n and all(type(v) is int for v in row)
        assert not any(row[:c]) and row[c] > 0
        assert all(other[c] == 0 for d, other in form if d != c), (rows, form)
    subsets = data.draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=6)) if n else []
    for cols in [range(n), *map(sorted, subsets)]:
        got = [[row[c] for c in cols] for _, row in form]
        assert _reference_rank(got) == _reference_rank([[row[c] for c in cols] for row in rows])


def test_reduced_echelon_edge_shapes():
    assert _reduced_echelon([]) == []
    assert _reduced_echelon([[], []]) == []
    assert _reduced_echelon([[0, 0], [0, 0]]) == []
    assert _reduced_echelon([[2, 4], [Fraction(1, 3), Fraction(2, 3)]]) == [(0, [1, 2])]
    assert _reduced_echelon([[0, -2, 4], [3, 1, 0]]) == [(0, [3, 0, 2]), (1, [0, 1, -2])]


def test_rank_of_rank12_witness_flag():
    # The rank-12 witness flag has integer entries up to 12**11.
    n = 12
    module = PhiModule.of_slopes(FieldData(p=3, e=1, f=1), [Fraction(j) for j in range(n)])
    flag = build_admissible_filtration(module, [list(range(n))]).flags[0]
    assert max(abs(v) for vec in flag for v in vec) == 12**11
    assert rank(flag) == n
    for start in range(n):
        tail = flag[start:]
        assert rank(tail) == _reference_rank(tail) == n - start
        cols = list(range(start, n))
        restricted = [[vec[c] for c in cols] for vec in tail]
        assert rank(restricted) == _reference_rank(restricted)


def _scaled(rows, rhs):
    """Each row and its rhs times the lcm of their denominators: integer
    rows, the only form ``farkas_certificate`` takes.  A positive scale per
    row changes neither the solution set nor the signs of y.A and y.b."""
    scaled = []
    for row, b in zip(rows, rhs):
        s = math.lcm(*[Fraction(v).denominator for v in (*row, b)])
        scaled.append([int(v * s) for v in (*row, b)])
    return [r[:-1] for r in scaled], [r[-1] for r in scaled]


def test_integer_rows_take_the_same_answers_in_every_entry_form():
    # all-int rows are copied as they are; bool entries, and rows with a
    # Fraction in them, take the lcm path; both agree with the references.
    # The LP takes the rows scaled to integers, and refuses a Fraction.
    rng = random.Random(47)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(0, 3) for _ in range(m)]
        halves = [[Fraction(v, 2) if (i + j) % 2 else v for j, v in enumerate(row)]
                  for i, row in enumerate(ints)]
        fractions = [[Fraction(v) for v in row] for row in ints]
        for rows in (ints, halves, fractions):
            assert rank(rows) == _reference_rank(rows)
            assert (farkas_certificate(*_scaled(rows, rhs)) is None) == _reference_lp(rows, rhs)
        with pytest.raises(TypeError):
            farkas_certificate(fractions, rhs)
    bools = [[True, False, True], [False, True, True]]
    assert rank(bools) == 2
    assert farkas_certificate(bools, [True, True]) is None
    assert farkas_certificate(bools, [True, -1]) is not None
    for rows, rhs in (([[1, 2], [3, 4.5]], [1, 2]), ([[1, 2], [3, 4]], [1, 0.5])):
        with pytest.raises(AttributeError):
            rank(rows + [rhs])
        with pytest.raises(TypeError):
            farkas_certificate(rows, rhs)


@pytest.mark.parametrize("rows", [
    [[1, 2], [3]],
    [[Fraction(1, 2), 1], [Fraction(1, 3)]],
    [[1, 2], [Fraction(1, 2)]],
    [[Fraction(1, 2)], [1, 2]],
    [[], [1]],
    [[1, 2], [3, 4], [5, 6, 7]],
], ids=["ints", "fractions", "int-then-fraction", "fraction-then-int", "empty-first",
        "third-row"])
def test_integer_rows_reject_ragged_rows(rows):
    with pytest.raises(ValueError, match="ragged matrix"):
        _integer_rows(rows)
    with pytest.raises(ValueError, match="ragged matrix"):
        rank(rows)


def test_integer_rows_keep_rectangular_shapes():
    assert _integer_rows([]) == []
    assert _integer_rows([[], []]) == [[], []]
    assert _integer_rows([[1, Fraction(1, 2)], [Fraction(2, 3), 1]]) == [[2, 1], [2, 3]]


def _reference_lp(rows, rhs) -> bool:
    """Phase-1 simplex over Fraction with Bland's rule, independent of
    ``farkas_certificate``: whether {x >= 0 : A x = b} is nonempty."""
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tableau = []
    for row, b in zip(rows, rhs):
        r = [Fraction(v) for v in row] + [Fraction(b)]
        tableau.append([-v for v in r] if r[-1] < 0 else r)
    # w = sum of artificials = sum(b) - sum_j colsum_j x_j; artificials
    # never re-enter, so only the n real columns are tracked.
    obj = [-sum(t[j] for t in tableau) for j in range(n)] + [sum(t[n] for t in tableau)]
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n) if obj[j] < 0), None)
        if enter is None:
            return obj[n] == 0
        leave = best = None
        for i in range(m):
            t = tableau[i][enter]
            if t > 0:
                ratio = tableau[i][n] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[leave])]
        # substituting x_enter subtracts from the coefficients, adds to the constant
        factor = obj[enter]
        obj = [v - factor * w for v, w in zip(obj[:n], tableau[leave])] + \
            [obj[n] + factor * tableau[leave][n]]
        basis[leave] = enter


@st.composite
def lp_systems(draw):
    """A designed-rank matrix with duplicated rows and zero columns added,
    and b = A x for some x >= 0 (feasible) or an arbitrary b (mostly
    infeasible).  Then maybe a redundant row, a rational combination of two
    rows with b combined the same way, and up to two rows (with their b)
    scaled by a Fraction, some negative; neither changes the solution set.
    Returns (rows, rhs, whether b was drawn as A x)."""
    rows = draw(designed_rank_matrices())
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)) if rows else ():
        rows.append(list(rows[i]))
    for j in draw(st.lists(st.integers(0, len(rows[0]) if rows else 0), max_size=2)):
        rows = [row[:j] + [0] + row[j:] for row in rows]
    n = len(rows[0]) if rows else 0
    feasible = draw(st.booleans())
    if feasible:
        x = draw(st.lists(entries.map(abs), min_size=n, max_size=n))
        rhs = [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    if rows and draw(st.booleans()):
        i, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c, e = draw(entries), draw(entries)
        rows.append([c * u + e * v for u, v in zip(rows[i], rows[k])])
        rhs.append(c * rhs[i] + e * rhs[k])
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)) if rows else ():
        c = draw(st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), -1]))
        rows[i] = [c * v for v in rows[i]]
        rhs[i] *= c
    return rows, rhs, feasible


@settings(max_examples=400, deadline=None)
@given(lp_systems())
def test_farkas_certificate_matches_fraction_simplex(system):
    # None exactly when the Fraction simplex finds {x >= 0 : A x = b}
    # nonempty; otherwise y proves it empty on the rows as given
    rows, rhs, feasible = system
    int_rows, int_rhs = _scaled(rows, rhs)
    y = farkas_certificate(int_rows, int_rhs)
    assert (y is None) == _reference_lp(rows, rhs)
    assert y is None or not feasible
    if y is not None:
        assert all(sum(v * a for v, a in zip(y, col)) <= 0 for col in zip(*int_rows))
        assert sum(v * b for v, b in zip(y, int_rhs)) > 0


def _opens_degenerate(rows, rhs) -> bool:
    """Whether the largest-entry rule's first pivot on the integer system
    {x >= 0 : A x = b} is degenerate, computed apart from the simplex: its
    entering column, the largest column sum of the rows signed so that
    b >= 0 (the first on ties), has its least ratio b / a on a row with
    b = 0.  The pivots after such a pivot follow Bland's rule."""
    signed = [([-v for v in r], -b) if b < 0 else (r, b) for r, b in zip(rows, rhs)]
    sums = [sum(col) for col in zip(*(r for r, _ in signed))]
    if max(sums, default=0) <= 0:
        return False
    s = sums.index(max(sums))
    return min(Fraction(b, r[s]) for r, b in signed if r[s] > 0) == 0


def _assert_certificate(rows, rhs, y):
    assert all(sum(v * a for v, a in zip(y, col)) <= 0 for col in zip(*rows))
    assert sum(v * b for v, b in zip(y, rhs)) > 0


@pytest.mark.parametrize("rows, rhs, feasible", [
    # tied column sums: the first of them enters, its least ratio is on a
    # zero rhs, and Bland's rule finishes the run
    ([[1, 1], [1, 1]], [0, 2], False),
    ([[1, 1, 0], [1, 1, 1]], [0, 2], True),
    # zero rhs rows only: the origin, reached by degenerate pivots
    ([[1, 0, 1], [0, 1, 1]], [0, 0], True),
    ([[1, -1, 2], [-1, 1, 1], [1, 1, 1]], [0, 0, 0], True),
    # a zero rhs row tied on its ratio with a second one
    ([[1, 2, 0, 1], [2, 1, 1, 0], [1, 1, 1, 1]], [0, 0, 3], False),
    ([[1, -1, 0], [1, 1, 1], [0, 1, -1]], [0, 2, 3], False),
])
def test_degenerate_pivots_hand_over_to_blands_rule(rows, rhs, feasible):
    assert _opens_degenerate(rows, rhs)
    y = farkas_certificate(rows, rhs)
    assert (y is None) == feasible == _reference_lp(rows, rhs)
    if y is not None:
        _assert_certificate(rows, rhs, y)


def test_farkas_certificate_after_the_switch_matches_fraction_simplex():
    # random integer systems with many zero rhs rows, kept when the first
    # pivot is degenerate: the answer and the certificate after the switch
    rng = random.Random(53)
    kept = feasible = 0
    while kept < 400:
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(m)]
        if not _opens_degenerate(rows, rhs):
            continue
        kept += 1
        y = farkas_certificate(rows, rhs)
        assert (y is None) == _reference_lp(rows, rhs), (rows, rhs)
        if y is None:
            feasible += 1
        else:
            _assert_certificate(rows, rhs, y)
    assert 50 < feasible < 350


def test_farkas_certificate_simplex():
    # x1 + x2 = 1, x >= 0: feasible
    assert farkas_certificate([[1, 1]], [1]) is None
    # x1 + x2 = -1, x >= 0: infeasible, y = -1 gives -x1 - x2 = 1
    assert farkas_certificate([[1, 1]], [-1]) == [-1]
    # x1 - x2 = 0, x1 + x2 = 2: x = (1,1)
    assert farkas_certificate([[1, -1], [1, 1]], [0, 2]) is None
    # zero row with nonzero rhs
    assert farkas_certificate([[0, 0]], [1]) == [1]
    assert farkas_certificate([[0, 0]], [0]) is None
    assert farkas_certificate([], []) is None
    assert farkas_certificate([[]], [0]) is None
    assert farkas_certificate([[]], [1]) == [1]
    # the row is negated inside; y is on the row as given
    assert farkas_certificate([[]], [-2]) == [-1]
    # integer entries only: a Fraction, even an integral one, or a float raises
    for rows, rhs in (([[]], [Fraction(-1, 2)]), ([[Fraction(1)]], [1]), ([[1]], [1.0])):
        with pytest.raises(TypeError):
            farkas_certificate(rows, rhs)
    with pytest.raises(ValueError, match="ragged matrix"):
        farkas_certificate([[1, 2], [3]], [1, 2])
    with pytest.raises(ValueError, match="dimension mismatch"):
        farkas_certificate([[1, 2]], [1, 2])


def test_farkas_certificate_matches_bruteforce_hull():
    # membership of a point in a segment via convex combination
    # points (0,0) and (2,1); z = (1, 1/2) inside, (1, 1) outside; the
    # second coordinate row is scaled by 2, so that every entry is an integer
    pts = [(0, 0), (2, 1)]
    a = [[p[0] for p in pts], [2 * p[1] for p in pts], [1, 1]]
    assert farkas_certificate(a, [1, 1, 1]) is None
    y = farkas_certificate(a, [1, 2, 1])
    # the cut y . (x, 2y, 1) <= 0 holds at both points and fails at z
    assert all(sum(v * c for v, c in zip(y, (p[0], 2 * p[1], 1))) <= 0 for p in pts)
    assert sum(v * c for v, c in zip(y, (1, 2, 1))) > 0
