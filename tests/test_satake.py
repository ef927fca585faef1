"""Twisted group ring: cocycle identities, norm isometry, submultiplicativity."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wadm.rootdata
import wadm.satake
from wadm.exact import INF, FieldData, QSqrtQ, val_q
from wadm.rootdata import (HighestWeight, RootDatum, WeylElement, dominant_rep,
                           half_sum_positive_roots, in_Vxi, weyl_elements)
from wadm.satake import (
    GroupRingElem,
    cocycle_gamma_val,
    delta_half_val,
    norm_xi_val,
    twisted_action,
)

QP = FieldData(p=3, e=1, f=1)
GL2 = RootDatum.gl(2)
GL3 = RootDatum.gl(3)


def _identity(datum):
    return next(w for w in weyl_elements(datum) if w.on_cochar((1,) * datum.rank) == (1,) * datum.rank and all(
        w.on_cochar(tuple(int(i == j) for j in range(datum.rank))) == tuple(int(i == j) for j in range(datum.rank))
        for i in range(datum.rank)
    ))


def _swap(datum=GL2):
    return next(w for w in weyl_elements(datum) if w.on_cochar((1, 0)) == (0, 1))


# --- delta and cocycle -------------------------------------------------------


def test_delta_half_val_zero():
    assert delta_half_val(GL2, (0, 0)) == 0


def test_delta_half_val_golden_gl2():
    # frozen golden value under the locked sign convention
    assert delta_half_val(GL2, (1, 0)) == Fraction(-1, 2)
    assert delta_half_val(GL2, (0, 1)) == Fraction(1, 2)


def test_delta_half_val_odd():
    rng = random.Random(2)
    for _ in range(30):
        lam = tuple(rng.randint(-4, 4) for _ in range(3))
        neg = tuple(-v for v in lam)
        assert delta_half_val(GL3, lam) == -delta_half_val(GL3, neg)


def test_cocycle_identity_vanishing():
    ident = _identity(GL2)
    for lam in itertools.product(range(-2, 3), repeat=2):
        assert cocycle_gamma_val(GL2, ident, lam) == 0
    # lambda fixed by w
    w = _swap()
    assert cocycle_gamma_val(GL2, w, (2, 2)) == 0


def test_cocycle_golden_gl2():
    w = _swap()
    assert cocycle_gamma_val(GL2, w, (1, 0)) == 1


def test_cocycle_identity_exhaustive():
    for datum, box in ((GL2, 3), (GL3, 2)):
        ws = weyl_elements(datum)
        lams = list(itertools.product(range(-box, box + 1), repeat=datum.rank))
        for w1, w2 in itertools.product(ws, repeat=2):
            for lam in lams:
                lhs = cocycle_gamma_val(datum, w1 * w2, lam)
                rhs = cocycle_gamma_val(datum, w1, w2.on_cochar(lam)) + cocycle_gamma_val(
                    datum, w2, lam
                )
                assert lhs == rhs


def test_cocycle_always_integer():
    rng = random.Random(5)
    for datum in (GL3, RootDatum.sp4()):
        ws = weyl_elements(datum)
        for _ in range(100):
            lam = tuple(rng.randint(-6, 6) for _ in range(datum.rank))
            v = cocycle_gamma_val(datum, rng.choice(ws), lam)
            assert v.denominator == 1


# --- twisted action ----------------------------------------------------------


def test_twisted_action_identity():
    x = GroupRingElem.monomial((1, 0), QSqrtQ.of(2, 1, 3))
    assert twisted_action(GL2, _identity(GL2), x) == x


def test_twisted_action_monomial():
    # single monomial with c = 1 maps to w(lambda) with coefficient q^gamma
    w = _swap()
    x = GroupRingElem.monomial((1, 0), QSqrtQ.one(3))
    y = twisted_action(GL2, w, x)
    assert [lam for lam, _ in y.terms] == [(0, 1)]
    coeff = dict(y.terms)[(0, 1)]
    assert coeff == QSqrtQ.of(3, 0, 3)  # gamma valuation 1 -> q^1


def test_odd_cocycle_pairing_raises():
    # a matrix outside W can move lambda off its coroot-lattice coset; both
    # the cocycle and the twisted action refuse the half-integral valuation
    not_weyl = WeylElement(((1, 0), (0, 0)))
    with pytest.raises(ArithmeticError, match="cocycle valuation -1/2 is not an integer"):
        cocycle_gamma_val(GL2, not_weyl, (0, 1))
    x = GroupRingElem.monomial((0, 1), QSqrtQ.one(3))
    with pytest.raises(ArithmeticError, match="cocycle valuation -1/2 is not an integer"):
        twisted_action(GL2, not_weyl, x)


def _random_elem(rng, rank, q, nterms=3, box=3):
    terms = []
    for _ in range(rng.randint(1, nterms)):
        lam = tuple(rng.randint(-box, box) for _ in range(rank))
        c = QSqrtQ.of(
            Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)), q
        )
        terms.append((lam, c))
    elem = GroupRingElem.from_terms(terms)
    return elem


def test_twisted_action_is_group_action():
    rng = random.Random(7)
    for datum in (GL2, GL3):
        ws = weyl_elements(datum)
        for _ in range(60):
            x = _random_elem(rng, datum.rank, 3)
            w1, w2 = rng.choice(ws), rng.choice(ws)
            lhs = twisted_action(datum, w1 * w2, x)
            rhs = twisted_action(datum, w1, twisted_action(datum, w2, x))
            assert lhs == rhs


# --- norm ---------------------------------------------------------------------


def test_norm_zero_is_inf():
    xi0 = HighestWeight.zero(GL2, QP)
    assert norm_xi_val(GL2, QP, xi0, GroupRingElem(())) == INF


def test_norm_antidominant_monomial_trivial_weight():
    xi0 = HighestWeight.zero(GL2, QP)
    x = GroupRingElem.monomial((1, 0), QSqrtQ.one(3))  # (1,0) is antidominant
    assert norm_xi_val(GL2, QP, xi0, x) == 0


def test_norm_monomial_consistency():
    # for antidominant lambda the norm valuation is the weight character's
    # valuation at the corresponding torus point
    rng = random.Random(11)
    for _ in range(50):
        datum = GL3
        field = QP
        xi = HighestWeight.of([dominant_rep(datum, [rng.randint(-3, 3) for _ in range(3)])])
        lam = sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True)  # antidominant
        x = GroupRingElem.monomial(tuple(lam), QSqrtQ.one(field.q))
        expected = sum(a * b for a, b in zip(xi.xi_L(), lam)) / field.degree
        assert norm_xi_val(datum, field, xi, x) == expected


def test_norm_isometry_of_twisted_action():
    rng = random.Random(13)
    for datum in (GL2, GL3):
        ws = weyl_elements(datum)
        field = QP
        for _ in range(60):
            xi = HighestWeight.of(
                [dominant_rep(datum, [rng.randint(0, 3) for _ in range(datum.rank)])]
            )
            x = _random_elem(rng, datum.rank, field.q)
            v = norm_xi_val(datum, field, xi, x)
            for w in ws:
                assert norm_xi_val(datum, field, xi, twisted_action(datum, w, x)) == v


def test_norm_submultiplicative():
    rng = random.Random(17)
    for datum in (GL2, GL3):
        field = QP
        for _ in range(120):
            xi = HighestWeight.of(
                [dominant_rep(datum, [rng.randint(0, 2) for _ in range(datum.rank)])]
            )
            x = _random_elem(rng, datum.rank, field.q)
            y = _random_elem(rng, datum.rank, field.q)
            vx = norm_xi_val(datum, field, xi, x)
            vy = norm_xi_val(datum, field, xi, y)
            vxy = norm_xi_val(datum, field, xi, x * y)
            assert vxy >= vx + vy


def test_submultiplicativity_rejects_opposite_sign():
    # The sign lock: with the opposite delta convention the GL_2 pair
    # (1,0), (0,1) would violate submultiplicativity.  Recompute the norm
    # by hand with flipped sign and check the violation is real.
    from wadm.rootdata import antidominant_rep_cochar, dot, half_sum_positive_roots

    eta = half_sum_positive_roots(GL2)

    def bad_norm(x):
        best = None
        for lam, c in x.terms:
            anti = antidominant_rep_cochar(GL2, lam)
            v = val_q(c) + (-dot(eta, anti)) - (-dot(eta, lam))
            best = v if best is None else min(best, v)
        return best

    x = GroupRingElem.monomial((1, 0), QSqrtQ.one(3))
    y = GroupRingElem.monomial((0, 1), QSqrtQ.one(3))
    assert bad_norm(x * y) < bad_norm(x) + bad_norm(y)


# --- the norm against an independent orbit minimum -------------------------

# eta and xi_L are dominant and w(lam) - lam^- is a non-negative sum of
# positive coroots (Humphreys, Introduction to Lie Algebras and
# Representation Theory, 13.2 Lemma A, on the dual root system), so the
# minimum over the whole Weyl group is attained at the antidominant lam^-:
# the reference enumerates W where ``norm_xi_val`` walks to lam^-.
NORM_DATA = [
    RootDatum.gl(2), GL3, RootDatum.gl(4), RootDatum.sl(3), RootDatum.sp4(),
    RootDatum.from_cartan([[2, -1], [-3, 2]], name="G2"),
    RootDatum.from_cartan([[2, -1], [-3, 2]], kind="adjoint", name="G2-adjoint"),
    RootDatum.from_cartan([[2]], kind="adjoint", name="A1-adjoint"),
    RootDatum.from_cartan([[2, -2], [-1, 2]], kind="adjoint", name="B2-adjoint"),
]
NORM_FIELDS = [FieldData(p=3, e=1, f=1), FieldData(p=2, e=1, f=2), FieldData(p=5, e=2, f=1),
               FieldData(p=2, e=2, f=2), FieldData(p=3, e=4, f=1)]


def _local_val_q(c, p, f):
    """val_q of c = a + b*sqrt(q), q = p^f, read off the numerators and
    denominators without ``wadm.exact``: the p-adic valuation of a nonzero
    rational is the largest k with p^k dividing its numerator, less the
    largest with p^k dividing its denominator."""

    def power(n):
        k = 0
        while n % p ** (k + 1) == 0:
            k += 1
        return k

    def val_p(r):
        return power(abs(r.numerator)) - power(r.denominator)

    vals = []
    if c.a != 0:
        vals.append(Fraction(val_p(c.a), f))
    if c.b != 0:
        vals.append(Fraction(val_p(c.b), f) + Fraction(1, 2))
    return min(vals, default=INF)


def test_val_q_matches_local_valuation():
    # f = 1, 2, 3; p in the numerator and in the denominator; a zero, b
    # zero, both zero
    for p, f in ((3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        q = p**f
        parts = [Fraction(0), Fraction(1), Fraction(-7, 11), Fraction(p**3), Fraction(-2 * p**2, 5),
                 Fraction(1, p), Fraction(4, p**4), Fraction(p**5, p + 1)]
        for a, b in itertools.product(parts, repeat=2):
            c = QSqrtQ(a, b, q)
            assert val_q(c) == _local_val_q(c, p, f), (c, p, f)


def _reference_norm_xi_val(datum, field, xi, x):
    """min over the terms (lam, c) and w in W of
    val_q(c) + <eta, w lam - lam> + <xi_L, w lam> / [L:Q_p], with the
    test's own ``_local_val_q``."""
    eta = half_sum_positive_roots(datum)
    xi_l = xi.xi_L()
    best = INF
    for lam, c in x.terms:
        for w in weyl_elements(datum):
            wlam = w.on_cochar(lam)
            v = (_local_val_q(c, field.p, field.f)
                 + sum(e * (a - b) for e, a, b in zip(eta, wlam, lam))
                 + Fraction(sum(a * b for a, b in zip(xi_l, wlam)), field.degree))
            best = min(best, v)
    return best


def _norm_cases(seed, count):
    """(datum, field, xi, element) with 0-4 terms, rational and sqrt(q) parts."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        datum, field = rng.choice(NORM_DATA), rng.choice(NORM_FIELDS)
        xi = HighestWeight.of(
            [dominant_rep(datum, [rng.randint(-3, 3) for _ in range(datum.rank)])
             for _ in range(field.degree)])
        p = field.p
        terms = [
            (tuple(rng.randint(-3, 3) for _ in range(datum.rank)),
             QSqrtQ.of(Fraction(rng.randint(-9, 9), rng.choice((1, p, p * p))),
                       Fraction(rng.randint(-9, 9) * rng.choice((1, p)), rng.choice((1, p))),
                       field.q))
            for _ in range(rng.randint(0, 4))
        ]
        cases.append((datum, field, xi, GroupRingElem.from_terms(terms)))
    return cases


def test_norm_matches_orbit_minimum():
    cases = _norm_cases(23, 2000)
    assert {datum.name for datum, *_ in cases} == {d.name for d in NORM_DATA}
    assert {field.degree for _, field, *_ in cases} == {1, 2, 4}
    for datum, field, xi, x in cases:
        assert norm_xi_val(datum, field, xi, x) == _reference_norm_xi_val(datum, field, xi, x), \
            (datum.name, field, xi, x)


def test_norm_and_orbit_minimum_share_no_walk(monkeypatch):
    # the pair "chamber walk vs. Weyl group enumeration": neither side may
    # call the other's way of finding the minimum
    cases = _norm_cases(29, 60)
    expected = [norm_xi_val(*case) for case in cases]
    assert len(set(expected)) > 5

    def forbidden(name):
        return lambda *args, **kwargs: pytest.fail(f"{name} called")

    with monkeypatch.context() as patch:
        for module in (wadm.rootdata, wadm.satake):
            for name in ("_chamber_walk", "antidominant_rep_cochar", "_gamma_val"):
                patch.setattr(module, name, forbidden(name), raising=False)
        assert [_reference_norm_xi_val(*case) for case in cases] == expected
    with monkeypatch.context() as patch:
        for module in (wadm.rootdata, wadm.satake):
            patch.setattr(module, "weyl_elements", forbidden("weyl_elements"), raising=False)
        assert [norm_xi_val(*case) for case in cases] == expected


# --- spectral membership -----------------------------------------------------


def test_spectrum_member_examples():
    xi0 = HighestWeight.zero(GL2, QP)
    assert in_Vxi(GL2, QP, xi0, (0, 0), normalized=True)
    assert not in_Vxi(GL2, QP, xi0, (-1, 1), normalized=True)
    # xi_L itself is a hull vertex of the unnormalized domain
    xi = HighestWeight.of([(0, 2)])
    assert in_Vxi(GL2, QP, xi, xi.xi_L(), normalized=False)


def test_group_ring_validation():
    with pytest.raises(ValueError):
        GroupRingElem(
            (((1, 0), QSqrtQ.one(3)), ((0, 1), QSqrtQ.one(5)))
        )


@pytest.mark.parametrize("build", [
    pytest.param(lambda c: GroupRingElem((((Fraction(1, 2), 0), c),)), id="GroupRingElem"),
    pytest.param(lambda c: GroupRingElem.from_terms([((0, 0), c), ((Fraction(1, 2), 0), c)]),
                 id="from_terms"),
    pytest.param(lambda c: GroupRingElem.monomial((Fraction(1, 2), 0), c), id="monomial"),
])
def test_group_ring_rejects_non_integral_cocharacters(build):
    # int() alone would floor (1/2, 0) to (0, 0)
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        build(QSqrtQ.one(3))


def test_norm_rejects_mismatched_field_q():
    xi0 = HighestWeight.zero(GL2, QP)  # QP has q = 3
    x = GroupRingElem.monomial((1, 0), QSqrtQ.one(5))
    with pytest.raises(ValueError, match="coefficient q does not match the field's q = 3"):
        norm_xi_val(GL2, QP, xi0, x)


@pytest.mark.parametrize("terms", [
    [((1, 0, 0), QSqrtQ.one(3))],
    [((1,), QSqrtQ.one(3))],
    [((0, 1), QSqrtQ.one(3)), ((2, 0, 1), QSqrtQ.of(2, 1, 3))],  # the second term only
], ids=["long", "short", "second-term"])
def test_norm_rejects_a_cocharacter_of_the_wrong_length(terms):
    xi0 = HighestWeight.zero(GL2, QP)
    with pytest.raises(ValueError, match="dimension mismatch in pairing"):
        norm_xi_val(GL2, QP, xi0, GroupRingElem.from_terms(terms))


def test_norm_raises_for_an_infinite_weyl_group():
    # the norm's loops would not end on this datum; it is refused where it is built
    x = GroupRingElem.monomial((1, -1), QSqrtQ.one(3))
    with pytest.raises(wadm.rootdata.InfiniteWeylGroupError):
        hyperbolic = RootDatum.from_cartan([[2, -3], [-3, 2]], name="hyperbolic")
        norm_xi_val(hyperbolic, QP, HighestWeight.zero(hyperbolic, QP), x)


@pytest.mark.parametrize("lam", [(1,), (1, 0, 0)], ids=["short", "long"])
def test_weyl_element_rejects_a_cocharacter_of_the_wrong_length(lam):
    # a short one used to give a wrong vector ((1,) -> (0, 1) under the
    # swap), a long one an IndexError
    x = GroupRingElem.monomial(lam, QSqrtQ.one(3))
    for w in weyl_elements(GL2):
        with pytest.raises(ValueError, match="dimension mismatch in pairing"):
            w.on_cochar(lam)
        with pytest.raises(ValueError, match="dimension mismatch in pairing"):
            twisted_action(GL2, w, x)


# --- sums and products against the public constructors ------------------------


def _same_value(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
group_ring_terms = st.lists(st.tuples(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                                      st.tuples(small, small)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(group_ring_terms, group_ring_terms, st.sampled_from([3, 4, 5]), small)
def test_sums_and_products_match_the_public_constructors(xterms, yterms, q, scalar):
    # x * y, x + y and the QSqrtQ sums and products skip the checks that
    # the constructors make; each equals, hashes and prints like the value
    # built through QSqrtQ(...) and from_terms.  The small supports and
    # coefficients make many sums cancel to zero.
    x = GroupRingElem.from_terms((lam, QSqrtQ.of(a, b, q)) for lam, (a, b) in xterms)
    y = GroupRingElem.from_terms((lam, QSqrtQ.of(a, b, q)) for lam, (a, b) in yterms)
    for (_, c), (_, d) in itertools.product(x.terms, y.terms):
        _same_value(c * d, QSqrtQ(c.a * d.a + q * c.b * d.b, c.a * d.b + c.b * d.a, q))
        _same_value(c + d, QSqrtQ(c.a + d.a, c.b + d.b, q))
        _same_value(c * scalar, QSqrtQ(c.a * scalar, c.b * scalar, q))
        _same_value(scalar * c, QSqrtQ(scalar * c.a, scalar * c.b, q))
    _same_value(x * y, GroupRingElem.from_terms(
        ((lam[0] + mu[0], lam[1] + mu[1]),
         QSqrtQ(c.a * d.a + q * c.b * d.b, c.a * d.b + c.b * d.a, q))
        for (lam, c), (mu, d) in itertools.product(x.terms, y.terms)))
    _same_value(x + y, GroupRingElem.from_terms(list(x.terms) + list(y.terms)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
                          st.tuples(small, small)), max_size=5),
       st.sampled_from(["gl(2)", "gl(3)", "sp(4)"]), st.data())
def test_twisted_action_matches_the_image_built_from_terms(terms, group, data):
    # the image is built by the checking constructor, not from_terms: a Weyl
    # element is injective on cocharacters, so there is nothing to merge
    datum = {"gl(2)": GL2, "gl(3)": GL3, "sp(4)": RootDatum.sp4()}[group]
    x = GroupRingElem.from_terms((lam[:datum.rank], QSqrtQ.of(a, b, 3)) for lam, (a, b) in terms)
    w = data.draw(st.sampled_from(weyl_elements(datum)))
    image = []
    for lam, c in x.terms:
        wlam = w.on_cochar(lam)
        image.append((wlam, c * Fraction(3) ** cocycle_gamma_val(datum, w, lam)))
    _same_value(twisted_action(datum, w, x), GroupRingElem.from_terms(image))
    bad = GroupRingElem.from_terms(list(x.terms) + [((0,) * (datum.rank + 1), QSqrtQ.one(3))])
    with pytest.raises(ValueError, match="dimension mismatch in pairing"):
        twisted_action(datum, w, bad)


def test_monomial_keys_are_checked_int_tuples():
    _same_value(GroupRingElem.monomial([Fraction(2), 1], QSqrtQ.one(3)),
                GroupRingElem.from_terms([((2, 1), QSqrtQ.one(3))]))
    assert type(GroupRingElem.monomial([Fraction(2), 1], QSqrtQ.one(3)).terms[0][0][0]) is int
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        GroupRingElem.monomial([Fraction(1, 2), 1], QSqrtQ.one(3))


def test_products_that_cancel_drop_their_terms():
    one, minus = QSqrtQ.one(3), QSqrtQ.of(-1, 0, 3)
    x = GroupRingElem.from_terms([((0,), one), ((1,), one)])  # 1 + t
    y = GroupRingElem.from_terms([((1,), one), ((0,), minus)])  # t - 1
    _same_value(x * y, GroupRingElem.from_terms([((2,), one), ((0,), minus)]))  # t^2 - 1
    root = GroupRingElem.monomial((0,), QSqrtQ.of(0, 1, 3))  # sqrt(q) * (t^2 - 1)
    _same_value(root * (x * y), GroupRingElem.from_terms(
        [((2,), QSqrtQ.of(0, 1, 3)), ((0,), QSqrtQ.of(0, -1, 3))]))
    _same_value(x * GroupRingElem(()), GroupRingElem(()))
    _same_value(x + x * GroupRingElem.monomial((0,), minus), GroupRingElem(()))
