"""Checker layer: conversions, named checks, decision routes, membership."""

import random
from fractions import Fraction

import pytest

from wadm.checker import (
    FAIL,
    PASS,
    UNDECIDED,
    Instance,
    central_char_integral,
    check_instance,
    exists_admissible,
    invariant_norm_inequalities,
    jumps_from_weights,
    membership_check,
    polygons_for_instance,
    weights_from_jumps,
)
from wadm.exact import FieldData
from wadm.isocrystal import PhiModule, admissible_by_inequalities, t_H, t_N
from wadm.rootdata import RootDatum
from wadm.weildeligne import SteinbergChain, Unramified, WDRep

QP = FieldData(p=3, e=1, f=1)


# --- weight conversions -------------------------------------------------------


def test_jumps_from_weights_example():
    assert jumps_from_weights([[0, 1]]) == [[-2, 0]]


def test_weights_from_jumps_example():
    assert weights_from_jumps([[-2, 0]]) == [[0, 1]]


def test_conversion_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [sorted(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        assert weights_from_jumps(jumps_from_weights(a)) == [list(r) for r in a]


def test_conversion_monotonicity_errors():
    with pytest.raises(ValueError):
        jumps_from_weights([[1, 0]])
    with pytest.raises(ValueError):
        weights_from_jumps([[0, 0]])


# --- invariant norm inequalities -----------------------------------------------


def test_norm_inequalities_pass():
    v = invariant_norm_inequalities([0, 2], [[0, 1]], QP)
    assert v.status == PASS
    rendered = [c.render() for c in v.checks]
    assert "norm.ineq.i=2: lhs=2 rhs=2 ok=true" in rendered
    assert "norm.eq.total: lhs=2 rhs=2 ok=true" in rendered


def test_norm_inequalities_fail():
    v = invariant_norm_inequalities([-1, 3], [[0, 1]], QP)
    assert v.status == FAIL
    assert any(c.name == "norm.ineq.i=2" and not c.ok for c in v.checks)


def test_norm_inequalities_d0():
    assert invariant_norm_inequalities([5], [[5]], QP).status == PASS
    assert invariant_norm_inequalities([4], [[5]], QP).status == FAIL


# --- central character ------------------------------------------------------------


def test_central_char_examples():
    assert central_char_integral([0, 2], [[0, 1]], QP)
    assert not central_char_integral([0, 3], [[0, 1]], QP)
    assert central_char_integral([0], [[0]], QP)


def test_central_char_matches_endpoint_equality():
    rng = random.Random(7)
    from wadm.checker import jumps_from_weights as j_of_a
    from wadm.isocrystal import Filtration

    for _ in range(200):
        field = FieldData(p=2, e=rng.randint(1, 2), f=rng.randint(1, 2))
        n = rng.randint(1, 5)
        a = [sorted(rng.randint(-5, 5) for _ in range(n)) for _ in range(field.degree)]
        vals = [Fraction(rng.randint(-8, 8)) for _ in range(n)]
        jumps = j_of_a(a)
        module = PhiModule.of_slopes(field, [-v for v in vals])
        filt = Filtration.of_jumps(jumps)
        assert central_char_integral(vals, a, field) == (t_H(filt) == t_N(module))


def test_central_char_wd_input():
    rep = WDRep(QP, (Unramified(0, 1), Unramified(-2, 1)))
    # geometric vals (0, -2) mean arithmetic vals (0, 2)
    assert central_char_integral(rep, [[0, 1]], QP) == central_char_integral([0, 2], [[0, 1]], QP)


# --- existence routes ---------------------------------------------------------------


def _zeta_instance(vals, a, field=QP, ident="t"):
    return Instance(
        ident=ident,
        field=field,
        weights_a=tuple(tuple(row) for row in a),
        zeta_vals=tuple(Fraction(v) for v in vals),
    )


def test_exists_distinct_slopes_pass_with_witness():
    v = exists_admissible(_zeta_instance([0, 2], [[0, 1]]))
    assert v.status == PASS
    assert v.witness is not None
    assert v.newton is not None and v.hodge is not None
    assert any(c.name == "adm.witness.oracle" and c.ok for c in v.checks)


def test_exists_distinct_slopes_fail():
    v = exists_admissible(_zeta_instance([-1, 3], [[0, 1]]))
    assert v.status == FAIL
    assert v.witness is None


def test_exists_repeated_zeta_vals_undecided():
    v = exists_admissible(_zeta_instance([1, 1], [[0, 1]]))
    assert v.status == UNDECIDED
    assert "repeated" in v.reason


def test_exists_matches_inequalities_random():
    rng = random.Random(11)
    for _ in range(100):
        field = FieldData(p=rng.choice((2, 5)), e=1, f=rng.randint(1, 2))
        n = rng.randint(1, 4)
        vals = rng.sample(range(-6, 7), n)
        a = [sorted(rng.randint(-4, 4) for _ in range(n)) for _ in range(field.degree)]
        inst = _zeta_instance(vals, a, field)
        module = PhiModule.of_slopes(field, [-Fraction(v) for v in vals])
        expect = admissible_by_inequalities(module, inst.jumps())
        assert exists_admissible(inst).passed == expect


def _wd_instance(rep, a, ident="t"):
    return Instance(
        ident=ident,
        field=rep.field,
        weights_a=tuple(tuple(row) for row in a),
        wd=rep,
    )


def test_exists_chain_route():
    # chain of length 2 at base -1: t_N = -1 + 0 = -1; jumps must sum to -1
    rep = WDRep(QP, (SteinbergChain(-1, 1, 2),))
    inst = _wd_instance(rep, weights_from_jumps([[-1, 0]]))
    v = exists_admissible(inst)
    assert v.status == PASS and v.witness is not None
    inst_bad = _wd_instance(rep, weights_from_jumps([[-1, 1]]))
    assert exists_admissible(inst_bad).status == FAIL


def test_exists_chain_integrality_suffices():
    # integer jumps: verdict equals the central character integrality
    rng = random.Random(13)
    for _ in range(100):
        field = FieldData(p=2, e=rng.randint(1, 2), f=rng.randint(1, 2))
        piece, length = rng.randint(1, 2), rng.randint(2, 3)
        n = piece * length
        jumps = [sorted(rng.sample(range(-10, 11), n)) for _ in range(field.degree)]
        total = sum(sum(s) for s in jumps)
        twist = field.degree * piece * (length - 1) * length // 2
        if rng.random() < 0.5 and (total - twist) % n == 0:
            base = Fraction(total - twist, n)
        else:
            base = Fraction(total - twist, n) + 1
        rep = WDRep(field, (SteinbergChain(base, piece, length),))
        inst = _wd_instance(rep, weights_from_jumps(jumps))
        expect = central_char_integral(rep, inst.weights_a, field)
        assert exists_admissible(inst).passed == expect


def test_exists_ramified_undecided():
    rep = WDRep(QP, (Unramified(0, 1), Unramified(2, 1)), ramified=True)
    assert exists_admissible(_wd_instance(rep, [[0, 1]])).status == UNDECIDED


def test_exists_wd_distinct_uses_witness_route():
    rep = WDRep(QP, (Unramified(0, 1), Unramified(-2, 1)))
    v = exists_admissible(_wd_instance(rep, [[0, 1]]))
    assert v.status == PASS and v.witness is not None


def test_exists_block_route_for_sums():
    # two chars at equal valuation: declared structure decides via blocks
    rep = WDRep(QP, (Unramified(Fraction(1, 2), 2),))
    inst = _wd_instance(rep, weights_from_jumps([[0, 1]]))
    v = exists_admissible(inst)
    assert v.status in (PASS, FAIL)
    assert v.witness is None
    # t_N total = 1 and jump total = 1, boundary at x=1: hodge 0 <= 1/2
    assert v.passed


def test_exists_block_interior_failure():
    rep = WDRep(QP, (Unramified(-2, 1), Unramified(2, 1), SteinbergChain(0, 1, 2)))
    # dims: 1 + 1 + 2; jumps sum must be t_N total = -2 + 2 + (0 + 1) = 1
    jumps = [[-1, 0, 1, 1]]  # nondecreasing is fine for the block polygon
    from wadm.checker import Instance as I

    inst = Instance(
        ident="b",
        field=QP,
        weights_a=tuple(tuple(r) for r in weights_from_jumps([[-2, -1, 1, 3]])),
        wd=rep,
    )
    v = exists_admissible(inst)
    assert v.status in (PASS, FAIL)
    assert v.newton is not None and v.hodge is not None


def test_check_instance_ramified_undecided():
    rep = WDRep(QP, (Unramified(0, 1), Unramified(1, 1)), ramified=True)
    res = check_instance(_wd_instance(rep, [[0, 0]]))
    assert res.status == UNDECIDED and "ramified" in res.adm.reason
    # the central character comes from the arithmetic valuations (0, -1)
    assert res.central_ok == central_char_integral([0, -1], [[0, 0]], QP)


POLYGON_CASES = {
    "raw-pass": _zeta_instance([0, 2], [[0, 1]]),
    "raw-fail": _zeta_instance([-1, 3], [[0, 1]]),
    "wd-distinct": _wd_instance(WDRep(QP, (Unramified(0, 1), Unramified(-2, 1))), [[0, 1]]),
    "wd-distinct-fail": _wd_instance(
        WDRep(QP, (Unramified(Fraction(-1, 2), 1), Unramified(3, 1), Unramified(1, 1))),
        weights_from_jumps([[-1, 0, 1]])),
    "chain": _wd_instance(WDRep(QP, (SteinbergChain(-1, 1, 2),)), weights_from_jumps([[-1, 0]])),
    "block-sum": _wd_instance(
        WDRep(QP, (Unramified(-2, 1), Unramified(2, 1), SteinbergChain(0, 1, 2))),
        weights_from_jumps([[-2, -1, 1, 3]])),
    "block-mult": _wd_instance(WDRep(QP, (Unramified(Fraction(1, 2), 2),)),
                               weights_from_jumps([[0, 1]])),
}


@pytest.mark.parametrize("name", sorted(POLYGON_CASES))
def test_polygon_command_draws_the_verdict_polygons(name, monkeypatch):
    inst = POLYGON_CASES[name]
    with monkeypatch.context() as m:  # the polygons need no witness and no oracle
        for fn in ("weak_admissible", "build_admissible_filtration"):
            m.setattr(f"wadm.checker.{fn}", lambda *a, fn=fn: pytest.fail(f"{fn} called"))
        newton, hodge, dominates = polygons_for_instance(inst)
    verdict = exists_admissible(inst)
    assert verdict.status != UNDECIDED
    assert (newton, hodge) == (verdict.newton, verdict.hodge)
    if not name.startswith("chain"):
        assert dominates == verdict.passed


# --- membership -----------------------------------------------------------------


def test_membership_gl_cross_check():
    inst = _zeta_instance([0, 2], [[0, 1]])
    v = membership_check(inst)
    assert v.passed
    inst2 = _zeta_instance([-1, 3], [[0, 1]])
    assert not membership_check(inst2).passed


def test_membership_identity_random():
    rng = random.Random(17)
    for _ in range(150):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=rng.randint(1, 2))
        n = rng.randint(1, 4)
        a = [sorted(rng.randint(-4, 4) for _ in range(n)) for _ in range(field.degree)]
        vals = [Fraction(rng.randint(-12, 12), 2) for _ in range(n)]
        if rng.random() < 0.5:
            target = sum(sum(r) for r in a) + Fraction(field.degree * (n - 1) * n, 2)
            vals[-1] = target - sum(vals[:-1])
        inst = _zeta_instance(vals, a, field)
        got = membership_check(inst)
        want = invariant_norm_inequalities(vals, a, field)
        assert got.passed == want.passed


def test_membership_spectral_vs_galois_conventions():
    # The spectral point (0,0) with trivial weight is a member (direct
    # domain test); the same statement through the Galois-side convention
    # shifts by [L:Q_p]*d/2, so the equivalent instance has valuations
    # (1/2, 1/2).
    from wadm.rootdata import HighestWeight
    from wadm.satake import spectrum_member

    gl2 = RootDatum.gl(2)
    xi0 = HighestWeight.zero(gl2, QP)
    assert spectrum_member(gl2, QP, xi0, (0, 0), normalized=True)
    inst = _zeta_instance([Fraction(1, 2), Fraction(1, 2)], [[0, 0]])
    assert membership_check(inst).passed
    # at vals (0, 0) the Galois-side instance sits outside the domain
    assert not membership_check(_zeta_instance([0, 0], [[0, 0]])).passed


def test_membership_sp4_halfintegral_point():
    # non-GL preset: valuations are the spectral point, half-integers fine
    inst = Instance(
        ident="sp4",
        field=QP,
        weights_a=((3, 2),),
        zeta_vals=(Fraction(1, 2), Fraction(-1, 2)),
        group=RootDatum.sp4(),
        normalized=True,
    )
    v = membership_check(inst)
    assert v.status in (PASS, FAIL)  # decided, no error on the half-integer path
    assert v.passed  # (1/2,-1/2)^dom is far below eta_L + xi_L = (5,3)


def test_membership_pgl2_halfintegral_eta():
    pgl2 = RootDatum.from_cartan([[2]], kind="adjoint", name="pgl(2)")
    inst = Instance(
        ident="pgl2",
        field=QP,
        weights_a=((1,),),
        zeta_vals=(Fraction(1, 2),),
        group=pgl2,
        normalized=True,
    )
    assert membership_check(inst).status in (PASS, FAIL)


# --- full check --------------------------------------------------------------------


def test_check_instance_overall():
    res = check_instance(_zeta_instance([0, 2], [[0, 1]], ident="gl2-pass"))
    assert res.status == PASS
    assert res.norm.passed and res.central_ok and res.adm.passed and res.membership.passed
    res2 = check_instance(_zeta_instance([-1, 3], [[0, 1]], ident="gl2-fail"))
    assert res2.status == FAIL
    # the totals match (central character is integral); the tail inequality fails
    assert res2.central_ok
    assert not res2.norm.passed and not res2.adm.passed and not res2.membership.passed


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(ident="x", field=QP, weights_a=((0, 1),))
    with pytest.raises(ValueError):
        Instance(ident="x", field=QP, weights_a=((0, 1),), zeta_vals=(1,))
    with pytest.raises(ValueError):
        Instance(
            ident="x",
            field=FieldData(p=3, e=2, f=1),
            weights_a=((0, 1),),
            zeta_vals=(0, 1),
        )
    with pytest.raises(ValueError):
        Instance(
            ident="x",
            field=QP,
            weights_a=((0, 1),),
            zeta_vals=(0, 1),
            group=RootDatum.gl(3),
        )
