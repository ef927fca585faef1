"""Checker layer: conversions, named checks, decision routes, membership."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wadm.checker
import wadm.instances
import wadm.isocrystal
from wadm.checker import (
    FAIL,
    PASS,
    UNDECIDED,
    Instance,
    check_instance,
    exists_admissible,
    invariant_norm_inequalities,
    jumps_from_weights,
    membership_check,
    polygons_for_instance,
    weights_from_jumps,
)
from wadm.exact import FieldData
from wadm.instances import parse_instance, render_check_report
from wadm.isocrystal import PhiModule, admissible_by_inequalities, polygon_rows, t_H, t_N
from wadm.cli import main
from wadm.rootdata import HighestWeight, RootDatum, in_Vxi
from wadm.weildeligne import SteinbergChain, Unramified, WDRep

QP = FieldData(p=3, e=1, f=1)
GOLDEN = Path(__file__).parent / "golden"


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


def test_conversions_reject_entries_that_are_not_integers():
    # int() would truncate 1/2 to 0: (1/2, 1) used to read as the jumps (-2, 0)
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        jumps_from_weights([[Fraction(1, 2), 1]])
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        weights_from_jumps([[-2, Fraction(1, 2)]])
    assert jumps_from_weights([[Fraction(0), Fraction(2, 2)]]) == [[-2, 0]]


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


def _reference_norm_rows(zeta_vals, a_rows, field):
    """The norm rows in ``Fraction``, each tail summed anew: (name, ok, lhs,
    rhs) per row, the modulus term [L:Q_p] * (d(d+1) - (i-2)(i-1)) / 2."""
    vals = sorted(Fraction(v) for v in zeta_vals)
    n = len(vals)
    d = n - 1
    agg = [sum(row[j] for row in a_rows) for j in range(n)]
    rows = []
    for i in range(2, n + 1):
        lhs = sum(vals[i - 1:], Fraction(0))
        rhs = sum(agg[i - 1:], Fraction(0)) + Fraction(
            field.degree * (d * (d + 1) - (i - 2) * (i - 1)), 2)
        rows.append((f"norm.ineq.i={i}", lhs <= rhs, lhs, rhs))
    lhs = sum(vals, Fraction(0))
    rhs = sum(agg, Fraction(0)) + Fraction(field.degree * d * (d + 1), 2)
    rows.append(("norm.eq.total", lhs == rhs, lhs, rhs))
    return rows


def _reference_central(vals, a_rows, field):
    """Central character integrality in ``Fraction``."""
    d = len(vals) - 1
    chi_pi = -sum(vals, Fraction(0)) + Fraction(field.degree * d * (d + 1), 2)
    return sum(sum(row) for row in a_rows) + chi_pi == 0


@st.composite
def _norm_data(draw):
    """(vals, weight rows, field): ranks 1-7, 1-3 embeddings, valuations in
    halves and thirds; half the draws have equal totals, so every row can
    go either way."""
    field = FieldData(p=3, e=draw(st.integers(1, 3)), f=1)
    n = draw(st.integers(1, 7))
    a = [sorted(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
         for _ in range(field.degree)]
    den = draw(st.sampled_from((1, 2, 3, 6)))
    vals = [Fraction(v, den) for v in draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))]
    if draw(st.booleans()):
        target = sum(sum(r) for r in a) + Fraction(field.degree * (n - 1) * n, 2)
        vals[-1] = target - sum(vals[:-1])
    return vals, a, field


@settings(max_examples=300, deadline=None)
@given(_norm_data())
def test_norm_rows_match_fraction_reference(data):
    vals, a, field = data
    verdict = invariant_norm_inequalities(vals, a, field)
    got = [(c.name, c.ok, c.lhs, c.rhs) for c in verdict.checks]
    assert got == _reference_norm_rows(vals, a, field)
    assert all(type(c.lhs) is Fraction and type(c.rhs) is Fraction for c in verdict.checks)
    assert verdict.passed == all(ok for _, ok, _, _ in got)
    assert _central(vals, a, field) == _reference_central(vals, a, field)


def test_norm_rows_of_the_empty_module():
    verdict = invariant_norm_inequalities([], [[]], QP)
    assert [c.render() for c in verdict.checks] == ["norm.eq.total: lhs=0 rhs=0 ok=true"]


# --- central character ------------------------------------------------------------


def _central(galois, a_rows, field=QP):
    """Central character integrality, read where ``check_instance`` reads it:
    the ``norm.eq.total`` row of the norm verdict on the arithmetic
    valuations (a Weil-Deligne side's are read off its summands)."""
    if isinstance(galois, WDRep):
        galois = _wd_instance(galois, a_rows).arithmetic_vals()
    row = invariant_norm_inequalities(galois, a_rows, field).checks[-1]
    assert row.name == "norm.eq.total"
    return row.ok


def test_central_char_examples():
    assert _central([0, 2], [[0, 1]], QP)
    assert not _central([0, 3], [[0, 1]], QP)
    assert _central([0], [[0]], QP)


def test_central_char_matches_endpoint_equality():
    rng = random.Random(7)
    from wadm.checker import jumps_from_weights as j_of_a

    for _ in range(200):
        field = FieldData(p=2, e=rng.randint(1, 2), f=rng.randint(1, 2))
        n = rng.randint(1, 5)
        a = [sorted(rng.randint(-5, 5) for _ in range(n)) for _ in range(field.degree)]
        vals = [Fraction(rng.randint(-8, 8)) for _ in range(n)]
        jumps = j_of_a(a)
        module = PhiModule.of_slopes(field, [-v for v in vals])
        assert _central(vals, a, field) == (t_H(jumps) == t_N(module))


def test_central_char_wd_input():
    rep = WDRep(QP, (Unramified(0, 1), Unramified(-2, 1)))
    # geometric vals (0, -2) mean arithmetic vals (0, 2)
    assert _central(rep, [[0, 1]], QP) == _central([0, 2], [[0, 1]], QP)
    # a half-slope chain: arithmetic vals (-1/2, -3/2) sum to -2
    chain = WDRep(QP, (SteinbergChain(Fraction(1, 2), 1, 2),))
    assert _central(chain, [[-3, 0]], QP)
    assert not _central(chain, [[-2, 0]], QP)
    assert _central(chain, [[-3, 0]], QP) == _reference_central(
        [Fraction(-1, 2), Fraction(-3, 2)], [[-3, 0]], QP)


def _random_instance(rng):
    """A random zeta or Weil-Deligne instance of rank 1-5, 1-2 embeddings;
    half the zeta draws and the chain draws near the equal totals."""
    field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=rng.randint(1, 2))
    n = rng.randint(1, 5)
    a = [sorted(rng.randint(-4, 4) for _ in range(n)) for _ in range(field.degree)]
    target = sum(sum(r) for r in a) + Fraction(field.degree * (n - 1) * n, 2)
    if rng.random() < 0.5:
        vals = [Fraction(rng.randint(-12, 12), rng.choice((1, 2))) for _ in range(n)]
        if rng.random() < 0.5:
            vals[-1] = target - sum(vals[:-1])
        return _zeta_instance(vals, a, field)
    parts, left = [], n
    while left:
        if left >= 2 and rng.random() < 0.4:
            length = rng.randint(2, left)
            parts.append(SteinbergChain(Fraction(rng.randint(-6, 6), rng.choice((1, 2))), 1, length))
        else:
            length = rng.randint(1, left)
            parts.append(Unramified(Fraction(rng.randint(-6, 6), rng.choice((1, 2))), length))
        left -= length
    if len(parts) == 1 and isinstance(parts[0], SteinbergChain) and rng.random() < 0.5:
        # the base that makes the totals equal, as in test_exists_chain_integrality_suffices
        twist = field.degree * (n - 1) * n // 2
        parts = [SteinbergChain(-(target + twist) / n, 1, n)]
    return _wd_instance(WDRep(field, tuple(parts)), a)


def test_central_line_is_the_norm_total_row():
    # the report's central.integral line and the norm.eq.total row are one
    # verdict, on every golden instance and on random zeta and
    # Weil-Deligne instances, equal totals or not
    insts = [parse_instance((GOLDEN / f"{name}.inst").read_text(), name)
             for name in ("gl2_pass", "gl2_fail", "gl2_steinberg", "gl4_block")]
    rng = random.Random(29)
    insts += [_random_instance(rng) for _ in range(300)]
    seen = set()
    for inst in insts:
        res = check_instance(inst)
        total = res.norm.checks[-1]
        assert total.name == "norm.eq.total"
        lines = render_check_report(res).splitlines()
        central = lines.index(f"central.integral: ok={'true' if total.ok else 'false'}")
        assert lines[central - 2] == total.render()  # the norm.verdict line is between
        assert res.central_ok is total.ok
        assert total.ok == _reference_central(inst.arithmetic_vals(), inst.weights_a, inst.field)
        seen.add((inst.wd is None, total.ok))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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
        expect = _central(rep, inst.weights_a, field)
        assert exists_admissible(inst).passed == expect


def test_exists_rank13_pass_is_undecided_past_the_oracle_cap():
    rng = random.Random(13)
    a = [sorted(rng.randint(-4, 4) for _ in range(13))]
    vals = [-j for j in jumps_from_weights(a)[0]]  # Newton = Hodge: the inequalities hold
    v = exists_admissible(_zeta_instance(vals, a))
    assert v.status == UNDECIDED
    assert "witness oracle did not run" in v.reason and "capped at rank 12" in v.reason
    assert [c.name for c in v.checks] == [f"adm.ineq.i={i}" for i in range(1, 13)] + ["adm.eq.total"]
    assert all(c.ok for c in v.checks)
    assert v.witness is None and v.newton is not None and v.hodge is not None
    # A failing rank-13 instance never reaches the oracle and keeps its verdict.
    vals[-1] += 1
    assert exists_admissible(_zeta_instance(vals, a)).status == FAIL


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
    assert res.central_ok == _central([0, -1], [[0, 0]], QP)


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
        for fn in ("weak_admissible", "_generic_flags"):
            m.setattr(f"wadm.checker.{fn}", lambda *a, fn=fn: pytest.fail(f"{fn} called"))
        newton, hodge, rows = polygons_for_instance(inst)
    assert rows == list(polygon_rows(newton, hodge))
    dominates = all(ok for *_, ok in rows)
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
        # membership alone yields its one row; the norm rows are the other side's
        assert [c.name for c in got.checks] == ["membership.normalized"]


def test_membership_spectral_vs_galois_conventions():
    # The spectral point (0,0) with trivial weight is a member (direct
    # domain test); the same statement through the Galois-side convention
    # shifts by [L:Q_p]*d/2, so the equivalent instance has valuations
    # (1/2, 1/2).
    gl2 = RootDatum.gl(2)
    xi0 = HighestWeight.zero(gl2, QP)
    assert in_Vxi(gl2, QP, xi0, (0, 0), normalized=True)
    inst = _zeta_instance([Fraction(1, 2), Fraction(1, 2)], [[0, 0]])
    assert membership_check(inst).passed
    # at vals (0, 0) the Galois-side instance sits outside the domain
    assert not membership_check(_zeta_instance([0, 0], [[0, 0]])).passed


def test_membership_sp4_halfintegral_point():
    # non-GL preset (an affinoid query, not a checker instance): the point
    # is the spectral point itself, half-integers fine
    member = in_Vxi(RootDatum.sp4(), QP, HighestWeight.of([(3, 2)]),
                    (Fraction(1, 2), Fraction(-1, 2)), normalized=True)
    assert member is True  # (1/2,-1/2)^dom is far below eta_L + xi_L = (5,3)


def test_membership_pgl2_halfintegral_eta():
    pgl2 = RootDatum.from_cartan([[2]], kind="adjoint", name="pgl(2)")
    member = in_Vxi(pgl2, QP, HighestWeight.of([(1,)]), (Fraction(1, 2),), normalized=True)
    # eta_L = 1/2 = alpha/2 is not a character; 1/2 is dominant and
    # eta_L + xi_L - 1/2 = 1 = alpha, so the point is a member
    assert member is True


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


def test_instance_weights_convert_once_at_construction():
    # weights (1/2, 1) used to be truncated, so the existence verdict read
    # pass; weights (1, 0) constructed and then raised in the middle of
    # check_instance.  Both are refused by the constructor now.
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        _zeta_instance([0, 2], [[Fraction(1, 2), 1]])
    with pytest.raises(ValueError, match="weights must be nondecreasing"):
        _zeta_instance([0, 2], [[1, 0]])
    inst = _zeta_instance([0, 2], [[0, 1]])
    assert inst.jumps() == ((-2, 0),) and inst.jumps() is inst.jumps()


def _count_calls(monkeypatch, name):
    """Count the calls of ``isocrystal.<name>`` through every wadm module
    binding of it."""
    calls = []
    real = getattr(wadm.isocrystal, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (wadm.checker, wadm.instances, wadm.isocrystal):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_inequality_rows_evaluated_once_per_check(monkeypatch, capsys):
    # the rows decide the inequalities once: the passing instance's witness
    # is built without deciding them again
    calls = _count_calls(monkeypatch, "inequality_rows")
    files = [str(GOLDEN / f"{name}.inst") for name in ("gl2_pass", "gl2_fail")]
    assert main(["check", *files]) == 1
    assert "adm.witness.oracle: ok=true" in capsys.readouterr().out
    assert len(calls) == 2


@pytest.mark.parametrize("plot", [False, True], ids=["report", "plot"])
def test_polygon_rows_evaluated_once_per_polygon_command(plot, monkeypatch, tmp_path, capsys):
    # the report, the plot's vertex table and the exit code read one pass
    calls = _count_calls(monkeypatch, "polygon_rows")
    for name, code in (("gl2_pass", 0), ("gl2_fail", 1), ("gl2_steinberg", 0), ("gl4_block", 0)):
        calls.clear()
        extra = ["--plot", str(tmp_path / name)] if plot else []
        assert main(["polygon", str(GOLDEN / f"{name}.inst"), *extra]) == code
        assert len(calls) == 1
        out = capsys.readouterr().out
        expected = GOLDEN / "expected" / f"{name}.polygon.txt"
        if expected.exists():
            assert out == expected.read_text()


def _count_norm_calls(monkeypatch):
    # the norm's one evaluation, which the report and the sweep both read
    calls = []
    real = wadm.checker._norm_tails

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("wadm.checker._norm_tails", counted)
    return calls


def test_norm_evaluated_once_per_instance(monkeypatch, capsys):
    calls = _count_norm_calls(monkeypatch)
    files = [str(GOLDEN / f"{name}.inst") for name in ("gl2_pass", "gl2_fail", "gl2_steinberg")]
    assert main(["check", *files]) == 1
    assert len(calls) == 3
    calls.clear()
    assert main(["sweep", "--rank", "4", "--count", "500", "--seed", "1"]) == 0
    assert len(calls) == 500
    capsys.readouterr()


def test_membership_disagreement_is_reported_not_raised(monkeypatch, capsys):
    # a broken membership side must show as a disagreement: check is
    # undecided (exit 2), the sweep fails its identity (exit 1)
    monkeypatch.setattr("wadm.checker.in_Vxi", lambda *a, **k: not in_Vxi(*a, **k))
    assert main(["check", str(GOLDEN / "gl2_pass.inst")]) == 2
    out = capsys.readouterr().out
    assert "membership.normalized: ok=false" in out
    assert "membership.agrees_with_norm_inequalities: ok=false\n" in out
    assert "membership.reason: membership and the norm inequalities disagree\n" in out
    assert "adm.verdict: pass\n" in out and out.endswith("verdict: undecided\n")
    assert main(["sweep", "--rank", "2", "--count", "10", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert out.count("agree=false") == 10 and out.endswith("verdict: fail\n")


def test_witness_oracle_failure_is_reported_not_raised(monkeypatch, capsys):
    # a witness the oracle rejects contradicts the inequalities: the check is
    # undecided (exit 2) with the failed oracle line and a reason, no traceback
    monkeypatch.setattr("wadm.checker.weak_admissible", lambda *a, **k: False)
    assert main(["check", str(GOLDEN / "gl2_pass.inst")]) == 2
    captured = capsys.readouterr()
    out = captured.out
    assert "adm.witness.oracle: ok=false\n" in out
    assert "adm.reason: the inequalities hold, but the constructed witness failed " \
           "the subobject oracle\n" in out
    assert "adm.verdict: undecided\n" in out and "witness.sigma" not in out
    assert "Traceback" not in captured.err and out.endswith("verdict: undecided\n")
