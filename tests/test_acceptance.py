"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every criterion is property-based at desk scale with exact arithmetic and a
stated runtime budget; expected values come from independent oracles
(brute-force subobject enumeration, exact linear programming, exhaustive
integer sweeps), never from the code path under test.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from wadm.checker import (
    Instance,
    invariant_norm_inequalities,
    translation_verdicts,
    weights_from_jumps,
)
from wadm.cli import main
from wadm.exact import FieldData, QSqrtQ, rank as mat_rank
from wadm.isocrystal import (
    Block,
    Filtration,
    PhiModule,
    admissible_by_inequalities,
    build_admissible_filtration,
    chain_sum_bounds,
    hodge_polygon,
    newton_polygon,
    polygon_dominates,
    steinberg_filtration,
    t_H,
    t_N,
    weak_admissible,
)
from wadm.rootdata import (
    HighestWeight,
    RootDatum,
    dominant_rep,
    eta_L,
    in_hull,
    in_Vxi,
    weyl_elements,
    weyl_orbit,
)
from wadm.satake import (
    GroupRingElem,
    cocycle_gamma_val,
    norm_xi_val,
    twisted_action,
)
from wadm.weildeligne import (
    SteinbergChain,
    Unramified,
    WDRep,
    block_decompose,
    mod_of_wd,
    wd_of_mod,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def _half_pool(lo=-10, hi=10):
    return [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]


def test_criterion_1_inequalities_iff_polygons():
    """Inequality test and polygon test agree on 1000 random instances."""
    start = time.time()
    rng = random.Random(101)
    pool = _half_pool()
    agreements = 0
    for _ in range(1000):
        field = FieldData(p=rng.choice((2, 3, 5)), e=rng.randint(1, 3), f=rng.randint(1, 3))
        while field.degree > 3:
            field = FieldData(p=field.p, e=rng.randint(1, 3), f=rng.randint(1, 3))
        n = rng.randint(1, 6)
        module = PhiModule(field, tuple(Block(rng.choice(pool), 1) for _ in range(n)))
        jumps = [sorted(rng.sample(pool, n)) for _ in range(field.degree)]
        if rng.random() < 0.5:
            delta = (t_N(module) - sum(sum(s) for s in jumps)) / field.degree / n
            jumps = [[j + delta for j in s] for s in jumps]
        lhs = admissible_by_inequalities(module, jumps)
        rhs = polygon_dominates(newton_polygon(module), hodge_polygon(jumps))
        assert lhs == rhs, (module, jumps)
        agreements += 1
    _report(1, agreements == 1000, f"inequality vs polygon agreement on {agreements} instances",
            time.time() - start, 5.0)


def test_criterion_2_construction_vs_oracle():
    """Constructive direction on 200 distinct-slope instances: built
    filtrations pass the subobject oracle; when the inequalities fail, no
    random flag passes it either."""
    start = time.time()
    rng = random.Random(202)
    pool = _half_pool()
    constructed = refuted = 0
    for _ in range(200):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=rng.randint(1, 2))
        while field.degree > 2:
            field = FieldData(p=field.p, e=1, f=rng.randint(1, 2))
        n = rng.randint(1, 4)
        slopes = rng.sample(pool, n)
        module = PhiModule(field, tuple(Block(s, 1) for s in slopes))
        jumps = [sorted(rng.sample(pool, n)) for _ in range(field.degree)]
        if rng.random() < 0.6:
            delta = (t_N(module) - sum(sum(s) for s in jumps)) / field.degree / n
            jumps = [[j + delta for j in s] for s in jumps]
        if admissible_by_inequalities(module, jumps):
            filt = build_admissible_filtration(module, jumps)
            assert weak_admissible(module, filt), (module, jumps)
            constructed += 1
        else:
            for _ in range(50):
                while True:
                    flag = [
                        tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)) for _ in range(n)
                    ]
                    if mat_rank(flag) == n:
                        break
                filt = Filtration(jumps, tuple(tuple(flag) for _ in jumps))
                assert not weak_admissible(module, filt), (module, jumps, flag)
            refuted += 1
    ok = constructed > 30 and refuted > 30
    _report(2, ok, f"{constructed} witnesses oracle-verified, {refuted} refutations x50 flags",
            time.time() - start, 30.0)


def test_criterion_3_chain_sum_lemma_exhaustive():
    """No (hypotheses true, conclusions false) tuple exists in the full
    integer sweep: chain length <= 5, h in [-3,3], 2c in [-6,6], entries
    in [-6,6]."""
    import numpy as np

    start = time.time()
    hyp_count = 0
    checked = 0
    for s in range(0, 5):
        vals = np.arange(-6, 7, dtype=np.int64)
        grids = np.meshgrid(*([vals] * (s + 1)), indexing="ij")
        tuples = np.stack([g.ravel() for g in grids], axis=1)
        prefix2 = 2 * np.cumsum(tuples, axis=1)
        ns = np.arange(s + 1, dtype=np.int64)
        gaps = tuples[:, 1:] - tuples[:, :-1] if s else None
        for h in range(-3, 4):
            gap_mask = (gaps >= h).all(axis=1) if s else np.ones(len(tuples), dtype=bool)
            for c2 in range(-6, 7):
                bounds = (ns + 1) * c2 + h * ns * (ns + 1)
                hyp = gap_mask & (prefix2[:, s] <= bounds[s])
                concl = (prefix2 <= bounds).all(axis=1)
                assert not (hyp & ~concl).any(), (s, h, c2)
                hyp_count += int(hyp.sum())
                checked += len(tuples)
    # cross-validate the exact-arithmetic operation against the sweep logic
    rng = random.Random(303)
    for _ in range(300):
        s = rng.randint(0, 4)
        h = rng.randint(-3, 3)
        c = Fraction(rng.randint(-6, 6), 2)
        ivals = [rng.randint(-6, 6) for _ in range(s + 1)]
        hyp, concl = chain_sum_bounds(h, c, ivals)
        gap_ok = all(ivals[k - 1] + h <= ivals[k] for k in range(1, s + 1))
        total_ok = 2 * sum(ivals) <= (s + 1) * 2 * c + h * s * (s + 1)
        concl_ok = all(
            2 * sum(ivals[: n + 1]) <= (n + 1) * 2 * c + h * n * (n + 1) for n in range(s + 1)
        )
        assert hyp == (gap_ok and total_ok) and concl == concl_ok
        if hyp:
            assert concl
    _report(3, hyp_count > 0, f"{checked} tuples swept, {hyp_count} hypothesis hits, "
            "0 counterexamples", time.time() - start, 20.0)


def test_criterion_4_hull_iff_dominance():
    """Exact-LP hull membership and dominance membership agree on every
    half-lattice point in the orbit bounding box, for general-linear and
    one non-type-A preset."""
    start = time.time()
    cases = [
        (RootDatum.gl(2), FieldData(p=3, e=1, f=1), [(-3, 3)]),
        (RootDatum.gl(3), FieldData(p=2, e=1, f=1), [(-2, 1, 3)]),
        (RootDatum.gl(3), FieldData(p=2, e=2, f=1), [(0, 0, 1), (0, 1, 1)]),
        (RootDatum.sp4(), FieldData(p=3, e=1, f=1), [(3, 2)]),
        (RootDatum.sp4(), FieldData(p=2, e=1, f=2), [(1, 0), (2, 1)]),
    ]
    points = members = 0
    for datum, field, weights in cases:
        xi = HighestWeight.of(weights)
        el = eta_L(datum, field)
        top = tuple(a + b for a, b in zip(el, xi.xi_L()))
        orbit = weyl_orbit(datum, top)
        lows = [min(p[i] for p in orbit) - el[i] for i in range(datum.rank)]
        highs = [max(p[i] for p in orbit) - el[i] for i in range(datum.rank)]
        axes = [
            [Fraction(k, 2) for k in range(int(2 * lo), int(2 * hi) + 1)]
            for lo, hi in zip(lows, highs)
        ]
        for z in itertools.product(*axes):
            got_hull = in_hull(datum, field, xi, z)
            got_dom = in_Vxi(datum, field, xi, z, normalized=False)
            assert got_hull == got_dom, (datum.name, z)
            points += 1
            members += got_hull
    _report(4, members > 100, f"{points} half-lattice points swept, {members} members, "
            "hull == dominance throughout", time.time() - start, 10.0)


def test_criterion_5_chain_filtration_iff_central_equality():
    """500 random chain instances: the chain filtration passes the oracle
    exactly when the central character equality holds (integer jumps)."""
    start = time.time()
    rng = random.Random(505)
    passes = 0
    for _ in range(500):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 2), f=rng.randint(1, 2))
        piece = rng.randint(1, 2)  # piece dimension d_0 + 1 with d_0 <= 1
        s = rng.randint(1, 3)
        n = (s + 1) * piece
        jumps = [sorted(rng.sample(range(-12, 13), n)) for _ in range(field.degree)]
        total = sum(sum(sig) for sig in jumps)
        twist = field.degree * piece * s * (s + 1) // 2
        base = Fraction(total - twist, n)
        if rng.random() >= 0.5:
            base += Fraction(rng.randint(1, 4), 2)
        module = PhiModule.chain(field, piece, s, base)
        filt = steinberg_filtration(module, jumps)
        equality = t_H(filt.jumps) == t_N(module)
        rep = WDRep(field, (SteinbergChain(base, piece, s + 1),))
        # the central character's integrality is the norm total row, on the
        # chain's arithmetic valuations
        weights = weights_from_jumps(jumps)
        vals = Instance("chain", field, tuple(map(tuple, weights)), wd=rep).arithmetic_vals()
        central = invariant_norm_inequalities(vals, weights, field).checks[-1].ok
        got = weak_admissible(module, filt)
        assert got == equality == central, (module, jumps)
        passes += got
    _report(5, passes > 100, f"500 chain instances, {passes} admissible, "
            "oracle == central equality throughout", time.time() - start, 5.0)


def test_criterion_6_satake_suite():
    """Cocycle identity exhaustively on small boxes; twisted-action
    isometry and norm submultiplicativity on 500 random element pairs."""
    start = time.time()
    cocycle_checks = 0
    for datum, box in ((RootDatum.gl(2), 3), (RootDatum.gl(3), 3)):
        ws = weyl_elements(datum)
        lams = list(itertools.product(range(-box, box + 1), repeat=datum.rank))
        for w1, w2 in itertools.product(ws, repeat=2):
            for lam in lams:
                lhs = cocycle_gamma_val(datum, w1 * w2, lam)
                rhs = cocycle_gamma_val(datum, w1, w2.on_cochar(lam)) + cocycle_gamma_val(
                    datum, w2, lam
                )
                assert lhs == rhs
                cocycle_checks += 1
    rng = random.Random(606)
    field = FieldData(p=3, e=1, f=1)
    pair_checks = 0
    for _ in range(500):
        datum = rng.choice((RootDatum.gl(2), RootDatum.gl(3)))
        ws = weyl_elements(datum)
        xi = HighestWeight.of(
            [dominant_rep(datum, [rng.randint(0, 3) for _ in range(datum.rank)])]
        )

        def rand_elem():
            terms = []
            for _ in range(rng.randint(1, 3)):
                lam = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
                coeff = QSqrtQ.of(rng.randint(-6, 6), rng.randint(-6, 6), field.q)
                terms.append((lam, coeff))
            return GroupRingElem.from_terms(terms)

        x, y = rand_elem(), rand_elem()
        vx = norm_xi_val(datum, field, xi, x)
        vy = norm_xi_val(datum, field, xi, y)
        assert norm_xi_val(datum, field, xi, x * y) >= vx + vy
        w = rng.choice(ws)
        assert norm_xi_val(datum, field, xi, twisted_action(datum, w, x)) == vx
        pair_checks += 1
    _report(6, cocycle_checks > 10000 and pair_checks == 500,
            f"{cocycle_checks} exhaustive cocycle identities, 500 isometry and "
            "submultiplicativity pairs", time.time() - start, 10.0)


def test_criterion_7_wd_round_trip():
    """300 random unramified/chain data: dictionary round trip is the
    identity on canonical forms and preserves the Newton number."""
    start = time.time()
    rng = random.Random(707)
    for _ in range(300):
        field = FieldData(p=rng.choice((2, 3, 5)), e=rng.randint(1, 2), f=rng.randint(1, 3))
        if rng.random() < 0.4:
            piece = rng.randint(1, 3)
            length = rng.randint(2, 3)
            if piece * length > 6:
                piece = 1
            rep = WDRep(field, (SteinbergChain(Fraction(rng.randint(-8, 8), 2), piece, length),))
        else:
            parts = []
            dim = 0
            target = rng.randint(1, 6)
            vals = rng.sample([Fraction(k, 2) for k in range(-16, 17)], 8)
            while dim < target:
                mult = rng.randint(1, target - dim)
                jordan = []
                left = mult
                while left:
                    part = rng.randint(1, left)
                    jordan.append(part)
                    left -= part
                parts.append(Unramified(vals.pop(), mult, tuple(jordan)))
                dim += mult
            rep = WDRep(field, tuple(parts))
        module = mod_of_wd(rep)
        assert wd_of_mod(module) == rep.canonical()
        expected_tn = sum((tn for tn, _ in block_decompose(rep)), Fraction(0))
        assert t_N(module) == expected_tn
    _report(7, True, "300 round trips, canonical-form identity and Newton number preserved",
            time.time() - start, 5.0)


def test_criterion_8_translation_identity():
    """The sign-ledger lock: norm inequalities, partial-sum inequalities
    after weight conversion, and normalized membership give one verdict on
    500 random general-linear instances."""
    start = time.time()
    rng = random.Random(808)
    positives = 0
    for _ in range(500):
        field = FieldData(p=rng.choice((2, 3)), e=rng.randint(1, 3), f=rng.randint(1, 3))
        while field.degree > 3:
            field = FieldData(p=field.p, e=1, f=rng.randint(1, 3))
        n = rng.randint(2, 5)
        a_rows = [sorted(rng.randint(-5, 5) for _ in range(n)) for _ in range(field.degree)]
        vals = [Fraction(rng.randint(-14, 14), 2) for _ in range(n)]
        if rng.random() < 0.5:
            target = sum(sum(r) for r in a_rows) + Fraction(field.degree * (n - 1) * n, 2)
            vals[-1] = target - sum(vals[:-1])
        inst = Instance(
            ident="tr",
            field=field,
            weights_a=tuple(tuple(r) for r in a_rows),
            zeta_vals=tuple(vals),
        )
        ineq, adm, member = translation_verdicts(inst)
        assert ineq == adm == member, (vals, a_rows, field)
        positives += ineq
    _report(8, positives > 50, f"500 instances, {positives} positive, three verdicts identical "
            "(sign ledger locked)", time.time() - start, 5.0)


def test_criterion_9_cli_goldens(tmp_path):
    """Committed instance files reproduce their verdict reports and polygon
    vertex tables byte-identically across repeated runs."""
    start = time.time()
    compared = 0
    for name in ("gl2_pass", "gl2_fail", "gl2_steinberg"):
        expected = (GOLDEN / "expected" / f"{name}.check.txt").read_bytes()
        outs = []
        for k in range(2):
            out = tmp_path / f"{name}.{k}.txt"
            main(["check", str(GOLDEN / f"{name}.inst"), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == expected
        compared += 1
    expected_tbl = (GOLDEN / "expected" / "gl2_pass.plot.txt").read_bytes()
    expected_svg = (GOLDEN / "expected" / "gl2_pass.plot.svg").read_bytes()
    for k in range(2):
        prefix = tmp_path / f"plot{k}"
        main(["polygon", str(GOLDEN / "gl2_pass.inst"), "--out",
              str(tmp_path / f"poly{k}.txt"), "--plot", str(prefix)])
        assert (tmp_path / f"plot{k}.txt").read_bytes() == expected_tbl
        assert (tmp_path / f"plot{k}.svg").read_bytes() == expected_svg
        compared += 1
    for k in range(2):
        out = tmp_path / f"sweep{k}.txt"
        main(["sweep", "--rank", "2", "--count", "20", "--seed", "7", "--out", str(out)])
        assert out.read_bytes() == (GOLDEN / "expected" / "sweep_r2_c20_s7.txt").read_bytes()
        compared += 1
    _report(9, compared == 7, "golden verdicts, vertex tables, plots and sweeps byte-identical",
            time.time() - start, 30.0)
