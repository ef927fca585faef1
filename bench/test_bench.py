"""Self-tests of the benchmark's own code: reference verdicts, the tail
percentile rule, self-time subtraction, the gauge's scaling and the box
generator.

    python3 -m pytest -q bench/test_bench.py

The reference tests also hold the reference against wadm on generated
inputs, so a reference bug cannot hide behind a matching program bug in
only one of them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gauge  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from run import spread, tail_percentile  # noqa: E402


def test_majorized_on_hand_cases():
    assert ref.majorized([1, 2], [0, 3])
    assert ref.majorized([Fraction(1, 2), Fraction(5, 2)], [0, 3])
    assert not ref.majorized([-1, 4], [0, 3])  # top tail 4 > 3
    assert not ref.majorized([1, 1], [0, 3])  # totals differ
    assert ref.majorized([3, 0], [0, 3])  # order of the values is irrelevant


def test_golden_verdicts_from_reference():
    # gl2-pass: weights (0,1), zeta (0,2); gl2-fail: zeta (-1,3).
    assert ref.zeta_expect([0, 2], [[0, 1]], 1)["adm"] == ref.PASS
    assert ref.zeta_expect([-1, 3], [[0, 1]], 1)["adm"] == ref.FAIL
    assert ref.zeta_expect([1, 1], [[0, 1]], 1)["adm"] == ref.UNDECIDED
    # gl2-steinberg: chain base -1, dim 1, len 2, jumps (-1, 0).
    assert ref.chain_expect(-1, 1, 2, [[-1, 0]], 1)["adm"] == ref.PASS
    assert ref.chain_expect(Fraction(-1, 2), 1, 2, [[-1, 0]], 1)["adm"] == ref.FAIL


def test_block_boundaries():
    parts = [("steinberg", 0, 1, 2), ("unramified", 0, 1)]  # pieces (1, 2), (0, 1)
    assert ref.block_admissible(parts, [[-1, 0, 2]], 1)  # prefix sums -1 <= 0, 1 == 1
    assert not ref.block_admissible(parts, [[-1, 0, 3]], 1)  # endpoint 2 != 1
    assert not ref.block_admissible(parts, [[1, 2, -2]], 1)  # 1 > 0 at x = 1


def test_gl_norm_reference_hand_value():
    # Golden satake-norm-gl2: lambda (1,0), unit coefficient, trivial weight.
    assert ref.gl_norm_val([((1, 0), 1, 0)], [[0, 0]], 3, 1, 1) == 0
    assert ref.gl_norm_val([((0, 1), 1, 0)], [[0, 0]], 3, 1, 1) == -1


def _check_batch_instances(seed):
    plan = inputs.check_batch(seed, HERE.parent, "bench/out/test")
    for unit in plan.units:
        if unit.expect[0] == "reports":
            for rel, (ident, expect) in zip(unit.args[1:], unit.expect[1]):
                if not isinstance(expect, str):
                    yield plan.files[rel], expect


def test_reference_agrees_with_wadm_on_generated_instances():
    from wadm.checker import check_instance
    from wadm.instances import parse_instance

    seen = 0
    for text, expect in _check_batch_instances(7):
        r = check_instance(parse_instance(text))
        got = {"norm": r.norm.status, "central": r.central_ok, "adm": r.adm.status,
               "membership": r.membership.status}
        assert got == expect, text
        seen += 1
    assert seen == inputs.N_ZETA + inputs.N_UNDECIDED + inputs.N_CHAIN + inputs.N_BLOCK


def test_generators_are_seeded_and_half_passing():
    a = inputs.check_batch(3, HERE.parent, "x")
    b = inputs.check_batch(3, HERE.parent, "x")
    c = inputs.check_batch(4, HERE.parent, "x")
    assert a.digest() == b.digest() != c.digest()
    assert 0.35 < a.passing / a.judged < 0.6
    deep = inputs.check_deep(3, HERE.parent, "x")
    assert deep.passing * 2 == deep.judged == 2 * len(inputs.DEEP_RANKS)


def test_queries_match_wadm():
    from wadm.cli import main

    plan = inputs.queries_cold(5, HERE.parent, "x")
    for unit in plan.units[:2]:  # gl(8) and gl(12): cheap enough here
        text = plan.files[unit.args[1]]
        path = HERE / "out" / "test-query.inst"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        out = HERE / "out" / "test-query.txt"
        code = main([unit.args[0], str(path), "--out", str(out)])
        _, want_code, want = unit.expect
        assert code == want_code
        assert out.read_text() == want


def test_warm_boxes_match_criterion_4():
    from wadm.exact import FieldData
    from wadm.rootdata import HighestWeight, RootDatum, eta_L, weyl_orbit

    total = 0
    for group, rank, pef, xi in inputs.WARM_CASES:
        datum = RootDatum.gl(rank) if group == "gl" else RootDatum.sp4()
        field = FieldData(*pef)
        hw = HighestWeight.of(xi)
        el = eta_L(datum, field)
        top = tuple(a + b for a, b in zip(el, hw.xi_L()))
        orbit = weyl_orbit(datum, top)
        axes = [[Fraction(k, 2) for k in range(int(2 * (min(p[i] for p in orbit) - el[i])),
                                               int(2 * (max(p[i] for p in orbit) - el[i])) + 1)]
                for i in range(rank)]
        box = inputs.warm_box(group, rank, field.degree, xi)
        assert box == list(itertools.product(*axes))
        total += len(box)
    assert total == 7079


def test_tail_percentile_rule():
    assert tail_percentile(list(range(19))) is None  # median has only 9 above it
    pct, value, n = tail_percentile(list(range(20)))
    assert (pct, value, n) == (50, 9, 20)
    assert tail_percentile(list(range(100)))[:2] == (90, 89)
    assert tail_percentile(list(range(1000)))[:2] == (99, 989)
    assert tail_percentile(list(range(10_000)))[:2] == (99.9, 9989)


def test_spread_is_quartile_distance_over_median():
    assert spread([1.0] * 10) == 0
    assert abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 5.5 / 5.5) < 1e-12


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(1, 3), (5, 6)], 0, 10) == 3
    assert spans.covered([(1, 5), (2, 3), (4, 8)], 0, 10) == 7  # nested and overlapping
    assert spans.covered([(-5, 2), (9, 20)], 0, 10) == 3  # clipped to the parent


def test_tracer_self_time_subtracts_children():
    ticks = iter(range(0, 1000, 1))
    tracer = spans.Tracer(clock=lambda: next(ticks) * 10)

    def leaf():
        return 1

    def inner():
        return leaf() + leaf()

    def outer():
        return inner() + leaf()

    leaf, inner, outer = (tracer.wrap(n, f) for n, f in
                          (("m.leaf", leaf), ("m.inner", inner), ("m.outer", outer)))
    assert outer() == 3
    funcs, edges = tracer.aggregates()
    # clock reads (x10): outer 0, inner 1, leaf 2-3, leaf 4-5, inner end 6,
    # leaf 7-8, outer end 9.
    assert funcs["m.leaf"] == [3, 30, 30, 0]
    assert funcs["m.inner"] == [1, 50, 30, 0]
    assert funcs["m.outer"] == [1, 90, 90 - 50 - 10, 0]
    assert edges["m.inner|m.leaf"] == [2, 20]
    assert edges["|m.outer"] == [1, 90]


def test_tracer_counts_errors_and_keeps_spans():
    tracer = spans.Tracer(keep=1)

    def boom():
        raise ValueError("x")

    boom = tracer.wrap("m.boom", boom)
    for _ in range(2):
        try:
            boom()
        except ValueError:
            pass
    funcs, _ = tracer.aggregates()
    assert funcs["m.boom"][0] == 2 and funcs["m.boom"][3] == 2
    assert len(tracer.spans) == 1 and tracer.dropped == 1


def test_traced_cli_wraps_every_binding(tmp_path):
    """The traced child prints the golden report unchanged, and the oracle's
    rank calls show up under weak_admissible, which holds only if the
    ``isocrystal.mat_rank`` binding was wrapped as well as ``exact.rank``."""
    golden = HERE.parent / "tests" / "golden"
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", "--trace-out", str(trace), "--",
         "check", str(golden / "gl2_pass.inst")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "expected" / "gl2_pass.check.txt").read_text()
    doc = json.loads(trace.read_text())
    assert doc["edges"]["isocrystal.weak_admissible|exact.rank"][0] == 3 * 2  # subsets x levels
    assert doc["funcs"]["cli.main"][:1] == [1]
    assert set(doc["cache"]) == set(spans.CACHED)


def test_gauge_scaling():
    r = gauge.REF_TICK_S
    # Ticks at the nominal speed only take out their own time.
    assert math.isclose(gauge.scaled(1.0, [r, r]), 1.0 - 2 * r)
    # Ticks at half the nominal speed: the machine was slow, the time halves.
    assert math.isclose(gauge.scaled(1.0 + 4 * r, [2 * r, 2 * r]), 0.5)
    # Each op gets the mean speed of the two ticks around it.
    got = gauge.factors(5, [0, 2, 5], [r, 2 * r, 4 * r])
    assert [round(f, 9) for f in got] == [0.75, 0.75, 0.375, 0.375, 0.375]
    try:
        gauge.factors(4, [0, 2, 5], [r, r, r])
    except ValueError:
        pass
    else:
        raise AssertionError("factors accepted ticks that do not cover the ops")


def test_gauged_child_prints_golden(tmp_path):
    """The gauge's sampler thread leaves wadm's output byte-identical."""
    golden = HERE.parent / "tests" / "golden"
    ticks = tmp_path / "gauge.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", "--gauge-out", str(ticks), "--",
         "check", str(golden / "gl2_pass.inst")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "expected" / "gl2_pass.check.txt").read_text()
    times = json.loads(ticks.read_text())
    assert times and all(t > 0 for t in times)


def test_split_reports_round_trips_goldens():
    golden = HERE.parent / "tests" / "golden" / "expected"
    texts = [(golden / f"{n}.check.txt").read_text() for n in inputs.GOLDENS]
    reports = verify.split_reports("\n".join(texts))
    assert sorted(reports.values()) == sorted(texts)

