"""wadm benchmark: four workloads, measured from outside as users run wadm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run.  Prints a readable summary, then, as the last line, one
        JSON object {"correct", "attempted", "failed", "metrics"}: the
        end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
        metrics with --trace 1.  Exits 1 if any output disagrees with the
        benchmark's reference.

    python3 bench/run.py [--trace 1]
        Every workload once; with --trace 1 also untraced, to report the
        tracing overhead.

    python3 bench/run.py --repeat N [--workload NAME]
        N runs per workload on seeds seed..seed+N-1, and the spread of each
        end-to-end metric (quartile distance over median) against its bound.

Closed loop: one client, one operation at a time, at most one working
child process alive.  Each run measures whole cycles of its workload's units and
stops before the next cycle would overrun --seconds (at least one cycle),
so a run takes about --seconds however fast the machine is.
Timings use time.perf_counter, scaled to a fixed machine speed by gauge
ticks taken inside each timed process, with every process of the run
pinned to one CPU (see gauge.py); the summary also prints the unscaled
figures.  Peak RSS comes from os.wait4 per child, in launch.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import inputs
import spans
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PY = sys.executable
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run must end well inside 180 s
SHARDS = 8  # domains_warm worker processes per cycle, one slice of the op list each
CLOSURES = ("rootdata.all_roots", "rootdata.positive_roots", "rootdata.half_sum_positive_roots")


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_workload, which stops the launcher


class Launcher:
    """The launch.py process that starts every child (see launch.py for
    why).  It leads its own process group, so that a run that is cut can
    kill it together with the child it waits for."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen([PY, str(BENCH / "launch.py")], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     process_group=0)
        self.busy = False

    def run(self, argv, stdout: Path, stderr: Path):
        """Run one child to completion: (wall seconds, exit code, peak RSS MB)."""
        self.busy = True
        self.proc.stdin.write(json.dumps([argv, str(stdout), str(stderr)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launch.py ended early")
        self.busy = False
        return tuple(json.loads(line))

    def stop(self) -> None:
        if self.busy:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def tail_percentile(samples, beyond: int = 10):
    """The highest of the standard percentiles with at least ``beyond``
    samples above its nearest rank: (percentile, value, sample count), or
    None when even the median has too few."""
    n = len(samples)
    ordered = sorted(samples)
    for permille in (999, 990, 950, 900, 750, 500):
        idx = -(-permille * n // 1000) - 1
        if idx >= 0 and n - 1 - idx >= beyond:
            return permille / 10, ordered[idx], n
    return None


def spread(values) -> float:
    """Quartile distance over the median (statistics.quantiles, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


class Run:
    """State of one workload run: counts, timings and merged traces."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.setup = []
        self.busy = self.latency_p50 = 0.0  # busy: summed time of the timed units
        self.wall = 0.0  # busy before scaling
        self.factors = []  # the scale factor of every timed process
        self.latencies = []  # every latency sample, for the tail
        self.ok = self.attempted = self.errors = self.wrong = self.rss = 0
        self.notes = []
        self.cycles = 0
        self.subobjects = 0
        self.funcs, self.edges, self.cache = {}, {}, {}
        self.splits = {}
        self.main_share = {}
        self.spans_out = None
        self.spans_written = 0
        self.launcher = Launcher()

    def set_up(self, probe):
        """Generate and write the inputs, then start ``probe`` (interpreter
        start, import, warm-up); timed SETUP_REPEATS times (once when
        traced, which reports no set-up time).  Returns the plan."""
        for _ in range(1 if self.trace else SETUP_REPEATS):
            sampler = gauge.Sampler()
            t0 = time.perf_counter()
            plan = inputs.PLANS[self.name](self.seed, ROOT, str((self.dir / "data").relative_to(ROOT)))
            plan.write(ROOT)
            generate = gauge.scaled(time.perf_counter() - t0, sampler.stop())
            wall, code, _, err, _ = self.child(probe + ["--gauge-out", str(self.gauge_file)])
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
            self.setup.append(generate + wall)
        self.rss = 0  # report the measured processes, not the probes
        self.wall = 0.0
        self.factors.clear()
        return plan

    @property
    def gauge_file(self) -> Path:
        return self.dir / "gauge.json"

    def child(self, argv):
        """Run one child: (seconds, exit code, stdout, stderr, scale factor).
        When argv has --gauge-out (self.gauge_file), the seconds are scaled
        by the child's ticks and its wall time adds to ``wall``; else they
        are wall seconds and the factor is 1."""
        out, err = self.dir / "stdout", self.dir / "stderr"
        self.gauge_file.unlink(missing_ok=True)
        wall, code, rss = self.launcher.run(argv, out, err)
        self.rss = max(self.rss, rss)
        factor = 1.0
        if self.gauge_file.exists():
            ticks = json.loads(self.gauge_file.read_text(encoding="utf-8"))
            factor = gauge.scaled(wall, ticks) / wall
            self.wall += wall
            self.factors.append(factor)
        return (wall * factor, code, out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"), factor)

    def count(self, ops: int, errors: int, wrong: int, notes=()) -> None:
        self.attempted += ops
        self.ok += ops - errors - wrong
        self.errors += errors
        self.wrong += wrong
        self.notes += notes

    def trace_args(self, path: Path) -> list:
        return ["--trace-out", str(path), "--keep", str(spans.SPANS_KEPT - self.spans_written)]

    def absorb(self, path: Path, label: str = "", wall: float = 0.0) -> None:
        """Merge one child's trace file, then delete it.  ``label`` and
        ``wall`` name and time a CLI unit, for the splits."""
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        spans.merge(self.funcs, doc["funcs"])
        spans.merge(self.edges, doc["edges"])
        spans.merge(self.cache, doc["cache"])
        main = doc["funcs"].get("cli.main")
        if label and main:
            self.main_share.setdefault(label, []).append(main[1] / 1e9 / wall)
            closure = sum(row[1] for key, row in doc["edges"].items()
                          if key.split("|")[1] in CLOSURES and key.split("|")[0] not in CLOSURES)
            self.splits.setdefault(label, []).append(closure / main[1])
        if self.spans_out is None:
            self.spans_out = open(self.dir / "spans.jsonl", "w", encoding="utf-8")
        for span in doc["spans"]:
            self.spans_out.write(json.dumps(span) + "\n")
        self.spans_written += len(doc["spans"])

    def loop(self, cycle) -> None:
        """Run whole cycles until the next one, as long as the mean so far,
        would overrun --seconds."""
        start = time.perf_counter()
        while True:
            cycle()
            self.cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / self.cycles > self.seconds:
                return


def run_cli(run: Run):
    """Workloads whose unit is one CLI invocation in a fresh interpreter.

    Every cycle runs the same units.  A latency sample (the units that
    share ``unit.sample``) has one time per cycle, the sum of its units'
    times, and its value is the mean of those times; latency_p50_s is the
    median over the samples.  Every unit runs as ``child.py cli``, which
    is ``python -m wadm`` plus the gauge's sampler thread."""
    cli = [PY, str(BENCH / "child.py"), "cli"]
    plan = run.set_up(cli)
    trace_file = run.dir / "trace.json"
    samples = {unit.sample: [] for unit in plan.units if unit.sample}

    def cycle():
        per_sample = dict.fromkeys(samples, 0.0)
        for k, unit in enumerate(plan.units):
            argv = cli + ["--gauge-out", str(run.gauge_file)]
            if run.trace:
                argv += [*run.trace_args(trace_file),
                         "--trace-id", str(run.cycles * len(plan.units) + k + 1)]
            wall, code, out, err, factor = run.child(argv + ["--", *unit.args])
            run.count(unit.ops, *verify.check_unit(unit, code, out, err))
            run.subobjects += unit.subobjects
            run.busy += wall
            if unit.sample:
                per_sample[unit.sample] += wall
            if run.trace and trace_file.exists():
                run.absorb(trace_file, unit.label, wall / factor)
        for name, wall in per_sample.items():
            samples[name].append(wall)

    run.loop(cycle)
    run.latency_p50 = statistics.median(statistics.mean(v) for v in samples.values())
    run.latencies = [t for v in samples.values() for t in v]
    return plan


def run_warm(run: Run):
    """domains_warm: the op list is cut into SHARDS slices, and a cycle runs
    each slice in a fresh worker process that warms its caches before it
    times its ops.  Each op time is scaled by its worker's gauge factor.
    The latency median is taken over every op time of the run."""
    worker = [PY, str(BENCH / "child.py"), "warm", "--inputs", str(run.dir / "data" / "warm.json")]
    plan = run.set_up(worker)
    results = run.dir / "results.json"
    trace_file = run.dir / "trace.json"
    n = len(plan.units)
    op_wall = []  # unscaled op time of each worker
    cuts = [n * s // SHARDS for s in range(SHARDS + 1)]

    def cycle():
        for first, end in zip(cuts, cuts[1:]):
            argv = worker + ["--first", str(first), "--count", str(end - first),
                             "--results", str(results)]
            if run.trace:
                argv += [*run.trace_args(trace_file), "--trace-id", str(run.cycles * n)]
            _, code, _, err, _ = run.child(argv)
            if code != 0:
                raise RuntimeError(f"warm worker failed: {err.strip()[-500:]}")
            doc = json.loads(results.read_text(encoding="utf-8"))
            factors = gauge.factors(end - first, doc["tick_at"], doc["ticks"])
            for unit, result in zip(plan.units[first:end], doc["results"]):
                errors, wrong = verify.check_warm_op(unit, result)
                run.count(1, errors, wrong, [f"{unit.args[:3]}: {result}"] if errors or wrong else [])
            run.latencies += [t * f for t, f in zip(doc["times"], factors)]
            op_wall.append(sum(doc["times"]))
            run.factors.append(sum(run.latencies[-len(factors):]) / op_wall[-1])
            if run.trace:
                run.absorb(trace_file)

    run.loop(cycle)
    run.wall = sum(op_wall)
    run.busy = sum(run.latencies)
    run.latency_p50 = statistics.median(run.latencies)
    return plan


def end_to_end(run: Run, plan) -> dict:
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "ops_per_s": (run.ok / run.busy, "1/s"),
        "latency_p50_s": (run.latency_p50, "s"),
        "peak_rss_mb": (run.rss, "MB"),
        "error_share": (run.errors / run.attempted, "share"),
        "wrong_verdicts": (run.wrong, "count"),
        "pass_share": (plan.passing / plan.judged if plan.judged else 0.0, "share"),
        "ops_per_s_unscaled": (run.ok / run.wall, "1/s", "wall time, no gauge"),
        "gauge_factor": (statistics.median(run.factors), "ratio",
                         f"min {min(run.factors):.3f} max {max(run.factors):.3f}"),
    }
    tail = tail_percentile(run.latencies)
    if tail:
        metrics["latency_tail_s"] = (tail[1], "s", f"p{tail[0]:g} of {tail[2]} samples")
    return metrics


def per_layer(run: Run, spec) -> dict:
    out = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        module, _, rest = name.partition(".")
        if rest == "errors":
            value = sum(r[3] for f, r in run.funcs.items() if f.startswith(module + "."))
        elif name == "weildeligne.self_s":
            value = sum(r[2] for f, r in run.funcs.items() if f.startswith("weildeligne.")) / 1e9
        elif name == "rootdata.cache_hit_ratio":
            hits = sum(h for h, _ in run.cache.values())
            lookups = sum(h + m for h, m in run.cache.values())
            value = hits / lookups if lookups else 0.0
        elif name == "isocrystal.weak_admissible.subobjects":
            value = run.subobjects
        elif name == "isocrystal.rank_calls_per_subobject":
            calls = run.edges.get("isocrystal.weak_admissible|exact.rank", [0])[0]
            value = calls / run.subobjects if run.subobjects else 0.0
        elif name.endswith(".calls"):
            value = run.funcs.get(name[: -len(".calls")], [0])[0]
        elif name.endswith(".self_s"):
            value = run.funcs.get(name[: -len(".self_s")], [0, 0, 0])[2] / 1e9
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
        out[name] = (value, entry["unit"])
    return out


def _splits(run: Run) -> list:
    """The shares the benchmark predicts for each workload, from the trace.
    Shares of summed self time stay meaningful when ``cli check``'s pool
    threads overlap; the point sweep and each query run on one thread."""
    lines = []
    traced = sum(row[2] for row in run.funcs.values())
    rank = run.edges.get("isocrystal.weak_admissible|exact.rank", [0, 0])
    if traced:
        lines.append(f"exact.rank under isocrystal.weak_admissible: "
                     f"{rank[1] / traced:.1%} of traced self time")
    lp = run.funcs.get("exact.lp_feasible", [0, 0])
    point = run.funcs.get("bench.point")
    if point:
        lines.append(f"exact.lp_feasible: {lp[1] / point[1]:.1%} of the point sweep time")
    lines.append(f"exact.lp_feasible calls: {lp[0]}")
    for label, shares in sorted(run.splits.items()):
        if label.endswith(("gl16", "gl20")):
            lines.append(f"root closures in {label}: {statistics.mean(shares):.1%} of cli.main time")
    for label, shares in sorted(run.main_share.items()):
        if not label.startswith("edge-"):
            lines.append(f"cli.main in {label}: {statistics.mean(shares):.1%} of the invocation's "
                         f"wall time (the rest is interpreter start and import)")
    return lines


def pin_cpu():
    """Pin this process, and so every child it starts, to its lowest
    allowed CPU (see gauge.py).  Returns the CPU, or None where the
    affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec) -> dict:
    cpu = pin_cpu()
    run = Run(name, seed, seconds, trace)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        plan = (run_warm if name == "domains_warm" else run_cli)(run)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        run.launcher.stop()
        if run.spans_out:
            run.spans_out.close()
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "python": platform.python_version(), "cpu_count": os.cpu_count(), "pinned_cpu": cpu,
        "inputs_sha256": plan.digest(), "cycles": run.cycles, "attempted": run.attempted,
        "failed": run.errors, "wrong": run.wrong, "notes": run.notes[:20],
        "end_to_end": end_to_end(run, plan),
    }
    if trace:
        result["per_layer"] = per_layer(run, spec)
        result["splits"] = _splits(run)
        top = sorted(run.funcs.items(), key=lambda kv: -kv[1][2])[:8]
        result["top_self_s"] = [(f, r[2] / 1e9, r[0]) for f, r in top]
        result["spans_file"] = str((run.dir / "spans.jsonl").relative_to(ROOT))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def show(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"python {result['python']}  cpus {result['cpu_count']}  "
          f"inputs {result['inputs_sha256'][:16]}  cycles {result['cycles']}")
    print(f"   attempted {result['attempted']}  failed {result['failed']}  "
          f"wrong {result['wrong']}")
    table = result["per_layer"] if result["trace"] else result["end_to_end"]
    for name, (value, unit, *note) in table.items():
        print(f"   {name:46s} {value:<14.6g} {unit}  {' '.join(note)}")
    for line in result.get("splits", []):
        print(f"   split: {line}")
    for f, self_s, calls in result.get("top_self_s", []):
        print(f"   self: {f:42s} {self_s:10.4f} s  {calls} calls")
    for note in result["notes"]:
        print(f"   note: {note}")


def contract_line(result: dict, spec) -> str:
    section = "per_layer" if result["trace"] else "end_to_end"
    table = result[section]
    metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]} for m in spec[section]}
    return json.dumps({"correct": result["wrong"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(ROOT)  # children get paths relative to the checkout
    missing = [p for p in ("src/wadm/__init__.py", "tests/golden/expected") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a wadm checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    if args.repeat:
        return repeat(chosen, args, spec)
    correct = True
    for name in chosen:
        if args.workload == "all" and args.trace:
            plain = run_workload(name, args.seed, args.seconds, False, spec)
            show(plain)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        show(result)
        if args.workload == "all" and args.trace:
            overhead = plain["end_to_end"]["ops_per_s"][0] / result["end_to_end"]["ops_per_s"][0]
            print(f"   tracing overhead: untraced ops_per_s / traced ops_per_s = {overhead:.3f}")
        correct &= result["wrong"] == 0
    if len(chosen) == 1:
        print(contract_line(result, spec))
    return 0 if correct else 1


def repeat(chosen, args, spec) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    correct = True
    for name in chosen:
        values = {}
        for i in range(args.repeat):
            result = run_workload(name, args.seed + i, args.seconds, False, spec)
            correct &= result["wrong"] == 0
            for metric, (value, *_) in result["end_to_end"].items():
                values.setdefault(metric, []).append(value)
            print(f"{name} seed {args.seed + i} cycles {result['cycles']}: " + "  ".join(
                f"{m}={result['end_to_end'][m][0]:.5g}" for m in bounds), flush=True)
        for metric, bound in [*bounds.items(), ("ops_per_s_unscaled", None)]:
            vals = values[metric]
            s = spread(vals) if len(vals) > 1 else 0.0
            flag = ("unbounded" if bound is None else "ok" if s <= bound / 3
                    else "WIDE" if s > bound else "near")
            print(f"  {name:13s} {metric:15s} median {statistics.median(vals):<12.6g} "
                  f"spread {s:.4f}  bound {bound}  {flag}")
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Deadline as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
