"""Child processes of the benchmark.

    python bench/child.py cli [--gauge-out FILE] [--trace-out FILE --trace-id N --keep K] -- <wadm args>
        Runs ``wadm <args>`` exactly as ``python -m wadm`` does.  With
        --gauge-out, a gauge.Sampler runs alongside and its tick times go
        to FILE at exit.  With --trace-out, every public wadm function is
        traced; the aggregates and the first K spans go to FILE at exit.
        With no wadm args it only imports wadm.cli (the set-up probe).

    python bench/child.py warm --inputs FILE [--first A --count N --results FILE]
                               [--gauge-out FILE] [--trace-out FILE --trace-id N --keep K]
        The domains_warm worker: imports wadm, warms the root-data caches,
        then runs ops A..A+N-1 of the op list once, timing each op, with
        gauge ticks between ops.  With the default N = 0 it exits once the
        caches are warm.  --gauge-out gets the ticks of the import and
        warm-up (a gauge.Sampler), the results file the op ticks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import gauge  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import spans  # noqa: E402


def _cli(args) -> None:
    sampler = gauge.Sampler() if args.gauge_out else None
    import wadm
    import wadm.cli

    if not args.argv:
        if sampler:
            sampler.dump(args.gauge_out)
        return
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer(keep=args.keep)
        tracer.trace_id = args.trace_id
        spans.install(tracer, wadm)
    code = 1
    try:
        code = wadm.cli.main(args.argv)
    finally:
        if sampler:
            sampler.dump(args.gauge_out)
        if tracer:
            tracer.dump(args.trace_out, spans.cache_counts(wadm), {"exit": code})
    sys.exit(code)


class Warm:
    """Library objects for the domains_warm op list."""

    def __init__(self, doc):
        from wadm.exact import FieldData, QSqrtQ
        from wadm.rootdata import HighestWeight, RootDatum

        def datum(group, rank):
            return RootDatum.gl(rank) if group == "gl" else RootDatum.sp4()

        self.QSqrtQ = QSqrtQ
        self.cases = [(datum(g, r), FieldData(*pef), HighestWeight.of(xi))
                      for g, r, pef, xi in doc["cases"]]
        self.groups = [datum(g, r) for g, r in doc["pair_groups"]]
        self.pair_field = FieldData(3, 1, 1)
        self.ops = doc["ops"]

    def warm_up(self, wadm) -> None:
        for datum, field, xi in self.cases:
            origin = [0] * datum.rank
            wadm.rootdata.in_hull(datum, field, xi, origin)
            wadm.rootdata.in_Vxi(datum, field, xi, origin)
        for datum in self.groups:
            wadm.rootdata.weyl_elements(datum)
            wadm.rootdata.half_sum_positive_roots(datum)

    def elem(self, wadm, terms):
        q = self.pair_field.q
        return wadm.satake.GroupRingElem.from_terms(
            (lam, self.QSqrtQ(Fraction(a), Fraction(b), q)) for lam, a, b in terms)

    def point(self, wadm, case, z):
        datum, field, xi = self.cases[case]
        z = [Fraction(v) for v in z]
        return [wadm.rootdata.in_hull(datum, field, xi, z),
                wadm.rootdata.in_Vxi(datum, field, xi, z, normalized=False)]

    def pair(self, wadm, g, xi, xterms, yterms, widx):
        datum = self.groups[g]
        field = self.pair_field
        xi = wadm.rootdata.HighestWeight.of(xi)
        x, y = self.elem(wadm, xterms), self.elem(wadm, yterms)
        ws = wadm.rootdata.weyl_elements(datum)
        norm = wadm.satake.norm_xi_val
        vx, vy = norm(datum, field, xi, x), norm(datum, field, xi, y)
        vxy = norm(datum, field, xi, x * y)
        vwx = norm(datum, field, xi, wadm.satake.twisted_action(datum, ws[widx % len(ws)], x))
        return [str(v) for v in (vx, vy, vxy, vwx)]


def _warm(args) -> None:
    sampler = gauge.Sampler() if args.gauge_out else None
    import wadm
    import wadm.rootdata
    import wadm.satake

    tracer = None
    if args.trace_out:
        tracer = spans.Tracer(keep=args.keep)
        spans.install(tracer, wadm)
        tracer.enabled = False
    with open(args.inputs, encoding="utf-8") as fh:
        work = Warm(json.load(fh))
    work.warm_up(wadm)
    if sampler:
        sampler.dump(args.gauge_out)
    if not args.count:
        return
    run = {"point": work.point, "pair": work.pair}
    if tracer is not None:
        run = {kind: tracer.wrap(f"bench.{kind}", fn) for kind, fn in run.items()}
        before = spans.cache_counts(wadm)
        tracer.enabled = True
    times, results = [], []
    clock = time.perf_counter
    ticker = gauge.Ticker()
    for k, i in enumerate(range(args.first, args.first + args.count)):
        ticker.maybe(k)
        kind, *op = work.ops[i]
        if tracer is not None:
            tracer.trace_id = args.trace_id + i + 1
        t0 = clock()
        try:
            out = run[kind](wadm, *op)
        except Exception:  # an op that raises is counted, and the run goes on
            out = {"error": traceback.format_exc()}
        times.append(clock() - t0)
        results.append(out)
    ticker.close(args.count)
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump({"times": times, "results": results, "tick_at": ticker.at,
                   "ticks": ticker.ticks}, fh)
    if tracer is not None:
        after = spans.cache_counts(wadm)
        cache = {k: [a - b for a, b in zip(after[k], before[k])] for k in after}
        tracer.dump(args.trace_out, cache)


def main() -> None:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--gauge-out")
    p.add_argument("--trace-out")
    p.add_argument("--trace-id", type=int, default=0)
    p.add_argument("--keep", type=int, default=spans.SPANS_KEPT)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cli)
    p = sub.add_parser("warm")
    p.add_argument("--inputs", required=True)
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--results")
    p.add_argument("--gauge-out")
    p.add_argument("--trace-out")
    p.add_argument("--trace-id", type=int, default=0)
    p.add_argument("--keep", type=int, default=spans.SPANS_KEPT)
    p.set_defaults(func=_warm)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.func(args)


if __name__ == "__main__":
    main()
