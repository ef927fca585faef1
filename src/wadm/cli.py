"""Command line interface.

Subcommands: check, polygon, satake-norm, affinoid, convert-weights,
sweep.  Exit codes: 0 pass, 1 fail, 2 undecided, 3 input error; for
batches the worst (numerically largest) code wins.  All output is
deterministic given the inputs and the seed; the sweep seed can also be
set through the WADM_SEED environment variable.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .checker import (
    FAIL,
    PASS,
    UNDECIDED,
    Instance,
    check_instance,
    invariant_norm_inequalities,
    jumps_from_weights,
    membership_check,
    polygons_for_instance,
    weights_from_jumps,
)
from .exact import INF, FieldData, format_rat
from .instances import (
    InstanceError,
    parse_instance,
    parse_norm_query,
    parse_point_query,
    polygon_vertex_table,
    render_check_report,
    render_polygon_report,
    svg_polygons,
)
from .isocrystal import PhiModule, UnsupportedRegimeError, admissible_by_inequalities
from .satake import norm_xi_val, spectrum_member

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3

_STATUS_CODE = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, UNDECIDED: EXIT_UNDECIDED}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(path, None, f"cannot read file: {exc}") from None


def _cmd_check(args) -> int:
    try:
        instances = [
            parse_instance(_read(path), path, default_id=Path(path).stem) for path in args.files
        ]
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    results = sorted(map(check_instance, instances), key=lambda r: r.instance.ident)
    text = "\n".join(render_check_report(r) for r in results)
    _emit(text, args.out)
    return max((_STATUS_CODE[r.status] for r in results), default=EXIT_PASS)


def _cmd_polygon(args) -> int:
    try:
        inst = parse_instance(_read(args.file), args.file, default_id=Path(args.file).stem)
        newton, hodge, dominates = polygons_for_instance(inst)
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedRegimeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNDECIDED
    _emit(render_polygon_report(inst.ident, newton, hodge, dominates), args.out)
    if args.plot:
        Path(args.plot + ".svg").write_text(
            svg_polygons(newton, hodge, title=inst.ident), encoding="utf-8"
        )
        Path(args.plot + ".txt").write_text(polygon_vertex_table(newton, hodge), encoding="utf-8")
    return EXIT_PASS if dominates else EXIT_FAIL


def _cmd_satake_norm(args) -> int:
    try:
        ident, datum, field, xi, elem = parse_norm_query(
            _read(args.file), args.file, default_id=Path(args.file).stem
        )
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    value = norm_xi_val(datum, field, xi, elem)
    val_q_text = "+inf" if value == INF else format_rat(value)
    val_l_text = "+inf" if value == INF else format_rat(value * field.degree)
    lines = [
        "report: satake-norm",
        f"id: {ident}",
        f"group: {datum.name}",
        f"element.terms: {len(elem.terms)}",
        f"norm.val_q: {val_q_text}",
        f"norm.val_L: {val_l_text}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def _cmd_affinoid(args) -> int:
    try:
        ident, datum, field, xi, point, normalized = parse_point_query(
            _read(args.file), args.file, default_id=Path(args.file).stem
        )
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    member = spectrum_member(datum, field, xi, point, normalized=normalized)
    lines = [
        "report: affinoid",
        f"id: {ident}",
        f"group: {datum.name}",
        f"point.vals: {' '.join(format_rat(v) for v in point)}",
        f"normalized: {'true' if normalized else 'false'}",
        f"member: {'true' if member else 'false'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS if member else EXIT_FAIL


def _cmd_convert_weights(args) -> int:
    rows = []
    try:
        for chunk in args.values.split(";"):
            rows.append([int(tok) for tok in chunk.split()])
        if args.form == "a":
            jumps = jumps_from_weights(rows)
            weights = rows
        else:
            weights = weights_from_jumps(rows)
            jumps = rows
    except ValueError as exc:
        print(f"convert-weights: {exc}", file=sys.stderr)
        return EXIT_INPUT
    lines = ["report: convert-weights", f"input.form: {args.form}"]
    for k, (a, i) in enumerate(zip(weights, jumps), 1):
        lines.append(f"sigma{k}.a: " + " ".join(str(v) for v in a))
        lines.append(f"sigma{k}.jumps: " + " ".join(str(v) for v in i))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def _cmd_sweep(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("WADM_SEED", "0"))
    rng = random.Random(seed)
    field = FieldData(p=3, e=args.embeddings, f=1)
    n = args.rank
    lines = [
        "report: sweep",
        f"rank: {n}",
        f"embeddings: {args.embeddings}",
        f"count: {args.count}",
        f"seed: {seed}",
    ]
    agreements = 0
    for k in range(1, args.count + 1):
        a = [sorted(rng.randint(-4, 4) for _ in range(n)) for _ in range(field.degree)]
        vals = [Fraction(rng.randint(-10, 10), rng.choice((1, 2))) for _ in range(n)]
        if rng.random() < 0.5:
            target = sum(sum(r) for r in a) + Fraction(field.degree * (n - 1) * n, 2)
            vals[-1] = target - sum(vals[:-1])
        inst = Instance(
            ident=f"sweep-{k:04d}",
            field=field,
            weights_a=tuple(tuple(r) for r in a),
            zeta_vals=tuple(vals),
        )
        ineq = invariant_norm_inequalities(vals, a, field).passed
        module = PhiModule.of_slopes(field, [-v for v in vals])
        adm = admissible_by_inequalities(module, inst.jumps())
        member = membership_check(inst).passed
        agree = ineq == adm == member
        agreements += agree
        lines.append(
            f"instance.{k:04d}: vals=[{', '.join(format_rat(v) for v in vals)}] "
            f"a={a!r} ineq={str(ineq).lower()} adm={str(adm).lower()} "
            f"member={str(member).lower()} agree={str(agree).lower()}"
        )
    lines.append(f"summary.agreements: {agreements}/{args.count}")
    lines.append(f"verdict: {'pass' if agreements == args.count else 'fail'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS if agreements == args.count else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wadm",
        description="Exact checks for filtered Frobenius module instances: "
        "admissibility verdicts, polygons, spectral membership, and norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full verdict report for instance files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("polygon", help="Newton/Hodge polygon pair of an instance")
    p.add_argument("file")
    p.add_argument("--plot", metavar="PREFIX", help="write PREFIX.svg and PREFIX.txt")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("satake-norm", help="highest-weight norm of a group ring element")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_satake_norm)

    p = sub.add_parser("affinoid", help="spectral membership of a valuation point")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_affinoid)

    p = sub.add_parser("convert-weights", help="convert between weight and jump forms")
    p.add_argument("--form", choices=("a", "i"), required=True)
    p.add_argument("--values", required=True, help="rows separated by ';', entries by spaces")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert_weights)

    p = sub.add_parser("sweep", help="random translation-identity sweep (deterministic by seed)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="defaults to $WADM_SEED or 0")
    p.add_argument("--embeddings", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
