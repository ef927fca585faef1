"""Command line interface.

Subcommands: check, polygon, satake-norm, affinoid, convert-weights,
sweep.  Exit codes: 0 pass, 1 fail, 2 undecided or out of memory, 3 input
error; for batches the worst (numerically largest) code wins.  All output
is deterministic given the inputs and the seed; the sweep seed can also be
set through the WADM_SEED environment variable.  ``check``, ``polygon`` and
``sweep`` import the checker where they run, so that the queries and
``convert-weights`` load none of the check side (checker, isocrystal,
weildeligne).

``check`` parses every file before it checks any, so an input error exits
3 first.  Reports come in id order, equal ids in command-line order.  Each
report is rendered as its instance is checked, so a batch holds per file
the parsed instance and the report text (about 2.5 KB on the benchmark's
batch), not the verdicts; the output is written at the end, so nothing
reaches stdout after an input error or running out of memory.  A reader
that closes stdout early leaves the verdict's exit code; an unwritable
stdout exits 3.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .exact import INF, FieldData, UnsupportedRegimeError, format_rat
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
from .rootdata import in_Vxi, jumps_from_weights, weights_from_jumps
from .satake import norm_xi_val

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3


def _write(path: str | None, *pieces: str) -> None:
    """Write ``pieces`` in order to the file ``path``, or to stdout when
    there is none, without joining them into one copy."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise InstanceError(path, None, f"cannot write file: {exc}") from None
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at os.devnull, so that the interpreter's final flush
        # of what is still buffered cannot fail again.  A reader that closed
        # the pipe early has all it wanted: the exit code stays the verdict's.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise InstanceError("<stdout>", None, f"cannot write output: {exc}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(path, None, f"cannot read file: {exc}") from None


def _cmd_check(args) -> int:
    from .checker import FAIL, PASS, UNDECIDED, check_instance

    status_code = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, UNDECIDED: EXIT_UNDECIDED}
    instances = [
        parse_instance(_read(path), path, default_id=Path(path).stem) for path in args.files
    ]
    instances.sort(key=lambda inst: inst.ident)
    pieces, code = [], EXIT_PASS
    for inst in instances:
        result = check_instance(inst)
        pieces += ("\n", render_check_report(result))
        code = max(code, status_code[result.status])
    _write(args.out, *pieces[1:])
    return code


def _cmd_polygon(args) -> int:
    from .checker import polygons_for_instance

    inst = parse_instance(_read(args.file), args.file, default_id=Path(args.file).stem)
    newton, hodge, rows = polygons_for_instance(inst)
    if args.plot:
        _write(args.plot + ".svg", svg_polygons(newton, hodge, title=inst.ident))
        _write(args.plot + ".txt", polygon_vertex_table(rows))
    _write(args.out, render_polygon_report(inst.ident, newton, hodge, rows))
    return EXIT_PASS if all(ok for *_, ok in rows) else EXIT_FAIL


def _cmd_satake_norm(args) -> int:
    ident, datum, field, xi, elem = parse_norm_query(
        _read(args.file), args.file, default_id=Path(args.file).stem
    )
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
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_affinoid(args) -> int:
    ident, datum, field, xi, point, normalized = parse_point_query(
        _read(args.file), args.file, default_id=Path(args.file).stem
    )
    member = in_Vxi(datum, field, xi, point, normalized=normalized)
    lines = [
        "report: affinoid",
        f"id: {ident}",
        f"group: {datum.name}",
        f"point.vals: {' '.join(format_rat(v) for v in point)}",
        f"normalized: {'true' if normalized else 'false'}",
        f"member: {'true' if member else 'false'}",
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS if member else EXIT_FAIL


def _cmd_convert_weights(args) -> int:
    rows = []
    try:
        for chunk in args.values.split(";"):
            rows.append([int(tok) for tok in chunk.split()])
        if not all(rows):
            raise ValueError("every row needs at least one entry")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows must have equal length")
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
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_sweep(args) -> int:
    from .checker import Instance, translation_verdicts

    for flag, value, low in (("--rank", args.rank, 1), ("--embeddings", args.embeddings, 1),
                             ("--count", args.count, 0)):
        if value < low:
            print(f"sweep: {flag} must be >= {low}, got {value}", file=sys.stderr)
            return EXIT_INPUT
    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("WADM_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"sweep: WADM_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return EXIT_INPUT
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
        ineq, adm, member = translation_verdicts(inst)
        agree = ineq == adm == member
        agreements += agree
        lines.append(
            f"instance.{k:04d}: vals=[{', '.join(format_rat(v) for v in vals)}] "
            f"a={a!r} ineq={str(ineq).lower()} adm={str(adm).lower()} "
            f"member={str(member).lower()} agree={str(agree).lower()}"
        )
    lines.append(f"summary.agreements: {agreements}/{args.count}")
    lines.append(f"verdict: {'pass' if agreements == args.count else 'fail'}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS if agreements == args.count else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 3 (input error) instead of 2,
    which would read as "undecided"; the message stays argparse's, and
    the subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run one subcommand; input and output errors exit 3 with a
    ``path[:line]: message`` line on stderr; unsupported regimes exit 2, and
    so does running out of memory, with a ``subcommand: out of memory`` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedRegimeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNDECIDED
    except MemoryError:
        print(f"{args.command}: out of memory", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
