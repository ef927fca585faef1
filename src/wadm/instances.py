"""Structured instance files and verdict reports.

The file format is line-oriented, human-writable text: one ``key: value``
pair per line, ``#`` comments, blank lines ignored, exact rationals only
("n/d" form, never decimals).  Reports mirror the same format so golden
files diff cleanly; serialization is canonical (fixed key order), and
parsing reports positioned diagnostics.

Keys for a checker instance:

    id: gl2-pass                       # optional, defaults to the file stem
    field.p: 3
    field.e: 1
    field.f: 1
    group: gl(2)                       # optional; only gl(n), n the data
                                       # dimension
    weights.form: a                    # a (highest weight) or i (jumps)
    weights.sigma1: 0 1                # one line per embedding
    galois.form: zeta                  # zeta or wd
    galois.zeta_vals: 0 2              # arithmetic Frobenius valuations
    galois.wd.1: unramified val=0 mult=2 jordan=1,1
    galois.wd.2: steinberg base=1/2 dim=1 len=2
    galois.wd.ramified: true           # optional, marks out-of-scope data

Checker instances are always tested in the normalized domain;
``options.normalized: true`` is accepted and ``false`` is an input error.

Spectral membership and norm inputs reuse the same field/weights keys, with
any group preset (gl(n), sl(n), sp(4), cartan [[...]], cartan-adjoint
[[...]]), plus ``point.vals`` and ``options.normalized`` (affinoid queries,
default true) or ``element.N`` lines (group ring elements,
``lambda=1,0 a=1 b=0``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .exact import FieldData, QSqrtQ, _Frozen, format_rat, parse_rat
from .rootdata import (HighestWeight, InfiniteWeylGroupError, RootDatum, jumps_from_weights,
                       validate_highest_weight, weights_from_jumps)

if TYPE_CHECKING:  # the check side is imported where a check object is built or read
    from .checker import Instance, InstanceResult, Verdict
    from .isocrystal import Polygon


class InstanceError(ValueError):
    """An input or output error (exit 3): a malformed instance file with its
    file/line position, an unwritable output, or an argument that the
    subcommand named in place of the path refuses."""

    def __init__(self, path: str, lineno: Optional[int], message: str):
        self.path = path
        self.lineno = lineno
        where = f"{path}:{lineno}" if lineno is not None else path
        super().__init__(f"{where}: {message}")


class KeyValues:
    """The ``key: value`` entries of one file, each with its line number."""

    __slots__ = _fields = ("path", "entries")
    __hash__ = None  # a mutable record
    __repr__ = _Frozen.__repr__

    def __init__(self, path: str, entries: dict) -> None:
        self.path = path
        self.entries = entries  # key -> (lineno, value)

    @classmethod
    def parse(cls, text: str, path: str = "<string>") -> "KeyValues":
        entries: dict[str, tuple[int, str]] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise InstanceError(path, lineno, "expected 'key: value'")
            key, _, value = line.partition(":")
            key = key.strip()
            if key in entries:
                raise InstanceError(path, lineno, f"duplicate key {key!r}")
            entries[key] = (lineno, value.strip())
        return cls(path, entries)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        hit = self.entries.get(key)
        return hit[1] if hit is not None else default

    def require(self, key: str) -> str:
        hit = self.entries.get(key)
        if hit is None:
            raise InstanceError(self.path, None, f"missing required key {key!r}")
        return hit[1]

    def lineno(self, key: str) -> Optional[int]:
        hit = self.entries.get(key)
        return hit[0] if hit is not None else None

    def error(self, key: str, message: str) -> InstanceError:
        return InstanceError(self.path, self.lineno(key), message)

    def numbered(self, prefix: str) -> list[tuple[str, str]]:
        """Keys of the form prefix<N>, required consecutive from 1; two keys
        with the same N (``prefix1`` and ``prefix01``) raise at the later one."""
        pat = re.compile(re.escape(prefix) + r"(\d+)$")
        found = {}
        for key in self.entries:
            m = pat.match(key)
            if m:
                n = int(m.group(1))
                if n in found:
                    raise self.error(key, f"{key!r} repeats the number of {found[n]!r}")
                found[n] = key
        if not found:
            return []
        if sorted(found) != list(range(1, len(found) + 1)):
            raise InstanceError(
                self.path, None, f"{prefix}<N> keys must be numbered consecutively from 1"
            )
        return [(found[i], self.entries[found[i]][1]) for i in sorted(found)]

    def _int(self, key: str) -> int:
        value = self.require(key)
        try:
            return int(value)
        except ValueError:
            raise self.error(key, f"expected an integer, got {value!r}") from None

    def field(self) -> FieldData:
        p, e, f = self._int("field.p"), self._int("field.e"), self._int("field.f")
        try:
            return FieldData(p=p, e=e, f=f)
        except ValueError as exc:
            raise InstanceError(self.path, self.lineno("field.p"), str(exc)) from None

    def group(self) -> Optional[tuple]:
        """The group line as (name, rank, build), ``build()`` giving the
        datum.  A ``gl(N)`` or ``sl(N)`` line with N >= 2 is read off the
        spec, so that its rank meets the data before N^2 root entries are
        built; any other spec is built and checked here."""
        spec = self.get("group")
        if spec is None:
            return None
        m = _SERIES.fullmatch(spec.strip())
        if m and int(m.group(2)) >= 2:
            series, n = m.group(1), int(m.group(2))
            return f"{series}({n})", n - (series == "sl"), lambda: parse_group(spec)
        try:
            datum = parse_group(spec)
        except (ValueError, InfiniteWeylGroupError) as exc:
            raise self.error("group", str(exc)) from None
        return datum.name, datum.rank, lambda: datum

    def rational_list(self, key: str) -> list[Fraction]:
        value = self.require(key)
        try:
            return [parse_rat(tok) for tok in value.split()]
        except ValueError as exc:
            raise self.error(key, str(exc)) from None

    def int_list(self, key: str, value: Optional[str] = None) -> list[int]:
        value = self.require(key) if value is None else value
        try:
            return [int(tok) for tok in value.split()]
        except ValueError:
            raise self.error(key, f"expected integers, got {value!r}") from None


_SERIES = re.compile(r"(gl|sl)\((\d+)\)")


def parse_group(spec: str) -> RootDatum:
    spec = spec.strip()
    m = _SERIES.fullmatch(spec)
    if m:
        return (RootDatum.gl if m.group(1) == "gl" else RootDatum.sl)(int(m.group(2)))
    if spec == "sp(4)":
        return RootDatum.sp4()
    for prefix, kind in (("cartan-adjoint", "adjoint"), ("cartan", "simply_connected")):
        if spec.startswith(prefix + " "):
            import ast  # the only use; most processes never parse a Cartan literal

            literal = spec[len(prefix):].strip()
            try:
                matrix = ast.literal_eval(literal)
            except (SyntaxError, ValueError):
                matrix = None
            if not (isinstance(matrix, list) and all(
                    isinstance(row, list) and all(type(v) is int for v in row) for row in matrix)):
                raise ValueError(f"bad Cartan matrix literal {literal!r}: "
                                 "expected a list of integer lists")
            return RootDatum.from_cartan(matrix, kind=kind, name=f"{prefix} {literal}")
    raise ValueError(f"unknown group {spec!r}")


def _parse_weights(kv: KeyValues, field: FieldData,
                   group: Optional[str] = None) -> tuple[tuple[int, ...], ...]:
    """Weight rows, one per embedding.

    The a/i conversion and its monotonicity checks are the general-linear
    dictionary; for other group presets the rows are the dominant weight
    vectors themselves (form must be 'a', dominance is validated where the
    weight is used).
    """
    general_linear = group is None or group.startswith("gl(")
    form = kv.get("weights.form", "a")
    if form not in ("a", "i"):
        raise kv.error("weights.form", f"weights.form must be 'a' or 'i', got {form!r}")
    rows = kv.numbered("weights.sigma")
    if len(rows) != field.degree:
        raise InstanceError(
            kv.path, None, f"expected {field.degree} weights.sigma<N> lines, got {len(rows)}"
        )
    parsed = [kv.int_list(key, value) for key, value in rows]
    if not general_linear:
        if form != "a":
            raise kv.error("weights.form", "jump form applies to general-linear groups only")
        return tuple(tuple(row) for row in parsed)
    try:
        if form == "i":
            parsed = weights_from_jumps(parsed)
        else:
            jumps_from_weights(parsed)  # validates monotonicity
    except ValueError as exc:
        raise InstanceError(kv.path, kv.lineno(rows[0][0]), str(exc)) from None
    return tuple(tuple(row) for row in parsed)


_FIELD = re.compile(r"(\w+)=(\S*)")
_WD_FIELDS = {"unramified": ("val", "mult", "jordan"), "steinberg": ("base", "dim", "len")}


def _line_fields(kv: KeyValues, key: str, tokens: list[str], names, what: str) -> dict:
    """The ``name=value`` tokens of a summand or element line, each name
    one of ``names`` and given once, else an error at the line; a field
    with an empty value counts as not given."""
    fields = {}
    for tok in tokens:
        m = _FIELD.fullmatch(tok)
        if m is None:
            raise kv.error(key, f"{what} has a stray token {tok!r}")
        if m[1] not in names or m[1] in fields:
            raise kv.error(key, f"{what} {'repeats' if m[1] in fields else 'takes no'} {m[1]}=")
        fields[m[1]] = m[2]
    return {name: value for name, value in fields.items() if value}


def _parse_wd_part(kv: KeyValues, key: str, value: str, rank: int):
    from .weildeligne import SteinbergChain, Unramified

    tokens = value.split()
    if not tokens:
        raise kv.error(key, "empty summand")
    kind = tokens[0]
    if kind not in _WD_FIELDS:
        raise kv.error(key, f"unknown summand kind {kind!r}")
    rest = _line_fields(kv, key, tokens[1:], _WD_FIELDS[kind], f"{kind} summand")

    def fits(dimension):  # checked before a default Jordan partition of mult ones is built
        if dimension > rank:
            raise ValueError(f"{kind} summand of dimension {dimension} exceeds "
                             f"the weight length {rank}")

    try:
        if kind == "unramified":
            val, mult = parse_rat(rest["val"]), int(rest["mult"])
            jordan = tuple(int(t) for t in rest.get("jordan", "").split(",") if t)
            fits(mult)
            return Unramified(val, mult, jordan)
        base, dim, length = parse_rat(rest["base"]), int(rest["dim"]), int(rest["len"])
        fits(dim * length)
        return SteinbergChain(base, dim, length)
    except KeyError as exc:  # a required field not given
        raise kv.error(key, f"{kind} summand needs {exc.args[0]}=") from None
    except (ValueError, TypeError) as exc:
        raise kv.error(key, str(exc)) from None


def _parse_bool(kv: KeyValues, key: str, default: bool) -> bool:
    value = kv.get(key)
    if value is None:
        return default
    if value not in ("true", "false"):
        raise kv.error(key, f"expected true/false, got {value!r}")
    return value == "true"


def parse_instance(text: str, path: str = "<string>", default_id: str = "instance") -> Instance:
    """Parse a checker instance file.

    Checker instances are the general-linear dictionary, always normalized;
    membership queries for other presets, or in the unnormalized domain, go
    through the affinoid query format.
    """
    kv = KeyValues.parse(text, path)
    field = kv.field()
    group, rank, _ = kv.group() or (None, None, None)
    if group is not None and not group.startswith("gl("):
        raise kv.error(
            "group",
            f"checker instances are general-linear; use an affinoid query for {group}",
        )
    weights = _parse_weights(kv, field)
    form = kv.require("galois.form")
    zeta = None
    wd = None
    if form == "zeta":
        zeta = tuple(kv.rational_list("galois.zeta_vals"))
    elif form == "wd":
        parts = tuple(_parse_wd_part(kv, key, value, len(weights[0]))
                      for key, value in kv.numbered("galois.wd."))
        if not parts:
            raise InstanceError(kv.path, None, "galois.form wd needs galois.wd.<N> lines")
        from .weildeligne import WDRep

        wd = WDRep(field, parts, ramified=_parse_bool(kv, "galois.wd.ramified", False))
    else:
        raise kv.error("galois.form", f"galois.form must be 'zeta' or 'wd', got {form!r}")
    if not _parse_bool(kv, "options.normalized", True):
        raise kv.error(
            "options.normalized",
            "checker instances are always normalized; use an affinoid query for "
            "the unnormalized domain",
        )
    from .checker import Instance

    try:
        inst = Instance(kv.get("id", default_id), field, weights, zeta_vals=zeta, wd=wd)
    except ValueError as exc:
        raise InstanceError(path, None, str(exc)) from None
    if group is not None and rank != inst.dimension:
        raise kv.error(
            "group", f"group rank {rank} does not match the data dimension {inst.dimension}"
        )
    return inst


def _query_weight(text: str, path: str) -> tuple[KeyValues, FieldData, RootDatum, HighestWeight]:
    """A query's keys and field, its group (gl(n) by default) and its highest
    weight, one dominant weight of the group's rank per embedding.  The first
    weight's length is compared with the rank before the datum is built."""
    kv = KeyValues.parse(text, path)
    field = kv.field()
    group, rank, build = kv.group() or (None, None, None)
    weights = _parse_weights(kv, field, group)
    xi = HighestWeight.of(weights)
    try:
        if group is None:
            datum = RootDatum.gl(len(weights[0]))
        elif len(weights[0]) != rank:
            raise ValueError("weight length must equal the rank")
        else:
            datum = build()
        validate_highest_weight(datum, field, xi)
    except ValueError as exc:
        raise kv.error("weights.sigma1", str(exc)) from None
    return kv, field, datum, xi


def parse_point_query(text: str, path: str = "<string>", default_id: str = "query"):
    """Parse a spectral membership query: group, weights (as the dominant
    weight per embedding), point.vals, options.normalized."""
    kv, field, datum, xi = _query_weight(text, path)
    point = tuple(kv.rational_list("point.vals"))
    if len(point) != datum.rank:
        raise InstanceError(kv.path, kv.lineno("point.vals"),
                            f"point length {len(point)} != rank {datum.rank}")
    return (
        kv.get("id", default_id),
        datum,
        field,
        xi,
        point,
        _parse_bool(kv, "options.normalized", True),
    )


def parse_norm_query(text: str, path: str = "<string>", default_id: str = "query"):
    """Parse a norm query: group, weights, and element.N term lines."""
    kv, field, datum, xi = _query_weight(text, path)
    terms = []
    for key, value in kv.numbered("element."):
        rest = _line_fields(kv, key, value.split(), ("lambda", "a", "b"), "element line")
        if not {"lambda", "a", "b"} <= set(rest):
            raise kv.error(key, "element lines need lambda=, a=, b=")
        try:
            lam = tuple(int(t) for t in rest["lambda"].split(","))
            coeff = QSqrtQ(parse_rat(rest["a"]), parse_rat(rest["b"]), field.q)
        except ValueError as exc:
            raise kv.error(key, str(exc)) from None
        if len(lam) != datum.rank:
            raise kv.error(key, f"lambda length {len(lam)} != rank {datum.rank}")
        terms.append((lam, coeff))
    if not terms:
        raise InstanceError(kv.path, None, "need at least one element.<N> line")
    from .satake import GroupRingElem

    return (
        kv.get("id", default_id),
        datum,
        field,
        xi,
        GroupRingElem.from_terms(terms),
    )


# ---------------------------------------------------------------------------
# Canonical serialization and reports
# ---------------------------------------------------------------------------


def _fmt_vals(vals) -> str:
    return " ".join(format_rat(v) for v in vals)


def _fmt_vertices(poly: Polygon) -> str:
    return " ".join(f"({format_rat(x)}, {format_rat(y)})" for x, y in poly.vertices)


def format_wd_part(part) -> str:
    """Instance-file syntax of a Weil-Deligne summand."""
    from .weildeligne import Unramified

    if isinstance(part, Unramified):
        jordan = ",".join(str(p) for p in part.jordan)
        return f"unramified val={format_rat(part.val)} mult={part.mult} jordan={jordan}"
    return f"steinberg base={format_rat(part.base_val)} dim={part.piece_dim} len={part.length}"


def serialize_instance(inst: Instance) -> str:
    """Canonical text of an instance (weights in highest-weight form)."""
    lines = [f"id: {inst.ident}"]
    lines += [f"field.p: {inst.field.p}", f"field.e: {inst.field.e}", f"field.f: {inst.field.f}"]
    lines.append("weights.form: a")
    for k, row in enumerate(inst.weights_a, 1):
        lines.append(f"weights.sigma{k}: " + " ".join(str(v) for v in row))
    if inst.zeta_vals is not None:
        lines.append("galois.form: zeta")
        lines.append(f"galois.zeta_vals: {_fmt_vals(inst.zeta_vals)}")
    else:
        lines.append("galois.form: wd")
        for k, part in enumerate(inst.wd.parts, 1):
            lines.append(f"galois.wd.{k}: {format_wd_part(part)}")
        if inst.wd.ramified:
            lines.append("galois.wd.ramified: true")
    return "\n".join(lines) + "\n"


def _verdict_lines(prefix: str, verdict: Verdict) -> list[str]:
    lines = [check.render() for check in verdict.checks]
    if verdict.reason:
        lines.append(f"{prefix}.reason: {verdict.reason}")
    lines.append(f"{prefix}.verdict: {verdict.status}")
    return lines


def render_check_report(result: InstanceResult) -> str:
    """Structured verdict report mirroring the instance format; every
    evaluated inequality appears with both sides as exact rationals."""
    inst = result.instance
    lines = ["report: check", f"id: {inst.ident}"]
    lines.append(f"field: p={inst.field.p} e={inst.field.e} f={inst.field.f}")
    lines.append(f"group: {inst.datum().name}")
    for k, row in enumerate(inst.weights_a, 1):
        lines.append(f"weights.sigma{k}.a: " + " ".join(str(v) for v in row))
    for k, row in enumerate(inst.jumps(), 1):
        lines.append(f"weights.sigma{k}.jumps: " + " ".join(str(v) for v in row))
    if inst.zeta_vals is not None:
        lines.append(f"galois.zeta_vals: {_fmt_vals(inst.zeta_vals)}")
        lines.append(f"slopes: {_fmt_vals(-v for v in inst.zeta_vals)}")
    else:
        for k, part in enumerate(inst.wd.parts, 1):
            lines.append(f"galois.wd.{k}: {format_wd_part(part)}")
        lines.append(f"galois.arithmetic_vals: {_fmt_vals(inst.arithmetic_vals())}")
    lines += _verdict_lines("norm", result.norm)
    lines.append(f"central.integral: ok={'true' if result.central_ok else 'false'}")
    lines += _verdict_lines("adm", result.adm)
    if result.adm.witness is not None:
        filt = result.adm.witness
        for k, (jumps, flag) in enumerate(zip(filt.jumps, filt.flags), 1):
            lines.append(f"witness.sigma{k}.jumps: " + " ".join(format_rat(j) for j in jumps))
            for v_idx, vector in enumerate(flag, 1):
                lines.append(f"witness.sigma{k}.vector{v_idx}: {_fmt_vals(vector)}")
    lines += _verdict_lines("membership", result.membership)
    if result.adm.newton is not None:
        lines.append(f"polygon.newton: {_fmt_vertices(result.adm.newton)}")
        lines.append(f"polygon.hodge: {_fmt_vertices(result.adm.hodge)}")
    lines.append(f"verdict: {result.status}")
    return "\n".join(lines) + "\n"


def render_polygon_report(ident: str, newton: Polygon, hodge: Polygon, rows: list[tuple]) -> str:
    """The polygon report, read off the pair's evaluated ``polygon_rows``."""
    lines = [
        "report: polygon",
        f"id: {ident}",
        f"newton.vertices: {_fmt_vertices(newton)}",
        f"hodge.vertices: {_fmt_vertices(hodge)}",
        f"dominates: {'true' if all(ok for *_, ok in rows) else 'false'}",
    ]
    lines.append("table: x newton hodge")
    for x, ny, hy, _ in rows:
        lines.append(f"table.x={format_rat(x)}: newton={format_rat(ny)} hodge={format_rat(hy)}")
    return "\n".join(lines) + "\n"


def polygon_vertex_table(rows: list[tuple]) -> str:
    """Plain-text table of the ``polygon_rows`` (golden-testable plot companion)."""
    lines = ["x\tnewton\thodge"]
    for x, ny, hy, _ in rows:
        lines.append(f"{format_rat(x)}\t{format_rat(ny)}\t{format_rat(hy)}")
    return "\n".join(lines) + "\n"


def svg_polygons(newton: Polygon, hodge: Polygon, title: str = "") -> str:
    """Deterministic scalable vector graphic with both polygons and exact
    rational vertex labels."""
    width, height, margin = 640, 480, 60
    xs = [x for x, _ in newton.vertices + hodge.vertices]
    ys = [y for _, y in newton.vertices + hodge.vertices]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1
    if ymax == ymin:
        ymax = ymin + 1

    def sx(x):
        return margin + float((x - xmin) / (xmax - xmin)) * (width - 2 * margin)

    def sy(y):
        return height - margin - float((y - ymin) / (ymax - ymin)) * (height - 2 * margin)

    def polyline(poly, color, dash=""):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in poly.vertices)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"{extra}/>'

    def labels(poly, color, dy):
        out = []
        for x, y in poly.vertices:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
            out.append(
                f'<text x="{sx(x) + 5:.2f}" y="{sy(y) + dy:.2f}" font-size="10" '
                f'fill="{color}">({format_rat(x)}, {format_rat(y)})</text>'
            )
        return out

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="24" font-size="14" fill="black">{title}</text>',
        f'<text x="{margin}" y="40" font-size="11" fill="#1f77b4">newton</text>',
        f'<text x="{margin + 60}" y="40" font-size="11" fill="#d62728">hodge (dashed)</text>',
        polyline(newton, "#1f77b4"),
        polyline(hodge, "#d62728", dash="6,4"),
    ]
    parts += labels(newton, "#1f77b4", -6)
    parts += labels(hodge, "#d62728", 14)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
