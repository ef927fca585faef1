"""Checks of each timed unit's output against its expectation.

``check_unit`` classifies a CLI invocation: the ops it holds either
errored (a traceback, or an exit code outside the 0-3 contract), or
produced a verdict, which is right or wrong against the reference.
``check_warm_op`` does the same for one domains_warm op.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import reference as ref

TRACEBACK = "Traceback (most recent call last)"
_SWEEP = re.compile(
    r"instance\.(\d+): vals=\[(.*?)\] a=(\[\[.*?\]\]) ineq=(\w+) adm=(\w+) member=(\w+) agree=(\w+)$")


def split_reports(out: str) -> dict:
    """``wadm check`` output -> {id: report text}; reports are joined by a
    blank line and each ends with a newline."""
    reports = {}
    for block in out.split("report: check\n")[1:]:
        text = "report: check\n" + block
        if text.endswith("\n\n"):
            text = text[:-1]
        reports[fields(text).get("id")] = text
    return reports


def fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _report_ok(text: str, expect) -> tuple[bool, str]:
    """The report's verdict lines against the reference (or, for a golden,
    its committed bytes); returns (ok, overall verdict)."""
    got = fields(text)
    verdict = got.get("verdict", "")
    if isinstance(expect, str):
        return text == expect, verdict
    ok = (
        got.get("norm.verdict") == expect["norm"]
        and got.get("central.integral") == f"ok={'true' if expect['central'] else 'false'}"
        and got.get("adm.verdict") == expect["adm"]
        and got.get("membership.verdict") == expect["membership"]
        and verdict == expect["adm"]
    )
    if ok and expect["adm"] == ref.PASS and "galois.zeta_vals" in got:
        ok = got.get("adm.witness.oracle") == "ok=true"
    return ok, verdict


def _reports(expects, code: int, out: str):
    reports = split_reports(out)
    wrong, notes, worst = 0, [], 0
    for ident, expect in expects:
        text = reports.get(ident)
        ok, verdict = _report_ok(text, expect) if text is not None else (False, "")
        worst = max(worst, ref.EXIT.get(verdict, 3))
        if not ok:
            wrong += 1
            notes.append(f"report {ident} disagrees with the reference")
    if code != worst and not wrong:
        wrong = len(expects)
        notes.append(f"exit {code}, expected {worst}")
    return wrong, notes


def _sweep(count: int, code: int, out: str):
    wrong, notes, seen = 0, [], 0
    for line in out.splitlines():
        m = _SWEEP.match(line)
        if not m:
            continue
        seen += 1
        vals = [Fraction(v) for v in m.group(2).split(", ")]
        a_rows = json.loads(m.group(3))
        want = "true" if ref.majorized(vals, ref.weight_bound(a_rows, 1)) else "false"
        if m.group(4, 5, 6, 7) != (want, want, want, "true"):
            wrong += 1
            notes.append(f"sweep instance {m.group(1)} disagrees with the reference")
    wrong += count - seen
    if not wrong and (code != 0 or f"summary.agreements: {count}/{count}" not in out):
        wrong = count
        notes.append(f"sweep summary or exit {code} wrong")
    return wrong, notes


def check_unit(unit, code: int, out: str, err: str):
    """(errored ops, wrong ops, notes) of one CLI invocation."""
    if code not in (0, 1, 2, 3) or TRACEBACK in err:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return unit.ops, 0, [f"{unit.label}: exit {code}: {last}"]
    kind = unit.expect[0]
    if kind == "reports":
        wrong, notes = _reports(unit.expect[1], code, out)
    elif kind == "sweep":
        wrong, notes = _sweep(unit.expect[1], code, out)
    elif kind == "edge":
        allowed = unit.expect[1]
        verdict = fields(out).get("verdict")
        ok = code in allowed and allowed[code] in (None, verdict)
        wrong, notes = int(not ok), ([] if ok else [f"exit {code}, verdict {verdict}"])
    else:  # "bytes"
        _, want_code, want_out = unit.expect
        ok = code == want_code and out == want_out
        wrong, notes = int(not ok), ([] if ok else ["output differs from the reference"])
    return 0, wrong, [f"{unit.label}: {n}" for n in notes]


def _val(text: str):
    return None if text == "inf" else Fraction(text)


def check_warm_op(unit, result) -> tuple[int, int]:
    """(errored, wrong) for one domains_warm op."""
    if isinstance(result, dict):
        return 1, 0
    kind, expect = unit.expect
    if kind == "point":
        hull, vxi = result
        return 0, int(hull != vxi or (expect is not None and hull != expect))
    vx, vy, vxy, vwx = (_val(v) for v in result)
    ok = vwx == vx and (None in (vx, vy) or vxy is None or vxy >= vx + vy)
    if expect is not None:
        ok = ok and result[:2] == expect
    return 0, int(not ok)
