"""Instance files, reports, and the command line: parsing, round trips,
golden outputs, determinism, exit codes."""

import collections
import gc
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wadm.checker import Instance, check_instance, jumps_from_weights
import wadm.cli as wadm_cli
from wadm.cli import main
from wadm.exact import FieldData
from wadm.instances import (
    InstanceError,
    parse_group,
    parse_instance,
    parse_norm_query,
    parse_point_query,
    render_check_report,
    serialize_instance,
)
from wadm.weildeligne import SteinbergChain, Unramified, WDRep

GOLDEN = Path(__file__).parent / "golden"


# --- parsing ---------------------------------------------------------------


def test_parse_serialize_round_trip_zeta():
    inst = Instance(
        ident="rt",
        field=FieldData(p=5, e=1, f=2),
        weights_a=((0, 1, 3), (-2, 0, 0)),
        zeta_vals=(Fraction(1, 2), Fraction(-3), Fraction(4)),
    )
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_serialize_round_trip_wd():
    inst = Instance(
        ident="rt-wd",
        field=FieldData(p=3, e=1, f=1),
        weights_a=((0, 0, 1, 2),),
        wd=WDRep(
            FieldData(p=3, e=1, f=1),
            (Unramified(Fraction(1, 2), 2, (2,)), SteinbergChain(0, 1, 2)),
        ),
    )
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_jump_form():
    text = """\
id: jumps
field.p: 3
field.e: 1
field.f: 1
weights.form: i
weights.sigma1: -2 0
galois.form: zeta
galois.zeta_vals: 0 2
"""
    inst = parse_instance(text)
    assert inst.weights_a == ((0, 1),)


def test_parse_group_presets():
    assert parse_group("gl(3)").name == "gl(3)"
    assert parse_group("sl(2)").name == "sl(2)"
    assert parse_group("sp(4)").name == "sp(4)"
    assert parse_group("cartan [[2]]").rank == 1
    assert parse_group("cartan-adjoint [[2]]").rank == 1
    with pytest.raises(ValueError):
        parse_group("so(5)")


def test_parse_errors_are_positioned():
    with pytest.raises(InstanceError) as err:
        parse_instance("field.p: 3\nnot a key value line\n", path="bad.inst")
    assert "bad.inst:2" in str(err.value)
    with pytest.raises(InstanceError) as err:
        parse_instance("field.p: x\nfield.e: 1\nfield.f: 1\n", path="bad.inst")
    assert "bad.inst:1" in str(err.value)
    with pytest.raises(InstanceError):
        parse_instance("field.p: 3\nfield.e: 1\nfield.f: 1\n")  # missing weights


def test_parse_duplicate_key():
    with pytest.raises(InstanceError) as err:
        parse_instance("field.p: 3\nfield.p: 5\n", path="dup.inst")
    assert "duplicate" in str(err.value)


def test_parse_point_query_non_gl_weights():
    # sp(4) dominant weights are not coordinate-sorted; the general-linear
    # monotonicity check must not apply to them
    text = """\
id: sp4-point
field.p: 3
field.e: 1
field.f: 1
group: sp(4)
weights.form: a
weights.sigma1: 2 1
point.vals: 1/2 -1/2
"""
    ident, datum, field, xi, point, normalized = parse_point_query(text)
    assert datum.name == "sp(4)" and xi.per_embedding == ((2, 1),)
    with pytest.raises(InstanceError):
        parse_point_query(text.replace("weights.form: a", "weights.form: i"))


def test_parse_instance_rejects_non_gl_group():
    text = """\
field.p: 3
field.e: 1
field.f: 1
group: sp(4)
weights.form: a
weights.sigma1: 2 1
galois.form: zeta
galois.zeta_vals: 0 0
"""
    with pytest.raises(InstanceError) as err:
        parse_instance(text, path="sp4.inst")
    assert "affinoid" in str(err.value)


def test_parse_point_and_norm_queries():
    text = (GOLDEN / "affinoid_gl2.inst").read_text()
    ident, datum, field, xi, point, normalized = parse_point_query(text)
    assert ident == "affinoid-gl2" and datum.name == "gl(2)" and normalized
    assert point == (0, 0)
    text = (GOLDEN / "satake_norm_gl2.inst").read_text()
    ident, datum, field, xi, elem = parse_norm_query(text)
    assert [lam for lam, _ in elem.terms] == [(1, 0)]


# --- CLI exit codes -----------------------------------------------------------


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["check", str(GOLDEN / "gl2_pass.inst")]) == 0
    assert main(["check", str(GOLDEN / "gl2_fail.inst")]) == 1
    undecided = tmp_path / "undecided.inst"
    undecided.write_text(
        "field.p: 3\nfield.e: 1\nfield.f: 1\nweights.form: a\nweights.sigma1: 0 1\n"
        "galois.form: zeta\ngalois.zeta_vals: 1 1\n"
    )
    assert main(["check", str(undecided)]) == 2
    bad = tmp_path / "bad.inst"
    bad.write_text("nonsense\n")
    assert main(["check", str(bad)]) == 3
    assert main(["check", str(tmp_path / "missing.inst")]) == 3
    capsys.readouterr()


def test_undecided_report_carries_reason(capsys):
    text = (
        "id: und\nfield.p: 3\nfield.e: 1\nfield.f: 1\nweights.form: a\n"
        "weights.sigma1: 0 1\ngalois.form: zeta\ngalois.zeta_vals: 1 1\n"
    )
    from wadm.checker import check_instance
    from wadm.instances import render_check_report

    report = render_check_report(check_instance(parse_instance(text)))
    assert "adm.reason: repeated zeta valuations" in report
    assert "verdict: undecided" in report
    assert "polygon." not in report  # no polygon pair in the undecided route


def test_cli_batch_worst_code(capsys):
    code = main(["check", str(GOLDEN / "gl2_pass.inst"), str(GOLDEN / "gl2_fail.inst")])
    assert code == 1
    out = capsys.readouterr().out
    # deterministic assembly sorted by id
    assert out.index("id: gl2-fail") < out.index("id: gl2-pass")


_HEAD = "field.p: 3\nfield.e: 1\nfield.f: 1\n"
MALFORMED = {
    "zero-denominator": _HEAD + "weights.sigma1: 0 1\ngalois.form: zeta\ngalois.zeta_vals: 1/0 2\n",
    "wd-zero-denominator": _HEAD + "weights.sigma1: 0\ngalois.form: wd\n"
                                   "galois.wd.1: unramified val=1/0 mult=1\n",
    "empty-lists": _HEAD + "weights.sigma1:\ngalois.form: zeta\ngalois.zeta_vals:\n",
    "cartan-int": _HEAD + "group: cartan 5\nweights.sigma1: 0 1\n"
                          "galois.form: zeta\ngalois.zeta_vals: 0 2\n",
    # checker instances are always normalized; the unnormalized domain is an affinoid query
    "unnormalized": _HEAD + "weights.sigma1: 0 1\ngalois.form: zeta\ngalois.zeta_vals: 0 2\n"
                            "options.normalized: false\n",
    "gl-rank-mismatch": _HEAD + "group: gl(3)\nweights.sigma1: 0 1\n"
                                "galois.form: zeta\ngalois.zeta_vals: 0 2\n",
}


def test_group_rank_mismatch_is_positioned(tmp_path, capsys):
    # the group line (line 4) is named, like every other bad key of a checker file
    path = tmp_path / "mismatch.inst"
    path.write_text(MALFORMED["gl-rank-mismatch"])
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"{path}:4: group rank 3 does not match the data dimension 2\n"
    assert not captured.out


# (command, file text, line of the offending key or None, message): an error
# raised while a key is read is reported once, at that key's line, and an
# error of the whole file once, at its path
ONE_PREFIX = {
    "missing-field-p": ("check", "field.e: 1\nfield.f: 1\nweights.sigma1: 0 1\n"
                                 "galois.form: zeta\ngalois.zeta_vals: 0 2\n",
                        None, "missing required key 'field.p'"),
    "bad-field-e": ("check", "id: x\n\nfield.p: 3\nfield.e: x\nfield.f: 1\nweights.sigma1: 0 1\n"
                             "galois.form: zeta\ngalois.zeta_vals: 0 2\n",
                    4, "expected an integer, got 'x'"),
    "wd-summand-without-val": ("check", "field.p: 3\nfield.e: 1\nfield.f: 1\nweights.sigma1: 0 1\n"
                                        "galois.form: wd\n# a summand with no valuation\n\n"
                                        "galois.wd.1: unramified mult=2\n",
                               8, "unramified summand needs val="),
    "missing-zeta-vals": ("check", "field.p: 3\nfield.e: 1\nfield.f: 1\nweights.sigma1: 0 1\n"
                                   "galois.form: zeta\n",
                          None, "missing required key 'galois.zeta_vals'"),
    "weights-form": ("check", _HEAD + "weights.form: x\nweights.sigma1: 0 1\ngalois.form: zeta\n"
                                      "galois.zeta_vals: 0 2\n",
                     4, "weights.form must be 'a' or 'i', got 'x'"),
    "empty-summand": ("check", _HEAD + "weights.sigma1: 0\ngalois.form: wd\ngalois.wd.1:\n",
                      6, "empty summand"),
    "wd-without-summands": ("check", _HEAD + "weights.sigma1: 0\ngalois.form: wd\n",
                            None, "galois.form wd needs galois.wd.<N> lines"),
    "galois-form-other": ("check", _HEAD + "weights.sigma1: 0 1\ngalois.form: other\n",
                          5, "galois.form must be 'zeta' or 'wd', got 'other'"),
    "ragged-weights": ("check", "field.p: 3\nfield.e: 2\nfield.f: 1\nweights.sigma1: 0 1\n"
                                "weights.sigma2: 0 1 2\ngalois.form: zeta\ngalois.zeta_vals: 0 2\n",
                       None, "weight rows must have equal length"),
    "short-summands": ("check", _HEAD + "weights.sigma1: -1 0 1\ngalois.form: wd\n"
                                        "galois.wd.1: unramified val=0 mult=1\n",
                       None, "Weil-Deligne dimension must match the weight length"),
    "long-zeta-vals": ("check", _HEAD + "weights.sigma1: 0 1\ngalois.form: zeta\n"
                                        "galois.zeta_vals: 0 1 2\n",
                       None, "zeta valuation count must match the weight length"),
    "long-point": ("affinoid", _HEAD + "group: gl(2)\nweights.sigma1: 0 0\npoint.vals: 0 0 0\n",
                   6, "point length 3 != rank 2"),
    "long-lambda": ("satake-norm", _HEAD + "group: gl(2)\nweights.sigma1: 0 0\n"
                                           "element.1: lambda=1,0,0 a=1 b=0\n",
                    6, "lambda length 3 != rank 2"),
    "no-element": ("satake-norm", _HEAD + "group: gl(2)\nweights.sigma1: 0 0\n",
                   None, "need at least one element.<N> line"),
    # summand and element fields are read strictly: the last of a repeated
    # field, an unknown field and a stray token used to pass unread
    "wd-repeated-field": ("check", _HEAD + "weights.sigma1: 0\ngalois.form: wd\n"
                                           "galois.wd.1: unramified val=0 mult=1 val=7\n",
                          6, "unramified summand repeats val="),
    "wd-unknown-field": ("check", _HEAD + "weights.sigma1: 0 1\ngalois.form: wd\n"
                                          "galois.wd.1: steinberg base=0 dim=1 len=2 jordan=1\n",
                         6, "steinberg summand takes no jordan="),
    "wd-stray-token": ("check", _HEAD + "weights.sigma1: 0\ngalois.form: wd\n"
                                        "galois.wd.1: unramified val=0 mult=1 bogus\n",
                       6, "unramified summand has a stray token 'bogus'"),
    "element-repeated-field": ("satake-norm", _HEAD + "group: gl(2)\nweights.sigma1: 0 0\n"
                                                      "element.1: lambda=1,0 a=1 b=0 a=2\n",
                               6, "element line repeats a="),
    "element-unknown-field": ("satake-norm", _HEAD + "group: gl(2)\nweights.sigma1: 0 0\n"
                                                     "element.1: lambda=1,0 a=1 b=0 bogus=3\n",
                              6, "element line takes no bogus="),
    "element-stray-token": ("satake-norm", _HEAD + "group: gl(2)\nweights.sigma1: 0 0\n"
                                                   "element.1: lambda=1,0 a=1 b=0 +\n",
                            6, "element line has a stray token '+'"),
}


@pytest.mark.parametrize("name", sorted(ONE_PREFIX))
def test_key_errors_carry_one_prefix(name, tmp_path, capsys):
    command, text, line, message = ONE_PREFIX[name]
    path = tmp_path / "x.inst"
    path.write_text(text)
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    where = str(path) if line is None else f"{path}:{line}"
    assert captured.err == f"{where}: {message}\n"
    assert not captured.out


# (command, golden file, group line, the error line and message of a 2-dimensional file)
LARGE_GROUPS = {
    "check-gl": ("check", "gl2_pass", "gl(3000)", 6,
                 "group rank 3000 does not match the data dimension 2"),
    "polygon-sl": ("polygon", "gl2_pass", "sl(3000)", 6,
                   "checker instances are general-linear; use an affinoid query for sl(3000)"),
    "affinoid-gl": ("affinoid", "affinoid_gl2", "gl(3000)", 8, "weight length must equal the rank"),
    "satake-norm-sl": ("satake-norm", "satake_norm_gl2", "sl(3000)", 8,
                       "weight length must equal the rank"),
}


@pytest.mark.parametrize("name", sorted(LARGE_GROUPS))
def test_a_large_group_line_is_checked_before_it_is_built(name, tmp_path):
    # a gl(N)/sl(N) datum holds N^2 root entries and its independence check
    # takes N^3 steps; a mismatched line must be refused from its spec, so a
    # fresh interpreter exits 3 long before the timeout
    command, golden, group, line, message = LARGE_GROUPS[name]
    path = tmp_path / f"{name}.inst"
    path.write_text((GOLDEN / f"{golden}.inst").read_text().replace("group: gl(2)", f"group: {group}"))
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "wadm", command, str(path)], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"{path}:{line}: {message}\n")


# (command, golden file, numbered key already in it, a second key with its number)
SAME_NUMBER = {
    "weights": ("check", "gl2_pass", "weights.sigma1", "weights.sigma01: 0 5"),
    "galois.wd": ("check", "gl2_steinberg", "galois.wd.1", "galois.wd.01: unramified val=0 mult=1"),
    "element": ("satake-norm", "satake_norm_gl2", "element.1", "element.01: lambda=0,1 a=1 b=0"),
}


@pytest.mark.parametrize("name", sorted(SAME_NUMBER))
def test_numbered_keys_with_the_same_number_are_an_input_error(name, tmp_path, capsys):
    # int("01") == int("1"): the later key used to replace the earlier one
    # silently, dropping a weight row, a summand or a term
    command, golden, first, second = SAME_NUMBER[name]
    lines = (GOLDEN / f"{golden}.inst").read_text().splitlines() + [second]
    path = tmp_path / f"{golden}.inst"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    key = second.partition(":")[0]
    assert captured.err == f"{path}:{len(lines)}: {key!r} repeats the number of {first!r}\n"
    assert not captured.out


@pytest.mark.parametrize("command", ["check", "polygon"])
@pytest.mark.parametrize("summand, message", [
    ("unramified val=0 mult=1000000000000",
     "unramified summand of dimension 1000000000000 exceeds the weight length 2"),
    ("steinberg base=0 dim=1000000000000 len=2",
     "steinberg summand of dimension 2000000000000 exceeds the weight length 2"),
], ids=["unramified", "steinberg"])
def test_a_summand_longer_than_the_weights_is_refused_at_its_line(command, summand, message,
                                                                   tmp_path, capsys):
    # a default Jordan partition of 10^12 ones used to end in a MemoryError
    # traceback (exit 1, read as "fail"); the declared dimension meets the
    # weight length first
    lines = (GOLDEN / "gl2_steinberg.inst").read_text().splitlines()
    line = next(k for k, text in enumerate(lines, 1) if text.startswith("galois.wd.1:"))
    lines[line - 1] = f"galois.wd.1: {summand}"
    path = tmp_path / "huge.inst"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{path}:{line}: {message}\n")


def test_check_reads_each_summands_blocks_once(monkeypatch):
    # a Weil-Deligne side's arithmetic valuations are read off its summands
    # once per instance, not again for each verdict and for the report
    calls = collections.Counter()
    for cls in (Unramified, SteinbergChain):
        def counted(self, degree, blocks=cls.blocks):
            calls[self] += 1
            return blocks(self, degree)
        monkeypatch.setattr(cls, "blocks", counted)
    inst = parse_instance((GOLDEN / "gl4_block.inst").read_text(), "gl4_block.inst")
    report = render_check_report(check_instance(inst))
    assert "galois.arithmetic_vals: 2 -2 0 -1" in report
    assert calls == {part: 1 for part in inst.wd.parts}


@pytest.mark.parametrize("command", ["check", "polygon"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_input_exits_3(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.inst"
    path.write_text(MALFORMED[name])
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{path}:") and not captured.out


# (group, weights.sigma1, point.vals, element.1); affinoid reads the point,
# satake-norm the element.
BAD_QUERIES = {
    "zero-denominator": ("gl(2)", "0 0", "1/0 0", "lambda=1,0 a=1/0 b=0"),
    "sp4-not-dominant": ("sp(4)", "0 1", "0 0", "lambda=0,0 a=1 b=0"),
    "sl3-not-dominant": ("sl(3)", "0 -1", "0 0", "lambda=0,0 a=1 b=0"),
    "cartan-not-dominant": ("cartan [[2]]", "-1", "0", "lambda=0 a=1 b=0"),
    "gl2-short-weight": ("gl(2)", "0", "0 0", "lambda=0,0 a=1 b=0"),
    "sp4-long-weight": ("sp(4)", "0 1 2", "0 0", "lambda=0,0 a=1 b=0"),
    "empty-weight-no-group": (None, "", "0", "lambda=0 a=1 b=0"),
    "hyperbolic-cartan": ("cartan [[2,-3],[-3,2]]", "0 0", "0 0", "lambda=0,0 a=1 b=0"),
}


@pytest.mark.parametrize("command", ["affinoid", "satake-norm"])
@pytest.mark.parametrize("name", sorted(BAD_QUERIES))
def test_cli_bad_query_exits_3(name, command, tmp_path, capsys):
    group, weight, point, element = BAD_QUERIES[name]
    text = _HEAD + (f"group: {group}\n" if group else "") + f"weights.sigma1: {weight}\n"
    text += f"point.vals: {point}\n" if command == "affinoid" else f"element.1: {element}\n"
    path = tmp_path / f"{name}.inst"
    path.write_text(text)
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert re.match(rf"{re.escape(str(path))}:\d+: ", captured.err) and not captured.out


RAMIFIED = (_HEAD + "weights.sigma1: 0 0\ngalois.form: wd\n"
            "galois.wd.1: unramified val=0 mult=1\ngalois.wd.2: unramified val=1 mult=1\n"
            "galois.wd.ramified: true\n")


def test_cli_ramified_check_is_undecided(tmp_path, capsys):
    path = tmp_path / "ramified.inst"
    path.write_text(RAMIFIED)
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "adm.reason: ramified" in out and out.endswith("verdict: undecided\n")
    assert main(["polygon", str(path)]) == 2
    capsys.readouterr()


def test_cli_rank13_pass_is_undecided(tmp_path, capsys):
    a = [sorted((k * 5) % 9 - 4 for k in range(13))]
    vals = [Fraction(-j) for j in jumps_from_weights(a)[0]]
    inst = Instance(ident="r13", field=FieldData(p=3, e=1, f=1),
                    weights_a=tuple(map(tuple, a)), zeta_vals=tuple(vals))
    path = tmp_path / "r13.inst"
    path.write_text(serialize_instance(inst))
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "adm.ineq.i=12: " in out and "adm.eq.total: " in out
    assert "adm.reason: the inequalities hold, but the witness oracle did not run: " \
           "subobject enumeration capped at rank 12\n" in out
    assert "witness." not in out and out.endswith("verdict: undecided\n")


def test_cli_unwritable_output_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing" / "dir"
    gl2 = str(GOLDEN / "gl2_pass.inst")
    for argv, target in ((["check", gl2, "--out", str(missing / "x")], missing / "x"),
                         (["polygon", gl2, "--plot", str(missing / "p")], missing / "p.svg")):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{target}: cannot write file: ")
        assert not captured.out


@pytest.mark.parametrize("command, kernel, golden", [
    ("affinoid", "in_Vxi", "affinoid_gl2.inst"),
    ("check", "check_instance", "gl2_pass.inst"),
])
def test_cli_out_of_memory_exits_2(command, kernel, golden, monkeypatch, capsys):
    # a query past the machine's memory is undecided, not a "fail" (exit 1)
    # with a traceback; the kernel is replaced by one that raises, so that
    # no test has to allocate that much.  ``check`` imports its kernel from
    # the checker when it runs, so it is replaced there.
    def exhausted(*args, **kwargs):
        raise MemoryError

    home = "wadm.checker" if kernel == "check_instance" else "wadm.cli"
    monkeypatch.setattr(f"{home}.{kernel}", exhausted)
    assert main([command, str(GOLDEN / golden)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{command}: out of memory\n" and not captured.out


def _batch_files(tmp_path):
    """Check files with their ids, in command-line order: a file given twice,
    two files sharing the id gl2-fail (one of them passes) and an undecided
    one, so the worst exit code is 2."""
    twin = tmp_path / "twin.inst"
    twin.write_text((GOLDEN / "gl2_pass.inst").read_text().replace("id: gl2-pass", "id: gl2-fail"))
    undecided = tmp_path / "undecided.inst"
    undecided.write_text(
        "field.p: 3\nfield.e: 1\nfield.f: 1\nweights.form: a\nweights.sigma1: 0 1\n"
        "galois.form: zeta\ngalois.zeta_vals: 1 1\n"
    )
    return [(str(GOLDEN / "gl4_block.inst"), "gl4-block"), (str(twin), "gl2-fail"),
            (str(GOLDEN / "gl2_pass.inst"), "gl2-pass"), (str(undecided), "undecided"),
            (str(GOLDEN / "gl2_fail.inst"), "gl2-fail"), (str(GOLDEN / "gl4_block.inst"), "gl4-block")]


def test_check_keeps_one_verdict_alive_and_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    # each report is rendered as its instance is checked: when a report is
    # rendered, no earlier verdict graph is still alive.  InstanceResult has
    # __slots__ and no __weakref__, so the live ones are counted through gc.
    from wadm.checker import InstanceResult

    render, alive = wadm_cli.render_check_report, []

    def counting(result):
        gc.collect()
        alive.append(sum(type(obj) is InstanceResult for obj in gc.get_objects()))
        return render(result)

    files = _batch_files(tmp_path)
    monkeypatch.setattr("wadm.cli.render_check_report", counting)
    assert main(["check", *(path for path, _ in files)]) == 2
    batch = capsys.readouterr().out
    assert len(alive) == len(files) and max(alive) == 1
    # the same bytes as the single-file reports joined in id order, equal ids
    # in command-line order (sorted() is stable)
    singles = []
    for path, ident in files:
        main(["check", path])
        singles.append((ident, capsys.readouterr().out))
    assert batch == "\n".join(out for _, out in sorted(singles, key=lambda pair: pair[0]))
    assert batch.index("id: gl2-fail\n") < batch.index("verdict: pass") < batch.index("verdict: fail")
    out = tmp_path / "batch.txt"
    assert main(["check", *(path for path, _ in files), "--out", str(out)]) == 2
    assert out.read_bytes() == batch.encode("utf-8") and not capsys.readouterr().out


def test_check_exit_contract_under_the_render_loop(tmp_path, monkeypatch, capsys):
    # out of memory at the third instance: two reports are rendered by then,
    # but the output is written only at the end, so stdout stays empty
    from wadm import checker

    check, calls, rendered = checker.check_instance, [], []

    def third_exhausts(inst):
        calls.append(inst)
        if len(calls) == 3:
            raise MemoryError
        return check(inst)

    render = wadm_cli.render_check_report
    monkeypatch.setattr("wadm.checker.check_instance", third_exhausts)
    monkeypatch.setattr("wadm.cli.render_check_report", lambda r: rendered.append(r) or render(r))
    files = [path for path, _ in _batch_files(tmp_path)]
    assert main(["check", *files]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err, len(rendered)) == ("", "check: out of memory\n", 2)
    # every file is parsed before any check: a parse error in the last file
    # exits 3 with no instance checked
    bad = tmp_path / "bad.inst"
    bad.write_text("nonsense\n")
    checked = []
    monkeypatch.setattr("wadm.checker.check_instance", checked.append)
    assert main(["check", *files, str(bad)]) == 3
    captured = capsys.readouterr()
    assert (checked, captured.out) == ([], "") and captured.err.startswith(f"{bad}:")


def _wadm(*argv, **kwargs):
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "wadm", *argv], env=env, **kwargs)


@pytest.mark.parametrize("name", ["check", "sweep"])
def test_stdout_closed_early_keeps_the_verdict(name, tmp_path):
    # a reader that stops after one line (`wadm check ... | head -1`) has what
    # it wanted: no traceback, and the exit code is still the verdict's.  Each
    # run prints well past the 64 KB pipe buffer: 60 batches of six reports
    # of 0.6-0.9 KB, one undecided (exit 2, not a traceback's 1), or 3,000
    # sweep lines of about 100 bytes.
    if name == "check":
        argv, verdict = ["check", *[path for path, _ in _batch_files(tmp_path)] * 60], 2
    else:
        argv, verdict = ["sweep", "--count", "3000"], 0
    proc = _wadm(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == f"report: {name}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (verdict, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["check", str(GOLDEN / "gl2_pass.inst")], ["sweep", "--count", "3000"]],
                         ids=["check", "sweep"])
def test_unwritable_stdout_exits_3(argv):
    # a stdout that cannot take the output is an input/output error (3) with
    # one line, not a traceback with exit 1, which reads as "fail"
    with open("/dev/full", "w") as full:
        proc = _wadm(*argv, stdout=full, stderr=subprocess.PIPE, text=True)
        err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 3
    assert err.startswith("<stdout>: cannot write output: ") and err.count("\n") == 1


_CLOSED_STDOUT = "<stdout>: cannot write output: stdout is closed\n"


# (argv, $WADM_SEED, stdout, stderr, exit code, stderr text or None when not
# read).  A stream is "pipe" (read by the test), "full" (/dev/full) or
# "closed" (its descriptor is closed in the child before Python starts, so
# Python sets the stream to None).
BROKEN_STREAMS = {
    "check-malformed-stderr-full": (["check", "{bad}"], None, "pipe", "full", 3, None),
    "check-malformed-stderr-closed": (["check", "{bad}"], None, "pipe", "closed", 3, None),
    "polygon-ramified-stderr-full": (["polygon", "{ramified}"], None, "pipe", "full", 2, None),
    "convert-weights-stderr-full": (["convert-weights", "--form", "a", "--values", "1 0"], None,
                                    "pipe", "full", 3, None),
    "sweep-rank-0-stderr-full": (["sweep", "--rank", "0"], None, "pipe", "full", 3, None),
    "sweep-env-seed-stderr-full": (["sweep"], "abc", "pipe", "full", 3, None),
    "check-stdout-closed": (["check", "{gl2}"], None, "closed", "pipe", 3, _CLOSED_STDOUT),
    "sweep-stdout-closed": (["sweep", "--count", "3000"], None, "closed", "pipe", 3, _CLOSED_STDOUT),
    "check-out-stdout-closed": (["check", "{gl2}", "--out", "{out}"], None, "closed", "pipe", 0, ""),
    "check-both-full": (["check", "{gl2}"], None, "full", "full", 3, None),
}


@pytest.mark.parametrize("name", list(BROKEN_STREAMS))
def test_broken_streams_keep_the_exit_code(name, tmp_path, monkeypatch):
    # only main writes an error line, and a stderr that cannot take it loses
    # the line, not the exit code (a traceback would exit 1, "fail"); a closed
    # stdout is an output error.  A real interpreter, since its final flush of
    # a failed stream could change the code too.
    argv, seed, out, err, code, message = BROKEN_STREAMS[name]
    if "full" in (out, err) and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    (tmp_path / "bad.inst").write_text("nonsense\n")
    (tmp_path / "ramified.inst").write_text(RAMIFIED)
    paths = dict(bad=tmp_path / "bad.inst", ramified=tmp_path / "ramified.inst",
                 gl2=GOLDEN / "gl2_pass.inst", out=tmp_path / "F")
    argv = [arg.format(**paths) for arg in argv]
    if seed is None:
        monkeypatch.delenv("WADM_SEED", raising=False)
    else:
        monkeypatch.setenv("WADM_SEED", seed)
    closed = [fd for fd, mode in ((1, out), (2, err)) if mode == "closed"]
    with open(os.devnull if "full" not in (out, err) else "/dev/full", "w") as full:
        streams = [{"pipe": subprocess.PIPE, "full": full, "closed": subprocess.DEVNULL}[mode]
                   for mode in (out, err)]
        proc = _wadm(*argv, stdout=streams[0], stderr=streams[1], text=True,
                     preexec_fn=lambda: [os.close(fd) for fd in closed])
        got_out, got_err = proc.communicate(timeout=120)
    assert proc.returncode == code
    if out == "pipe":
        assert got_out == ""  # an error line never moves to stdout
    if message is not None:
        assert got_err == message
    if "--out" in argv:
        assert paths["out"].read_text() == (GOLDEN / "expected" / "gl2_pass.check.txt").read_text()


@pytest.mark.parametrize("flag,value", [("--rank", "0"), ("--embeddings", "0"), ("--count", "-1")])
def test_cli_sweep_rejects_bad_sizes(flag, value, capsys):
    assert main(["sweep", flag, value]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"sweep: {flag} must be >= ") and not captured.out


@pytest.mark.parametrize("argv, message", [
    ([], "wadm: error: the following arguments are required: command\n"),
    (["bogus"], "wadm: error: argument command: invalid choice: 'bogus' "),
    (["check"], "wadm check: error: the following arguments are required: files\n"),
    (["sweep", "--rank", "abc"], "wadm sweep: error: argument --rank: invalid int value: 'abc'\n"),
], ids=["no-command", "bogus", "check-no-files", "sweep-rank-abc"])
def test_cli_usage_errors_exit_3(argv, message, capsys):
    # argparse's own code 2 would read as "undecided"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: wadm") and message in captured.err
    assert not captured.out


def test_cli_usage_error_with_stderr_closed_keeps_stdout_empty(capsys, monkeypatch):
    # Python sets sys.stderr to None when started with stderr closed, and
    # argparse prints a usage to stdout when its file is None
    monkeypatch.setattr(sys, "stderr", None)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--rank", "abc"])
    assert exc.value.code == 3
    assert capsys.readouterr().out == ""


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wadm")


def test_cli_convert_weights(capsys):
    assert main(["convert-weights", "--form", "a", "--values", "0 1"]) == 0
    out = capsys.readouterr().out
    assert "sigma1.jumps: -2 0" in out
    assert main(["convert-weights", "--form", "i", "--values", "0 0"]) == 3
    capsys.readouterr()
    # empty and ragged rows are input errors, not reports
    for values, message in (("", "every row needs at least one entry"),
                            ("0 1;;0 2", "every row needs at least one entry"),
                            ("0 1; 0", "rows must have equal length")):
        for form in ("a", "i"):
            assert main(["convert-weights", "--form", form, "--values", values]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"convert-weights: {message}\n"


# --- golden files ----------------------------------------------------------------


# gl4_block is a declared direct sum, decided by the block polygon criterion
CHECK_GOLDENS = ["gl2_pass", "gl2_fail", "gl2_steinberg", "gl4_block"]


@pytest.mark.parametrize("name", CHECK_GOLDENS)
def test_check_reports_match_goldens(name, tmp_path):
    expected = (GOLDEN / "expected" / f"{name}.check.txt").read_bytes()
    runs = []
    for k in range(2):
        out = tmp_path / f"{name}.{k}.txt"
        main(["check", str(GOLDEN / f"{name}.inst"), "--out", str(out)])
        runs.append(out.read_bytes())
    assert runs[0] == runs[1] == expected


def test_polygon_report_and_plot_match_goldens(tmp_path):
    expected_report = (GOLDEN / "expected" / "gl2_pass.polygon.txt").read_bytes()
    expected_svg = (GOLDEN / "expected" / "gl2_pass.plot.svg").read_bytes()
    expected_table = (GOLDEN / "expected" / "gl2_pass.plot.txt").read_bytes()
    for k in range(2):
        out = tmp_path / f"poly.{k}.txt"
        prefix = tmp_path / f"plot.{k}"
        assert (
            main([
                "polygon", str(GOLDEN / "gl2_pass.inst"), "--out", str(out),
                "--plot", str(prefix),
            ])
            == 0
        )
        assert out.read_bytes() == expected_report
        assert (tmp_path / f"plot.{k}.svg").read_bytes() == expected_svg
        assert (tmp_path / f"plot.{k}.txt").read_bytes() == expected_table


# (command, golden name): gl(2), then G2 over f = 2 unnormalized and the
# adjoint A1 datum, whose eta is half-integral
QUERY_GOLDENS = [
    ("affinoid", "affinoid_gl2"),
    ("satake-norm", "satake_norm_gl2"),
    ("affinoid", "affinoid_g2"),
    ("satake-norm", "satake_norm_pgl2"),
]


@pytest.mark.parametrize("command, name", QUERY_GOLDENS, ids=[n for _, n in QUERY_GOLDENS])
def test_affinoid_and_norm_match_goldens(command, name, tmp_path):
    out = tmp_path / f"{name}.txt"
    assert main([command, str(GOLDEN / f"{name}.inst"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "expected" / f"{name}.txt").read_bytes()


def test_norm_query_over_a_large_residue_field(tmp_path, capsys):
    # q = p^2 with p = 100000007: prime_power takes p as an integer square
    # root of q instead of trial-dividing up to p
    text = (GOLDEN / "satake_norm_gl2.inst").read_text()
    text = text.replace("field.p: 3", "field.p: 100000007").replace("field.f: 1", "field.f: 2")
    text = text.replace("weights.sigma1: 0 0", "weights.sigma1: 0 0\nweights.sigma2: 0 0")
    path = tmp_path / "big_q.inst"
    path.write_text(text)
    assert main(["satake-norm", str(path)]) == 0
    assert "norm.val_q: 0" in capsys.readouterr().out


@pytest.mark.parametrize("p, code", [(2**61 - 1, 0), (2**89 - 1, 3)], ids=["2^61-1", "2^89-1"])
def test_check_over_a_large_prime(p, code, tmp_path, capsys):
    # primality is a Miller-Rabin test, exact below 3317044064679887385961981;
    # a larger p is an input error that names that bound
    path = tmp_path / "big_p.inst"
    path.write_text((GOLDEN / "gl2_pass.inst").read_text().replace("field.p: 3", f"field.p: {p}"))
    start = time.perf_counter()
    assert main(["check", str(path)]) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith(f"{path}:3: ")
        assert "exact only below 3317044064679887385961981" in captured.err
    else:
        assert captured.out.endswith("verdict: pass\n")


def test_sweep_rank3_count100_byte_identical(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"s{k}.txt"
        assert main(["sweep", "--rank", "3", "--count", "100", "--seed", "7",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_deterministic(tmp_path, monkeypatch):
    expected = (GOLDEN / "expected" / "sweep_r2_c20_s7.txt").read_bytes()
    for k in range(2):
        out = tmp_path / f"sweep.{k}.txt"
        assert main(["sweep", "--rank", "2", "--count", "20", "--seed", "7",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == expected
    # env-provided seed gives the same bytes as the flag
    monkeypatch.setenv("WADM_SEED", "7")
    out = tmp_path / "sweep.env.txt"
    assert main(["sweep", "--rank", "2", "--count", "20", "--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_sweep_rejects_a_non_integer_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WADM_SEED", "abc")
    out = tmp_path / "sweep.txt"
    assert main(["sweep", "--count", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "sweep: WADM_SEED must be an integer, got 'abc'\n"
    assert not out.exists()
    # an explicit --seed does not read the variable
    assert main(["sweep", "--count", "1", "--seed", "7", "--out", str(out)]) == 0
