"""Instance files, reports, and the command line: parsing, round trips,
golden outputs, determinism, exit codes."""

from fractions import Fraction
from pathlib import Path

import pytest

from wadm.checker import Instance
from wadm.cli import main
from wadm.exact import FieldData
from wadm.instances import (
    InstanceError,
    parse_group,
    parse_instance,
    parse_norm_query,
    parse_point_query,
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
        normalized=False,
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
    assert elem.support() == ((1, 0),)


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
}


@pytest.mark.parametrize("command", ["check", "polygon"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_input_exits_3(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.inst"
    path.write_text(MALFORMED[name])
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{path}:") and not captured.out


def test_cli_zero_denominator_in_queries(tmp_path, capsys):
    point = (GOLDEN / "affinoid_gl2.inst").read_text()
    point = point.replace("point.vals: 0 0", "point.vals: 1/0 0")
    norm = (GOLDEN / "satake_norm_gl2.inst").read_text().replace("a=1", "a=1/0")
    for command, text in (("affinoid", point), ("satake-norm", norm)):
        assert "1/0" in text
        path = tmp_path / f"{command}.inst"
        path.write_text(text)
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"{path}:")


def test_cli_ramified_check_is_undecided(tmp_path, capsys):
    path = tmp_path / "ramified.inst"
    path.write_text(_HEAD + "weights.sigma1: 0 0\ngalois.form: wd\n"
                    "galois.wd.1: unramified val=0 mult=1\ngalois.wd.2: unramified val=1 mult=1\n"
                    "galois.wd.ramified: true\n")
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "adm.reason: ramified" in out and out.endswith("verdict: undecided\n")
    assert main(["polygon", str(path)]) == 2
    capsys.readouterr()


def test_cli_convert_weights(capsys):
    assert main(["convert-weights", "--form", "a", "--values", "0 1"]) == 0
    out = capsys.readouterr().out
    assert "sigma1.jumps: -2 0" in out
    assert main(["convert-weights", "--form", "i", "--values", "0 0"]) == 3
    capsys.readouterr()


# --- golden files ----------------------------------------------------------------


CHECK_GOLDENS = ["gl2_pass", "gl2_fail", "gl2_steinberg"]


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


def test_affinoid_and_norm_match_goldens(tmp_path):
    out = tmp_path / "aff.txt"
    assert main(["affinoid", str(GOLDEN / "affinoid_gl2.inst"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "expected" / "affinoid_gl2.txt").read_bytes()
    out = tmp_path / "norm.txt"
    assert main(["satake-norm", str(GOLDEN / "satake_norm_gl2.inst"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "expected" / "satake_norm_gl2.txt").read_bytes()


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
