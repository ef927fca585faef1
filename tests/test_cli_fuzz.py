"""Exit-code contract under fuzzing: mutated golden inputs never end in a
traceback, the exit code is always one of 0 pass, 1 fail, 2 undecided,
3 input error, and an input error names the file on stderr."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from wadm.cli import main

GOLDEN = Path(__file__).parent / "golden"

# command -> the golden inputs of the kind it reads
RUNS = {
    "check": ["gl2_pass", "gl2_fail", "gl2_steinberg", "gl4_block"],
    "polygon": ["gl2_pass", "gl2_fail", "gl2_steinberg", "gl4_block"],
    "affinoid": ["affinoid_gl2", "affinoid_g2"],
    "satake-norm": ["satake_norm_gl2", "satake_norm_pgl2"],
}

KEYS = [
    "id", "field.p", "field.e", "field.f", "group", "weights.form", "weights.sigma1",
    "weights.sigma2", "weights.sigma01", "galois.form", "galois.zeta_vals", "galois.wd.1",
    "galois.wd.2", "galois.wd.3", "galois.wd.4", "galois.wd.01", "galois.wd.ramified",
    "options.normalized", "point.vals", "element.1", "element.2", "element.01",
]

GROUPS = [
    "gl(1)", "gl(2)", "gl(3)", "sl(2)", "sl(3)", "sp(4)", "cartan [[2]]",
    "cartan [[2,-3],[-3,2]]",
]

values = st.one_of(
    st.sampled_from(GROUPS),
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=3).map(
        lambda ns: " ".join(map(str, ns))
    ),
    st.sampled_from([
        "", "1/0", "0 1/0", "lambda=1,0 a=1/0 b=0", "unramified val=1/0 mult=1",
        "steinberg base=1/0 dim=1 len=2",
        # summands far longer than any weight row: refused before they are built
        "unramified val=0 mult=1000000000000", "steinberg base=0 dim=1000000000000 len=2",
    ]),
)

mutations = st.tuples(
    st.sampled_from(["drop", "repeat", "rewrite", "append"]),
    st.sampled_from(range(24)),  # a line index, taken modulo the line count
    st.sampled_from(KEYS),
    values,
)


def _mutate(lines, op, index, key, value):
    if op == "append":
        return lines + [f"{key}: {value}"]
    i = index % len(lines)
    if op == "drop":
        return lines[:i] + lines[i + 1:]
    if op == "repeat":
        return lines[:i + 1] + lines[i:]
    head, sep, _ = lines[i].partition(":")
    return lines[:i] + [f"{head}: {value}" if sep else value] + lines[i + 1:]


# one summand line's value, either kind, with each field small, a zero
# denominator, not a number, or far past any weight length
size = st.sampled_from(["0", "1", "2", "3", "x", "1000000000000"])
rat = st.sampled_from(["0", "-1", "1/2", "1/0"])
summands = st.one_of(
    st.builds("unramified val={} mult={}".format, rat, size),
    st.builds("unramified val={} mult={} jordan={}".format, rat, size,
              st.sampled_from(["1", "1,1"])),
    st.builds("steinberg base={} dim={} len={}".format, rat, size, size),
)


def _assert_exit_contract(command, name, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.inst"
        path.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert err.getvalue().startswith(f"{path}:")


def _golden_lines(name):
    lines = (GOLDEN / f"{name}.inst").read_text().splitlines()
    return [line for line in lines if not line.startswith("#")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RUNS)), st.data(), st.lists(mutations, min_size=1, max_size=3))
def test_mutated_inputs_keep_the_exit_contract(command, data, edits):
    name = data.draw(st.sampled_from(RUNS[command]))
    lines = _golden_lines(name)
    for edit in edits:
        lines = _mutate(lines, *edit)
    _assert_exit_contract(command, name, lines)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["check", "polygon"]), st.sampled_from(["gl2_steinberg", "gl4_block"]),
       st.integers(0, 2), summands)
def test_rewritten_summand_lines_keep_the_exit_contract(command, name, index, value):
    # one galois.wd.<N> line of a Weil-Deligne golden gets a drawn value; the
    # whole-file mutations above seldom pick a summand line and a value together
    lines = _golden_lines(name)
    wd = [i for i, line in enumerate(lines) if line.startswith("galois.wd.")]
    i = wd[index % len(wd)]
    lines[i] = f"{lines[i].partition(':')[0]}: {value}"
    _assert_exit_contract(command, name, lines)


# one element line's value: lambda of any length, huge entries or not a
# number, coefficients zero, huge or with a zero denominator, the fields in
# any order, and now and then a repeated, unknown, empty or stray field
lambdas = st.sampled_from(["", "1", "1,0", "0,-1", "0,1,2", "1000000000000,-1000000000000", "x"])
coeffs = st.sampled_from(["0", "1", "-1/2", "25", "1/0", "1000000000000", "x"])
extras = st.sampled_from(["", "", " a=1", " b=0", " lambda=1", " c=3", " bogus", " a="])


def _element(lam, a, b, order, extra):
    fields = [f"lambda={lam}", f"a={a}", f"b={b}"]
    return " ".join(fields[i] for i in order) + extra


elements = st.builds(_element, lambdas, coeffs, coeffs, st.permutations(range(3)), extras)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["satake_norm_gl2", "satake_norm_pgl2"]), st.integers(0, 2), elements)
def test_rewritten_element_lines_keep_the_exit_contract(name, index, value):
    # one element.<N> line of a norm golden gets a drawn value, as the
    # summand test above does for the Weil-Deligne lines
    lines = _golden_lines(name)
    terms = [i for i, line in enumerate(lines) if line.startswith("element.")]
    i = terms[index % len(terms)]
    lines[i] = f"{lines[i].partition(':')[0]}: {value}"
    _assert_exit_contract("satake-norm", name, lines)
