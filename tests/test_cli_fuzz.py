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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RUNS)), st.data(), st.lists(mutations, min_size=1, max_size=3))
def test_mutated_inputs_keep_the_exit_contract(command, data, edits):
    name = data.draw(st.sampled_from(RUNS[command]))
    lines = (GOLDEN / f"{name}.inst").read_text().splitlines()
    lines = [line for line in lines if not line.startswith("#")]
    for edit in edits:
        lines = _mutate(lines, *edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.inst"
        path.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert err.getvalue().startswith(f"{path}:")
