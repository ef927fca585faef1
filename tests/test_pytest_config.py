"""The test suite's own configuration: warnings are errors, yet a failing
test is reported as a failure and the run goes on to report the next one.

Each run is a fresh ``python -m pytest`` under the repository's
``[tool.pytest.ini_options]``, on a temporary test file."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import wadm

ROOT = Path(__file__).parent.parent

TESTS = '''
import warnings

import wadm.rootdata
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x != 0


def test_plain_fails():
    assert False


def test_library_deprecation_fails():
    warnings.warn_explicit("a deprecated call", DeprecationWarning,
                           filename=wadm.rootdata.__file__, lineno=1, module="wadm.rootdata")
'''


def test_every_failure_is_reported_with_warnings_as_errors(tmp_path):
    options = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    assert "error" in options["filterwarnings"]
    lines = ["[tool.pytest.ini_options]"]
    lines += [f"{key} = {json.dumps(value)}" for key, value in options.items() if key != "testpaths"]
    (tmp_path / "pyproject.toml").write_text("\n".join(lines) + "\n")
    (tmp_path / "test_failing.py").write_text(TESTS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(wadm.__file__).parent.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_failing.py"], cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_failing.py::test_given_fails" in out, out
    assert "FAILED test_failing.py::test_plain_fails" in out, out
    # a DeprecationWarning that the library raises still fails the run
    assert "FAILED test_failing.py::test_library_deprecation_fails - DeprecationWarning" in out, out
    assert "DeprecationWarning: a deprecated call" in out, out
    assert "3 failed" in out, out
