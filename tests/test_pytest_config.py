"""The suite's own pytest settings, run on throwaway tests in a child process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_deprecated():
    warnings.warn("an API of this project is deprecated", DeprecationWarning)
'''


def test_a_falsified_property_reports_its_example_and_deprecations_still_fail(tmp_path):
    """Reporting a falsified property imports libcst, which warns DeprecationWarning;
    under ``error::DeprecationWarning`` alone that ended the session with an
    INTERNALERROR instead of the example."""
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "FAILED test_failing.py::test_deprecated" in output
    assert "2 failed" in output
