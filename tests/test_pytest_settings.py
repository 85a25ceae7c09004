"""The suite's own pytest settings, checked in a fresh pytest process.

``pyproject.toml`` turns DeprecationWarnings into errors. A falsified
hypothesis test imports libcst to print its example, and libcst raises a
DeprecationWarning at import; unless that one warning is ignored, the error
ends the whole session before the example is printed or the next test runs.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FALSIFIED = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 100))
def test_falsified(x):
    assert x < 5


def test_after():
    pass
"""


def test_falsified_property_prints_its_example_and_the_session_runs_on(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
        + ["--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_falsified(" in out, out
    assert "1 failed, 1 passed" in out, out
