"""The pytest configuration in ``pyproject.toml`` keeps reporting after a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_falsified_property_does_not_end_the_session(tmp_path):
    # On a failure Hypothesis imports libcst to write the example's patch, and
    # libcst's mypy_extensions.TypedDict use warns DeprecationWarning; turned
    # into an error by filterwarnings, it stopped the run in INTERNALERROR.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    args = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *args], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    output = run.stdout + run.stderr
    assert "1 failed, 1 passed" in output and "INTERNALERROR" not in output, output
