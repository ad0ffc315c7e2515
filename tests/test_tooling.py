"""The suite's own settings: a failing test reports what failed."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_failing_property_reports_its_example(tmp_path):
    # hypothesis imports libcst to print the example's patch; under
    # filterwarnings = error, libcst's import warning must not hide the failure
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
