"""A failing property test is reported like any other, and the tests after
it still run. On a failure hypothesis's pytest plugin imports libcst (where
it is installed) to suggest a patch, and that import warns; the project's
``filterwarnings`` must let it pass, or the warning aborts the session with
INTERNALERROR. The scenario runs in a temporary directory under the
project's own pytest settings.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SCENARIO = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_scenario.py").write_text(SCENARIO)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_scenario.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
