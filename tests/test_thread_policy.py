"""One BLAS thread per process, unless the user sets OPENBLAS_NUM_THREADS.

OpenBLAS reads the variable once, when numpy loads it, so each check runs
in a fresh interpreter that has not imported numpy yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapchain

SRC = str(Path(gapchain.__file__).resolve().parents[1])

# records the variable at the moment numpy is first looked up
RECORD_AT_NUMPY = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
"""


def run_fresh(code, blas_threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    run = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + code],
        capture_output=True, text=True, check=True, env=env)
    return run.stdout.strip()


@pytest.mark.parametrize("given,expected", [(None, "1"), ("3", "3")],
                         ids=["unset", "explicit"])
def test_import_sets_one_thread_unless_given(given, expected):
    code = "import os, gapchain; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh(code, given) == expected


def test_default_is_set_before_numpy_loads():
    code = RECORD_AT_NUMPY + (
        "assert 'numpy' not in sys.modules\n"
        "import gapchain.cli\n"
        "print(seen)")
    assert run_fresh(code) == "['1']"
