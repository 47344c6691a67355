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


def test_chain_map_is_the_same_bits_at_any_thread_count():
    # the Stieltjes loop's pairwise sums call no BLAS; np.dot there moved the
    # N = 4000 coefficients by 2.0e-14 between one and two OpenBLAS threads
    code = (
        "import hashlib, gapchain\n"
        "from gapchain.chainmap import map_to_chain\n"
        "from gapchain.model import ModelParams\n"
        "c = map_to_chain(ModelParams(alpha=1.0, omega_b=5.0, omega0=100.0, "
        "omega_c=800.0), 4000)\n"
        "print(hashlib.sha256(c.eps.tobytes() + c.t.tobytes() + repr(c.g).encode())"
        ".hexdigest())")
    assert run_fresh(code, "1") == run_fresh(code, "2")
