"""The shell steps of .github/workflows/tier1.yml, run as CI runs them.

Every ``run:`` block of every job runs in ``bash -eo pipefail`` from the
repository root, except the install steps and the pytest steps.  RUNNER_TEMP
and TMPDIR point at a temporary directory, and a ``gapchain`` shim
(``python -m gapchain.cli`` with src/ on the path) comes first on PATH.  The
numpy-only job's blocks run against ``$RUNNER_TEMP/bare``, a venv made with
``--without-pip`` whose .pth files see a directory of symlinks to numpy and
src/, and nothing else; its ``bin/gapchain`` is a shim as well, since the
install step (``pip install .``) is skipped.  The workflow is read line by
line, so no YAML library is needed.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def run_blocks(text):
    """(job, step name, shell) of each ``run:`` step, in order; a block
    ``run: |`` is every following line indented deeper than its key."""
    blocks, job, name = [], None, None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if m := re.fullmatch(r"  ([\w-]+):", line):
            job = m[1]
        elif m := re.match(r"\s+- (\w+): (.*)", line):
            name = m[2] if m[1] == "name" else None
        elif m := re.fullmatch(r"( +)run: (.*)", line):
            shell = m[2]
            if shell == "|":
                body = []
                for nxt in lines[i + 1:]:
                    if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= len(m[1]):
                        break
                    body.append(nxt)
                shell = textwrap.dedent("\n".join(body))
            blocks.append((job, name, shell))
    return blocks


BLOCKS = run_blocks(WORKFLOW.read_text())
STEPS = [b for b in BLOCKS if "pip install" not in b[2] and "pytest" not in b[2]]


def shim(path, python, env=""):
    """An executable that runs ``python -m gapchain.cli``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'#!/bin/sh\n{env}exec "{python}" -m gapchain.cli "$@"\n')
    path.chmod(0o755)


@pytest.fixture(scope="module")
def runner_temp(tmp_path_factory):
    """RUNNER_TEMP: shims/ (gapchain, python, python3) and bare/, the
    numpy-only venv."""
    temp = tmp_path_factory.mktemp("runner")
    shim(temp / "shims" / "gapchain", sys.executable,
         f'PYTHONPATH="{SRC}${{PYTHONPATH:+:$PYTHONPATH}}" ')
    for name in ("python", "python3"):
        (temp / "shims" / name).symlink_to(sys.executable)
    bare = temp / "bare"
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(bare)], check=True)
    site = next(bare.glob("lib/python*/site-packages"))
    numpy_only = temp / "numpy-only"
    numpy_only.mkdir()
    packages = Path(np.__file__).parents[1]
    for name in ("numpy", "numpy.libs"):
        if (packages / name).exists():
            (numpy_only / name).symlink_to(packages / name)
    (site / "numpy-only.pth").write_text(f"{numpy_only}\n")
    (site / "gapchain-src.pth").write_text(f"{SRC}\n")
    shim(bare / "bin" / "gapchain", bare / "bin" / "python")
    return temp


@pytest.mark.extended
def test_every_run_key_is_read():
    # a parser that lost blocks would pass every step it found
    keys = [line for line in WORKFLOW.read_text().splitlines()
            if re.match(r"\s*(- )?run:", line)]
    assert len(BLOCKS) == len(keys)
    assert {job for job, _, _ in STEPS} == {"tests", "numpy-only"}


@pytest.mark.extended
@pytest.mark.parametrize("job, name, shell", STEPS, ids=[f"{j}: {n}" for j, n, _ in STEPS])
def test_ci_step_passes(runner_temp, tmp_path, job, name, shell):
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp), TMPDIR=str(tmp_path),
               PATH=f"{runner_temp / 'shims'}{os.pathsep}{os.environ['PATH']}")
    if job == "numpy-only":  # the bare venv's python sees numpy and src/ alone
        env.pop("PYTHONPATH", None)
    done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", shell],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, (
        f"exit {done.returncode}\n--- stdout\n{done.stdout[-3000:]}"
        f"\n--- stderr\n{done.stderr[-3000:]}")
