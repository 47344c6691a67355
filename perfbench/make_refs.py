"""Regenerate the stored references and the provenance record.

Usage (from the repository root):

    python3 perfbench/make_refs.py            # every workload
    python3 perfbench/make_refs.py sweep-rwa  # selected workloads

References are taken from the code in ``src/`` as it stands, except for
``rwa-laplace``, whose reference is the independent exact-chain solver.
Run it only at a commit whose outputs are trusted; a change that claims a
gain must leave the references alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, SRC, WORK, machine

sys.path.insert(0, str(SRC))

# Tolerances, chosen by hand; each is stored beside its reference.
EVOLVE_TOL = {
    "t_abs": 1e-12,
    "sigma_abs": 1e-6,
    "charge_drift_max": 1e-10,
    "discarded_weight_max": 1e-10,
    "why": "sigma_z/sigma_x per sample within 1e-6 absolute: far above the "
           "1e-10 that a reordered but equivalent TEBD step moves them, far "
           "below the 5e-3 convergence tolerance of the doubling protocol. "
           "Parity drift and discarded weight stay below 1e-10 (about 1e-13 "
           "at the reference commit); no sample may be flagged.",
}
RWA_POP_ABS = 2e-4
SWEEP_TOL = {
    "abs": 1e-12,
    "rel": 1e-6,
    "why": "each estimate within 1e-6 relative of the reference; NaN "
           "(a refused estimate) matches only NaN.",
}


def run_cli(w, workdir: Path):
    """Run the workload once in-process with flag delivery; returns outdir."""
    import gapchain.cli

    argv = workloads.build_argv(w, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = gapchain.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{w.name}: CLI run failed")
    return workdir / "out"


def make_ref(w, workdir: Path, pop_abs=RWA_POP_ABS):
    """Reference dict for workload w (runs the code once)."""
    out = run_cli(w, workdir)
    if w.subcommand == "evolve":
        cols = workloads.read_csv(out / "evolve.csv")
        return {"kind": "evolve", "artifact": "evolve.csv",
                "tolerance": EVOLVE_TOL, "t": cols["t"],
                "sigma_z": cols["sigma_z"], "sigma_x": cols["sigma_x"]}
    if w.subcommand == "rwa":
        return _rwa_ref(w, workloads.read_csv(out / "rwa.csv"), pop_abs)
    cols = workloads.read_csv(out / "summary.csv")
    columns = ["stationary_pop_rwa", "freq_rwa", "decay_rwa"]
    ref = {"kind": "sweep", "artifact": "summary.csv", "tolerance": SWEEP_TOL,
           "delta": cols["delta"], "columns": columns}
    for c in columns:
        ref[c] = [None if v != v else v for v in cols[c]]
    return ref


def _rwa_ref(w, laplace_cols, pop_abs):
    """Exact-chain populations at the Laplace sample times."""
    import numpy as np
    from gapchain.chainmap import chain_length_for, map_to_chain
    from gapchain.model import ModelParams
    from gapchain.rwa import chain_state_amplitudes

    p = ModelParams(**w.config["model"])
    t_max = w.config["evolution"]["t_max"]
    times = np.asarray(laplace_cols["t"])
    n = chain_length_for(p, t_max)
    amps = chain_state_amplitudes(map_to_chain(p, n), p.delta, times)
    if np.max(np.abs(amps[:, -1]) ** 2) >= 1e-6:
        raise RuntimeError("reference chain too short for the light cone")
    pop = np.abs(amps[:, 0]) ** 2
    dev = float(np.max(np.abs(pop - np.asarray(laplace_cols["pop"]))))
    if dev > pop_abs:
        raise RuntimeError(f"Laplace populations miss the chain by {dev:.2e}")
    return {"kind": "rwa", "artifact": "rwa.csv",
            "tolerance": {
                "t_abs": 1e-12, "pop_abs": pop_abs,
                "why": f"population within {pop_abs:g} of the exact chain "
                       f"(N={n} sites, light-cone tail below 1e-6); the "
                       f"Laplace solver at the reference commit misses it by "
                       f"at most {dev:.2e}. A flagged point fails."},
            "t": times.tolist(), "pop": pop.tolist()}


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(names):
    WORK.mkdir(exist_ok=True)
    workloads.REFS.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            ref = make_ref(w, Path(tmp))
        (workloads.REFS / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {workloads.op_count(ref)} operations per repetition")
    why = {w["name"]: w["why"] for w in
           json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    prov = {"reference_commit": _commit(), "machine": machine(),
            "workloads": {n: {"why": why[n], "moved_by": list(w.moved_by),
                              "subcommand": w.subcommand, "config": w.config,
                              "args": list(w.args), "deltas": list(w.deltas)}
                          for n, w in workloads.WORKLOADS.items()}}
    (workloads.HERE / "provenance.json").write_text(json.dumps(prov, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
