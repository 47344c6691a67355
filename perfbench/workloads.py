"""Workload definitions, seeded input generation and output checks.

Each workload is one ``gapchain`` subcommand at a fixed parameter corner.
The seed picks only things that must not change the outputs: how the
configuration reaches the CLI (flags, an INI file or a JSON file) and, for
the sweep, the order of the detuning list.  The stored references
therefore hold for every seed, and the checks also catch a CLI whose
outputs depend on either choice.

A check returns (attempted, failed) operations for one repetition.  An
operation fails when the output is missing, differs from its reference by
more than the tolerance stored beside the reference, or (for Laplace
points) is flagged.  A NaN matches only a NaN in the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

WIDEBAND = {"alpha": 1.0, "omega_b": 5.0, "omega0": 100.0, "omega_c": 800.0}
REDUCED = {"alpha": 1.0, "omega_b": 2.0, "omega0": 20.0, "omega_c": 100.0}


@dataclass(frozen=True)
class Workload:
    """A CLI run: subcommand, config sections, extra flags, sweep grid."""

    name: str
    subcommand: str
    config: dict
    args: tuple = ()
    deltas: tuple = ()
    moved_by: tuple = ()  # per-layer metrics that should move its wall_s


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "tebd-full", "evolve",
            {"model": {**REDUCED, "delta": 3.0},
             "evolution": {"t_max": 0.15, "d_b": 4, "chi_max": 32,
                           "mode": "FULL"}},
            moved_by=("mps.svd_s", "mps.tebd_step_s", "mps.build_gates_s",
                      "mps.sample_s")),
        Workload(
            "rwa-laplace", "rwa",
            {"model": {**WIDEBAND, "delta": 3.0},
             "evolution": {"t_max": 2.0}},
            args=("--solver", "laplace", "--samples", "100"),
            moved_by=("invlaplace.talbot_s", "invlaplace.piessens_s",
                      "rwa.laplace_invert_s", "rwa.flagged_points")),
        Workload(
            "sweep-rwa", "sweep",
            {"model": dict(WIDEBAND), "evolution": {"t_max": 1.5}},
            args=("--methods", "rwa", "--jobs", "1"),
            deltas=(1.0, 3.0, 8.0, 20.0, 30.0),
            moved_by=("chainmap.discretize_weight_s", "chainmap.stieltjes_s",
                      "rwa.chain_evolve_s", "analysis.estimators_s")),
    )
}

DELIVERIES = ("flags", "ini", "json")


def draw_inputs(w: Workload, rng):
    """(config delivery, detuning order) for one repetition."""
    return rng.choice(DELIVERIES), tuple(rng.sample(w.deltas, len(w.deltas)))


def build_argv(w: Workload, workdir: Path, delivery="flags", deltas=None):
    """CLI argv for one repetition; config files go into workdir."""
    argv = [w.subcommand, *w.args]
    if w.deltas:
        argv += ["--deltas", ",".join(repr(d) for d in deltas or w.deltas)]
    if delivery == "flags":
        for block in w.config.values():
            for key, value in block.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
    elif delivery == "json":
        path = workdir / "config.json"
        path.write_text(json.dumps(w.config))
        argv += ["--config", str(path)]
    else:
        path = workdir / "config.ini"
        path.write_text("".join(
            f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in block.items())
            for sec, block in w.config.items()))
        argv += ["--config", str(path)]
    return argv + ["--out-dir", str(workdir / "out")]


# ---------------------------------------------------------------------------
# reading outputs

def read_csv(path: Path):
    """{column: [float]} from a gapchain CSV ('#' metadata lines skipped)."""
    header, cols = None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        cells = line.split(",")
        if header is None:
            header, cols = cells, [[] for _ in cells]
            continue
        for col, cell in zip(cols, cells):
            col.append(float(cell))
    return dict(zip(header or (), cols or ()))


def _close(value, ref, atol, rtol=0.0):
    if ref is None:  # NaN in the reference
        return math.isnan(value)
    return abs(value - ref) <= atol + rtol * abs(ref)


def _number(x):
    """abs(x) for a finite manifest number; inf for null or missing."""
    return abs(x) if isinstance(x, (int, float)) else math.inf


def load_ref(name):
    return json.loads((REFS / f"{name}.json").read_text())


def op_count(ref):
    """Operations one repetition attempts against this reference."""
    kind = ref["kind"]
    if kind == "evolve":
        return len(ref["t"]) + 3
    if kind == "rwa":
        return len(ref["t"])
    return len(ref["delta"]) * len(ref["columns"])


def check(ref, outdir: Path):
    """(attempted, failed) for one repetition's output directory."""
    attempted = op_count(ref)
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        if any(not (outdir / name).is_file() for name in manifest["outputs"]):
            return attempted, attempted
        return attempted, attempted - _matches(
            ref, read_csv(outdir / ref["artifact"]), manifest)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return attempted, attempted  # missing or malformed output


def _matches(ref, cols, manifest):
    """Number of operations whose output matches the reference."""
    tol = ref["tolerance"]
    ok = 0
    if ref["kind"] == "evolve":
        n = len(cols["t"])
        for i, t in enumerate(ref["t"]):
            ok += (i < n and _close(cols["t"][i], t, tol["t_abs"])
                   and _close(cols["sigma_z"][i], ref["sigma_z"][i], tol["sigma_abs"])
                   and _close(cols["sigma_x"][i], ref["sigma_x"][i], tol["sigma_abs"]))
        conv = manifest["convergence"]
        ok += conv.get("flagged_samples") == 0
        ok += _number(conv.get("charge_drift")) <= tol["charge_drift_max"]
        ok += (_number(conv.get("total_discarded_weight"))
               <= tol["discarded_weight_max"])
    elif ref["kind"] == "rwa":
        n = len(cols["t"])
        for i, t in enumerate(ref["t"]):
            ok += (i < n and cols["flag"][i] == 0.0
                   and _close(cols["t"][i], t, tol["t_abs"])
                   and _close(cols["pop"][i], ref["pop"][i], tol["pop_abs"]))
    else:
        grid = cols["delta"]
        for i, d in enumerate(ref["delta"]):
            if i < len(grid) and grid[i] == d:
                ok += sum(_close(cols[c][i], ref[c][i], tol["abs"], tol["rel"])
                          for c in ref["columns"])
    return ok
