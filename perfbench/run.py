"""Benchmark of the gapchain CLI: end-to-end metrics or a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload tebd-full --seed 1 --seconds 30 --trace 0

Each repetition runs one subcommand through ``gapchain.cli.main`` in a
fresh interpreter (perfbench/child.py) with a fresh output directory, so
lru caches and earlier artifacts never carry over, and checks every
output against the stored reference.  Repetitions continue while the
next one is expected to finish inside ``--seconds`` (at least two run).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as
medians over the repetitions.  ``--trace 1`` alternates untraced and
traced repetitions, reports the per-layer metrics as medians over the
traced ones, and the tracing overhead from the two medians of wall time.
The last line of standard output is the JSON result; progress and the
machine description go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
RUN_LIMIT_S = 170.0  # every run must exit within 180 s

# span name -> per-layer time metric; a name's total never double counts
SPAN_METRICS = {
    "chainmap.map_to_chain": "chainmap.map_to_chain_s",
    "chainmap.discretize_weight": "chainmap.discretize_weight_s",
    "chainmap.stieltjes": "chainmap.stieltjes_s",
    "rwa.chain_evolve": "rwa.chain_evolve_s",
    "rwa.laplace_invert": "rwa.laplace_invert_s",
    "rwa.find_bound_pole": "rwa.find_bound_pole_s",
    "invlaplace.piessens": "invlaplace.piessens_s",
    "invlaplace.piessens_transform": "invlaplace.piessens_transform_s",
    "invlaplace.talbot": "invlaplace.talbot_s",
    "invlaplace.talbot_transform": "invlaplace.talbot_transform_s",
    "mps.evolve": "mps.evolve_s",
    "mps.build_gates": "mps.build_gates_s",
    "mps.tebd_step": "mps.tebd_step_s",
    "mps.svd": "mps.svd_s",
    "mps.sample": "mps.sample_s",
    "analysis.estimators": "analysis.estimators_s",
    "svgplot.render": "svgplot.render_s",
}
COUNT_METRICS = ("chainmap.nodes", "rwa.flagged_points",
                 "invlaplace.piessens_transform_evals",
                 "invlaplace.talbot_transform_nodes", "mps.svd_work",
                 "mps.final_max_bond", "analysis.estimator_refusals")


def layer_metrics(trace, wall_s, bytes_written):
    """Per-layer metrics of one traced repetition."""
    spans, counts = trace["spans"], trace["counts"]
    out = {m: 0.0 for m in SPAN_METRICS.values()}
    step_ms = []
    top = 0.0
    for name, start, end, parent in spans:
        dur = end - start
        if name in SPAN_METRICS:
            out[SPAN_METRICS[name]] += dur
        if name == "mps.tebd_step":
            step_ms.append(1e3 * dur)
        if parent < 0:
            top += dur
    out.update({m: float(counts.get(m, 0)) for m in COUNT_METRICS})
    out["mps.tebd_steps"] = float(len(step_ms))
    p50, p95 = np.percentile(step_ms, [50, 95]) if step_ms else (0.0, 0.0)
    out["mps.tebd_step_ms_p50"], out["mps.tebd_step_ms_p95"] = float(p50), float(p95)
    out["mps.svd_calls"] = float(sum(1 for s in spans if s[0] == "mps.svd"))
    bonds = counts.get("mps.bonds_seen", 0)
    out["mps.vacuum_pair_frac"] = (counts.get("mps.vacuum_pairs", 0) / bonds
                                   if bonds else 0.0)
    out["cli.bytes_written"] = float(bytes_written)
    out["cli.self_s"] = wall_s - top
    return out


def run_rep(w, ref, rng, traced, deadline):
    """One repetition in a fresh process; returns its measurement dict."""
    n_ops = workloads.op_count(ref)
    tmp = Path(tempfile.mkdtemp(prefix=w.name + "-", dir=WORK))
    try:
        argv = workloads.build_argv(w, tmp, *workloads.draw_inputs(w, rng))
        result = tmp / "result.json"
        spec = {"src": str(SRC), "argv": argv, "trace": traced,
                "result": str(result)}
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("child.py")),
                 json.dumps(spec)],
                cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"timeout": True, "attempted": n_ops, "failed": n_ops}
        if proc.returncode == 3:
            raise SystemExit(f"gapchain.cli failed to import:\n{proc.stderr}")
        if proc.returncode != 0 or not result.is_file():
            print(proc.stderr, file=sys.stderr)
            return {"attempted": n_ops, "failed": n_ops}
        rep = json.loads(result.read_text())
        if rep["error"]:
            print(rep["error"], file=sys.stderr)
        outdir = tmp / "out"
        rep["attempted"], rep["failed"] = (
            workloads.check(ref, outdir) if rep["code"] == 0 else (n_ops, n_ops))
        rep["bytes_written"] = sum(p.stat().st_size for p in outdir.rglob("*")
                                   if p.is_file()) if outdir.is_dir() else 0
        rep["traced"] = traced
        return rep
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(w, ref, seed, seconds, trace):
    """Repeat the workload for about ``seconds``; returns the repetitions."""
    rng = random.Random(f"{w.name}:{seed}")
    WORK.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    traced = trace and rng.random() < 0.5
    reps = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rep = run_rep(w, ref, rng, traced, deadline)
        reps.append(rep)
        longest = max(longest, time.monotonic() - t0)
        print(f"{w.name}: rep {len(reps)} traced={traced} "
              f"wall={rep.get('wall_s', float('nan')):.3f}s "
              f"failed={rep['failed']}/{rep['attempted']}", file=sys.stderr)
        if rep.get("timeout"):
            break
        traced = trace and not traced
        now = time.monotonic()
        if len(reps) >= 2 and now + longest > start + seconds:
            break
        if now + longest > deadline:
            break
    return reps


def summarize(reps, trace, metric_units):
    """Result object with the metrics BENCHMARK.json names for this mode."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (trace and not traced):
        raise SystemExit("no repetition produced a measurement")
    if trace:
        per_rep = [layer_metrics(r["trace"], r["wall_s"], r["bytes_written"])
                   for r in traced]
        wall_plain = statistics.median(r["wall_s"] for r in plain)
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        values = {m: statistics.median(p[m] for p in per_rep) for m in per_rep[0]}
        values["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
        missing = sorted({m for r in traced for m in r["trace"]["missing"]})
        if missing:
            print("not traced (lookup site gone): " + ", ".join(missing),
                  file=sys.stderr)
    else:
        values = {m: statistics.median(r[m] for r in plain)
                  for m in ("wall_s", "setup_s", "peak_rss_mb")}
    absent = set(metric_units) - set(values)
    if absent:
        raise SystemExit(f"metrics not computed: {sorted(absent)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in metric_units.items()}}


def machine():
    """nproc, BLAS vendor and threads, library versions (no pinning)."""
    import mpmath
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without machine-readable config
        vendor = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "blas": vendor,
            "blas_threads": _openblas_threads(),
            "blas_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if k in os.environ}}


def _openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gapchain" / "cli.py").is_file():
        print(f"no gapchain source tree at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    w = workloads.WORKLOADS[args.workload]
    ref = workloads.load_ref(w.name)

    print("machine: " + json.dumps(machine()), file=sys.stderr)
    reps = measure(w, ref, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summarize(reps, bool(args.trace), units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
