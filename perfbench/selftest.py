"""Self-test of the benchmark harness on tiny parameter corners.

Usage (from the repository root, takes well under a minute):

    python3 perfbench/selftest.py

For a tiny version of each workload it makes a reference on the spot and
then checks that
  * both modes emit exactly the metrics BENCHMARK.json names,
  * the outputs match the fresh reference (no failed operation),
  * a deliberately perturbed reference makes operations fail,
  * cli.self_s is a small remainder of the traced wall time, so the spans
    cover the run.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import workloads
from make_refs import make_ref
from run import ROOT, WORK, layer_metrics, measure, summarize

SELF_SHARE_MAX = 0.1  # cli.self_s / traced wall_s on the tiny corners
# The tiny Laplace corner uses a short chain as its reference; the two
# solvers agree there to 4e-4 at the reference commit.
TINY_POP_ABS = 1e-3

_W = workloads.WORKLOADS
TINY = {
    "tebd-full": dataclasses.replace(_W["tebd-full"], config={
        "model": {**workloads.REDUCED, "delta": 3.0},
        "evolution": {"t_max": 0.01, "d_b": 4, "chi_max": 8, "mode": "FULL"}}),
    "rwa-laplace": dataclasses.replace(_W["rwa-laplace"], config={
        "model": {**workloads.REDUCED, "delta": 3.0},
        "evolution": {"t_max": 1.0}},
        args=("--solver", "laplace", "--samples", "10")),
    "sweep-rwa": dataclasses.replace(_W["sweep-rwa"], config={
        "model": dict(workloads.WIDEBAND), "evolution": {"t_max": 0.3}},
        deltas=(3.0, 20.0)),
}


def perturb(ref):
    """Copy of ref with its first checked value moved far outside tolerance."""
    bad = copy.deepcopy(ref)
    key = {"evolve": "sigma_z", "rwa": "pop"}.get(ref["kind"])
    if key is None:
        key = next(c for c in ref["columns"] if ref[c][0] is not None)
    bad[key][0] = 1.0 + 10.0 * abs(bad[key][0] or 1.0)
    return bad


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {t: {m["name"]: m["unit"] for m in bench[g]}
             for t, g in ((0, "end_to_end"), (1, "per_layer"))}
    WORK.mkdir(exist_ok=True)
    for name, w in TINY.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            ref = make_ref(w, Path(tmp), pop_abs=TINY_POP_ABS)
        reps = measure(w, ref, seed=1, seconds=0.0, trace=True)
        for trace in (0, 1):
            res = summarize(reps, bool(trace), units[trace])
            expect(set(res["metrics"]) == set(units[trace]),
                   f"{name} trace={trace}: every named metric emitted")
        expect(res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: {res['attempted']} operations, none failed")
        share = max(layer_metrics(r["trace"], r["wall_s"], 0)["cli.self_s"]
                    / r["wall_s"] for r in reps if r["traced"])
        expect(share < SELF_SHARE_MAX,
               f"{name}: cli.self_s is {share:.1%} of traced wall time")
        res = summarize(measure(w, perturb(ref), seed=1, seconds=0.0, trace=False),
                        False, units[0])
        expect(res["failed"] > 0 and not res["correct"],
               f"{name}: perturbed reference fails {res['failed']}/{res['attempted']}")


if __name__ == "__main__":
    main()
