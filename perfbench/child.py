"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory holding the gapchain package),
``argv`` (the CLI arguments), ``trace`` (bool) and ``result`` (where to
write the measurement).  The process starts with cold lru caches, so
``wall_s`` includes what every CLI user pays.  ``setup_s`` is the time
to import ``gapchain.cli``; ``peak_rss_mb`` is this process's own peak
resident memory.  An import failure exits with code 3 and writes no
result.
"""

import json
import resource
import sys
import time
import traceback


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import gapchain.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        code = gapchain.cli.main(spec["argv"])
    except Exception:  # reported to the harness, which counts the failure
        code, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start

    out = {"code": code, "error": error, "setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["trace"] = tracer.export(start)
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    try:
        main()
    except ImportError:
        traceback.print_exc()
        sys.exit(3)
