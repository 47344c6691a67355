"""Outside-in span and counter recorder for one traced repetition.

The recorder wraps public functions of the ``gapchain`` package at the
names they are looked up by, from outside the package: nothing under
``src/`` changes.  ``from .chainmap import map_to_chain`` copies the
binding into the importing module, so the wrapper has to replace
``gapchain.cli.map_to_chain`` and ``gapchain.analysis.map_to_chain``;
replacing ``gapchain.chainmap.map_to_chain`` alone would record nothing.

Spans (name, start, end, parent) and counters stay in memory and are
exported once, when the run ends.  A call into a span name that is
already open (``measure`` inside ``conserved_charge``,
``oscillation_frequency`` inside ``stationary_value``) is not recorded
again, so each name's total never counts the same interval twice.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _vacuum_pairs(state):
    """(bonds j >= 1 whose two sites are exact vacuum with chi = 1, bonds j >= 1).

    On such a bond the gate is exactly the identity, because the bond
    Hamiltonian annihilates |00>.
    """
    vac = [B.shape[0] == 1 and B.shape[2] == 1 and not B[0, 1:, 0].any()
           for B in state.site_tensors]
    pairs = sum(1 for j in range(1, len(vac) - 1) if vac[j] and vac[j + 1])
    return pairs, max(len(vac) - 2, 0)


class Tracer:
    """Spans and counters of one process; install() patches the package."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.missing = []  # lookup sites that no longer exist
        self._stack = []
        self._open = set()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, pre=None, post=None, refusals=None):
        """fn recorded as span ``name``.

        pre(args, kwargs) may return replacement arguments; post(result)
        sees the return value; a ValueError raised by fn adds one to the
        ``refusals`` counter.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self._open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if refusals:
                    self.count(refusals)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open.discard(name)
                self.spans[idx][1:3] = start, end
            if post is not None:
                post(result)
            return result

        return traced

    def patch(self, module, attr, name, **hooks):
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        setattr(mod, attr, self.wrap(fn, name, **hooks))

    # -- hooks ------------------------------------------------------------

    def _count_nodes(self, args, kwargs):
        m = kwargs["M"] if "M" in kwargs else args[1]
        self.count("chainmap.nodes", int(m))
        return args, kwargs

    def _transform_hook(self, stage, unit):
        """Wrap the transform argument so G_hat evaluations get a span."""

        def pre(args, kwargs):
            def counted(s):
                self.count(f"invlaplace.{stage}_transform_{unit}", int(np.size(s)))
                return inner(s)

            if "transform" in kwargs:
                inner = kwargs["transform"]
                kwargs = dict(kwargs, transform=self.wrap(
                    counted, f"invlaplace.{stage}_transform"))
            else:
                inner = args[0]
                args = (self.wrap(counted, f"invlaplace.{stage}_transform"),
                        *args[1:])
            return args, kwargs

        return pre

    def _count_flags(self, series):
        if getattr(series, "flags", None) is not None:
            self.count("rwa.flagged_points", int(np.sum(series.flags)))

    def _step_pre(self, args, kwargs):
        pairs, bonds = _vacuum_pairs(args[0])
        self.count("mps.vacuum_pairs", pairs)
        self.count("mps.bonds_seen", bonds)
        return args, kwargs

    def _svd_pre(self, args, kwargs):
        a = args[0]
        if np.ndim(a) == 2:
            m, n = np.shape(a)
            self.count("mps.svd_work", m * n * min(m, n))
        return args, kwargs

    def _final_bond(self, ts):
        self.counts["mps.final_max_bond"] = int(ts.max_bond[-1])

    def install(self):
        """Patch every lookup site the workloads reach."""
        est = dict(refusals="analysis.estimator_refusals")
        for module, attr, name, hooks in (
            ("gapchain.cli", "map_to_chain", "chainmap.map_to_chain", {}),
            ("gapchain.analysis", "map_to_chain", "chainmap.map_to_chain", {}),
            ("gapchain.chainmap", "discretize_weight",
             "chainmap.discretize_weight", dict(pre=self._count_nodes)),
            ("gapchain.chainmap", "stieltjes_recurrence", "chainmap.stieltjes", {}),
            ("gapchain.cli", "chain_evolve", "rwa.chain_evolve", {}),
            ("gapchain.analysis", "chain_evolve", "rwa.chain_evolve", {}),
            ("gapchain.cli", "laplace_invert", "rwa.laplace_invert",
             dict(post=self._count_flags)),
            ("gapchain.rwa", "find_bound_pole", "rwa.find_bound_pole", {}),
            ("gapchain.rwa", "piessens_invert", "invlaplace.piessens",
             dict(pre=self._transform_hook("piessens", "evals"))),
            ("gapchain.rwa", "talbot_invert", "invlaplace.talbot",
             dict(pre=self._transform_hook("talbot", "nodes"))),
            ("gapchain.cli", "evolve", "mps.evolve", dict(post=self._final_bond)),
            ("gapchain.analysis", "mps_evolve", "mps.evolve",
             dict(post=self._final_bond)),
            ("gapchain.mps", "build_gates", "mps.build_gates", {}),
            ("gapchain.mps", "tebd_step", "mps.tebd_step", dict(pre=self._step_pre)),
            ("gapchain.mps", "measure", "mps.sample", {}),
            ("gapchain.mps", "conserved_charge", "mps.sample", {}),
            ("gapchain.analysis", "stationary_value", "analysis.estimators", est),
            ("gapchain.analysis", "oscillation_frequency", "analysis.estimators", est),
            ("gapchain.analysis", "decay_rate", "analysis.estimators", est),
            ("gapchain.cli", "render_line_plot", "svgplot.render", {}),
            ("numpy.linalg", "svd", "mps.svd", dict(pre=self._svd_pre)),
        ):
            self.patch(module, attr, name, **hooks)

    def export(self, origin):
        """Plain-data copy with times relative to ``origin``."""
        return {"spans": [[n, s - origin, e - origin, p]
                          for n, s, e, p in self.spans],
                "counts": self.counts, "missing": self.missing}
