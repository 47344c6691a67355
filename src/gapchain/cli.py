"""Command-line interface wiring every module into one executable.

Subcommands map onto the library one to one: chain-coeffs (orthogonal
polynomial chain), rwa (single-excitation solvers), evolve (TEBD),
polaron (variational renormalization), sweep (detuning scans), analyze
(estimators over a stored series) and plot (deterministic SVG
overlays).  Every run writes a ``manifest.json`` echoing the full
configuration, library versions, wall time and convergence outcomes.
Re-running the same subcommand with the manifest as its config file
regenerates every artifact byte for byte; the manifest's own
``wall_time_s`` and ``timestamp`` fields are the only volatile data a
run produces.

Configuration comes from an INI file (sections [model], [chain],
[evolution], [analysis], [output]), from a JSON file with the same
section names, or from flags; flags override file values.  The flags
are the config keys: key ``section.some_key`` is the flag
``--some-key``, except ``output.directory``, which is ``--out-dir``.  A
flag value is parsed exactly like the same value in an INI file.  A
manifest is itself a valid JSON config (its ``config`` block is
unwrapped).

Exit codes: 0 success, 1 numerical failure (diagnostics.json written
to the output directory), 2 configuration error (every violation is
listed, addressed as section.key).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, analysis
from .chainmap import chain_length_for, map_to_chain
from .model import ModelParams
from .mps import EvolutionConfig, evolve
from .polaron import silbey_harris_solve
from .rwa import chain_evolve, laplace_invert, volterra_solve
from .svgplot import MARKERS, Series, render_line_plot


class ConfigError(Exception):
    """Carries the full list of validation failures, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# configuration schema


def _as_float(value, key, errors):
    """a finite number"""
    try:
        if not isinstance(value, bool) and math.isfinite(float(value)):
            return float(value)
    except (TypeError, ValueError):
        pass
    errors.append(f"{key}: expected a finite number, got {value!r}")
    return None


def _as_int(value, key, errors):
    """an integer"""
    f = _as_float(value, key, [])
    if f is None or f != int(f):
        errors.append(f"{key}: expected an integer, got {value!r}")
        return None
    return int(f)


def _as_str(value, key, errors):
    """a path"""
    return str(value)


def _as_mode(value, key, errors):
    """RWA or FULL (any case)"""
    mode = str(value).upper()
    if mode not in ("RWA", "FULL"):
        errors.append(f"{key}: must be RWA or FULL")
        return None
    return mode


def _as_formats(value, key, errors):
    """comma list from csv,json,svg"""
    if isinstance(value, str):
        items = [s.strip() for s in value.split(",") if s.strip()]
    elif isinstance(value, (list, tuple)):
        items = [str(s) for s in value]
    else:
        errors.append(f"{key}: expected a comma list, got {value!r}")
        return None
    bad = [s for s in items if s not in ("csv", "json", "svg")]
    if bad:
        errors.append(f"{key}: unknown format(s) {', '.join(bad)} "
                      "(choose from csv, json, svg)")
        return None
    return tuple(items)


def _as_exclude(value, key, errors):
    """time windows to drop, lo:hi,lo:hi (in JSON, [lo, hi] pairs)"""
    pairs = []
    if isinstance(value, str):
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            bits = part.split(":")
            if len(bits) != 2:
                errors.append(f"{key}: window {part!r} is not lo:hi")
                return None
            pairs.append(bits)
    elif isinstance(value, (list, tuple)):
        pairs = list(value)
    else:
        errors.append(f"{key}: expected windows, got {value!r}")
        return None
    out = []
    for pair in pairs:
        try:
            lo, hi = (float(pair[0]), float(pair[1]))
        except (TypeError, ValueError, IndexError):
            errors.append(f"{key}: window {pair!r} is not a number pair")
            return None
        if not lo < hi:
            errors.append(f"{key}: window {lo:g}:{hi:g} needs lo < hi")
            return None
        out.append((lo, hi))
    return tuple(out)


# The one list of config keys: each becomes a flag --<key-with-dashes>
# (renamed only through _FLAG_NAMES), an INI/JSON key of its section and
# a field of that section's dataclass.  A validator's docstring is the
# flag's help text.
_SCHEMA = {
    "model": {"alpha": _as_float, "omega_b": _as_float, "omega0": _as_float,
              "omega_c": _as_float, "delta": _as_float},
    "chain": {"n_sites": _as_int, "n_quad": _as_int},
    "evolution": {"t_max": _as_float, "dt": _as_float, "d_b": _as_int,
                  "chi_max": _as_int, "svd_threshold": _as_float,
                  "sample_stride": _as_int, "mode": _as_mode},
    "analysis": {"fit_window_low": _as_float, "fit_window_high": _as_float,
                 "exclude": _as_exclude},
    "output": {"directory": _as_str, "formats": _as_formats},
}

_FLAG_NAMES = {("output", "directory"): "--out-dir"}

_NEEDS_MODEL = {"chain-coeffs", "rwa", "evolve", "polaron", "sweep"}
_NEEDS_TMAX = {"rwa", "evolve"}


@dataclass(frozen=True)
class ChainOptions:
    n_sites: int | None = None
    n_quad: int | None = None


@dataclass(frozen=True)
class AnalysisOptions:
    """Pre-processing applied before the estimators run.

    The series is trimmed to [fit_window_low, fit_window_high] fractions
    of its time span; exclude drops absolute-time windows (transients,
    switch-on artifacts) from whatever remains.
    """

    fit_window_low: float = 0.0
    fit_window_high: float = 1.0
    exclude: tuple = ()


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "gapchain-out"
    formats: tuple = ("csv", "json", "svg")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI run."""

    model: ModelParams | None
    chain: ChainOptions
    evolution: EvolutionConfig | None
    analysis: AnalysisOptions
    output: OutputOptions

    def to_dict(self):
        """JSON-ready echo; parse_config(data=...) inverts it exactly.

        A key holding an empty default (None or ()) is left out, since
        parsing restores it; an empty section is left out too.
        """
        d = {}
        for sec, keys in _SCHEMA.items():
            obj = getattr(self, sec)
            if obj is None:
                continue
            empty = {f.name for f in dataclasses.fields(obj)
                     if f.default in (None, ())}
            block = {k: getattr(obj, k) for k in keys
                     if k not in empty or getattr(obj, k) not in (None, ())}
            if block:
                d[sec] = block
        return d


def _load_file(path: Path, errors):
    """Read INI or JSON config into {section: {key: raw value}}."""
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        errors.append(f"config: cannot read {path}: {err}")
        return {}
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            errors.append(f"config: {path} is not valid JSON: {err}")
            return {}
        if not isinstance(raw, dict):
            errors.append(f"config: {path} must hold a JSON object")
            return {}
        if isinstance(raw.get("config"), dict) and "model" in raw["config"]:
            raw = raw["config"]  # a manifest doubles as a config file
        return {sec: dict(block) for sec, block in raw.items()
                if isinstance(block, dict) and sec in _SCHEMA}
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as err:
        errors.append(f"config: {path} is not valid INI: {err}")
        return {}
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def parse_config(path=None, data=None, overrides=None,
                 subcommand=None) -> RunConfig:
    """Merge file, dict and flag inputs into a validated RunConfig.

    All violations are collected and raised together in one
    ConfigError, each line addressed as section.key.
    """
    errors = []
    if path is not None:
        data = _load_file(Path(path), errors)
    merged = {}
    for sec, block in (data or {}).items():
        if sec not in _SCHEMA:
            errors.append(f"{sec}: unknown section")
            continue
        for key, value in block.items():
            if key not in _SCHEMA[sec]:
                errors.append(f"{sec}.{key}: unknown key")
            elif value is not None:
                merged.setdefault(sec, {})[key] = value
    for (sec, key), value in (overrides or {}).items():
        merged.setdefault(sec, {})[key] = value

    typed = {sec: {} for sec in _SCHEMA}
    for sec, block in merged.items():
        for key, value in block.items():
            tv = _SCHEMA[sec][key](value, f"{sec}.{key}", errors)
            if tv is not None:
                typed[sec][key] = tv

    model = _build(ModelParams, "model", typed, errors,
                   required=subcommand in _NEEDS_MODEL)
    if subcommand == "polaron" and model is not None and model.delta <= 0.0:
        errors.append("model.delta: must be positive "
                      "(the theory renormalizes a finite splitting)")

    chain = ChainOptions(**typed["chain"])
    for key in _SCHEMA["chain"]:
        if getattr(chain, key) is not None and getattr(chain, key) < 2:
            errors.append(f"chain.{key}: must be at least 2")
    if subcommand == "chain-coeffs" and chain.n_sites is None:
        errors.append("chain.n_sites: required for chain-coeffs")

    evolution = _build(EvolutionConfig, "evolution", typed, errors,
                       required=bool(typed["evolution"])
                       or subcommand in _NEEDS_TMAX)

    analysis_opts = AnalysisOptions(**typed["analysis"])
    if not (0.0 <= analysis_opts.fit_window_low
            < analysis_opts.fit_window_high <= 1.0):
        errors.append("analysis.fit_window_low/high: "
                      "need 0 <= low < high <= 1")

    if errors:
        raise ConfigError(sorted(errors))
    return RunConfig(model, chain, evolution, analysis_opts,
                     OutputOptions(**typed["output"]))


def _build(cls, sec, typed, errors, required):
    """cls(**typed[sec]), or None when a field without default is unset.

    Unset fields are config errors only when the section is required.
    """
    missing = [f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING
               and f.name not in typed[sec]]
    if required:
        errors.extend(f"{sec}.{k}: required" for k in missing)
    if missing:
        return None
    try:
        return cls(**typed[sec])
    except ValueError as err:
        errors.append(f"{sec}: {err}")
        return None


# ---------------------------------------------------------------------------
# artifact plumbing


def _jsonsafe(obj):
    """Plain-Python, finite-only mirror of obj (NaN/inf become null)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonsafe(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonsafe(obj.real), _jsonsafe(obj.imag)]
    return obj


def _emit(outdir: Path, name: str, text: str):
    """Atomic write (temp then rename), confined to the output directory.

    Returns name, for the run's list of outputs.
    """
    if Path(name).name != name:
        raise ConfigError([f"output: artifact name {name!r} must not "
                           "contain path separators"])
    tmp = outdir / (name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, outdir / name)
    return name


def _emit_json(outdir, name, obj):
    return _emit(outdir, name, json.dumps(_jsonsafe(obj), indent=2,
                                          sort_keys=True) + "\n")


def _csv_text(meta, cols):
    """CSV body: '# ' metadata lines, column-name row, repr-exact cells.

    cols is a list of (name, values, kind) with kind 'f' or 'i'; float
    cells use repr() so reading them back reproduces the same binary64.
    """
    lines = [f"# {m}" for m in meta]
    lines.append(",".join(name for name, _, _ in cols))
    n = len(cols[0][1])
    for _, values, _ in cols:
        if len(values) != n:
            raise ValueError("ragged CSV columns")
    for i in range(n):
        cells = []
        for _, values, kind in cols:
            v = values[i]
            cells.append(str(int(v)) if kind == "i" else repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _read_csv(path: Path):
    """Inverse of _csv_text: (metadata lines, {column: float array})."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError([f"input: cannot read {path}: {err}"])
    meta, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            meta.append(line[1:].strip())
            continue
        if not line.strip():
            continue
        if header is None:
            header = [h.strip() for h in line.split(",")]
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError([f"input: {path} row has {len(cells)} cells, "
                               f"header has {len(header)}"])
        rows.append([float(c) for c in cells])
    if header is None or not rows:
        raise ConfigError([f"input: {path} is empty (no data rows)"])
    table = np.asarray(rows, dtype=float)
    return meta, {name: table[:, j] for j, name in enumerate(header)}


def _model_meta(p: ModelParams):
    return ("model: " + " ".join(f"{k}={float(getattr(p, k))!r}"
                                 for k in _SCHEMA["model"]))


def _apply_windows(times, values, opts: AnalysisOptions):
    """Trim to the fit window fractions, then drop excluded intervals."""
    lo, hi = opts.fit_window_low, opts.fit_window_high
    t0, t1 = times[0], times[-1]
    keep = (times >= t0 + lo * (t1 - t0)) & (times <= t0 + hi * (t1 - t0))
    for wlo, whi in opts.exclude:
        keep &= ~((times >= wlo) & (times <= whi))
    if keep.sum() < 2:
        raise ConfigError(["analysis: fit window and exclusions leave "
                           "fewer than 2 samples"])
    return times[keep], values[keep]


# ---------------------------------------------------------------------------
# subcommands; each returns (outputs, convergence, invocation, exit_code)


def _cmd_chain_coeffs(cfg, args, outdir):
    p, fmts = cfg.model, cfg.output.formats
    n = cfg.chain.n_sites
    c = map_to_chain(p, n, M=cfg.chain.n_quad)
    outputs = []
    meta = [_model_meta(p), f"g: {float(c.g)!r}",
            f"weight_norm: {float(c.weight_norm)!r}",
            "hop: coupling to the next site; nan on the last row"]
    hop = np.append(c.t, math.nan)
    if "csv" in fmts:
        outputs.append(_emit(outdir, "chain_coeffs.csv", _csv_text(meta, [
            ("n", np.arange(n), "i"), ("eps", c.eps, "f"),
            ("hop", hop, "f")])))
    if "json" in fmts:
        outputs.append(_emit_json(outdir, "chain_coeffs.json",
                                  {"g": c.g, "weight_norm": c.weight_norm,
                                   "eps": c.eps, "hop": c.t}))
    if "svg" in fmts:
        idx = np.arange(n, dtype=float)
        svg = render_line_plot(
            [Series(idx, c.eps, label="eps_n", marker="filled"),
             Series(idx[:-1], c.t, label="t_n", marker="open")],
            xlabel="site n", ylabel="frequency",
            title="chain coefficients", marker_stride=max(1, n // 40))
        outputs.append(_emit(outdir, "chain_coeffs.svg", svg))
    conv = {"n_sites": n, "n_quad": cfg.chain.n_quad}
    return outputs, conv, {}, 0


def _cmd_rwa(cfg, args, outdir):
    p, fmts = cfg.model, cfg.output.formats
    t_max = cfg.evolution.t_max
    errors = _below_floor("rwa", args, samples=2)
    if errors:
        raise ConfigError(errors)
    solver, samples = args.solver, args.samples or 1001
    conv = {"solver": solver}
    invocation = {"solver": solver, "samples": args.samples,
                  "self_check": not args.no_self_check}
    if solver == "volterra":
        series = volterra_solve(p, t_max, dt=cfg.evolution.dt,
                                self_check=not args.no_self_check)
        conv["dt"] = float(series.times[1] - series.times[0])
        conv["self_check"] = "skipped" if args.no_self_check else "passed"
    elif solver == "laplace":
        times = np.linspace(0.0, t_max, samples + 1)[1:]  # inverter needs t>0
        series = laplace_invert(p, times)
        conv["flagged_points"] = (None if series.flags is None
                                  else int(series.flags.sum()))
    else:
        n = cfg.chain.n_sites or chain_length_for(p, t_max)
        c = map_to_chain(p, n, M=cfg.chain.n_quad)
        series = chain_evolve(c, p.delta, t_max, samples=samples)
        conv["chain_sites"] = n
    pop = np.abs(series.values) ** 2
    meta = [_model_meta(p), f"solver: {solver}", f"frame: {series.frame}"]
    cols = [("t", series.times, "f"), ("re_A", series.values.real, "f"),
            ("im_A", series.values.imag, "f"), ("pop", pop, "f")]
    if series.flags is not None:
        cols.append(("flag", series.flags.astype(int), "i"))
    outputs = []
    if "csv" in fmts:
        outputs.append(_emit(outdir, "rwa.csv", _csv_text(meta, cols)))
    if "svg" in fmts:
        svg = render_line_plot(
            [Series(series.times, pop, label="pop", marker="none")],
            xlabel="t", ylabel="excited population",
            title=f"rwa ({solver})")
        outputs.append(_emit(outdir, "rwa.svg", svg))
    return outputs, conv, invocation, 0


def _cmd_evolve(cfg, args, outdir):
    p, fmts = cfg.model, cfg.output.formats
    evo = cfg.evolution
    n = cfg.chain.n_sites or chain_length_for(p, evo.t_max)
    c = map_to_chain(p, n, M=cfg.chain.n_quad)
    ts = evolve(c, evo, atom_state=args.atom_state, delta=p.delta)
    meta = [_model_meta(p), f"mode: {evo.mode}",
            f"atom_state: {args.atom_state}", f"chain_sites: {n}",
            f"dt: {float(ts.dt)!r}"]
    cols = [("t", ts.times, "f"),
            ("sigma_x", ts.sigma_x.real, "f"),
            ("sigma_y", ts.sigma_y.real, "f"),
            ("sigma_z", ts.sigma_z.real, "f"),
            ("pop_excited", ts.pop_excited, "f"),
            ("norm_drift", ts.norm_drift, "f"),
            ("max_bond", ts.max_bond, "i"),
            ("discarded_weight", ts.discarded_weight, "f"),
            ("conserved_charge", ts.conserved_charge, "f"),
            ("tail_occupation", ts.tail_occupation, "f"),
            ("flag", ts.flags.astype(int), "i")]
    outputs = []
    if "csv" in fmts:
        outputs.append(_emit(outdir, "evolve.csv", _csv_text(meta, cols)))
    if "svg" in fmts:
        svg = render_line_plot(
            [Series(ts.times, ts.pop_excited, label="pop_excited",
                    marker="filled"),
             Series(ts.times, ts.sigma_x.real, label="sigma_x")],
            xlabel="t", ylabel="emitter observables",
            title=f"evolve ({evo.mode})",
            marker_stride=max(1, ts.times.size // 40))
        outputs.append(_emit(outdir, "evolve.svg", svg))
    charge = ts.conserved_charge
    conv = {"chain_sites": n, "dt": ts.dt,
            "flagged_samples": int(ts.flags.sum()),
            "total_discarded_weight": float(ts.discarded_weight[-1]),
            "total_norm_drift": float(np.sum(ts.norm_drift)),
            "final_max_bond": int(ts.max_bond[-1]),
            "charge_drift": float(np.max(np.abs(charge - charge[0])))}
    return outputs, conv, {"atom_state": args.atom_state}, 0


def _cmd_polaron(cfg, args, outdir):
    p = cfg.model
    sol = silbey_harris_solve(p)
    doc = {"delta": p.delta, "delta_tilde": sol.delta_tilde, "phi": sol.phi,
           "p_up_relaxed": sol.p_up_relaxed, "p_up_dressed": sol.p_up_dressed,
           "iterations": sol.iterations, "residual": sol.residual}
    conv = {"iterations": sol.iterations, "residual": sol.residual}
    return [_emit_json(outdir, "polaron.json", doc)], conv, {}, 0


def _point_name(delta):
    return f"point_delta_{repr(float(delta))}.csv"


def _below_floor(sub, args, **floors):
    """Config errors for count options given below their floor."""
    return [f"{sub}.{name}: must be at least {floor}"
            for name, floor in floors.items()
            if getattr(args, name) is not None and getattr(args, name) < floor]


def _load_prior(outdir: Path):
    """{delta: (delta, row, manifest)} from the point CSVs in outdir."""
    points = {}
    for path in sorted(outdir.glob("point_delta_*.csv")):
        meta, cols = _read_csv(path)
        manifest = {}
        for m in meta:
            if m.startswith("manifest:"):
                manifest = json.loads(m[len("manifest:"):].strip())
        d = float(cols["delta"][0])
        points[d] = (d, {k: float(cols[k][0]) for k in analysis.SWEEP_COLUMNS},
                     manifest)
    return points


def _cmd_sweep(cfg, args, outdir):
    p, fmts = cfg.model, cfg.output.formats
    errors = _below_floor("sweep", args, samples=2, jobs=1)
    errors += [f"chain.{key}: not used by sweep, which sizes each chain "
               "from its t_max" for key in _SCHEMA["chain"]
               if getattr(cfg.chain, key) is not None]
    deltas = [_as_float(s.strip(), "sweep.deltas", errors)
              for s in args.deltas.split(",") if s.strip()]
    if not deltas:
        errors.append("sweep.deltas: at least one detuning is required")
    elif None not in deltas and (min(deltas) < 0.0
                                 or len(set(deltas)) < len(deltas)):
        errors.append("sweep.deltas: detunings must be non-negative and "
                      f"distinct, got {args.deltas!r}")
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    bad = [m for m in methods if m not in ("rwa", "full")]
    if bad:
        errors.append(f"sweep.methods: unknown method(s) {', '.join(bad)}")
    observables = tuple(s.strip() for s in args.full_observables.split(",")
                        if s.strip())
    bad = [o for o in observables if o not in ("population", "coherence")]
    if bad:
        errors.append("sweep.full-observables: unknown observable(s) "
                      + ", ".join(bad))
    if "full" in methods and cfg.evolution is None:
        errors.append("evolution.t_max: required when sweep methods "
                      "include full")
    if ("full" in methods and cfg.evolution is not None
            and cfg.evolution.mode != "FULL"):
        errors.append("evolution.mode: must be FULL for sweep method full")
    if errors:
        raise ConfigError(errors)

    cfgs = {}
    rc = {}
    if cfg.evolution is not None:
        rc["t_max"] = cfg.evolution.t_max
    if args.samples:
        rc["samples"] = args.samples
    cfgs["rwa"] = rc
    if "full" in methods:
        cfgs["full"] = cfg.evolution
        cfgs["full_observables"] = observables

    prior = _load_prior(outdir) if args.resume else {}
    resumed = [prior[d] for d in deltas if d in prior]
    jobs = args.jobs or os.cpu_count() or 1
    outputs = [_point_name(d) for d, _, _ in resumed if "csv" in fmts]
    fresh = []
    for point in analysis.crossover_scan(
            [d for d in deltas if d not in prior], methods, p, cfgs=cfgs,
            jobs=jobs):
        fresh.append(point)
        if "csv" in fmts:  # on disk at once, so a failed run keeps it
            d, row, manifest = point
            meta = [_model_meta(p), "manifest: " + json.dumps(
                _jsonsafe(manifest), sort_keys=True)]
            cols = [("delta", [d], "f")]
            cols += [(k, [row[k]], "f") for k in analysis.SWEEP_COLUMNS]
            outputs.append(_emit(outdir, _point_name(d),
                                 _csv_text(meta, cols)))

    result = analysis.SweepResult.collect(resumed + fresh)
    grid, columns = result.delta_grid, result.columns
    if "csv" in fmts:
        cols = [("delta", grid, "f")]
        cols += [(k, columns[k], "f") for k in analysis.SWEEP_COLUMNS]
        outputs.append(_emit(outdir, "summary.csv",
                             _csv_text([_model_meta(p)], cols)))
    if "svg" in fmts:
        for name, prefix, ylabel, title, log_y in (
                ("freq_vs_delta.svg", "freq", "frequency",
                 "oscillation frequency vs detuning", False),
                ("stationary_pop_vs_delta.svg", "stationary_pop",
                 "stationary population", "stationary population vs detuning",
                 True)):
            # the rwa curve is drawn whenever it holds data, the full curve
            # only when this run asked for the full method
            series = [Series(grid, columns[f"{prefix}_{m}"],
                             label=f"{prefix}_{m}", marker=marker)
                      for m, marker in (("rwa", "filled"), ("full", "open"))
                      if m == "rwa" or m in methods]
            series = [s for s in series
                      if np.isfinite(s.y[s.y > 0] if log_y else s.y).any()]
            if series:
                outputs.append(_emit(outdir, name, render_line_plot(
                    series, xlabel="delta", ylabel=ylabel, title=title,
                    log_y=log_y)))

    failures = {repr(float(d)): m["failures"]
                for d, m in zip(grid, result.manifests) if m.get("failures")}
    conv = {"computed_points": sorted(d for d, _, _ in fresh),
            "resumed_points": sorted(d for d, _, _ in resumed),
            "failures": failures}
    invocation = {"deltas": deltas,
                  "methods": list(methods), "jobs": jobs,
                  "resume": bool(args.resume), "samples": args.samples,
                  "full_observables": list(observables)}
    return outputs, conv, invocation, 0


def _est_stationary(signal):
    v = analysis.stationary_value(signal)
    return {"value": float(v), "drift_slope": float(v.drift_slope),
            "nonstationary": bool(v.nonstationary)}


_ESTIMATORS = {
    "frequency": lambda s: {"value": float(analysis.oscillation_frequency(s))},
    "zero_crossing": lambda s: {
        "value": float(analysis.zero_crossing_frequency(s))},
    "stationary": _est_stationary,
    "decay": lambda s: {"value": float(analysis.decay_rate(s))},
}


def _cmd_analyze(cfg, args, outdir):
    meta, cols = _read_csv(Path(args.input))
    tcol = args.x
    if tcol not in cols:
        raise ConfigError([f"analyze.x: column {tcol!r} not in {args.input} "
                           f"(columns: {', '.join(cols)})"])
    signal = args.signal
    if signal is None:
        signal = next((c for c in ("pop", "pop_excited") if c in cols), None)
        if signal is None:
            raise ConfigError(["analyze.signal: no pop or pop_excited column; "
                               "name the signal explicitly"])
    if signal == "amplitude" and "re_A" in cols and "im_A" in cols:
        values = np.hypot(cols["re_A"], cols["im_A"])
    elif signal in cols:
        values = cols[signal]
    else:
        raise ConfigError([f"analyze.signal: column {signal!r} not in "
                           f"{args.input} (columns: {', '.join(cols)})"])
    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    bad = [n for n in names if n not in _ESTIMATORS]
    if bad:
        raise ConfigError([f"analyze.estimators: unknown estimator(s) "
                           f"{', '.join(bad)} (choose from "
                           f"{', '.join(_ESTIMATORS)})"])

    times, values = _apply_windows(cols[tcol], values, cfg.analysis)
    results = {}
    failed = []
    for name in names:
        try:
            results[name] = _ESTIMATORS[name]((times, values))
        except ValueError as err:
            results[name] = {"error": str(err)}
            failed.append(name)
    doc = {"input": str(args.input), "signal": signal,
           "n_points": int(times.size),
           "t_range": [float(times[0]), float(times[-1])],
           "results": results}
    if cfg.model is not None:
        est = analysis.rwa_pole_estimates(cfg.model)
        doc["pole_estimate"] = {
            "regime": est.regime.value, "s_plus": est.s_plus,
            "s_minus": est.s_minus, "gamma": est.gamma,
            "frequency": abs(est.s_plus.imag)}
    conv = {"estimators_failed": failed}
    invocation = {"input": str(args.input), "signal": signal, "x": tcol,
                  "estimators": names}
    return ([_emit_json(outdir, "analysis.json", doc)], conv, invocation,
            1 if failed else 0)


def _cmd_plot(cfg, args, outdir):
    ycols = [s.strip() for s in args.y.split(",") if s.strip()]
    if not ycols:
        raise ConfigError(["plot.y: at least one column is required"])
    labels = ([s.strip() for s in args.labels.split(",")]
              if args.labels else [])
    markers = ([s.strip() for s in args.markers.split(",")]
               if args.markers else [])
    bad = [m for m in markers if m not in MARKERS]
    if bad:
        raise ConfigError([f"plot.markers: unknown marker(s) {', '.join(bad)} "
                           f"(choose from {', '.join(MARKERS)})"])
    if args.alpha2_time and cfg.model is None:
        raise ConfigError(["model.alpha: required for --alpha2-time"])
    out_name = args.out
    if not out_name.endswith(".svg"):
        out_name += ".svg"

    series_list = []
    for path in args.csv:
        _, cols = _read_csv(Path(path))
        if args.x not in cols:
            raise ConfigError([f"plot.x: column {args.x!r} not in {path} "
                               f"(columns: {', '.join(cols)})"])
        for ycol in ycols:
            if ycol not in cols:
                raise ConfigError([f"plot.y: column {ycol!r} not in {path} "
                                   f"(columns: {', '.join(cols)})"])
            x = cols[args.x]
            if args.alpha2_time:
                x = x * cfg.model.alpha ** 2
            k = len(series_list)
            label = (labels[k] if k < len(labels)
                     else f"{Path(path).stem}:{ycol}")
            marker = (markers[k] if k < len(markers)
                      else ("filled", "open")[k] if k < 2 else "none")
            series_list.append(Series(x, cols[ycol], label=label,
                                      marker=marker))
    stride = max(1, max(s.x.size for s in series_list) // 40)
    svg = render_line_plot(
        series_list,
        xlabel=(args.x + " * alpha^2") if args.alpha2_time else args.x,
        ylabel=", ".join(ycols), title=args.title, log_y=args.log_y,
        marker_stride=stride)
    _emit(outdir, out_name, svg)
    invocation = {"csv": [str(s) for s in args.csv], "x": args.x,
                  "y": ycols, "labels": labels, "markers": markers,
                  "log_y": bool(args.log_y),
                  "alpha2_time": bool(args.alpha2_time),
                  "title": args.title, "out": out_name}
    return [out_name], {}, invocation, 0


_DISPATCH = {
    "chain-coeffs": _cmd_chain_coeffs,
    "rwa": _cmd_rwa,
    "evolve": _cmd_evolve,
    "polaron": _cmd_polaron,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "plot": _cmd_plot,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(sp):
    g = sp.add_argument_group("configuration")
    g.add_argument("--config", metavar="FILE",
                   help="INI or JSON config file (flags override it)")
    for sec, keys in _SCHEMA.items():
        for key, parse in keys.items():
            g.add_argument(
                _FLAG_NAMES.get((sec, key), "--" + key.replace("_", "-")),
                dest=f"{sec}.{key}", metavar=key.upper(),
                help=f"{sec}.{key}: {parse.__doc__}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gapchain",
        description="Dissipative dynamics of a two-level emitter in a "
                    "gapped photonic environment.")
    parser.add_argument("--version", action="version",
                        version=f"gapchain {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("chain-coeffs",
                         help="orthogonal-polynomial chain coefficients")
    _add_config_flags(sp)

    sp = subs.add_parser("rwa", help="single-excitation amplitude A(t)")
    _add_config_flags(sp)
    sp.add_argument("--solver", choices=("volterra", "laplace", "chain"),
                    default="volterra")
    sp.add_argument("--samples", type=int,
                    help="time samples for laplace/chain, at least 2 "
                         "(default 1001)")
    sp.add_argument("--no-self-check", action="store_true",
                    help="skip the volterra step-halving check")

    sp = subs.add_parser("evolve", help="TEBD evolution of the joint state")
    _add_config_flags(sp)
    sp.add_argument("--atom-state",
                    choices=("excited", "ground", "plus_superposition"),
                    default="excited")

    sp = subs.add_parser("polaron", help="variational renormalized splitting")
    _add_config_flags(sp)

    sp = subs.add_parser("sweep", help="detuning scan with per-point resume")
    _add_config_flags(sp)
    sp.add_argument("--deltas", required=True,
                    help="comma list of detunings")
    sp.add_argument("--methods", default="rwa",
                    help="comma list from rwa,full (default rwa)")
    sp.add_argument("--samples", type=int,
                    help="time samples per rwa point, at least 2 "
                         "(default 2001)")
    sp.add_argument("--full-observables", dest="full_observables",
                    default="population,coherence",
                    help="comma list from population,coherence")
    sp.add_argument("--jobs", type=int,
                    help="parallel workers, at least 1 "
                         "(default: available cores)")
    sp.add_argument("--resume", action="store_true",
                    help="reuse point CSVs already in the output directory")

    sp = subs.add_parser("analyze", help="estimators over a stored series")
    _add_config_flags(sp)
    sp.add_argument("--input", required=True, metavar="CSV",
                    help="series CSV produced by rwa/evolve")
    sp.add_argument("--x", default="t", help="time column (default t)")
    sp.add_argument("--signal",
                    help="column to analyze (default pop/pop_excited; "
                         "'amplitude' means hypot(re_A, im_A))")
    sp.add_argument("--estimators",
                    default="frequency,zero_crossing,stationary,decay",
                    help="comma list from frequency,zero_crossing,"
                         "stationary,decay")

    sp = subs.add_parser("plot", help="deterministic SVG overlay of CSVs")
    _add_config_flags(sp)
    sp.add_argument("--csv", action="append", required=True, metavar="FILE",
                    help="input CSV; repeat for overlays")
    sp.add_argument("--x", default="t", help="x column (default t)")
    sp.add_argument("--y", required=True,
                    help="comma list of y columns, applied to every CSV")
    sp.add_argument("--labels", help="comma list of legend labels")
    sp.add_argument("--markers",
                    help="comma list from none,filled,open "
                         "(default: filled, open, then none)")
    sp.add_argument("--log-y", action="store_true", dest="log_y")
    sp.add_argument("--alpha2-time", action="store_true", dest="alpha2_time",
                    help="scale the x axis by alpha^2")
    sp.add_argument("--title", default="")
    sp.add_argument("--out", default="plot.svg",
                    help="output SVG name inside the output directory")
    return parser


def _flag_overrides(args):
    """{(section, key): raw flag value} for every config flag given."""
    return {tuple(dest.split(".")): value for dest, value in vars(args).items()
            if "." in dest and value is not None}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(path=args.config, overrides=_flag_overrides(args),
                           subcommand=args.subcommand)
        outdir = Path(cfg.output.directory)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.monotonic()
        try:
            outputs, conv, invocation, code = _DISPATCH[args.subcommand](
                cfg, args, outdir)
        except (ValueError, RuntimeError, ArithmeticError) as err:
            diag = {"subcommand": args.subcommand,
                    "error": type(err).__name__, "message": str(err),
                    "config": cfg.to_dict()}
            _emit_json(outdir, "diagnostics.json", diag)
            print(f"numerical failure: {err}", file=sys.stderr)
            print(f"diagnostics written to {outdir / 'diagnostics.json'}",
                  file=sys.stderr)
            return 1
    except ConfigError as err:
        print("configuration error:", file=sys.stderr)
        for line in err.errors:
            print(f"  {line}", file=sys.stderr)
        return 2

    manifest = {
        "subcommand": args.subcommand,
        "config": cfg.to_dict(),
        "invocation": invocation,
        "versions": {"gapchain": __version__,
                     "python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "outputs": sorted(outputs),
        "convergence": conv,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _emit_json(outdir, "manifest.json", manifest)
    for name in sorted(outputs):
        print(outdir / name)
    print(outdir / "manifest.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
