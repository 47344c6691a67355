"""Command-line interface wiring every module into one executable.

Subcommands map onto the library one to one: chain-coeffs (orthogonal
polynomial chain), rwa (single-excitation solvers), evolve (TEBD),
polaron (variational renormalization), sweep (detuning scans), analyze
(estimators over a stored series) and plot (deterministic SVG
overlays).  evolve's pop_excited is the population of the |e> branch
alone.  Every run writes a ``manifest.json`` echoing the
configuration it read, with library versions, wall time and convergence
outcomes.  Re-running any subcommand with its manifest as the config
file regenerates every artifact byte for byte; the manifest's own
``wall_time_s`` and ``timestamp`` fields are the only volatile data a
run produces.  ``sweep --resume`` reuses a point CSV only if it records
this run's model at its detuning and settings (_load_prior); otherwise
the run writes nothing and exits 2, naming the first field that differs.

Configuration comes from an INI file, from a JSON file with the same
sections, or from flags; flags override file values.  The sections
[model], [chain], [evolution], [analysis] and [output] are shared, and
[rwa], [evolve], [sweep], [analyze] and [plot] hold the named
subcommand's own options.  The table ``_SCHEMA`` alone holds each key's
validator, default and help, and a subcommand's ``_DISPATCH`` entry alone
says which keys it reads: they are its flags, validated and echoed into
its manifest.  Any other section or key is skipped, so one file serves every
subcommand; an unknown section, or an unknown key in a section it reads,
is an error, as is [chain] given to sweep.  ``[output] formats`` is one
list shared by every subcommand: each writes the artifacts whose formats
it selects, and a list that selects none of them is refused.  Key
``section.some_key`` is the flag ``--some-key``, except
``output.directory``, which is ``--out-dir``; a flag is spelled in full
and parsed exactly like the same value in an INI file.  A switch
(``--resume``) takes no value and is ``resume = true`` in a file, and
``--csv`` repeats.  A manifest (a JSON object with a ``subcommand`` key)
is itself a valid config: its ``config`` block is unwrapped.
In rwa, volterra steps by dt; laplace samples (0, t_max] and chain [0, t_max]
at ``rwa.samples`` points.  For every solver, ``rwa.csv``'s re_A and im_A hold
the interaction-picture amplitude A (the lab frame's is A e^{-i delta t}), as
its ``frame: interaction`` line says.  rwa's convergence block is the solver
and its checks: volterra's dt, self_check and, when "passed" (A is then the
Richardson extrapolation of its dt and dt/2 runs), halvings and
step_deviation; laplace's poles, sum_rule_residual and flagged_points;
chain's chain_sites and n_quad.

Threads: one BLAS thread per process, as the package docstring sets out;
``sweep --jobs`` runs points in parallel only through worker processes,
each handed the chain the parent mapped.

Exit codes: 0 success, 1 numerical failure (diagnostics.json written
to the output directory), 2 configuration error (every violation is
listed, addressed as section.key; what ModelParams or EvolutionConfig
rejects comes out as one ``model:`` or ``evolution:`` line, and a fit
window out of order as one ``analysis:`` line).
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
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .chainmap import chain_length_for, map_to_chain, quadrature_nodes
from .model import ModelParams
from .mps import EvolutionConfig, TimeSeries, evolve
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
    """text (a path, column name or title)"""
    return str(value)


def _as_bool(value, key, errors):
    """a switch (as a flag, bare; in a file, true or false)"""
    if isinstance(value, bool):
        return value
    state = configparser.ConfigParser.BOOLEAN_STATES.get(str(value).lower())
    if state is None:
        errors.append(f"{key}: expected true or false, got {value!r}")
    return state


def _as_mode(value, key, errors):
    """RWA or FULL (any case)"""
    mode = str(value).upper()
    if mode not in ("RWA", "FULL"):
        errors.append(f"{key}: must be RWA or FULL")
        return None
    return mode


def _choice(*allowed, many=False, distinct=False):
    """Validator of one of allowed or (many) a non-empty comma list of
    them, each named once if distinct; with none allowed, any items pass.
    A list is taken item by item."""
    def check(value, key, errors):
        if not many:
            items = [str(value).strip()]
        elif isinstance(value, (list, tuple)):
            items = [str(s) for s in value]
        else:
            items = [s.strip() for s in str(value).split(",") if s.strip()]
        bad = [s for s in items if allowed and s not in allowed]
        repeated = distinct and sorted({s for s in items if items.count(s) > 1})
        if bad or repeated or (allowed and not items):
            noun = key.rpartition(".")[2].rstrip("s")
            what = (f"unknown {noun}(s) {', '.join(bad)}" if bad else
                    f"repeated {noun}(s) {', '.join(repeated)}" if repeated
                    else "empty list")
            errors.append(f"{key}: {what} (choose from {', '.join(allowed)})")
            return None
        return tuple(items) if many else items[0]
    names = ", ".join(allowed)
    check.__doc__ = (f"one of {names}" if not many else
                     f"comma list from {names}" if allowed else "comma list")
    return check


_as_list = _choice(many=True)


def _at_least(floor):
    """Validator of an integer no smaller than floor."""
    def check(value, key, errors):
        n = _as_int(value, key, errors)
        if n is not None and n < floor:
            errors.append(f"{key}: must be at least {floor}")
            return None
        return n
    check.__doc__ = f"an integer, at least {floor}"
    return check


def _as_jobs(value, key, errors):
    """worker processes, an integer, at least 1 (default: one per core);
    each process runs one BLAS thread unless OPENBLAS_NUM_THREADS is set,
    so points run in parallel only through the workers"""
    return _at_least(1)(value, key, errors)


def _as_deltas(value, key, errors):
    """comma list of distinct non-negative detunings"""
    deltas = [_as_float(s, key, errors) for s in _as_list(value, key, errors)]
    if None in deltas:
        return None
    if deltas and (min(deltas) < 0.0 or len(set(deltas)) < len(deltas)):
        errors.append(f"{key}: detunings must be non-negative and "
                      f"distinct, got {value!r}")
        return None
    return tuple(deltas)


def _as_exclude(value, key, errors):
    """time windows to drop, lo:hi,lo:hi (in JSON, [lo, hi] pairs)"""
    if isinstance(value, str):
        value = [part.split(":") for part in _as_list(value, key, errors)]
    out = []
    for pair in value if isinstance(value, (list, tuple)) else [value]:
        try:
            lo, hi = map(float, pair)
        except (TypeError, ValueError):
            errors.append(f"{key}: window {pair!r} is not a lo:hi pair")
            return None
        if not lo < hi:
            errors.append(f"{key}: window {lo:g}:{hi:g} needs lo < hi")
            return None
        out.append((lo, hi))
    return tuple(out)


# each estimator and the analysis function it runs, looked up at each call
_ESTIMATORS = {"frequency": "oscillation_frequency",
               "zero_crossing": "zero_crossing_frequency",
               "stationary": "stationary_value", "decay": "decay_rate"}


# The one table of config keys, each entry (validator, default), where a
# key without default is _REQUIRED; model and evolution take ModelParams's
# and EvolutionConfig's defaults, and _TYPES makes every other section a
# named tuple of its entries, which _build fills only when no _REQUIRED key
# is unset.  A key is an INI/JSON key of its section and, for a subcommand
# that reads it (_DISPATCH), a flag --<key-with-dashes> (renamed only
# through _FLAG_NAMES); its validator's docstring is the flag's help.
_REQUIRED = dataclasses.MISSING


def _defaults_of(cls, **validators):
    """Entries of cls's fields, in the order given, with cls's defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: (check, defaults[key]) for key, check in validators.items()}


_SCHEMA = {
    "model": _defaults_of(ModelParams, alpha=_as_float, omega_b=_as_float,
                          omega0=_as_float, omega_c=_as_float,
                          delta=_as_float),
    "chain": {"n_sites": (_at_least(2), None)},
    "evolution": _defaults_of(EvolutionConfig, t_max=_as_float, dt=_as_float,
                              d_b=_as_int, chi_max=_as_int,
                              svd_threshold=_as_float, sample_stride=_as_int,
                              mode=_as_mode),
    # the series is trimmed to [fit_window_low, fit_window_high] fractions of
    # its time span; exclude drops absolute-time windows (transients,
    # switch-on artifacts) from whatever remains
    "analysis": {"fit_window_low": (_as_float, 0.0),
                 "fit_window_high": (_as_float, 1.0),
                 "exclude": (_as_exclude, ())},
    "output": {"directory": (_as_str, "gapchain-out"),
               "formats": (_choice("csv", "json", "svg", many=True,
                                   distinct=True), ("csv", "json", "svg"))},
    "rwa": {"solver": (_choice("volterra", "laplace", "chain"), "volterra"),
            "samples": (_at_least(2), 1001),  # see the module docstring
            "no_self_check": (_as_bool, False)},  # skip volterra's step-halving check
    "evolve": {"atom_state": (_choice("excited", "ground",
                                      "plus_superposition"), "excited")},
    "sweep": {"deltas": (_as_deltas, _REQUIRED),
              "methods": (_choice("rwa", "full", many=True, distinct=True), ("rwa",)),
              "samples": (_at_least(2), None),  # per rwa point; None: crossover_scan's
              "jobs": (_as_jobs, None),  # parallel workers; None: available cores
              "resume": (_as_bool, False)},  # reuse point CSVs in the output directory
    "analyze": {"input": (_as_str, _REQUIRED),  # a series CSV written by rwa or evolve
                "x": (_as_str, "t"),
                "signal": (_as_str, None),  # None: pop or pop_excited; 'amplitude': |A|
                "estimators": (_choice(*_ESTIMATORS, many=True,
                                       distinct=True), tuple(_ESTIMATORS))},
    "plot": {"csv": (_as_list, _REQUIRED), "x": (_as_str, "t"),
             "y": (_as_list, _REQUIRED),  # read from every csv
             "labels": (_as_list, ()),
             "markers": (_choice(*MARKERS, many=True), ()),  # unset: filled, open, then none
             "log_y": (_as_bool, False),
             "alpha2_time": (_as_bool, False),  # scale the x axis by alpha^2
             "title": (_as_str, ""),
             "out": (_as_str, "plot.svg")},  # inside the output directory
}

_FLAG_NAMES = {("output", "directory"): "--out-dir"}
_FLAG_ACTIONS = {("plot", "csv"): "append"}  # --csv repeats for overlays


def _reads(subcommand):
    """{section: [keys]} that subcommand reads (its _DISPATCH entry)."""
    keys = {}
    for item in _DISPATCH[subcommand][2]:
        sec, _, key = item.rstrip("?").partition(".")
        keys.setdefault(sec, []).extend([key] if key else _SCHEMA[sec])
    return keys


_TYPES = {sec: namedtuple(sec.capitalize() + "Options", entries,
                          defaults=[default for _, default in entries.values()])
          for sec, entries in _SCHEMA.items()
          if sec not in ("model", "evolution")}
_TYPES.update(model=ModelParams, evolution=EvolutionConfig)


class RunConfig(namedtuple("RunConfig", ["subcommand", *_SCHEMA],
                           defaults=[None] * len(_SCHEMA))):
    """Validated configuration for one CLI run; a section its subcommand
    does not read is None."""

    __slots__ = ()

    def to_dict(self):
        """JSON-ready echo of the keys the subcommand reads, which
        parse_config inverts exactly.  A key holding an empty default
        (None or ()) is left out, since parsing restores it, and so is an
        empty section."""
        d = {}
        for sec, keys in _reads(self.subcommand).items():
            obj = getattr(self, sec)
            if obj is None:
                continue
            block = {k: getattr(obj, k) for k in keys
                     if getattr(obj, k) not in (None, ())
                     or _SCHEMA[sec][k][1] not in (None, ())}
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
        if isinstance(raw, dict) and "subcommand" in raw:
            raw = raw.get("config")  # a manifest doubles as a config file
        if not isinstance(raw, dict):
            errors.append(f"config: {path} must hold a JSON object")
            return {}
        errors.extend(f"{sec}: must be a JSON object of keys, got {block!r}"
                      for sec, block in raw.items() if not isinstance(block, dict))
        return {sec: dict(block) for sec, block in raw.items()
                if isinstance(block, dict)}
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as err:
        errors.append(f"config: {path} is not valid INI: {err}")
        return {}
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def parse_config(subcommand, path=None, data=None,
                 overrides=None) -> RunConfig:
    """Merge file, dict and flag inputs into subcommand's RunConfig.

    Only the keys subcommand reads (_DISPATCH) are validated, the rest
    skipped; an unknown section, or unknown key in a read section, is an
    error.  All violations are raised together in one ConfigError as
    section.key lines, or one section line for what its class rejects.
    """
    reads = _reads(subcommand)
    needed = {item.partition(".")[0] for item in _DISPATCH[subcommand][2]
              if not item.endswith("?")}
    errors = []
    if path is not None:
        data = _load_file(Path(path), errors)
    merged = {}
    for sec, block in (data or {}).items():
        if sec not in _SCHEMA:
            errors.append(f"{sec}: unknown section")
        elif sec in reads:
            for key, value in block.items():
                if key not in _SCHEMA[sec]:
                    errors.append(f"{sec}.{key}: unknown key")
                elif key in reads[sec] and value is not None:
                    merged[sec, key] = value
    merged.update(overrides or {})

    typed = {sec: {} for sec in _SCHEMA}
    rejected = set()  # (section, key) whose value its validator refused
    for (sec, key), value in merged.items():
        tv = _SCHEMA[sec][key][0](value, f"{sec}.{key}", errors)
        if tv is None:
            rejected.add((sec, key))
        else:
            typed[sec][key] = tv

    built = {sec: _build(sec, typed, rejected, errors,
                         required=bool(typed[sec]) or sec in needed)
             for sec in reads}
    cfg = RunConfig(subcommand, **built)

    a = cfg.analysis
    if a is not None and not 0.0 <= a.fit_window_low < a.fit_window_high <= 1.0:
        errors.append("analysis: need 0 <= fit_window_low < fit_window_high <= 1")

    if (subcommand == "polaron" and cfg.model is not None
            and cfg.model.delta <= 0.0):
        errors.append("model.delta: must be positive "
                      "(the theory renormalizes a finite splitting)")
    writes = _DISPATCH[subcommand][1]
    if not set(cfg.output.formats) & set(writes):
        errors.append(f"output.formats: {', '.join(cfg.output.formats)} selects "
                      f"nothing {subcommand} writes ({', '.join(writes)})")
    if subcommand == "chain-coeffs" and cfg.chain.n_sites is None:
        errors.append("chain.n_sites: required for chain-coeffs")
    if subcommand == "sweep":  # a chain length in its file would look used
        errors += [f"chain.{key}: not used by sweep, which sizes each chain "
                   "from its t_max" for key in (data or {}).get("chain", ())]
        if cfg.sweep is not None and "full" in cfg.sweep.methods:
            if cfg.evolution is None:
                errors.append("evolution.t_max: required when sweep "
                              "methods include full")
            elif cfg.evolution.mode != "FULL":
                errors.append("evolution.mode: must be FULL for sweep "
                              "method full")

    if errors:
        raise ConfigError(sorted(errors))
    return cfg


def _build(sec, typed, rejected, errors, required):
    """_TYPES[sec](**typed[sec]), or None when a _REQUIRED key is unset
    (an empty list counts as unset): an error if the section is required,
    unless the key's value was rejected and so already has its error."""
    missing = [key for key, (_, default) in _SCHEMA[sec].items()
               if default is _REQUIRED and typed[sec].get(key, ()) == ()]
    if required:
        errors.extend(f"{sec}.{k}: required" for k in missing
                      if (sec, k) not in rejected)
    if missing:
        return None
    try:
        return _TYPES[sec](**typed[sec])
    except ValueError as err:
        errors.append(f"{sec}: {err}")
        return None


# ---------------------------------------------------------------------------
# artifact plumbing


def _jsonsafe(obj):
    """Plain-Python, finite-only mirror of obj (NaN/inf become null)."""
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


def _write(outdir: Path, entries):
    """Write (file name, format, payload) entries into outdir; returns the
    names.  Every payload is serialized by its format (_SERIALIZE) before
    the first write, so a render that fails leaves no file.  Each write is
    atomic (temp then rename), and the first makes the directory."""
    texts = {name: _SERIALIZE[fmt](payload) for name, fmt, payload in entries}
    for name, text in texts.items():
        outdir.mkdir(parents=True, exist_ok=True)
        tmp = outdir / (name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, outdir / name)
    return list(texts)


def _csv_text(meta, cols):
    """CSV body: '# ' metadata lines, column-name row, repr-exact cells.

    cols is a list of (name, values); a column of integers or bools is
    written as ints, any other as repr(float), so reading a cell back
    reproduces the same binary64.
    """
    columns = [np.asarray(values) for _, values in cols]
    if len({a.size for a in columns}) > 1:
        raise ValueError("ragged CSV columns")
    cells = [[str(int(v)) for v in a] if a.dtype.kind in "biu"
             else [repr(float(v)) for v in a] for a in columns]
    lines = [f"# {m}" for m in meta]
    lines.append(",".join(name for name, _ in cols))
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


# a csv payload is (meta, cols), a json payload any object _jsonsafe
# maps, and an svg payload a call that renders it when it is written
_SERIALIZE = {"csv": lambda payload: _csv_text(*payload),
              "json": lambda obj: json.dumps(_jsonsafe(obj), indent=2,
                                             sort_keys=True) + "\n",
              "svg": lambda render: render()}


def _read_csv(path: Path):
    """Inverse of _csv_text: (metadata lines, {column: float array})."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
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
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ConfigError([f"input: {path} has a non-numeric cell in "
                               f"row {line!r}"]) from None
    if header is None or not rows:
        raise ConfigError([f"input: {path} is empty (no data rows)"])
    table = np.asarray(rows, dtype=float)
    return meta, {name: table[:, j] for j, name in enumerate(header)}


def _column(cols, name, key, path):
    """cols[name], or a ConfigError naming key, path and the columns."""
    if name not in cols:
        raise ConfigError([f"{key}: column {name!r} not in {path} "
                           f"(columns: {', '.join(cols)})"])
    return cols[name]


def _model_meta(p: ModelParams, keys=tuple(_SCHEMA["model"])):
    return "model: " + " ".join(f"{k}={float(getattr(p, k))!r}" for k in keys)


def _apply_windows(times, values, opts):
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
# subcommands; each takes its RunConfig and returns (entries, convergence,
# exit_code).  An entry is (file name, format, payload), written by main if
# output.formats selects its format; format None lists a file the
# subcommand stored itself (the sweep's point CSVs).  Its docstring is its
# help line


def _cmd_chain_coeffs(cfg):
    """orthogonal-polynomial chain coefficients"""
    p, n = cfg.model, cfg.chain.n_sites
    c = map_to_chain(p, n)
    meta = [_model_meta(p), f"g: {float(c.g)!r}",
            f"weight_norm: {float(c.weight_norm)!r}",
            "hop: coupling to the next site; nan on the last row"]
    idx = np.arange(n)
    cols = [("n", idx), ("eps", c.eps), ("hop", np.append(c.t, math.nan))]
    return [("chain_coeffs.csv", "csv", (meta, cols)),
            ("chain_coeffs.json", "json", {"g": c.g, "weight_norm": c.weight_norm,
                                           "eps": c.eps, "hop": c.t}),
            ("chain_coeffs.svg", "svg", partial(
                render_line_plot,
                [Series(idx, c.eps, label="eps_n", marker="filled"),
                 Series(idx[:-1], c.t, label="t_n", marker="open")],
                xlabel="site n", ylabel="frequency",
                title="chain coefficients"))
            ], {"n_sites": n, "n_quad": quadrature_nodes(n)}, 0


def _cmd_rwa(cfg):
    """single-excitation amplitude A(t)"""
    p, t_max = cfg.model, cfg.evolution.t_max
    solver, samples = cfg.rwa.solver, cfg.rwa.samples
    conv = {"solver": solver}
    if solver == "volterra":
        series = volterra_solve(p, t_max, dt=cfg.evolution.dt,
                                self_check=not cfg.rwa.no_self_check)
    elif solver == "laplace":
        series = laplace_invert(p, np.linspace(0.0, t_max, samples + 1)[1:])  # t > 0
    else:
        n = cfg.chain.n_sites or chain_length_for(p, t_max)
        series = chain_evolve(map_to_chain(p, n), p.delta, t_max, samples=samples)
        conv.update(chain_sites=n, n_quad=quadrature_nodes(n))
    conv.update(series.checks)
    pop = series.population()
    meta = [_model_meta(p), f"solver: {solver}", "frame: interaction"]
    cols = [("t", series.times), ("re_A", series.values.real),
            ("im_A", series.values.imag), ("pop", pop)]
    if series.flags is not None:
        cols.append(("flag", series.flags))
    return [("rwa.csv", "csv", (meta, cols)),
            ("rwa.svg", "svg", partial(
                render_line_plot,
                [Series(series.times, pop, label="pop", marker="none")],
                xlabel="t", ylabel="excited population",
                title=f"rwa ({solver})"))], conv, 0


def _cmd_evolve(cfg):
    """TEBD of the joint state; pop_excited: the |e> branch's population"""
    p, evo, atom_state = cfg.model, cfg.evolution, cfg.evolve.atom_state
    n = cfg.chain.n_sites or chain_length_for(p, evo.t_max)
    c = map_to_chain(p, n)
    ts = evolve(c, evo, atom_state=atom_state, delta=p.delta)
    meta = [_model_meta(p), f"mode: {evo.mode}",
            f"atom_state: {atom_state}", f"chain_sites: {n}",
            f"dt: {float(ts.dt)!r}"]
    names = {"times": "t", "flags": "flag"}  # every field but dt, in order
    cols = [(names.get(f.name, f.name), np.real(getattr(ts, f.name)))
            for f in dataclasses.fields(TimeSeries) if f.name != "dt"]
    charge = ts.conserved_charge
    conv = {"chain_sites": n, "dt": ts.dt,
            "flagged_samples": int(ts.flags.sum()),
            "total_discarded_weight": float(ts.discarded_weight[-1]),
            "final_max_bond": int(ts.max_bond[-1]),
            "charge_drift": float(np.max(np.abs(charge - charge[0])))}
    return [("evolve.csv", "csv", (meta, cols)),
            ("evolve.svg", "svg", partial(
                render_line_plot,
                [Series(ts.times, ts.pop_excited, label="pop_excited",
                        marker="filled"),
                 Series(ts.times, ts.sigma_x.real, label="sigma_x")],
                xlabel="t", ylabel="emitter observables",
                title=f"evolve ({evo.mode})"))], conv, 0


def _cmd_polaron(cfg):
    """variational renormalized splitting"""
    p = cfg.model
    sol = silbey_harris_solve(p)
    conv = {"iterations": sol.iterations, "residual": sol.residual}
    return [("polaron.json", "json",
             {"delta": p.delta, **dataclasses.asdict(sol)})], conv, 0


def _point_name(delta):
    return f"point_delta_{repr(float(delta))}.csv"


def _first_difference(meta, manifest, model_line, settings):
    """(field, recorded, this run's) for the first field in which a point
    CSV's model line or manifest differs from this run's, else None; so
    does a setting only the point records, such as one an older version
    ran with, but not an outcome (analysis.POINT_OUTCOMES)."""
    model = next((m for m in meta if m.startswith("model:")), None)
    pairs = [("model", model, model_line),
             ("methods", manifest.get("methods"), settings["methods"])]
    for m in settings["methods"]:
        block = manifest[m] if isinstance(manifest.get(m), dict) else {}
        keys = [*settings[m], *sorted(block.keys() - settings[m].keys()
                                      - set(analysis.POINT_OUTCOMES))]
        pairs += [(f"{m}.{k}", block.get(k), settings[m].get(k)) for k in keys]
    return next((pair for pair in pairs if pair[1] != pair[2]), None)


def _load_prior(outdir: Path, deltas, model_line, settings):
    """{delta: (delta, row, manifest)} from the point CSVs in outdir.

    A point on this run's grid is reused only if it records this run's
    model_line(delta) and settings, the point_settings record the sweep
    runs; ConfigError otherwise.
    """
    points = {}
    for path in sorted(outdir.glob("point_delta_*.csv")):
        meta, cols = _read_csv(path)
        missing = sorted({"delta", *analysis.SWEEP_COLUMNS} - cols.keys())
        if missing:
            raise ConfigError([f"input: {path} lacks columns {missing}"])
        manifest = {}
        for m in meta:
            if m.startswith("manifest:"):
                try:
                    manifest = json.loads(m[len("manifest:"):].strip())
                except json.JSONDecodeError:
                    manifest = None
        if not isinstance(manifest, dict):
            raise ConfigError([f"input: {path} manifest is not a JSON object"])
        d = float(cols["delta"][0])
        differs = d in deltas and _first_difference(meta, manifest,
                                                    model_line(d), settings)
        if differs:
            raise ConfigError(["input: {} differs from this run in {}: "
                               "recorded {!r}, this run {!r}".format(
                                   path, *differs)])
        points[d] = (d, {k: float(cols[k][0]) for k in analysis.SWEEP_COLUMNS},
                     manifest)
    return points


def _cmd_sweep(cfg):
    """detuning scan with per-point resume"""
    p, o, evo = cfg.model, cfg.sweep, cfg.evolution
    outdir, deltas, methods = Path(cfg.output.directory), o.deltas, o.methods
    settings = analysis.point_settings(methods, p, {
        "rwa": {"t_max": evo.t_max if evo else None, "samples": o.samples},
        "full": evo})

    def model_line(d):  # a point's own model
        return _model_meta(dataclasses.replace(p, delta=d))

    prior = _load_prior(outdir, deltas, model_line, settings) if o.resume else {}
    resumed = [prior[d] for d in deltas if d in prior]
    jobs = o.jobs or os.cpu_count() or 1
    stored = [_point_name(d) for d, _, _ in resumed]
    fresh = []
    for point in analysis.crossover_scan(
            [d for d in deltas if d not in prior], p, settings, jobs=jobs):
        fresh.append(point)
        d, row, manifest = point
        # the resume store, so written whatever the formats; on disk at
        # once, so a failed run keeps it; none if its worker died
        if "worker" not in manifest["failures"]:
            meta = [model_line(d), "manifest: " + json.dumps(
                _jsonsafe(manifest), sort_keys=True)]
            cols = [("delta", [d])] + [(k, [row[k]]) for k in analysis.SWEEP_COLUMNS]
            stored += _write(outdir, [(_point_name(d), "csv", (meta, cols))])

    result = analysis.SweepResult.collect(resumed + fresh)
    grid, columns = result.delta_grid, result.columns
    cols = [("delta", grid)] + [(k, columns[k]) for k in analysis.SWEEP_COLUMNS]
    meta = [_model_meta(p, _reads("sweep")["model"])]  # delta: a column
    entries = [(name, None, None) for name in stored]
    entries.append(("summary.csv", "csv", (meta, cols)))
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
            entries.append((name, "svg", partial(
                render_line_plot, series, xlabel="delta", ylabel=ylabel,
                title=title, log_y=log_y)))

    failures = {repr(float(d)): m["failures"]
                for d, m in zip(grid, result.manifests) if m.get("failures")}
    conv = {"computed_points": sorted(d for d, _, _ in fresh),
            "resumed_points": sorted(d for d, _, _ in resumed),
            "failures": failures, "jobs": jobs}
    return entries, conv, 0


def _cmd_analyze(cfg):
    """estimators over a stored series"""
    o = cfg.analyze
    meta, cols = _read_csv(Path(o.input))
    x = _column(cols, o.x, "analyze.x", o.input)
    k = analysis.first_bad_time(x)
    if k is not None:
        raise ConfigError([f"input: {o.input} column {o.x!r} must be finite and "
                           f"strictly increasing; data row {k + 1} holds "
                           f"{float(x[k])!r}" + (f" after {float(x[k - 1])!r}" if k else "")])
    signal = o.signal
    if signal is None:
        signal = next((c for c in ("pop", "pop_excited") if c in cols), None)
        if signal is None:
            raise ConfigError(["analyze.signal: no pop or pop_excited column; "
                               "name the signal explicitly"])
    if signal == "amplitude" and "re_A" in cols and "im_A" in cols:
        values = np.hypot(cols["re_A"], cols["im_A"])
    else:
        values = _column(cols, signal, "analyze.signal", o.input)

    times, values = _apply_windows(x, values, cfg.analysis)
    results = {}
    failed = []
    for name in o.estimators:
        try:
            v = getattr(analysis, _ESTIMATORS[name])((times, values))
            results[name] = {"value": float(v), **getattr(v, "__dict__", {})}
        except ValueError as err:
            results[name] = {"error": str(err)}
            failed.append(name)
    doc = {"input": o.input, "signal": signal,
           "n_points": int(times.size),
           "t_range": [float(times[0]), float(times[-1])],
           "results": results}
    if cfg.model is not None:
        est = analysis.rwa_pole_estimates(cfg.model)
        doc["pole_estimate"] = {**dataclasses.asdict(est),
                                "frequency": abs(est.s_plus.imag)}
    conv = {"estimators_failed": failed}
    return [("analysis.json", "json", doc)], conv, 1 if failed else 0


def _cmd_plot(cfg):
    """deterministic SVG overlay of CSVs"""
    o = cfg.plot
    if o.alpha2_time and cfg.model is None:
        raise ConfigError(["model.alpha: required for --alpha2-time"])
    out_name = o.out if o.out.endswith(".svg") else o.out + ".svg"
    if out_name == ".svg" or Path(out_name).name != out_name:
        raise ConfigError([f"plot.out: {o.out!r} is not a file name (empty, "
                           "or holding path separators)"])

    series_list = []
    for path in o.csv:
        _, cols = _read_csv(Path(path))
        x = _column(cols, o.x, "plot.x", path)
        if o.alpha2_time:
            x = x * cfg.model.alpha ** 2
        for ycol in o.y:
            y = _column(cols, ycol, "plot.y", path)
            k = len(series_list)
            label = (o.labels[k] if k < len(o.labels)
                     else f"{Path(path).stem}:{ycol}")
            marker = (o.markers[k] if k < len(o.markers)
                      else ("filled", "open")[k] if k < 2 else "none")
            series_list.append(Series(x, y, label=label, marker=marker))

    def draw():
        try:
            return render_line_plot(
                series_list,
                xlabel=(o.x + " * alpha^2") if o.alpha2_time else o.x,
                ylabel=", ".join(o.y), title=o.title, log_y=o.log_y)
        except ValueError as err:  # the columns hold nothing to draw
            raise ConfigError([f"input: {err}"]) from None
    return [(out_name, "svg", draw)], {}, 0


# Each subcommand's (run, formats it writes, keys it reads).  The keys are
# in _SCHEMA order: "section" is all its keys, "section.key" one; a section
# marked "?" is read only if given, and every other one must be complete.
_DISPATCH = {
    "chain-coeffs": (_cmd_chain_coeffs, ("csv", "json", "svg"), ("model", "chain", "output")),
    "rwa": (_cmd_rwa, ("csv", "svg"),
            ("model", "chain", "evolution.t_max", "evolution.dt", "output", "rwa")),
    "evolve": (_cmd_evolve, ("csv", "svg"), ("model", "chain", "evolution", "output", "evolve")),
    "polaron": (_cmd_polaron, ("json",), ("model", "output")),
    "sweep": (_cmd_sweep, ("csv", "svg"),  # not model.delta: each point sets its own
              ("model.alpha", "model.omega_b", "model.omega0", "model.omega_c",
               "evolution?", "output", "sweep")),
    "analyze": (_cmd_analyze, ("json",), ("model?", "analysis", "output", "analyze")),
    "plot": (_cmd_plot, ("svg",), ("model?", "output", "plot")),
}


# ---------------------------------------------------------------------------
# argument parsing


def _parse_args(argv):
    """Parse argv; of the subcommands, only the one argv starts with is built."""
    parser = argparse.ArgumentParser(
        prog="gapchain", allow_abbrev=False,
        description="Dissipative dynamics of a two-level emitter in a "
                    "gapped photonic environment.")
    parser.add_argument("--version", action="version",
                        version=f"gapchain {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    named = [word for word in argv[:1] if word in _DISPATCH]
    for sub in named or _DISPATCH:  # or all, flagless, so -h and a bad word list them
        subparser = subs.add_parser(sub, help=_DISPATCH[sub][0].__doc__, allow_abbrev=False)
        if not named:
            continue
        g = subparser.add_argument_group("configuration")
        g.add_argument("--config", metavar="FILE",
                       help="INI or JSON config file (flags override it)")
        for sec, keys in _reads(sub).items():
            for key in keys:
                parse, _ = _SCHEMA[sec][key]
                kw = ({"action": "store_true", "default": None}
                      if parse is _as_bool else
                      {"action": _FLAG_ACTIONS.get((sec, key), "store"),
                       "metavar": key.upper()})
                g.add_argument(
                    _FLAG_NAMES.get((sec, key), "--" + key.replace("_", "-")),
                    dest=f"{sec}.{key}", help=f"{sec}.{key}: {parse.__doc__}",
                    **kw)
    return parser.parse_args(argv)


def _flag_overrides(args):
    """{(section, key): raw flag value} for every config flag given."""
    return {tuple(dest.split(".")): value for dest, value in vars(args).items()
            if "." in dest and value is not None}


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(args.subcommand, path=args.config,
                           overrides=_flag_overrides(args))
        outdir = Path(cfg.output.directory)
        t0 = time.monotonic()
        try:
            entries, conv, code = _DISPATCH[args.subcommand][0](cfg)
            outputs = _write(outdir, [e for e in entries if e[1] in cfg.output.formats])
        except (ValueError, RuntimeError, ArithmeticError) as err:
            diag = {"subcommand": args.subcommand,
                    "error": type(err).__name__, "message": str(err),
                    "config": cfg.to_dict()}
            _write(outdir, [("diagnostics.json", "json", diag)])
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
        "versions": {"gapchain": __version__,
                     "python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": np.__version__},
        "outputs": sorted(outputs + [n for n, fmt, _ in entries if fmt is None]),
        "convergence": conv,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write(outdir, [("manifest.json", "json", manifest)])
    for name in manifest["outputs"] + ["manifest.json"]:
        print(outdir / name)
    return code


if __name__ == "__main__":
    sys.exit(main())
