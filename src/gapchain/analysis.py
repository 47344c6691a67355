"""Time-series measurement and parameter sweeps.

Every estimator reads one (times, values) pair of real samples and
refuses (ValueError) a pair holding a NaN or an infinity.  The caller
names the observable: the sweep passes |A|^2 to the stationary value,
the coherence Re A_lab to the frequency and |A| to the decay rate.

A detuning sweep (crossover_scan) measures the columns named in
SWEEP_COLUMNS at every point and yields each point as it finishes;
SweepResult.collect assembles points into one array per name, and the
CLI writes the same names as its CSV columns.
"""

import cmath
import copy
import dataclasses
import math
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chainmap import chain_length_for, map_to_chain
from .model import ModelParams, spectral_density
from .mps import EvolutionConfig
from .mps import evolve as mps_evolve
from .rwa import chain_evolve, rwa_coherence

__all__ = [
    "PoleRegime",
    "PoleEstimate",
    "StationaryEstimate",
    "SweepResult",
    "SWEEP_COLUMNS",
    "oscillation_frequency",
    "zero_crossing_frequency",
    "stationary_value",
    "decay_rate",
    "rwa_pole_estimates",
    "point_settings",
    "crossover_scan",
]


def _signal(pair):
    """(times, values) as float arrays; ValueError on a non-finite sample."""
    times, values = (np.asarray(a, dtype=float) for a in pair)
    bad = sum(np.count_nonzero(~np.isfinite(a)) for a in (times, values))
    if bad:
        raise ValueError(f"non-finite samples: the series holds {bad} NaN or inf entries")
    return times, values


def _dominant_peak(times, values):
    """FFT peak (angular frequency, bin index); raises when absent.

    Detrends by the taper-weighted mean (which zeroes the DC bin
    exactly; a tail mean is phase-biased when the tail holds under a
    period), applies a Hann taper, zero-pads 8x, and refines the
    dominant bin with parabolic interpolation on the log magnitude.
    Bins below two cycles per window are excluded: no peak there could
    ever satisfy the three-period precondition, and the skirt of any
    residual slow trend lands exactly there.
    """
    if times.size < 8:
        raise ValueError("no dominant peak: series too short")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-6, atol=1e-12 * abs(dt)):
        # estimators assume a uniform grid; resample linearly
        uniform = np.linspace(times[0], times[-1], times.size)
        values = np.interp(uniform, times, values)
        times = uniform
        dt = times[1] - times[0]
    n = times.size
    window = np.hanning(n)
    resid = values - np.sum(values * window) / np.sum(window)
    scale = np.max(np.abs(resid))
    if scale < 1e-13 * max(1.0, np.max(np.abs(values))):
        raise ValueError("no dominant peak: series is constant")
    spec = np.abs(np.fft.rfft(resid * window, n=8 * n))
    freqs = 2.0 * math.pi * np.arange(spec.size) / (8 * n * dt)
    span = times[-1] - times[0]
    spec[freqs < 2.0 * (2.0 * math.pi / span)] = 0.0
    k = int(np.argmax(spec))
    # spec has 4n + 1 points, so its median is the middle order statistic
    # (np.median would import numpy.ma, about 20 ms, on its first call)
    median = np.partition(spec, spec.size // 2)[spec.size // 2]
    if k == 0 or spec[k] < 3.0 * median:
        raise ValueError("no dominant peak: prominence below 3x spectral median")
    if 0 < k < spec.size - 1 and spec[k - 1] > 0 and spec[k + 1] > 0:
        la, lb, lc = np.log(spec[k - 1: k + 2])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    omega = 2.0 * math.pi * (k + shift) / (8 * n * dt)
    return omega, k


def oscillation_frequency(signal) -> float:
    """Dominant angular frequency of a (times, values) oscillation.

    Requires at least three full periods inside the window and a peak
    standing 3x above the spectral median.
    """
    times, values = _signal(signal)
    omega, _ = _dominant_peak(times, values)
    span = times[-1] - times[0]
    if span * omega < 3.0 * 2.0 * math.pi:
        raise ValueError(
            f"insufficient periods: window holds {span * omega / (2 * math.pi):.2f} "
            f"cycles of the detected oscillation, need >= 3")
    return omega


def zero_crossing_frequency(signal) -> float:
    """Cross-check estimator: pi over the mean zero-crossing spacing."""
    times, values = _signal(signal)
    if values.size < 3:  # np.hanning(2) is all zeros: the mean below would be 0/0
        raise ValueError("insufficient periods: series too short")
    w = np.hanning(values.size)
    resid = values - np.sum(values * w) / np.sum(w)
    sign = np.sign(resid)
    idx = np.nonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0))[0]
    if idx.size < 2:
        raise ValueError("insufficient periods: fewer than two zero crossings")
    t1, t2 = times[idx], times[idx + 1]
    v1, v2 = resid[idx], resid[idx + 1]
    crossings = t1 - v1 * (t2 - t1) / (v2 - v1)
    return math.pi / float(np.mean(np.diff(crossings)))


class StationaryEstimate(float):
    """Mean of the final 10% of a series; float with drift diagnostics."""

    def __new__(cls, value, drift_slope, nonstationary):
        obj = super().__new__(cls, value)
        obj.drift_slope = drift_slope
        obj.nonstationary = nonstationary
        return obj


def stationary_value(signal) -> StationaryEstimate:
    """Plateau estimate from the final 10% of the window.

    The tail-drift slope is reported alongside; the estimate is flagged
    non-stationary when the extrapolated drift over the whole window
    exceeds 0.05.  Errors out if a resolved oscillation (>= 3 cycles)
    has fewer than 10 periods in the window.
    """
    times, values = _signal(signal)
    span = times[-1] - times[0]
    try:
        omega = oscillation_frequency((times, values))
    except ValueError:
        omega = None
    if omega is not None and span < 10.0 * 2.0 * math.pi / omega:
        raise ValueError(
            "window shorter than ten periods of the detected oscillation")
    n_tail = max(times.size // 10, 2)
    t_tail, v_tail = times[-n_tail:], values[-n_tail:]
    slope = float(np.polyfit(t_tail, v_tail, 1)[0])
    return StationaryEstimate(float(v_tail.mean()), slope,
                              abs(slope) * span > 0.05)


def _peaks(x):
    """Indices of the local maxima of x, plateaus at their middle sample.

    Same result as scipy.signal.find_peaks(x) with default arguments.
    Built on comparisons, not differences: inf - inf is NaN, so a
    difference-based test would miss a plateau at inf.
    """
    a, b = x[:-1], x[1:]
    j = np.flatnonzero(a != b)
    k = np.flatnonzero((b[j[:-1]] > a[j[:-1]]) & (b[j[1:]] < a[j[1:]]))
    return (j[k] + 1 + j[k + 1]) // 2


def decay_rate(signal) -> float:
    """Envelope decay rate from a log-linear fit.

    Oscillating signals are fitted through their envelope peaks; a
    monotone decay is fitted over the stretch one to three e-folds below
    its maximum.  Either way the envelope must fall by at least a factor
    e across the fitted stretch.
    """
    times, values = _signal(signal)
    resid = np.abs(values - values[-max(values.size // 10, 1):].mean())
    peaks = _peaks(resid)
    peaks = peaks[resid[peaks] > 1e-12 * resid.max()]
    if peaks.size >= 3:
        t_p, v_p = times[peaks], resid[peaks]
    else:
        # no oscillation to take an envelope of: fit the decay itself,
        # skipping the first e-fold (short-time transient) and stopping
        # three e-folds down (before any long-time power-law plateau)
        start = int(np.argmax(resid))
        top = resid[start]
        sel = slice(start, None)
        keep = (resid[sel] < top * math.exp(-1.0)) \
            & (resid[sel] > top * math.exp(-3.0))
        t_p, v_p = times[sel][keep], resid[sel][keep]
        if t_p.size < 8:
            raise ValueError("insufficient decay: too few points in the "
                             "fit window")
    if v_p[0] < math.e * v_p[-1]:
        raise ValueError(
            f"insufficient decay: envelope falls only by {v_p[0] / v_p[-1]:.2f}x, "
            f"need >= e")
    slope = np.polyfit(t_p, np.log(v_p), 1)[0]
    return float(-slope)


class PoleRegime(str, Enum):
    DELTA_TO_ZERO = "delta_to_zero"
    SMALL_FINITE = "small_finite"
    LARGE = "large"


@dataclass(frozen=True)
class PoleEstimate:
    """Asymptotic resolvent-pole locations of the weak-coupling theory.

    |Im s| is the oscillation frequency, |Re s| the damping rate (the
    large-splitting formula is kept with its printed positive sign).
    """

    regime: PoleRegime
    s_plus: complex
    s_minus: complex
    gamma: float | None = None  # golden-rule rate, large regime only


def rwa_pole_estimates(p: ModelParams) -> PoleEstimate:
    """Pole asymptotics in the regime selected by the splitting size.

    Regime thresholds (ours): the environment scale is
    E = max(w_b, alpha*sqrt(w0/pi)); delta < 0.1 w_b -> delta_to_zero,
    delta > 3 E -> large, else small_finite.
    """
    e_env = p.e_en_approx
    scale = max(p.omega_b, e_env)
    if p.delta > 3.0 * scale:
        s_plus = 1j * p.delta + p.alpha * math.sqrt(p.delta)
        s_minus = -1j * p.delta + p.alpha * math.sqrt(p.delta)
        return PoleEstimate(PoleRegime.LARGE, s_plus, s_minus,
                            gamma=spectral_density(p, np.array([p.delta]))[0])
    if p.delta < 0.1 * p.omega_b:
        w = p.alpha * (math.sqrt(p.omega0 / math.pi)
                       - p.alpha * math.sqrt(p.omega_b))
        return PoleEstimate(PoleRegime.DELTA_TO_ZERO, 1j * w, -1j * w)
    root = cmath.sqrt(complex(p.delta - p.omega_b, 0.0))
    s_plus = 1j * (p.delta - e_env + p.alpha * root)
    return PoleEstimate(PoleRegime.SMALL_FINITE, s_plus, -s_plus)


SWEEP_COLUMNS = ("stationary_pop_rwa", "stationary_pop_full",
                 "freq_rwa", "freq_full", "decay_rwa")


@dataclass
class SweepResult:
    """Per-delta measurements of a crossover scan, one array per name in
    SWEEP_COLUMNS; NaN marks absent or failed entries, with the reason
    kept in the point's manifest."""

    delta_grid: np.ndarray
    columns: dict
    manifests: list

    def __post_init__(self):
        if np.any(np.diff(self.delta_grid) <= 0):
            raise ValueError("delta_grid must be strictly increasing")

    @classmethod
    def collect(cls, points):
        """Sort (delta, row, manifest) points by delta and stack the rows."""
        points = sorted(points, key=lambda point: point[0])
        return cls(np.array([d for d, _, _ in points], dtype=float),
                   {k: np.array([row[k] for _, row, _ in points], dtype=float)
                    for k in SWEEP_COLUMNS},
                   [manifest for _, _, manifest in points])


def _measure(row, failures, column, estimator, signal):
    """row[column] = estimator(signal), or the refusal under failures."""
    try:
        row[column] = float(estimator(signal))
    except ValueError as err:
        failures[column] = str(err)


def _map_chains(base_params, t_maxes):
    """{t_max: light-cone chain, or the message of the error mapping it raised}.

    delta does not enter the mapping, so every point of a sweep shares
    the chain of each distinct t_max, mapped once in the calling process
    and sent to the workers.
    """
    chains = {}
    for t_max in dict.fromkeys(t_maxes):
        try:
            chains[t_max] = map_to_chain(base_params, chain_length_for(base_params, t_max))
        except (ValueError, RuntimeError) as err:
            chains[t_max] = str(err)
    return chains


def _chain(chains, t_max):
    """The chain mapped for t_max; ValueError with the mapping's message
    when mapping it failed."""
    chain = chains[t_max]
    if isinstance(chain, str):
        raise ValueError(chain)
    return chain


def point_settings(methods, base_params, cfgs):
    """What a sweep point's numbers depend on besides the model and delta,
    as its manifest records them and _scan_point runs them: the sorted
    methods, rwa's {t_max: 30 / omega_s, samples: 2001} updated by
    cfgs["rwa"], and every field of cfgs["full"], an EvolutionConfig."""
    settings = {"methods": sorted(methods)}
    if "rwa" in methods:
        settings["rwa"] = {"t_max": 30.0 / max(base_params.omega_s, 1e-12),
                           "samples": 2001, **cfgs.get("rwa", {})}
    if "full" in methods:
        fc = cfgs.get("full")
        if not isinstance(fc, EvolutionConfig):
            raise ValueError("cfgs['full'] must be an EvolutionConfig "
                             "when the full method is requested")
        settings["full"] = dataclasses.asdict(fc)
    return settings


def _scan_point(delta, base_params, settings, chains):
    """One sweep point; returns (delta, row dict, manifest dict).

    settings is point_settings's record, which the manifest copies and the
    point runs from; chains is _map_chains over the methods' t_max.
    """
    p = dataclasses.replace(base_params, delta=delta)
    row = dict.fromkeys(SWEEP_COLUMNS, math.nan)
    failures = {}
    manifest = {"delta": delta, **copy.deepcopy(settings), "failures": failures}

    if "rwa" in manifest:
        t_max, samples = manifest["rwa"]["t_max"], manifest["rwa"]["samples"]
        try:
            c = _chain(chains, t_max)
            series = chain_evolve(c, p.delta, t_max, samples=samples)
            manifest["rwa"]["chain_sites"] = c.N
            t, modulus = series.times, np.abs(series.values)
            _measure(row, failures, "stationary_pop_rwa", stationary_value,
                     (t, modulus ** 2))
            _measure(row, failures, "freq_rwa", oscillation_frequency,
                     (t, rwa_coherence(series)))
            # |A| itself decays at the golden-rule rate J(delta), at leading order
            _measure(row, failures, "decay_rwa", decay_rate, (t, modulus))
        except (ValueError, RuntimeError) as err:
            failures["rwa"] = str(err)

    if "full" in manifest:
        fc = EvolutionConfig(**settings["full"])
        try:
            c = _chain(chains, fc.t_max)
            manifest["full"]["chain_sites"] = c.N
            # the coupling keeps the |e> branch apart, so one run gives both
            ts = mps_evolve(c, fc, "plus_superposition", p.delta)
            _measure(row, failures, "stationary_pop_full", stationary_value,
                     (ts.times, ts.pop_excited))
            _measure(row, failures, "freq_full", oscillation_frequency,
                     (ts.times, ts.sigma_x.real))
        except (ValueError, RuntimeError) as err:
            failures["full"] = str(err)

    return delta, row, manifest


def crossover_scan(delta_grid, methods, base_params: ModelParams,
                   cfgs=None, jobs=1):
    """Sweep the emitter splitting, yielding each point as it finishes.

    methods: subset of {"rwa", "full"}.  cfgs: {"rwa": {t_max, samples},
    "full": EvolutionConfig}; a full point is one plus_superposition run.
    Each point is a (delta, row, manifest) triple: in ascending delta with
    jobs=1, in completion order with more workers.  SweepResult.collect
    assembles points into arrays.  The chain of each method's t_max is
    mapped once, here, and sent to the workers.  Per-point failures (a
    failed mapping included) are recorded in the manifest and leave NaN
    entries; the scan continues.  Points lost to a dead worker (a signal,
    the OOM killer) come back failed under "worker".
    """
    cfgs = cfgs or {}
    unknown = set(methods) - {"rwa", "full"}
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    settings = point_settings(methods, base_params, cfgs)
    t_maxes = [settings[m]["t_max"] for m in ("rwa", "full") if m in methods]
    grid = sorted(float(d) for d in delta_grid)
    if not grid:
        return
    chains = _map_chains(base_params, t_maxes)
    if jobs > 1 and len(grid) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_scan_point, d, base_params, settings, chains): d
                       for d in grid}
            try:
                for fut in as_completed(futures):
                    try:
                        point = fut.result()
                    except BrokenExecutor as err:
                        point = (futures[fut], dict.fromkeys(SWEEP_COLUMNS, math.nan),
                                 {"delta": futures[fut], "methods": settings["methods"],
                                  "failures": {"worker": str(err)}})
                    yield point
            finally:  # a failed or abandoned scan starts no further point
                pool.shutdown(cancel_futures=True)
    else:
        for d in grid:
            yield _scan_point(d, base_params, settings, chains)
