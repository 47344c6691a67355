"""Signal estimators, pole asymptotics, and the crossover sweep driver.

Estimator accuracy is frozen against closed-form synthetics (decaying
cosines with known frequency, rate, and plateau) plus a 100-signal
randomized property.  Physics contracts run at two corners:

  wideband (alpha=1, omega_b=5, omega0=100, omega_c=800)
      crossover scan, golden-rule decay window, alpha=0 limit
  weakpole (alpha=1, omega_b=400, omega0=1.6e5, omega_c=6.4e5)
      pole-formula agreement; alpha/(2 sqrt(omega_b)) = 0.025 puts all
      three asymptotic regimes inside their validity windows (extended)
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapchain import analysis
from gapchain.analysis import (
    PoleRegime,
    SweepResult,
    _peaks,
    _scan_point,
    crossover_scan,
    decay_rate,
    oscillation_frequency,
    point_settings,
    rwa_pole_estimates,
    stationary_value,
    zero_crossing_frequency,
)
from gapchain.chainmap import chain_length_for, map_to_chain
from gapchain.model import ModelParams, spectral_density
from gapchain.mps import EvolutionConfig
from gapchain.rwa import chain_evolve, rwa_coherence, volterra_solve

WIDEBAND = dict(alpha=1.0, omega_b=5.0, omega0=100.0, omega_c=800.0)
REDUCED = dict(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0)
WEAKPOLE = dict(alpha=1.0, omega_b=400.0, omega0=1.6e5, omega_c=6.4e5)


def wideband(**kw):
    return ModelParams(**{**WIDEBAND, **kw})


class TestOscillationFrequency:
    def test_pure_cosine(self):
        t = np.linspace(0.0, 40.0, 8001)
        f = oscillation_frequency((t, np.cos(3.406 * t)))
        assert abs(f - 3.406) / 3.406 < 1e-5

    def test_decaying_cosine_few_cycles(self):
        # 3.26 carrier cycles with a decaying envelope: the regime where
        # a tail-mean detrend would bury the carrier under a DC skirt
        t = np.linspace(0.0, 0.035, 70001)
        f = oscillation_frequency((t, np.exp(-10.0 * t) * np.cos(586.0 * t)))
        assert abs(f - 586.0) / 586.0 < 1e-3

    def test_nonuniform_grid_resampled(self):
        u = np.linspace(0.0, 1.0, 8001)
        t = 40.0 * u ** 1.5
        f = oscillation_frequency((t, np.cos(3.406 * t)))
        assert abs(f - 3.406) / 3.406 < 5e-3

    def test_requires_three_periods(self):
        t = np.linspace(0.0, 3.0, 1500)
        with pytest.raises(ValueError, match="insufficient periods"):
            oscillation_frequency((t, np.cos(math.pi * t)))

    def test_monotone_decay_rejected(self):
        t = np.linspace(0.0, 40.0, 4001)
        with pytest.raises(ValueError, match="insufficient periods"):
            oscillation_frequency((t, np.exp(-0.05 * t)))

    def test_constant_series_rejected(self):
        t = np.linspace(0.0, 10.0, 500)
        with pytest.raises(ValueError, match="series is constant"):
            oscillation_frequency((t, np.full(t.size, 0.7)))

    def test_flat_spectrum_rejected(self):
        # an impulse has an exactly flat magnitude spectrum: no bin can
        # stand 3x above the median
        t = np.linspace(0.0, 40.0, 2048)
        y = np.zeros(t.size)
        y[t.size // 3] = 1.0
        with pytest.raises(ValueError, match="prominence below"):
            oscillation_frequency((t, y))


class TestZeroCrossingFrequency:
    def test_pure_cosine(self):
        t = np.linspace(0.0, 40.0, 8001)
        z = zero_crossing_frequency((t, np.cos(3.406 * t)))
        assert abs(z - 3.406) / 3.406 < 1e-6

    def test_agrees_with_fft_on_decaying_cosine(self):
        t = np.linspace(0.0, 0.035, 70001)
        y = np.exp(-10.0 * t) * np.cos(586.0 * t)
        f = oscillation_frequency((t, y))
        z = zero_crossing_frequency((t, y))
        assert abs(z - f) / f < 0.01

    def test_requires_two_crossings(self):
        t = np.linspace(0.0, 10.0, 500)
        with pytest.raises(ValueError, match="fewer than two zero crossings"):
            zero_crossing_frequency((t, np.exp(-t)))

    # np.hanning(2) is all zeros, so the taper-weighted mean would be 0/0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_refuses_fewer_than_three_samples_without_warning(self, n):
        t = np.arange(float(n))
        with pytest.raises(ValueError, match="series too short"):
            zero_crossing_frequency((t, np.cos(3.0 * t)))


class TestStationaryValue:
    def test_plateau_with_decayed_oscillation(self):
        t = np.linspace(0.0, 12.0, 6001)
        sv = stationary_value((t, np.exp(-t) * np.cos(8.0 * t) + 0.2))
        assert abs(float(sv) - 0.2) < 1e-3
        assert not sv.nonstationary

    def test_plateau_without_oscillation(self):
        t = np.linspace(0.0, 12.0, 6001)
        sv = stationary_value((t, 0.7 + 0.3 * np.exp(-t)))
        assert abs(float(sv) - 0.7) < 1e-4
        assert not sv.nonstationary

    def test_requires_ten_periods(self):
        t = np.linspace(0.0, 40.0, 4001)
        with pytest.raises(ValueError, match="ten periods"):
            stationary_value((t, np.cos(1.0 * t)))

    def test_drift_flagged_nonstationary(self):
        t = np.linspace(0.0, 40.0, 4001)
        sv = stationary_value((t, 0.5 + 0.01 * t))
        assert sv.nonstationary
        assert sv.drift_slope == pytest.approx(0.01, abs=1e-6)
        assert float(sv) == pytest.approx(0.5 + 0.01 * 38.0, abs=0.01)


class TestDecayRate:
    def test_oscillating_envelope(self):
        t = np.linspace(0.0, 12.0, 6001)
        d = decay_rate((t, np.exp(-0.7 * t) * np.cos(10.0 * t)))
        assert abs(d - 0.7) / 0.7 < 0.02

    def test_monotone_amplitude(self):
        t = np.linspace(0.0, 12.0, 6001)
        d = decay_rate((t, np.abs(np.exp(-0.7 * t))))
        assert abs(d - 0.7) / 0.7 < 0.02

    def test_amplitude_series_fits_modulus(self):
        # |A| = e^{-0.7t} decays at 0.7; the population |A|^2 would give
        # 1.4, so a sub-unity result shows the modulus the sweep passes is
        # what is fitted
        t = np.linspace(0.0, 12.0, 6001)
        d = decay_rate((t, np.abs(np.exp((-0.7 + 10.0j) * t))))
        assert d < 1.0
        assert abs(d - 0.7) / 0.7 < 0.02

    def test_plateau_subtracted(self):
        t = np.linspace(0.0, 15.0, 4001)
        d = decay_rate((t, np.exp(-0.8 * t) + 0.3))
        assert abs(d - 0.8) / 0.8 < 0.02

    def test_insufficient_fall_rejected(self):
        t = np.linspace(0.0, 12.0, 6001)
        with pytest.raises(ValueError, match="falls only by"):
            decay_rate((t, np.exp(-0.01 * t) * np.cos(10.0 * t)))

    def test_too_few_points_rejected(self):
        t = np.linspace(0.0, 4.0, 12)
        with pytest.raises(ValueError, match="too few points"):
            decay_rate((t, np.exp(-t)))

    def test_peaks_match_scipy_find_peaks(self):
        # few distinct levels make plateaus common; NaN and +-inf break
        # any difference-based plateau test, and length 0 is included
        from scipy.signal import find_peaks
        rng = np.random.default_rng(7)
        levels = np.array([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf, np.nan])
        for _ in range(4000):
            x = rng.choice(levels[:rng.integers(2, 8)], rng.integers(0, 25))
            assert np.array_equal(_peaks(x), find_peaks(x)[0]), x


class TestNonFiniteSamples:
    """A NaN or an infinity anywhere in the pair is refused by name, not
    measured, and not refused for a reason the bad sample made up."""

    @pytest.mark.parametrize("estimator", [oscillation_frequency,
                                           zero_crossing_frequency,
                                           stationary_value, decay_rate])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["values", "times"])
    def test_refused(self, estimator, bad, where):
        t = np.linspace(0.0, 25.0, 6001)
        y = np.exp(-0.3 * t) * np.cos(8.0 * t) + 0.2
        estimator((t, y))  # the clean series is accepted
        (y if where == "values" else t)[3000] = bad
        with pytest.raises(ValueError, match="non-finite"):
            estimator((t, y))


class TestTimesOutOfOrder:
    """Times that are not strictly increasing are refused, naming the
    first sample out of order; reversed, zero_crossing_frequency once
    returned -3.0 for cos(3t), and shuffled 148.5."""

    @pytest.mark.parametrize("estimator", [oscillation_frequency,
                                           zero_crossing_frequency,
                                           stationary_value, decay_rate])
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_refused(self, estimator, order):
        t = np.linspace(0.0, 25.0, 6001)
        y = np.exp(-0.3 * t) * np.cos(8.0 * t) + 0.2
        estimator((t, y))  # the ordered series is accepted
        rows = (np.arange(t.size)[::-1] if order == "reversed"
                else np.random.default_rng(7).permutation(t.size))
        k = analysis.first_bad_time(t[rows])
        message = (f"times out of order: sample {k} holds {float(t[rows][k])!r} "
                   f"after {float(t[rows][k - 1])!r}, need strictly increasing")
        with pytest.raises(ValueError, match=re.escape(message)):
            estimator((t[rows], y[rows]))


class TestSyntheticProperty:
    """Randomized decaying-cosine signals: y = e^{-rt} cos(ft+p) + c.

    Constraints keep every draw inside the estimators' stated
    preconditions: >= 12 carrier periods (so the plateau estimator's
    10-period gate passes), >= 1.25 e-folds of decay, dense sampling.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        freq=st.floats(3.0, 40.0),
        rate=st.floats(0.05, 0.6),
        phase=st.floats(0.0, 2.0 * math.pi),
        plateau=st.floats(0.0, 0.5),
    )
    def test_estimators_recover_ground_truth(self, freq, rate, phase, plateau):
        t = np.linspace(0.0, 25.0, 6001)
        y = np.exp(-rate * t) * np.cos(freq * t + phase) + plateau
        assert abs(oscillation_frequency((t, y)) - freq) / freq < 1e-3
        assert abs(decay_rate((t, y)) - rate) / rate < 0.05
        # plateau recovery is limited by the un-decayed envelope leaking
        # into the tail mean; 0.20 is the measured worst-case leakage
        # fraction over this signal family
        tol = 2e-3 + 0.30 * math.exp(-rate * 22.5)
        assert abs(float(stationary_value((t, y))) - plateau) < tol


class TestPoleEstimates:
    def test_zero_splitting_limit_value(self):
        est = rwa_pole_estimates(wideband(delta=0.3))
        assert est.regime is PoleRegime.DELTA_TO_ZERO
        w = math.sqrt(100.0 / math.pi) - math.sqrt(5.0)
        assert est.s_plus == pytest.approx(1j * w, abs=1e-12)
        assert abs(w - 3.4058) < 5e-4
        assert est.s_minus == -est.s_plus
        assert est.gamma is None

    def test_large_splitting_value(self):
        p = wideband(delta=100.0)
        est = rwa_pole_estimates(p)
        assert est.regime is PoleRegime.LARGE
        assert est.s_plus == pytest.approx(10.0 + 100.0j, abs=1e-10)
        assert est.s_minus == pytest.approx(10.0 - 100.0j, abs=1e-10)
        assert est.gamma == pytest.approx(
            float(spectral_density(p, np.array([100.0]))[0]), rel=1e-12)

    def test_small_finite_value_above_band(self):
        est = rwa_pole_estimates(wideband(delta=8.0))
        assert est.regime is PoleRegime.SMALL_FINITE
        expect = 8.0 - math.sqrt(100.0 / math.pi) + math.sqrt(3.0)
        assert est.s_plus == pytest.approx(1j * expect, abs=1e-12)
        assert est.s_minus == -est.s_plus

    def test_small_finite_damped_below_band(self):
        # below the band edge the square root turns real-negative and
        # the principal branch moves damping into Re s
        est = rwa_pole_estimates(wideband(delta=3.0))
        assert est.regime is PoleRegime.SMALL_FINITE
        assert est.s_plus.real == pytest.approx(-math.sqrt(2.0), abs=1e-12)
        assert est.s_plus.imag == pytest.approx(
            3.0 - math.sqrt(100.0 / math.pi), abs=1e-12)

    def test_regime_thresholds(self):
        assert rwa_pole_estimates(wideband(delta=0.49)).regime \
            is PoleRegime.DELTA_TO_ZERO
        assert rwa_pole_estimates(wideband(delta=0.51)).regime \
            is PoleRegime.SMALL_FINITE
        assert rwa_pole_estimates(wideband(delta=16.9)).regime \
            is PoleRegime.SMALL_FINITE
        assert rwa_pole_estimates(wideband(delta=17.0)).regime \
            is PoleRegime.LARGE

    def test_frequency_dip_is_interior(self):
        grid = np.linspace(0.6, 16.5, 160)
        freqs = [abs(rwa_pole_estimates(wideband(delta=d)).s_plus.imag)
                 for d in grid]
        k = int(np.argmin(freqs))
        assert 0 < k < len(grid) - 1
        assert freqs[k] < freqs[0] and freqs[k] < freqs[-1]
        assert 4.0 < grid[k] < 7.0

    def test_oscillatory_pole_set_closed_under_reflection(self):
        for delta in (0.3, 8.0, 100.0):
            est = rwa_pole_estimates(wideband(delta=delta))
            if est.s_plus.real != 0.0 and est.regime is not PoleRegime.LARGE:
                continue
            poles = {est.s_plus, est.s_minus}
            if est.s_plus.real == 0.0:
                reflected = {-s.conjugate() for s in poles}
                assert reflected == poles


class TestPhysicsContracts:
    def test_decoupled_frequency_equals_splitting(self):
        p = wideband(delta=4.0, alpha=0.0)
        series = volterra_solve(p, t_max=6.0, dt=1e-3)
        f = oscillation_frequency((series.times, rwa_coherence(series)))
        assert abs(f - 4.0) / 4.0 < 1e-3

    def test_decay_rate_matches_golden_rule_window(self):
        # deep above the crossover the amplitude envelope decays at the
        # golden-rule rate J(delta); frozen regression value alongside
        p = wideband(delta=15.0)
        series = volterra_solve(p, t_max=6.0, dt=1e-3)
        g = decay_rate((series.times, np.abs(series.values)))
        J = float(spectral_density(p, np.array([15.0]))[0])
        assert abs(g - J) / J < 0.30
        assert g == pytest.approx(2.7126, abs=0.02)

    def test_stationary_population_negligible_above_crossover(self):
        p = wideband(delta=30.0)
        t_max = 30.0 / p.omega_s
        n = chain_length_for(p, t_max)
        series = chain_evolve(map_to_chain(p, n), 30.0, t_max, samples=2001)
        assert float(stationary_value((series.times, series.population()))) < 1e-5


@pytest.fixture(scope="module")
def wideband_scan():
    base = ModelParams(**WIDEBAND)
    return SweepResult.collect(crossover_scan(
        np.arange(10.0, 31.0, 4.0), base, point_settings(("rwa",), base, {})))


class TestCrossoverScan:
    def test_population_decreases_with_splitting(self, wideband_scan):
        pops = wideband_scan.columns["stationary_pop_rwa"]
        assert np.all(np.isfinite(pops))
        assert np.all(np.diff(pops) < 0)

    def test_population_small_above_crossover(self, wideband_scan):
        p = ModelParams(**WIDEBAND)
        threshold = p.omega_b + p.omega_s + 0.5 * p.alpha ** 2
        pops = wideband_scan.columns["stationary_pop_rwa"]
        grid = wideband_scan.delta_grid
        assert np.all(pops[grid >= threshold] < 0.05)
        assert pops[0] > 0.05  # bound-state side retains population

    def test_frequencies_increase_above_crossover(self, wideband_scan):
        freqs = wideband_scan.columns["freq_rwa"][1:]
        assert np.all(np.isfinite(freqs))
        assert np.all(np.diff(freqs) > 0)

    def test_failed_points_leave_nan_and_manifest_reason(self, wideband_scan):
        # the slow bound-state oscillation at the first point holds under
        # three periods in the default window: refused, not guessed
        assert math.isnan(wideband_scan.columns["freq_rwa"][0])
        reason = wideband_scan.manifests[0]["failures"]["freq_rwa"]
        assert "insufficient periods" in reason

    def test_every_nan_has_a_recorded_failure(self, wideband_scan):
        keys = ("stationary_pop_rwa", "freq_rwa", "decay_rwa")
        for i in range(wideband_scan.delta_grid.size):
            for key in keys:
                col = wideband_scan.columns[key]
                if math.isnan(col[i]):
                    assert key in wideband_scan.manifests[i]["failures"]

    def test_manifest_echoes_run_configuration(self, wideband_scan):
        p = ModelParams(**WIDEBAND)
        m = wideband_scan.manifests[0]
        assert m["delta"] == 10.0
        assert m["methods"] == ["rwa"]
        assert m["rwa"]["t_max"] == pytest.approx(30.0 / p.omega_s)
        assert m["rwa"]["samples"] == 2001
        assert m["rwa"]["chain_sites"] > 0

    def test_rwa_point_reads_the_named_observables(self):
        # the row is the estimators on an independent chain run's arrays:
        # (t, |A|^2) for the plateau, (t, Re A_lab) for the frequency and
        # (t, |A|) for the decay
        base = ModelParams(**WIDEBAND)
        c = map_to_chain(base, chain_length_for(base, 1.5))
        settings = {"methods": ["rwa"], "rwa": {"t_max": 1.5, "samples": 801}}
        _, row, manifest = _scan_point(20.0, base, settings, {1.5: c})
        assert manifest["failures"] == {}
        a = chain_evolve(c, 20.0, 1.5, samples=801).to_lab()
        assert row["stationary_pop_rwa"] == float(
            stationary_value((a.times, np.abs(a.values) ** 2)))
        assert row["freq_rwa"] == oscillation_frequency((a.times, a.values.real))
        assert row["decay_rwa"] == decay_rate((a.times, np.abs(a.values)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            point_settings(("rwa", "exact"), ModelParams(**WIDEBAND), {})

    def test_empty_grid(self):
        base = ModelParams(**WIDEBAND)
        res = SweepResult.collect(crossover_scan(
            [], base, point_settings(("rwa",), base, {})))
        assert res.delta_grid.size == 0
        assert res.columns["stationary_pop_rwa"].size == 0

    def test_full_method_requires_evolution_config(self):
        with pytest.raises(ValueError, match="EvolutionConfig"):
            point_settings(("full",), ModelParams(**WIDEBAND), {})

    def test_unset_rwa_values_take_their_defaults(self):
        base = ModelParams(**WIDEBAND)
        settings = point_settings(("rwa",), base,
                                  {"rwa": {"t_max": None, "samples": 801}})
        assert settings["rwa"] == {"t_max": 30.0 / base.omega_s, "samples": 801}

    def test_parallel_jobs_match_serial(self):
        base = ModelParams(**WIDEBAND)
        settings = point_settings(("rwa",), base, {"rwa": {"t_max": 1.5, "samples": 801}})
        serial = SweepResult.collect(crossover_scan([20.0, 30.0], base, settings))
        parallel = SweepResult.collect(crossover_scan([20.0, 30.0], base, settings,
                                                      jobs=2))
        for name in ("stationary_pop_rwa", "freq_rwa", "decay_rwa"):
            assert np.array_equal(serial.columns[name],
                                  parallel.columns[name], equal_nan=True)
        assert serial.manifests == parallel.manifests

    def test_full_method_runs_and_reports(self, monkeypatch):
        base = ModelParams(**REDUCED)
        fc = EvolutionConfig(t_max=0.4, dt=2e-3, d_b=4, chi_max=16,
                             svd_threshold=1e-8, sample_stride=5, mode="FULL")
        runs = []
        mps_evolve = analysis.mps_evolve

        def counted(c, cfg, atom_state, delta):
            runs.append(atom_state)
            return mps_evolve(c, cfg, atom_state, delta)

        monkeypatch.setattr(analysis, "mps_evolve", counted)
        res = SweepResult.collect(crossover_scan(
            [3.0], base, point_settings(("full",), base, {"full": fc})))
        # one run serves both: the population is its |e> branch's
        assert runs == ["plus_superposition"]
        assert res.columns["stationary_pop_full"][0] == pytest.approx(
            0.584, abs=0.03)
        m = res.manifests[0]
        # the point records the whole config it ran
        assert m["full"] == {"t_max": 0.4, "dt": 2e-3, "d_b": 4,
                             "chi_max": 16, "svd_threshold": 1e-8,
                             "sample_stride": 5, "mode": "FULL",
                             "chain_sites": 70}
        # the window holds about two periods of the coherence: refused
        assert math.isnan(res.columns["freq_full"][0])
        assert "insufficient periods" in m["failures"]["freq_full"]
        assert list(m["failures"]) == ["freq_full"]

    def test_unsorted_grid_is_sorted(self):
        base = ModelParams(**WIDEBAND)
        res = SweepResult.collect(crossover_scan([30.0, 18.0], base, point_settings(
            ("rwa",), base, {"rwa": {"t_max": 1.5, "samples": 801}})))
        assert list(res.delta_grid) == [18.0, 30.0]


@pytest.mark.extended
class TestPoleFormulaAgreement:
    """Measured oscillation frequency vs the asymptotic pole formulas.

    Corner: alpha=1, omega_b=400, omega0=1.6e5 (all three regimes valid,
    alpha/(2 sqrt(omega_b)) = 0.025).  Declared exclusion window around
    the frequency dip: [0.05, 1.5] * omega_b = [20, 600], covering the
    dip near alpha*sqrt(omega0/pi) = 225.7 where no asymptotic formula
    applies.  Step-halving self-consistency of the solver was validated
    once at delta=800 with this dt; the scan reuses that step size.
    """

    WINDOW = (20.0, 600.0)
    POINTS = [  # (delta, t_max) chosen at >= 3.5 carrier cycles
        (2.0, 0.13),
        (800.0, 0.035),
        (2500.0, 0.0085),
        (5000.0, 0.005),
    ]

    def test_measured_frequency_within_ten_percent(self):
        for delta, t_max in self.POINTS:
            assert not (self.WINDOW[0] <= delta <= self.WINDOW[1])
            p = ModelParams(delta=delta, **WEAKPOLE)
            est = rwa_pole_estimates(p)
            series = volterra_solve(p, t_max=t_max, dt=5e-7, self_check=False)
            trace = (series.times, rwa_coherence(series))
            f = oscillation_frequency(trace)
            z = zero_crossing_frequency(trace)
            predicted = abs(est.s_plus.imag)
            assert abs(f - predicted) / predicted < 0.10, (delta, f, predicted)
            assert abs(z - f) / f < 0.01  # two estimators agree on the data
