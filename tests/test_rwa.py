"""Exact RWA solvers: Volterra stepping, resolvent inversion, the Chebyshev
chain propagator, the regime classification, and the asymptotic closed form.

Cross-validation corners:
  reduced  (alpha=1, omega_b=2, omega0=20, omega_c=100)  - cheap three-solver runs
  wideband (alpha=1, omega_b=5, omega0=100, omega_c=800) - frozen inversion truths
  shifted  (alpha=0.2, omega_b=1, omega0=1e4)            - deep asymptotic regime
  midscale (alpha=0.5, omega_b=1, omega0=200)            - Richardson-Volterra oracle
"""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import rwa
from gapchain.chainmap import ChainCoefficients, chain_length_for, dct3, map_to_chain
from gapchain.model import ModelParams
from gapchain.rwa import (
    AmplitudeSeries,
    _ray_term,
    _second_sheet_zeros,
    chain_evolve,
    chain_state_amplitudes,
    cut_invert,
    find_bound_pole,
    laplace_invert,
    ray_invert,
    rwa_coherence,
    volterra_solve,
)
from oracles import (
    _branch_integral,
    analytic_longtime,
    bound_pole_by_brentq,
    classify_regime,
    complex_quad,
    delta_L_tilde,
    laplace_integral,
    stationary_population,
)

REDUCED = dict(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0)
WIDEBAND = dict(alpha=1.0, omega_b=5.0, omega0=100.0, omega_c=800.0)
BROAD = dict(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4)
# the broad corner at alpha = 1, with a bound pole 1.6e-7 above the hard band top
HARD_TOP = ModelParams(**{**BROAD, "alpha": 1.0}, delta=39960.999)
# the CI corner, t_max 6.67: Volterra's check halves the default step 0.05/omega0 once
CI_CORNER = ModelParams(alpha=1.0, omega_b=1.0, omega0=3.0, omega_c=12.0, delta=13.13)


def pole_residual(p, nu):
    """|g/g'|/|nu| at the real-axis point s = -i nu: the Newton distance to the root."""
    s = rwa._OFF_CUT - 1j * nu
    g = complex(rwa.ghat(p, s))
    return abs((g.imag - nu) / (-rwa.ghat_slope(p, s, g).real - 1.0)) / abs(nu)


def reduced(**kw):
    return ModelParams(**{**REDUCED, **kw})


def wideband(**kw):
    return ModelParams(**{**WIDEBAND, **kw})


def midscale(offset):
    """alpha=0.5, omega0=200 corner with delta = omega_b + omega_s + offset."""
    alpha, omega_b, omega0, omega_c = 0.5, 1.0, 200.0, 800.0
    omega_s = 2.0 * alpha * np.sqrt(omega0 / np.pi)
    return ModelParams(alpha=alpha, omega_b=omega_b, omega0=omega0,
                       omega_c=omega_c, delta=omega_b + omega_s + offset)


def count_calls(monkeypatch, name):
    """Route rwa.<name> through a counter; the returned list grows by one per call."""
    calls, fn = [], getattr(rwa, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(rwa, name, counted)
    return calls


def richardson_volterra(p, t_max, dt=5e-4):
    """O(dt^4) reference by Richardson extrapolation of the O(dt^2) stepper."""
    coarse = volterra_solve(p, t_max, dt=dt, self_check=False)
    fine = volterra_solve(p, t_max, dt=dt / 2.0, self_check=False)
    return coarse.times, (4.0 * fine.values[::2] - coarse.values) / 3.0


class TestAmplitudeSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AmplitudeSeries(np.zeros(3), np.zeros(2), 0.0)

    # a series is checked when it is made: no record escapes the checks
    def test_contractivity_check(self):
        t = np.array([0.0, 1.0])
        AmplitudeSeries(t, np.array([1.0, 0.5 + 0.1j]), 0.0)
        AmplitudeSeries(t, np.array([1.0, 1.0 + 1e-6]), 0.0)  # within the slack
        with pytest.raises(ValueError, match=r"^contractivity violated: \|A\(1\)\| = 1\.2$"):
            AmplitudeSeries(t, np.array([1.0, 1.2]), 0.0)

    def test_flagged_points_are_exempt(self):
        t = np.array([0.0, 1.0])
        AmplitudeSeries(t, np.array([1.0, 1.2]), 0.0, flags=np.array([False, True]))
        with pytest.raises(ValueError, match="contractivity"):
            AmplitudeSeries(t, np.array([1.0, 1.2]), 0.0, flags=np.array([True, False]))

    def test_initial_value_check(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="A\\(0\\)"):
            AmplitudeSeries(t, np.array([0.9, 0.5]), 0.0)
        AmplitudeSeries(t[1:], np.array([0.5]), 0.0)  # no t = 0, nothing to check

    def test_frame_round_trip(self):
        t = np.linspace(0.0, 2.0, 9)
        vals = np.exp(-0.3 * t) * np.exp(0.7j * t)
        s = AmplitudeSeries(t, vals, delta=1.3)
        lab = s.to_lab()
        np.testing.assert_allclose(lab * np.exp(1j * s.delta * s.times), vals, atol=1e-14)
        np.testing.assert_allclose(np.abs(lab) ** 2, s.population(), atol=1e-14)


class TestVolterra:
    def test_decoupled_amplitude_is_constant(self):
        s = volterra_solve(reduced(alpha=0.0, delta=2.0), 1.0, dt=1e-3)
        assert np.max(np.abs(s.values - 1.0)) == 0.0

    def test_short_time_quadratic_decay(self):
        # A(t) = 1 - G(0) t^2/2 + O(t^3) with G(0) the kernel amplitude
        p = wideband(delta=1.0)
        tm = 1e-3 / p.omega0
        s = volterra_solve(p, tm, dt=tm / 8.0, self_check=False)
        taylor = 1.0 - p.omega2 * s.times**2 / 2.0
        assert np.max(np.abs(s.values - taylor)) < 1e-6

    def test_step_size_validation(self):
        p = reduced(delta=1.0)
        with pytest.raises(ValueError):
            volterra_solve(p, 1.0, dt=0.2 / p.omega0)
        with pytest.raises(ValueError):
            volterra_solve(p, -1.0)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_max_refused(self, t_max):
        with pytest.raises(ValueError, match=rf"^t_max must be finite, got {t_max!r}$"):
            volterra_solve(reduced(delta=1.0), t_max)

    def test_step_size_rejection_fires_at_coarse_dt(self):
        # at the dt cap the halving check moves |A|^2 by >= 1e-4
        with pytest.raises(RuntimeError, match="step-size rejection"):
            volterra_solve(reduced(delta=1.0), 3.0, dt=5e-3)

    def test_default_step_passes_self_check(self):
        s = volterra_solve(reduced(delta=1.0), 3.0)
        assert s.checks["self_check"] == "passed" and s.checks["halvings"] == 0

    def test_self_check_at_any_t_max(self):
        # t_max / dt = 1000.6 rounds to 1001 steps, and 2001.2 half steps to
        # 2001: the check compares the half steps of the coarse run's span
        p = wideband(delta=3.0)
        s = volterra_solve(p, 1000.6 * 0.05 / p.omega0)
        assert s.times.size == 1002

    def test_default_step_halves_until_the_check_passes(self):
        # 0.05/omega0 moves |A|^2 by 1.46e-4 when halved here, and its half
        # passes: the default gives way to the half step's run, and returns
        # its extrapolation with the quarter step's, bit for bit
        p = CI_CORNER
        with pytest.raises(RuntimeError, match="step-size rejection"):
            volterra_solve(p, 6.67, dt=0.05 / 3.0)
        s = volterra_solve(p, 6.67)
        times, values = richardson_volterra(p, 6.67, dt=0.05 / 3.0 / 2.0)
        assert np.array_equal(s.times, times) and np.array_equal(s.values, values)
        assert s.checks.keys() == {"dt", "self_check", "halvings", "step_deviation"}
        assert s.checks["dt"] == 0.05 / 3.0 / 2.0 and s.checks["self_check"] == "passed"
        assert s.checks["halvings"] == 1 and s.checks["step_deviation"] < 1e-4

    # the CI corner at an explicit step, a bound state at the band edge,
    # in-band decay, the wideband corner, and a decoupled emitter
    @pytest.mark.parametrize("p, t_max, dt", [
        (CI_CORNER, 6.67, 0.05 / 3.0 / 4.0),
        (reduced(delta=2.0), 2.0, 2.5e-3), (reduced(delta=30.0), 1.0, 1e-3),
        (wideband(delta=3.0), 0.3, 5e-4), (reduced(alpha=0.0, delta=2.0), 1.0, 1e-3),
    ], ids=["ci", "edge", "band", "wideband", "decoupled"])
    def test_checked_run_is_the_richardson_extrapolation(self, p, t_max, dt):
        s = volterra_solve(p, t_max, dt=dt)
        times, values = richardson_volterra(p, t_max, dt)
        assert np.array_equal(s.times, times) and np.array_equal(s.values, values)
        assert s.checks["halvings"] == 0 and s.checks["dt"] == dt
        unchecked = volterra_solve(p, t_max, dt=dt, self_check=False)
        assert unchecked.checks == {"dt": dt, "self_check": "skipped"}

    def test_one_stepper_runs_both_runs(self, monkeypatch):
        # the check's fine run is exactly 2n steps of dt/2, from the stepper,
        # never a call of volterra_solve through the module
        p = CI_CORNER
        runs, stepper = [], rwa._volterra_steps

        def steps(p, n, dt):
            runs.append((n, dt))
            return stepper(p, n, dt)

        monkeypatch.setattr(rwa, "_volterra_steps", steps)
        solves = count_calls(monkeypatch, "volterra_solve")
        rwa.volterra_solve(p, 6.67)
        dt = 0.05 / 3.0
        assert runs == [(400, dt), (800, dt / 2.0), (1600, dt / 4.0)]
        assert len(solves) == 1

    def test_default_step_refuses_after_its_last_halving(self, monkeypatch):
        p = CI_CORNER
        monkeypatch.setattr(rwa, "_VOLTERRA_HALVINGS", 0)
        with pytest.raises(RuntimeError, match=r"reduce dt below 0\.0166667"):
            volterra_solve(p, 6.67)


class TestChainEvolve:
    def test_decoupled_site_phase(self):
        # g = 0 leaves the emitter evolving under its bare splitting, which
        # the interaction picture removes: A = 1, and its lab value e^{-i delta t}
        c = ChainCoefficients(g=0.0, eps=np.array([7.0]), t=np.zeros(0))
        s = chain_evolve(c, 3.0, 2.0, samples=41)
        np.testing.assert_allclose(s.values, 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(s.to_lab(), np.exp(-3j * s.times), rtol=0.0, atol=1e-12)

    def test_unitarity_of_site_amplitudes(self):
        p = reduced(delta=1.0)
        c = map_to_chain(p, 40)
        amps = chain_state_amplitudes(c, p.delta, np.linspace(0.0, 1.0, 21))
        norms = np.sum(np.abs(amps) ** 2, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    # the one chain site is also the last, so g keeps its occupation
    # g^2/Omega^2 under the light-cone limit 1e-6; A still moves from the
    # bare phase by 4e-7 to 1.4e-5; in the interaction picture the closed
    # form's lab phase e^{-i (delta + eps) t/2} becomes e^{i (delta - eps) t/2}
    @pytest.mark.parametrize("delta, eps, g", [(3.0, 7.0, 1e-3), (-5.0, 30.0, 1e-2),
                                               (60.0, 2.0, 2e-2)])
    @pytest.mark.parametrize("samples", [2, 41, 2001])
    def test_one_site_rabi_closed_form(self, delta, eps, g, samples):
        c = ChainCoefficients(g=g, eps=np.array([eps]), t=np.zeros(0))
        s = chain_evolve(c, delta, 2.0, samples=samples)
        rabi = np.sqrt(((delta - eps) / 2.0) ** 2 + g * g)
        t = s.times
        exact = np.exp(0.5j * (delta - eps) * t) * (
            np.cos(rabi * t) - 0.5j * (delta - eps) / rabi * np.sin(rabi * t))
        np.testing.assert_allclose(s.values, exact, rtol=0.0, atol=1e-12)

    # 41 and 2001 samples leave a ragged last block of the blocked sum
    SAMPLES = [2, 3, 41, 2001]

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("p, n", [(wideband(delta=30.0), 650), (reduced(delta=1.0), 125)],
                             ids=["wideband", "reduced"])
    def test_blocked_sum_matches_direct_reference(self, p, n, samples):
        c = map_to_chain(p, n)
        s = chain_evolve(c, p.delta, 1.5, samples=samples)
        ref = chain_state_amplitudes(c, p.delta, np.linspace(0.0, 1.5, samples))
        assert np.max(np.abs(s.values - ref[:, 0])) <= 1e-12

    # both chain ends of the Chebyshev propagator against the dense
    # eigendecomposition, on the sweep's grid: a bound state, the band edge,
    # in band, the hard band top and above it, and a chain whose emitter is
    # cut off (g = 0, so A is the bare phase and the last site stays empty)
    @pytest.mark.parametrize("p, n", [(wideband(delta=d), 650)
                                      for d in (1.0, 3.0, 5.0, 8.0, 20.0, 30.0, 805.0, 900.0)]
                             + [(reduced(delta=1.0), 125), (reduced(delta=3.0), 0)],
                             ids=["wideband-bound", "wideband-bound-3", "wideband-edge",
                                  "wideband-8", "wideband-20", "wideband-band", "wideband-top",
                                  "wideband-above-top", "reduced", "uncoupled"])
    def test_end_weights_match_full_eigendecomposition(self, p, n):
        if n:
            c = map_to_chain(p, n)
        else:
            c = ChainCoefficients(g=0.0, eps=np.linspace(3.0, 90.0, 40),
                                  t=np.full(39, 20.0))
        ts = np.linspace(0.0, 1.5, 2001)
        ref = chain_state_amplitudes(c, p.delta, ts, sites=[0, -1])
        amp, last = rwa._chain_ends(c, p.delta, ts)
        assert np.max(np.abs(amp - ref[:, 0])) <= 1e-12
        assert np.max(np.abs(last - ref[:, 1])) <= 1e-12
        s = chain_evolve(c, p.delta, 1.5, samples=ts.size)
        assert np.array_equal(s.values, amp)
        if not n:  # the bare phase, which the interaction picture removes
            np.testing.assert_allclose(amp, 1.0, rtol=0.0, atol=1e-12)
            assert not last.any()

    # the sweep corner, from a bound state to above the band top: the moment
    # recurrence's 690 KB block is freed before the first phase table exists,
    # and the tables are built 256 energies at a time; one call traces a peak
    # of 0.84 MB (1.21 MB when a block's tables outlive it, 1.9-2.1 MB with
    # the full samples x M tables)
    @pytest.mark.parametrize("delta", [1.0, 30.0, 805.0, 900.0])
    def test_working_set_is_bounded(self, delta):
        c = map_to_chain(wideband(), 650)
        chain_evolve(c, delta, 1.5, samples=2001)  # warm
        tracemalloc.start()
        try:
            chain_evolve(c, delta, 1.5, samples=2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6

    # the recurrence stops each vector at its light cone; K from 0 to past 4N
    # lets the two supports meet (2n >= N) and then fill the chain
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 41, 300])
    def test_moments_match_dense_recurrence(self, size):
        rng = np.random.default_rng(size)
        diag, off = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size - 1)
        H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        H /= np.max(np.sum(np.abs(H), axis=1))  # spectrum inside [-1, 1]
        N = size - 1
        for K in sorted({k for k in (0, 1, 2, 5, N - 1, N, 2 * N, 2 * N + 3, 4 * N + 7)
                         if k >= 0}):
            T = [np.eye(size)[0], H[:, 0]]  # T_n(H) e_0
            for _ in range(K):
                T.append(2.0 * H @ T[-1] - T[-2])
            T = np.array(T[:K + 1])
            mu, nu = rwa._chebyshev_moments(np.diag(H).copy(), np.diag(H, 1).copy(), K)
            assert mu.shape == nu.shape == (K + 1,)
            assert np.max(np.abs(mu - T[:, 0])) <= 1e-14
            assert np.max(np.abs(nu - T[:, N])) <= 1e-14

    # each table is a product of two smaller ones, at times t_sC + t_r that
    # round apart from t_k: 1.15 eps max|E t| measured, on 1 to 71 rows
    @pytest.mark.parametrize("samples", [2, 3, 41, 2001, 5000])
    def test_split_phase_tables_match_exp(self, samples):
        energies = np.linspace(-700.0, 1500.0, 739)
        times = np.linspace(0.0, 1.5, samples)
        block = math.isqrt(samples - 1) + 1
        for ts in (times[::block], times[:block]):
            phase = np.outer(ts, energies)
            got = rwa._phases(ts, energies)
            assert got.shape == phase.shape
            bound = np.finfo(float).eps * (2.0 * np.abs(phase).max() + 4.0)
            assert np.max(np.abs(got - np.exp(-1j * phase))) <= bound

    @pytest.mark.parametrize("x_max", [1e-3, 1.0, 50.0, 700.0])
    def test_gauss_chebyshev_sums_are_bessel_coefficients(self, x_max):
        # the node sums of the propagator: one dct3 of a unit moment gives
        # (1/M) c_n T_n(l_j), whose sum against e^{-i x l_j} is c_n (-i)^n J_n(x),
        # to the rounding of the phases x l_j (1.1e-16 x)
        from scipy.special import jv

        x = np.linspace(0.0, x_max, 41)
        K = math.ceil(x_max + 10.0 * np.cbrt(x_max) + 25.0)
        M = K + 1
        nodes = np.cos(math.pi / M * (np.arange(M) + 0.5))
        phases = np.exp(-1j * np.outer(x, nodes))
        for n in range(0, K + 1, max(1, K // 20)):
            got = phases @ (dct3(np.eye(K + 1)[n], M) / M)
            want = (2.0 if n else 1.0) * (-1j) ** n * jv(n, x)
            assert np.max(np.abs(got - want)) <= 1e-14 + 1e-16 * x_max

    def test_light_cone_violation_names_first_time(self):
        # the last-site column of the blocked sum crosses 1e-6 where the
        # direct reference does, with the same occupation
        for p, n in [(wideband(delta=30.0), 300), (reduced(delta=1.0), 10)]:
            c = map_to_chain(p, n)
            for samples in self.SAMPLES:
                ts = np.linspace(0.0, 3.0, samples)
                tail = np.abs(chain_state_amplitudes(c, p.delta, ts, sites=[-1])[:, 0]) ** 2
                j = int(np.argmax(tail >= 1e-6))
                assert tail[j] >= 1e-6
                with pytest.raises(RuntimeError, match=rf"light-cone violation: last-site "
                                   rf"occupation {tail[j]:.2e} at t = {ts[j]:g};"):
                    chain_evolve(c, p.delta, 3.0, samples=samples)

    def test_finite_size_recurrence(self):
        # a short chain reflects the emitted excitation back at
        # t_rev ~ 2N / (2 t_inf) = 4N / omega_c
        p = reduced(delta=1.0)
        c = map_to_chain(p, 30)
        ts = np.linspace(0.0, 2.0, 401)
        pop = np.abs(chain_state_amplitudes(c, p.delta, ts)[:, 0]) ** 2
        t_rev = 4.0 * 30 / p.omega_c
        pre = pop[(ts > 0.4 * t_rev) & (ts < 0.8 * t_rev)]
        post = pop[(ts > 0.9 * t_rev) & (ts < 1.5 * t_rev)]
        assert post.max() > pre.min() + 0.05

    def test_agrees_with_volterra(self):
        p = reduced(delta=1.0)
        sv = volterra_solve(p, 1.5)
        c = map_to_chain(p, chain_length_for(p, 1.5))
        sc = chain_evolve(c, p.delta, 1.5, samples=151)
        pv = np.interp(sc.times, sv.times, sv.population())
        assert np.max(np.abs(pv - sc.population())) < 0.02

    def test_input_validation(self):
        c = ChainCoefficients(g=0.0, eps=np.array([1.0]), t=np.zeros(0))
        with pytest.raises(ValueError):
            chain_evolve(c, 0.0, -1.0)
        with pytest.raises(ValueError):
            chain_evolve(c, 0.0, 1.0, samples=1)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_max_refused(self, t_max):
        c = ChainCoefficients(g=0.0, eps=np.array([1.0]), t=np.zeros(0))
        with pytest.raises(ValueError, match=rf"^t_max must be finite, got {t_max!r}$"):
            chain_evolve(c, 0.0, t_max)


class TestLaplaceInvert:
    def test_decoupled_amplitude_is_exactly_one(self):
        p = reduced(alpha=0.0, delta=1.0)
        s = laplace_invert(p, np.linspace(0.1, 3.0, 7))
        assert np.max(np.abs(s.values - 1.0)) == 0.0
        assert not s.flags.any()

    def test_agrees_with_volterra_and_unflagged(self):
        p = reduced(delta=1.0)
        ts = np.linspace(0.05, 1.5, 16)
        sl = laplace_invert(p, ts)
        sv = volterra_solve(p, 1.5)
        pv = np.interp(ts, sv.times, sv.population())
        assert np.max(np.abs(pv - sl.population())) < 0.02
        assert not sl.flags.any()

    def test_band_gap_population_trapping_values(self):
        # frozen inversion truths: partial decay to a trapped plateau
        p = wideband(delta=1.0)
        s = laplace_invert(p, np.array([0.6, 1.0, 3.0]))
        np.testing.assert_allclose(
            s.population(), [0.835330, 0.820009, 0.826121], atol=2e-3
        )
        assert not s.flags.any()

    def test_hard_band_top_matches_frozen_inversion(self):
        # delta = omega_b + omega_c puts the band-top log singularity of
        # G_hat at s = 0 and a bound state of weight 0.90 just above the
        # top.  Frozen from the exact chain (125 sites, tail 7e-33), which
        # agrees with the steepest-descent rays to 1e-13.
        p = reduced(delta=102.0)
        s = laplace_invert(p, np.linspace(0.1, 1.5, 8))
        frozen = [
            0.9890015262681054 - 0.03613193077469865j,
            0.9752724920923984 - 0.11985783934247528j,
            0.9550211701307596 - 0.203922623475159j,
            0.9276678410217933 - 0.2869524579173491j,
            0.8931371990524603 - 0.36790278557073874j,
            0.8515731558837507 - 0.44592673071259764j,
            0.803254351557272 - 0.5202573203775462j,
            0.7485380497687707 - 0.5901728031687543j,
        ]
        np.testing.assert_allclose(s.values, frozen, rtol=0.0, atol=1e-10)
        assert not s.flags.any()

    @pytest.mark.parametrize("p", [
        reduced(delta=2.0),  # delta = omega_b, the band edge
        reduced(delta=110.0),  # the bound state above the hard band top
        reduced(alpha=0.02, delta=30.0),  # weak coupling, narrow in-band line
        wideband(delta=1.0), wideband(delta=3.0), wideband(delta=20.0),
        reduced(delta=3.0), reduced(delta=50.0),
    ], ids=["edge", "above-top", "weak", "wb1", "wb3", "wb20", "r3", "r50"])
    def test_matches_exact_chain(self, p):
        t_max = 1.5
        sc = chain_evolve(map_to_chain(p, chain_length_for(p, t_max)), p.delta,
                          t_max, samples=31)
        sl = laplace_invert(p, sc.times[1:])  # both in the interaction picture
        assert np.max(np.abs(sl.values - sc.values[1:])) <= 1e-10
        assert not sl.flags.any()
        # the pole weights and the band integral of the density sum to 1
        assert abs(cut_invert(p, [0.0], find_bound_pole(p))[0] - 1.0) <= 1e-10

    def test_flags_fire_for_crude_cut_rule(self, monkeypatch):
        # one 32-node panel over the whole band cannot follow the
        # emitter's in-band Lorentzian line; the rays must catch it
        monkeypatch.setattr(rwa, "_U_PANELS", 1)
        monkeypatch.setattr(rwa, "_TOP_OCTAVES", np.arange(0))
        monkeypatch.setattr(rwa, "_PEAK_OCTAVES", np.arange(0))
        s = laplace_invert(reduced(delta=50.0), np.linspace(0.2, 2.0, 7))
        assert s.flags.all()
        assert s.checks["flagged_points"] == s.flags.sum() == 7

    def test_sum_rule_flags_a_missed_real_pole(self, monkeypatch):
        # the real-axis poles are the one part both inverters share; without
        # the bound state (weight 0.91) they agree, and the sum rule flags
        p = wideband(delta=1.0)
        ts = np.linspace(0.02, 2.0, 100)
        monkeypatch.setattr(rwa, "find_bound_pole", lambda p: [])
        s = laplace_invert(p, ts)
        assert s.flags.all()
        assert s.checks["poles"] == []
        assert s.checks["sum_rule_residual"] > 0.5
        assert np.max(np.abs(s.values - ray_invert(p, ts, [])[0])) < 1e-8

    def test_one_pole_search_at_rwa_laplace_corner(self, monkeypatch):
        # cut_invert and ray_invert share one find_bound_pole; a second
        # search for cut_invert made 40 ghat calls where one makes 26
        searches = count_calls(monkeypatch, "find_bound_pole")
        calls = count_calls(monkeypatch, "ghat")
        s = laplace_invert(wideband(delta=3.0), np.linspace(0.02, 2.0, 100))
        assert not s.flags.any()
        assert len(searches) == 1
        assert len(calls) <= 26

    def test_checks_record_poles_and_sum_rule(self):
        s = laplace_invert(reduced(delta=50.0), np.linspace(0.1, 1.5, 8))
        assert s.checks["sum_rule_residual"] < 1e-10
        assert s.checks["flagged_points"] == s.flags.sum() == 0
        [(nu, z)] = _second_sheet_zeros(reduced(delta=50.0))
        assert s.checks["poles"] == [{"nu": nu, "weight": z, "kind": "resonance"}]

    def test_input_validation(self):
        p = reduced(delta=1.0)
        with pytest.raises(ValueError, match="^times must be positive$"):
            laplace_invert(p, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            laplace_invert(p, np.array([]))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_refused(self, t):
        with pytest.raises(ValueError, match=rf"^times must be finite, got {t!r}$"):
            laplace_invert(reduced(delta=1.0), np.array([0.5, t, 1.0]))


# next to the band edge (reduced delta 3.5, 4.5 and wideband 10 fail when
# unconverged Newton seeds are kept), a zero 2.5e-5 outside the band top
# (101.5), the hard band top and above it; and strong coupling, where only
# a band-end seed finds the real-axis zero below the edge whose
# breakpoints bring the rays from 3e-8 to 2e-11
HARD_POINTS = ([reduced(delta=d) for d in (2.0, 3.0, 3.5, 4.5, 101.5, 102.0, 110.0)]
               + [wideband(delta=d) for d in (5.0, 10.0, 805.0)]
               + [reduced(alpha=3.0, delta=32.0)])


def assert_rays_match_cut(p, ts):
    s = laplace_invert(p, ts)
    assert not s.flags.any()
    ref, _ = ray_invert(p, ts, find_bound_pole(p))
    assert np.max(np.abs(s.values - ref)) <= 1e-8


class TestRayInvert:
    TIMES = np.linspace(0.02, 2.0, 100)

    @pytest.mark.parametrize("p", HARD_POINTS,
                             ids=lambda p: f"{p.alpha:g}-{p.omega_b:g}-{p.delta:g}")
    def test_hard_points_match_cut_integral(self, p):
        assert_rays_match_cut(p, self.TIMES)

    @pytest.mark.extended
    def test_dense_detuning_grids(self):
        # 385 points: reduced delta 0..110 by 0.5, wideband 0..815 by 5
        for p in ([reduced(delta=d) for d in np.arange(0.0, 110.25, 0.5)]
                  + [wideband(delta=d) for d in np.arange(0.0, 815.5, 5.0)]):
            assert_rays_match_cut(p, self.TIMES)

    def test_shifted_corner_is_fast_and_unflagged(self):
        p = ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4, delta=0.5)
        ts = np.linspace(25.0, 125.0, 11)
        start = time.perf_counter()
        s = laplace_invert(p, ts)
        assert time.perf_counter() - start < 1.0
        assert not s.flags.any()

    @pytest.mark.parametrize("delta", [0.5, 1.5, 3.0])
    def test_terms_match_asymptotic_pole_and_branch(self, delta):
        # deep in the broad-band window the edge ray is the branch-cut
        # integral and the bound pole the root r1 of the quadratic analysis
        p = ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4, delta=delta)
        ts = np.linspace(25.0, 125.0, 11)
        edge = _ray_term(p, ts, [nu for nu, _ in _second_sheet_zeros(p)], top=False)
        branch = np.array([_branch_integral(p, t) for t in ts])
        assert np.max(np.abs(edge - branch) / np.abs(branch)) < 0.02
        cls = classify_regime(p)
        [(loc, res)] = find_bound_pole(p)
        freq = (cls.r1**2 + p.delta_L).real  # the pole term is c1 e^{i freq t}
        assert 1j * loc == pytest.approx(-freq, rel=5e-3)
        assert res == pytest.approx(cls.c1, rel=5e-3)

    @staticmethod
    def newton_search(monkeypatch, p):
        """_second_sheet_zeros(p) and the number of Newton steps it took."""
        steps = count_calls(monkeypatch, "ghat_slope")  # one call per Newton step
        return _second_sheet_zeros(p), len(steps)

    def test_newton_search_ends_early_at_rwa_laplace_corner(self, monkeypatch):
        # no zero to find: the seeds settle into a 2-cycle below the band
        # edge (nu ~ -14.9 <-> 0.22) and each is dropped within a few steps
        zeros, steps = self.newton_search(monkeypatch, wideband(delta=3.0))
        assert zeros == [] and 0 < steps <= 10

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_newton_search_ends_a_four_cycle(self, monkeypatch, delta):
        # below the band edge the seeds settle into a 4-cycle (|s + G_II|
        # 16.1 -> 0.40 -> 4.79 -> 61.9 at delta = 0); testing the next step
        # against the last few iterates drops them before the 20-step stall
        zeros, steps = self.newton_search(monkeypatch, reduced(delta=delta))
        assert zeros == [] and 0 < steps <= 15

    def test_seed_at_residual_floor_stops(self, monkeypatch):
        # three seeds reach the resonance; each stops one step after its
        # |s + G_II| falls below the floor instead of trading rounding-sized steps
        [(nu, _)], steps = self.newton_search(monkeypatch, reduced(delta=76.5))
        assert nu == pytest.approx(0.5663628470153633 - 0.2016999539125395j, abs=1e-14)
        assert steps <= 9

    def test_decoupled_is_exactly_one(self):
        vals, resonances = ray_invert(reduced(alpha=0.0, delta=1.0), self.TIMES, [])
        assert np.all(vals == 1.0) and resonances == []

    @staticmethod
    def ray_by_complex_product(p, times, zeros, top):
        """``_ray_term`` with its node sum as the complex product decay @ wh."""
        end = p.band_top - p.delta if top else p.omega_b - p.delta
        breaks = [-nu.imag + sign * abs(nu.real - end) * 2.0**rwa._PEAK_OCTAVES
                  for nu in zeros for sign in (-1.0, 1.0)]
        y, w = rwa.ray_rule(rwa._RAY_FLOOR * p.omega_c, rwa._RAY_REACH / times.min(),
                            breaks, sqrt=not top)
        nu = end - 1j * y
        a, j = -1j * nu + rwa.ghat(p, -1j * nu), rwa._continued_j(p, nu)[0]
        wh = -w * j / (math.pi * a * (a + 2.0 * j))
        total = np.exp(np.outer(times, -y)) @ wh
        return (1j if top else -1j) * np.exp(-1j * end * times) * total

    def test_rays_make_no_complex_copy_of_their_table(self, monkeypatch):
        # rwa-laplace corner at the CLI's default 1001 times: each ray's
        # (times x 848 nodes) table is 6.8 MB.  The real product traces a
        # peak of 1.03 tables; multiplying the table by the complex weights
        # copied it to complex first (3.02 tables)
        p, ts = wideband(delta=3.0), np.linspace(0.0, 2.0, 1002)[1:]
        bound = find_bound_pole(p)
        assert _second_sheet_zeros(p) == []  # A is the two rays and the bound poles
        ref = sum(self.ray_by_complex_product(p, ts, [], top) for top in (False, True))
        for loc, res in bound:
            ref = ref + res * np.exp(loc * ts)
        nodes, rule = [], rwa.ray_rule

        def counted(*args, **kw):
            y, w = rule(*args, **kw)
            nodes.append(y.size)
            return y, w

        monkeypatch.setattr(rwa, "ray_rule", counted)
        ray_invert(p, ts, bound)  # warm
        tracemalloc.start()
        try:
            values, _ = ray_invert(p, ts, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ts.size * max(nodes) * 8
        assert np.max(np.abs(values - ref) / np.abs(ref)) <= 1e-15


class TestBoundPole:
    def test_wideband_corner_pole_and_residue(self):
        # frozen from the Newton refinement of s + G_hat(s) = 0; the pole
        # above the band top lies closer than double precision resolves
        [(loc, res)] = find_bound_pole(wideband(delta=1.0))
        assert loc == pytest.approx(3.5722151654985j, abs=1e-9)
        assert res == pytest.approx(0.9083367101827, abs=1e-9)

    def test_no_pole_when_decoupled_or_in_dip(self):
        assert find_bound_pole(reduced(alpha=0.0, delta=1.0)) == []
        assert find_bound_pole(midscale(0.25**2 / 4.0)) == []

    @pytest.mark.parametrize("p", [wideband(delta=1.0), reduced(delta=3.0),
                                   reduced(delta=102.0), reduced(delta=110.0)],
                             ids=["wb1-below", "r3-below", "r102-above", "r110-above"])
    def test_poles_match_adaptive_transform(self, p):
        # s + G_hat(s) = 0 and Z = 1/(1 + G_hat'(s)), both by adaptive quadrature
        [(loc, res)] = find_bound_pole(p)
        assert loc.real == 0.0
        assert -laplace_integral(p, loc) == pytest.approx(loc, rel=1e-9)
        slope = -2.0 * p.alpha / np.pi * complex_quad(
            lambda u: u * u * np.exp(-u * u / p.omega0)
            / (loc + 1j * (p.omega_b + u * u - p.delta)) ** 2,
            0.0, np.sqrt(p.omega_c), epsrel=1e-12, limit=4000)
        assert res == pytest.approx(1.0 / (1.0 + slope), rel=1e-9)

    @staticmethod
    def assert_matches_brentq(p):
        """The poles of find_bound_pole(p) against the brentq oracle; returns their number."""
        poles, ref = find_bound_pole(p), bound_pole_by_brentq(p)
        assert len(poles) == len(ref)
        for (loc, res), (ref_loc, ref_res) in zip(poles, ref):
            nu, ref_nu = (1j * loc).real, (1j * ref_loc).real
            if abs(nu - ref_nu) > 1e-15 * abs(ref_nu):
                # both lie within rounding of the root; the new one is no farther
                assert pole_residual(p, nu) <= pole_residual(p, ref_nu), (p, nu, ref_nu)
            assert abs(res - ref_res) <= 1e-15, p
        return len(poles)

    @pytest.mark.parametrize("corner", [WIDEBAND, REDUCED, BROAD],
                             ids=["wideband", "reduced", "broad"])
    def test_newton_search_matches_brentq(self, corner):
        # alpha 0.01, the corner's own and 30; delta at 0, omega_b/2, the band
        # edge, just above it, mid-band, the hard band top and above the band
        top = corner["omega_b"] + corner["omega_c"]
        deltas = (0.0, corner["omega_b"] / 2.0, corner["omega_b"], corner["omega_b"] + 1.0,
                  (corner["omega_b"] + top) / 2.0, top, top + corner["omega_c"] / 2.0)
        checked = sum(self.assert_matches_brentq(ModelParams(**{**corner, "alpha": alpha},
                                                             delta=delta))
                      for alpha in (0.01, corner["alpha"], 30.0) for delta in deltas)
        assert checked >= 2 * len(deltas)  # a few (alpha, delta) have no pole

    def test_newton_search_matches_brentq_near_hard_top(self):
        # the pole 1.6e-7 above the hard band top: with ghat's E1 argument
        # formed from omega_c + z the residues were 6.2e-12 apart
        assert self.assert_matches_brentq(HARD_TOP) == 1

    def test_ghat_and_slope_resolve_the_hard_band_top(self):
        # g = Im G_hat - nu falls steeply 1.6e-7 above the top; formed from
        # omega_c + z, nu was resolved only to ulp(4e4) and its steps
        # alternated between -1.06e-4 and -5.3e-5
        p = HARD_TOP
        nu = (p.band_top - p.delta) + 1.6e-7 + 1e-11 * np.arange(20)
        g = [complex(rwa.ghat(p, rwa._OFF_CUT - 1j * v)).imag - v for v in nu]
        steps = np.diff(g)
        assert np.max(np.abs(steps / np.median(steps) - 1.0)) <= 0.05
        # dG_hat/ds against a central difference in Re s (error (h/d)^2/3 =
        # 3e-9); formed from omega_c + z it was 1.1e-5 off
        for v in nu[:3]:
            s, h = rwa._OFF_CUT - 1j * v, 1e-4 * (v - (p.band_top - p.delta))
            fd = (rwa.ghat(p, s + h) - rwa.ghat(p, s - h)) / (2.0 * h)
            assert abs(rwa.ghat_slope(p, s, rwa.ghat(p, s)) - fd) <= 1e-7 * abs(fd)

    def test_ghat_calls_at_rwa_laplace_corner(self, monkeypatch):
        # brentq took 18: 4 for the sign tests, 13 inside brentq, 1 for the residue
        calls = count_calls(monkeypatch, "ghat")
        assert len(find_bound_pole(wideband(delta=3.0))) == 1
        assert len(calls) <= 18

    def test_search_ends_at_rounding_floor(self, monkeypatch):
        # here |g| cannot fall below rounding, so the Newton step never drops
        # under 1e-15 |x|; the search ends once the bracket is that narrow
        calls = count_calls(monkeypatch, "ghat")
        [(loc, _)] = find_bound_pole(wideband(delta=10.0))
        assert len(calls) <= 25  # 19; it ran into the step cap without the bracket stop
        assert loc == pytest.approx(bound_pole_by_brentq(wideband(delta=10.0))[0][0], rel=1e-15)


class TestClassifyRegime:
    def test_below_band_coefficient_at_shifted_corner(self):
        # frozen: the half-shifted root analysis at the deep asymptotic
        # corner; the bare or fully shifted detuning in the quadratic
        # gives 0.7397 or 0.9588 instead
        p = ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4, delta=0.5)
        cls = classify_regime(p)
        assert cls.regime == "below_band" and cls.pole_stable
        assert abs(cls.c1) ** 2 == pytest.approx(0.9426103304898, abs=1e-10)

    def test_boundary_assigned_below_band(self):
        p = reduced(delta=REDUCED["omega_b"] + 2.0 * np.sqrt(20.0 / np.pi))
        assert delta_L_tilde(p) == pytest.approx(0.0, abs=1e-12)
        assert classify_regime(p).regime == "below_band"

    def test_crossover_scan_flips_regime(self):
        labels = [classify_regime(reduced(delta=d)).regime
                  for d in np.linspace(0.0, 12.0, 25)]
        crossings = sum(a != b for a, b in zip(labels, labels[1:]))
        assert labels[0] == "below_band"
        assert "above_band" in labels
        assert crossings >= 1
        omega_s = 2.0 * np.sqrt(20.0 / np.pi)
        flip = next(d for d in np.linspace(0.0, 12.0, 25)
                    if classify_regime(reduced(delta=d)).regime != "below_band")
        assert flip > REDUCED["omega_b"] + omega_s - 1.0

    def test_gap_dip_has_no_pole_coefficient(self):
        cls = classify_regime(midscale(0.25**2 / 4.0))
        assert cls.regime == "gap_dip" and cls.c1 == 0.0

    def test_stationary_population_monotone_in_coupling(self):
        pops = [stationary_population(reduced(alpha=a, delta=1.0))
                for a in (0.25, 0.5, 1.0, 1.5, 2.0)]
        assert all(x > y for x, y in zip(pops, pops[1:]))
        assert 0.0 < pops[-1] < pops[0] < 1.0

    def test_weak_coupling_above_band_relaxes_fully(self):
        assert stationary_population(reduced(alpha=1e-12, delta=5.0)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 3.0),
        omega_b=st.floats(0.1, 50.0),
        omega0=st.floats(1.0, 1e4),
        ratio=st.floats(4.0, 10.0),
        delta=st.floats(0.0, 60.0),
    )
    def test_root_identities_property(self, alpha, omega_b, omega0, ratio, delta):
        p = ModelParams(alpha=alpha, omega_b=omega_b, omega0=omega0,
                        omega_c=ratio * omega0, delta=delta)
        cls = classify_regime(p)
        D = p.delta_L - 0.5 * p.omega_s
        scale = max(1.0, abs(D), alpha)
        assert cls.regime in ("below_band", "gap_dip", "above_band")
        assert abs(cls.r_plus + cls.r_minus + alpha) < 1e-9 * scale
        assert abs(cls.r_plus * cls.r_minus - D) < 1e-9 * scale**2
        assert np.isfinite(cls.c1)
        if cls.regime != "gap_dip" and cls.r_plus != cls.r_minus:
            sibling = cls.r_minus if cls.r1 == cls.r_plus else cls.r_plus
            assert cls.c1 == pytest.approx(2.0 * cls.r1 / (cls.r1 - sibling))


class TestAnalyticLongtime:
    def test_matches_inversion_at_shifted_corner(self):
        # populations agree to 0.01 across t alpha^2 in [1, 5]
        p = ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4, delta=0.5)
        ts = np.linspace(25.0, 125.0, 11)
        inv = laplace_invert(p, ts)
        assert not inv.flags.any()
        ref = inv.values
        vals = np.array([analytic_longtime(p, t) for t in ts])
        assert np.max(np.abs(np.abs(vals) ** 2 - np.abs(ref) ** 2)) < 0.01

    def test_gap_dip_branch_cut_tail(self):
        # in the dip the amplitude is pure branch-cut integral; the Laplace
        # inverter is the oracle once the second-sheet transient (rate
        # ~ alpha q = 1) has died out
        p = midscale(0.25**2 / 4.0)
        times = np.array([12.0, 16.0, 20.0])
        inv = laplace_invert(p, times)
        assert not inv.flags.any()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t, r in zip(times, inv.values):
                val = analytic_longtime(p, t)
                assert abs(val - r) / abs(r) < 0.05

    def test_above_band_decaying_pole_plus_cut(self):
        p = midscale(2.0)
        inv = laplace_invert(p, np.array([1.0, 8.0]))
        assert not inv.flags.any()
        r1, r8 = inv.values
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v1 = analytic_longtime(p, 1.0)
            assert abs(abs(v1) ** 2 - abs(r1) ** 2) / abs(r1) ** 2 < 0.03
            v8 = analytic_longtime(p, 8.0)
            assert abs(v8 - r8) < 1e-3

    def test_warns_outside_asymptotic_window(self):
        p = reduced(delta=1.0)  # omega0 = 20 is not >> omega_b scales
        with pytest.warns(UserWarning, match="asymptotic"):
            analytic_longtime(p, 1.0)
        p2 = ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4, delta=0.5)
        with pytest.warns(UserWarning, match="asymptotic"):
            analytic_longtime(p2, 1e-5)  # t omega0 < 5

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            analytic_longtime(reduced(delta=1.0), 0.0)


class TestCoherence:
    def test_decoupled_coherence_oscillates_at_bare_splitting(self):
        p = reduced(alpha=0.0, delta=3.0)
        s = volterra_solve(p, 2.0, dt=1e-3)
        np.testing.assert_allclose(rwa_coherence(s), np.cos(3.0 * s.times), atol=1e-12)

    def test_frame_consistency_between_solvers(self):
        # volterra steps the memory equation, the chain propagates with its
        # energies measured from delta; their lab-frame coherences agree
        p = reduced(delta=1.0)
        sv = volterra_solve(p, 1.5)
        c = map_to_chain(p, chain_length_for(p, 1.5))
        sc = chain_evolve(c, p.delta, 1.5, samples=151)
        vi = np.interp(sc.times, sv.times, rwa_coherence(sv))
        assert np.max(np.abs(vi - rwa_coherence(sc))) < 0.02


class TestThreeSolverAgreement:
    # below the edge, in the band, and at the hard band top, where the
    # bound state above the top carries weight 0.90
    @pytest.mark.parametrize("delta", [1.0, 50.0, 102.0])
    def test_pairwise_population_agreement(self, delta):
        p = reduced(delta=delta)
        t_max = 1.5
        sv = volterra_solve(p, t_max)
        c = map_to_chain(p, chain_length_for(p, t_max))
        sc = chain_evolve(c, p.delta, t_max, samples=61)
        ts = sc.times[sc.times > 0.0]
        sl = laplace_invert(p, ts)
        pop_v = np.interp(ts, sv.times, sv.population())
        pop_c = sc.population()[sc.times > 0.0]
        pop_l = sl.population()
        assert np.max(np.abs(pop_v - pop_c)) < 2e-4
        assert np.max(np.abs(pop_v - pop_l)) < 2e-4
        assert np.max(np.abs(pop_c - pop_l)) < 2e-4
