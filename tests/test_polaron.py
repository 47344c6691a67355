"""Variational-polaron solver tests: self-consistency root,
residual-population branches, closed-form approximations."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gapchain import polaron
from gapchain.model import ModelParams
from gapchain.polaron import _renorm_integral, silbey_harris_solve
from oracles import (
    BoundaryPrediction,
    adiabatic_renorm,
    approx_large_delta,
    damped_fixed_point,
    log_root_by_bisection,
    residual_population,
)


def wideband(delta):
    return ModelParams(alpha=1.0, omega_b=5.0, omega0=100.0, omega_c=800.0,
                       delta=delta)


def renorm_integral_oracle(p, delta_tilde, n=1_000_001):
    """Independent 1e6-point trapezoid on the square-root-substituted
    integrand over the band: (4a/pi) Int_0^sqrt(w_c) v^2 e^{-v^2/w0} / (v^2+w_b+dt)^2 dv."""
    v = np.linspace(0.0, math.sqrt(p.omega_c), n)
    f = v**2 * np.exp(-(v**2) / p.omega0) / (v**2 + p.omega_b + delta_tilde) ** 2
    return 4.0 * p.alpha / math.pi * float(np.trapezoid(f, v))


class TestQuadrature:
    def test_matches_trapezoid_oracle(self):
        p = wideband(30.0)
        got = _renorm_integral(p, 24.0)
        want = renorm_integral_oracle(p, 24.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_matches_oracle_wide_band(self):
        # omega0 >> omega_b: the denominator knee sits far inside the gaussian
        p = ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4,
                        delta=0.5)
        got = _renorm_integral(p, 0.01)
        want = renorm_integral_oracle(p, 0.01, n=4_000_001)
        assert got == pytest.approx(want, rel=1e-8)


class TestSolve:
    def test_decoupled_limit(self):
        p = ModelParams(alpha=0.0, omega_b=5.0, omega0=100.0, omega_c=800.0,
                        delta=3.0)
        sol = silbey_harris_solve(p)
        assert sol.delta_tilde == 3.0
        assert sol.phi == 1.0
        assert sol.p_up_relaxed == 0.0
        assert sol.iterations == 1
        assert sol.residual == 0.0

    def test_wideband_residual_population(self):
        t0 = time.time()
        sol = silbey_harris_solve(wideband(30.0))
        assert time.time() - t0 < 1.0
        assert sol.p_up_relaxed == pytest.approx(0.026, abs=0.01)
        assert sol.residual < 1e-10 * 30.0

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            silbey_harris_solve(ModelParams(alpha=1.0, omega_b=5.0,
                                            omega0=100.0, omega_c=800.0))

    def test_phi_monotone_decreasing_in_alpha(self):
        phis = [
            silbey_harris_solve(
                ModelParams(alpha=a, omega_b=5.0, omega0=100.0,
                            omega_c=800.0, delta=30.0)).phi
            for a in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(phis, phis[1:]))

    def test_delta_tilde_and_phi_monotone_in_delta(self):
        deltas = [5.0, 7.5, 10.0, 15.0, 20.0, 30.0]
        sols = [silbey_harris_solve(wideband(d)) for d in deltas]
        dts = [s.delta_tilde for s in sols]
        phis = [s.phi for s in sols]
        assert all(a < b for a, b in zip(dts, dts[1:]))
        assert all(a < b for a, b in zip(phis, phis[1:]))

    def test_bisection_finds_same_root(self):
        p = wideband(30.0)
        sol = silbey_harris_solve(p)

        def defect(x):
            return x - p.delta * math.exp(-_renorm_integral(p, x))

        root = brentq(defect, 1e-300, p.delta, xtol=1e-13 * p.delta)
        assert root == pytest.approx(sol.delta_tilde, rel=1e-9)
        assert sol.delta_tilde == pytest.approx(damped_fixed_point(p),
                                                abs=1e-9 * p.delta)

    def test_few_integral_calls_at_wideband_corner(self, monkeypatch):
        # the plain map contracts by RHS' ~ 0.05 per step here
        calls = []

        def counted(p, x):
            calls.append(x)
            return _renorm_integral(p, x)

        monkeypatch.setattr(polaron, "_renorm_integral", counted)
        p = wideband(30.0)
        sol = silbey_harris_solve(p)
        assert len(calls) <= 10
        assert sol.residual < 1e-10 * p.delta

    def test_strong_coupling_root_near_zero(self):
        # I(0) ~ 471, so the root delta e^{-I} sits far below the tolerance
        p = ModelParams(alpha=15.0, omega_b=1e-3, omega0=100.0, omega_c=800.0,
                        delta=2.0)
        assert _renorm_integral(p, 0.0) == pytest.approx(471.0, abs=1.0)
        sol = silbey_harris_solve(p)
        assert 0.0 <= sol.delta_tilde <= 1e-9
        assert sol.residual < 1e-10 * p.delta

    def test_strong_coupling_root_to_relative_accuracy(self):
        # y = ln(delta_tilde/delta) ~ -470: a stop on the defect in x, absolute
        # in delta, returned 8.2e-151 here where the root is 5.8e-205
        p = ModelParams(alpha=15.0, omega_b=1e-3, omega0=100.0, omega_c=800.0,
                        delta=2.0)
        sol = silbey_harris_solve(p)
        y = log_root_by_bisection(p)
        assert math.log(sol.phi) == pytest.approx(y, rel=1e-12)
        assert sol.delta_tilde == pytest.approx(p.delta * math.exp(y), rel=1e-9)
        assert sol.delta_tilde == pytest.approx(5.7685e-205, rel=1e-4)
        assert sol.iterations <= 6

    @pytest.mark.parametrize("delta", [1.47, 1.48, 1.4885])
    def test_small_root_below_the_fold(self, delta):
        # below the fold at delta ~ 1.489 only the small root is left, and
        # phi = e^{-I(~0)} barely depends on delta; the absolute stop
        # scattered it over 2.4e-14 ... 7.3e-14
        p = ModelParams(alpha=1.0, omega_b=1e-3, omega0=100.0, omega_c=800.0,
                        delta=delta)
        sol = silbey_harris_solve(p)
        assert math.log(sol.phi) == pytest.approx(log_root_by_bisection(p), rel=1e-12)
        assert sol.phi == pytest.approx(2.31208e-14, rel=1e-5)

    def test_fold_corner_converges_to_largest_root(self):
        # 3.9e-4 above the fold, where the upper roots (y = -1.842, -1.778)
        # still merge slowly: the map alone ran out of its 1000 steps here
        p = ModelParams(alpha=1.0, omega_b=1e-3, omega0=100.0, omega_c=800.0,
                        delta=1.4895)
        sol = silbey_harris_solve(p)
        assert math.log(sol.phi) == pytest.approx(log_root_by_bisection(p), rel=1e-11)
        assert sol.delta_tilde == pytest.approx(0.2516492, rel=1e-6)
        assert sol.iterations <= 30

    def test_fold_scan_matches_bisection(self):
        # 101 points across the fold (delta 1.48911): the small root below it,
        # the largest of three above; the map alone failed at 3 of them and
        # took up to 950 steps at others.  |dy| is the stop 1e-13 over
        # f'(root), which falls toward the fold: 2.5e-12 relative at most
        ys = []
        for delta in np.linspace(1.475, 1.5, 101):
            p = ModelParams(alpha=1.0, omega_b=1e-3, omega0=100.0, omega_c=800.0,
                            delta=float(delta))
            sol = silbey_harris_solve(p)
            y = log_root_by_bisection(p)
            assert math.log(sol.phi) == pytest.approx(y, rel=1e-11), delta
            assert sol.iterations <= 200
            ys.append(y)
        assert ys[56] < -31.0 < -2.0 < ys[57]  # the fold lies in (1.489, 1.48925)

    def test_three_root_corner_keeps_largest_root(self):
        # near the band edge I(x) ~ alpha/sqrt(omega_b + x): the defect
        # changes sign three times, near 6e-14, 0.16 and 0.80
        p = ModelParams(alpha=1.0, omega_b=1e-3, omega0=100.0, omega_c=800.0,
                        delta=2.0)
        xs = np.concatenate([[0.0], np.logspace(-16, math.log10(p.delta), 60)])
        f = [x - p.delta * math.exp(-_renorm_integral(p, x)) for x in xs]
        assert np.count_nonzero(np.diff(np.sign(f))) == 3
        sol = silbey_harris_solve(p)
        assert sol.delta_tilde == pytest.approx(damped_fixed_point(p),
                                                abs=1e-9 * p.delta)
        assert sol.delta_tilde == pytest.approx(0.80004, abs=1e-5)
        assert sol.p_up_relaxed == pytest.approx(0.29999, abs=1e-5)
        assert sol.residual < 1e-10 * p.delta

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 3.0),
        omega_b=st.floats(0.5, 50.0),
        log_omega0=st.floats(0.5, 3.5),
        delta_scale=st.floats(0.05, 10.0),
    )
    def test_solution_invariants(self, alpha, omega_b, log_omega0, delta_scale):
        omega0 = 10.0**log_omega0
        p = ModelParams(alpha=alpha, omega_b=omega_b, omega0=omega0,
                        omega_c=4.0 * omega0, delta=delta_scale * omega_b)
        sol = silbey_harris_solve(p)
        assert 0.0 < sol.delta_tilde <= p.delta
        assert 0.0 < sol.phi <= 1.0
        assert sol.residual < 1e-10 * p.delta
        assert sol.delta_tilde == pytest.approx(damped_fixed_point(p),
                                                abs=1e-9 * p.delta)
        assert sol.p_up_relaxed + sol.p_up_dressed == pytest.approx(1.0, abs=0.0)
        # fixed point satisfies the defining equation to the contracted
        # defect bound (absolute in delta, since delta_tilde can be tiny)
        rhs = p.delta * math.exp(-_renorm_integral(p, sol.delta_tilde))
        assert abs(sol.delta_tilde - rhs) < 1e-10 * p.delta


class TestResidualPopulation:
    def test_branch_above_band(self):
        p = wideband(30.0)
        sol = silbey_harris_solve(p)
        assert residual_population(sol, p) == sol.p_up_relaxed

    def test_branch_below_band(self):
        p = wideband(1.0)
        sol = silbey_harris_solve(p)
        assert residual_population(sol, p) == sol.p_up_dressed

    def test_boundary_returns_both(self):
        p = wideband(5.0)
        sol = silbey_harris_solve(p)
        out = residual_population(sol, p)
        assert isinstance(out, BoundaryPrediction)
        assert out.boundary
        assert out.relaxed == sol.p_up_relaxed
        assert out.dressed == sol.p_up_dressed
        assert out.relaxed + out.dressed == pytest.approx(1.0, abs=0.0)

    def test_weak_coupling_below_band_traps_everything(self):
        p = ModelParams(alpha=1e-4, omega_b=5.0, omega0=100.0, omega_c=800.0,
                        delta=1.0)
        sol = silbey_harris_solve(p)
        assert residual_population(sol, p) == pytest.approx(1.0, abs=1e-4)

    def test_population_vanishes_at_large_delta(self):
        pops = [silbey_harris_solve(wideband(d)).p_up_relaxed
                for d in (30.0, 60.0, 90.0)]
        assert all(a > b for a, b in zip(pops, pops[1:]))
        assert pops[-1] < 0.01


class TestClosedForms:
    def test_large_delta_arithmetic(self):
        assert approx_large_delta(wideband(30.0)) == pytest.approx(24.52, abs=0.01)

    def test_large_delta_decoupled(self):
        p = ModelParams(alpha=0.0, omega_b=5.0, omega0=100.0, omega_c=800.0,
                        delta=30.0)
        assert approx_large_delta(p) == 30.0

    def test_large_delta_warns_outside_window(self):
        with pytest.warns(UserWarning, match="closed form"):
            approx_large_delta(wideband(1.0))
        with pytest.warns(UserWarning, match="closed form"):
            approx_large_delta(wideband(90.0))

    def test_consistency_with_full_solver(self):
        # qualitative agreement: same correction sign, magnitude within
        # 35% of the solved splitting
        p = wideband(30.0)
        sol = silbey_harris_solve(p)
        approx = approx_large_delta(p)
        assert approx < p.delta and sol.delta_tilde < p.delta
        assert abs(approx - sol.delta_tilde) <= 0.35 * sol.delta_tilde

    def test_adiabatic_arithmetic(self):
        assert adiabatic_renorm(wideband(1.0)) == pytest.approx(
            math.exp(-1.0 / math.sqrt(5.0)), rel=1e-12)
        assert adiabatic_renorm(wideband(1.0)) == pytest.approx(0.6394, abs=5e-5)

    def test_adiabatic_decoupled(self):
        p = ModelParams(alpha=0.0, omega_b=5.0, omega0=100.0, omega_c=800.0,
                        delta=2.0)
        assert adiabatic_renorm(p) == 2.0
