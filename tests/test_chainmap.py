"""Chain mapping: discretization, Stieltjes recurrence, coefficient asymptotics,
and the end-to-end propagator reconstruction of the bath correlation."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from gapchain.chainmap import (
    ChainCoefficients,
    _sqrt_rule,
    chain_length_for,
    check_positive_times,
    discretize_weight,
    map_to_chain,
    quadrature_nodes,
    stieltjes_recurrence,
)
from gapchain.model import ModelParams, bath_correlation, spectral_density
from oracles import correlation_by_quadrature, head_site_correlation

WIDEBAND = dict(alpha=1.0, omega_b=5.0, omega0=100.0, omega_c=800.0)


def params(**kw):
    base = dict(WIDEBAND)
    base.update(kw)
    return ModelParams(**base)


def uniform_weight(M=2000):
    """Composite 16-point Gauss-Legendre rule for dk on [0, 1], M // 16 panels."""
    n = M // 16
    x, w = np.polynomial.legendre.leggauss(16)
    k = ((np.arange(n)[:, None] + 0.5 * (x + 1.0)) / n).ravel()
    return k, np.tile(w / (2.0 * n), n)


class TestDiscretizeWeight:
    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="zero weight"):
            discretize_weight(params(alpha=0.0), 2000)

    def test_small_M_rejected(self):
        with pytest.raises(ValueError, match="M"):
            discretize_weight(params(), 1)

    def test_nodes_and_weights_valid(self):
        k, w = discretize_weight(params(), 2000)
        assert np.all(k >= 0.0) and np.all(k <= 1.0)
        assert np.all(w >= 0.0)
        assert k.size == w.size == 2000

    def test_total_weight_against_band_integral(self):
        # sum w_j = (1/pi) int J = G(0) restricted to the band, via the adaptive oracle
        p = params()
        _, w = discretize_weight(p, 2000)
        oracle = correlation_by_quadrature(p, 0.0).real
        assert float(w.sum()) == pytest.approx(oracle, rel=1e-8)

    def test_total_weight_converged_in_M(self):
        p = params()
        a = float(discretize_weight(p, 2000)[1].sum())
        b = float(discretize_weight(p, 4000)[1].sum())
        assert abs(b - a) < 1e-10 * abs(a)


class TestSqrtRule:
    @pytest.mark.parametrize("M", [2, 7, 16, 101])
    def test_positive_weights_exact_to_degree_M_minus_1(self, M):
        u, du = _sqrt_rule(M)
        assert np.all(du > 0.0) and np.all((u > 0.0) & (u < 1.0))
        assert du.sum() == pytest.approx(1.0, abs=1e-14)
        for d in range(M):
            assert abs(du @ u**d - 1.0 / (d + 1)) < 1e-14

    @pytest.mark.parametrize("M", [7, 2600, 16000])
    def test_fft_weights_match_scipy_dct(self, M):
        from scipy.fft import dct

        moments = np.zeros(M)
        moments[::2] = 2.0 / (1.0 - np.arange(0, M, 2) ** 2.0)
        du = _sqrt_rule(M)[1]
        assert np.max(np.abs(du - 0.5 * dct(moments, type=3) / M)) <= 1e-15 * du.max()


class TestStieltjesRecurrence:
    def test_uniform_weight_shifted_legendre(self):
        # alpha_n = 1/2, beta_n = n^2 / (4(4n^2-1)): beta_1 = 1/12, beta_2 = 1/15,
        # beta_3 = 9/140
        alpha, beta = stieltjes_recurrence(*uniform_weight(), 21)
        assert np.allclose(alpha, 0.5, atol=1e-12)
        assert beta[0] == pytest.approx(1.0, rel=1e-13)
        n = np.arange(1, 21)
        assert np.allclose(beta[1:], n**2 / (4.0 * (4.0 * n**2 - 1.0)), rtol=1e-12)
        assert beta[1] == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert beta[2] == pytest.approx(1.0 / 15.0, rel=1e-12)
        assert beta[3] == pytest.approx(9.0 / 140.0, rel=1e-12)

    def test_alpha0_is_first_moment(self):
        k, w = discretize_weight(params(), 2000)
        alpha, _ = stieltjes_recurrence(k, w, 5)
        assert alpha[0] == pytest.approx(float(w @ k) / float(w.sum()), rel=1e-13)

    def test_depth_guard(self):
        # the guard sits at M = 4N: 2000 nodes take depth 500, not 501
        k, w = discretize_weight(params(), 2000)
        with pytest.raises(ValueError, match="needs M >= 4"):
            stieltjes_recurrence(k, w, 501)
        _, beta = stieltjes_recurrence(k, w, 500)
        assert beta.size == 500 and np.all(beta > 0.0)

    def test_positivity_to_depth_300(self):
        _, beta = stieltjes_recurrence(*discretize_weight(params(), 6000), 300)
        assert np.all(beta > 0.0)

    def test_orthogonality_residual(self):
        k, wt = discretize_weight(params(), 2000)
        alpha, beta = stieltjes_recurrence(k, wt, 21)
        # rebuild the orthonormal polynomials on the quadrature nodes
        polys = [np.full_like(k, 1.0 / math.sqrt(beta[0]))]
        prev = np.zeros_like(k)
        for n in range(20):
            sb = math.sqrt(beta[n]) if n >= 1 else 0.0
            nxt = ((k - alpha[n]) * polys[-1] - sb * prev) / math.sqrt(beta[n + 1])
            prev = polys[-1]
            polys.append(nxt)
        rng = np.random.default_rng(7)
        for _ in range(30):
            m, n = rng.integers(0, 21, size=2)
            if m == n:
                continue
            assert abs(wt @ (polys[m] * polys[n])) < 1e-8


class TestMapToChain:
    def test_coefficient_asymptotics(self):
        c = map_to_chain(params(), 300)
        assert np.all(np.abs(c.eps[100:] - 405.0) < 0.001 * 405.0)
        assert np.all(np.abs(c.t[100:] - 200.0) < 0.001 * 200.0)

    def test_invariant_ranges(self):
        p = params()
        c = map_to_chain(p, 300)
        assert np.all(c.t > 0.0)
        assert np.all((c.eps >= p.omega_b) & (c.eps <= p.band_top))
        assert c.g >= 0.0 and c.N == c.eps.size == 300 and c.t.size == 299

    def test_head_coupling_squared_is_band_integral(self):
        p = params()
        c = map_to_chain(p, 50)
        assert c.g**2 == pytest.approx(correlation_by_quadrature(p, 0.0).real, rel=1e-6)

    @pytest.mark.parametrize("corner", [
        {}, dict(omega_b=2.0, omega0=20.0, omega_c=100.0),
        dict(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4),
        dict(omega_b=1e-3)])
    def test_weight_norm_is_pi_times_the_closed_form_G0(self, corner):
        # the recurrence's pi g^2 against pi Re G(0) of model's closed form:
        # at most 1.8e-16 apart at these corners
        p = params(**corner)
        ref = math.pi * bath_correlation(p, 0.0).real
        assert map_to_chain(p, 50).weight_norm == pytest.approx(ref, rel=1e-14)

    def test_alpha_rescaling(self):
        a = map_to_chain(params(alpha=1.0), 80)
        b = map_to_chain(params(alpha=4.0), 80)
        assert b.g == pytest.approx(2.0 * a.g, rel=1e-12)
        assert np.allclose(b.eps, a.eps, rtol=1e-12)
        assert np.allclose(b.t, a.t, rtol=1e-12)

    def test_zero_coupling_maps_the_shape_with_no_head_coupling(self):
        # eps and t are the band shape's alone, so alpha = 0 keeps them, g = 0
        a = map_to_chain(params(alpha=1.0), 80)
        b = map_to_chain(params(alpha=0.0), 80)
        assert b.g == 0.0 and b.weight_norm == 0.0
        np.testing.assert_array_equal(b.eps, a.eps)
        np.testing.assert_array_equal(b.t, a.t)

    def test_coefficients_converged_in_M(self):
        a = map_to_chain(params(), 200, M=4000)
        b = map_to_chain(params(), 200, M=8000)
        assert abs(b.g - a.g) < 1e-9 * a.g
        assert np.all(np.abs(b.eps - a.eps) < 1e-9 * np.abs(a.eps))
        assert np.all(np.abs(b.t - a.t) < 1e-9 * np.abs(a.t))

    def test_eigenvalues_confined_to_band(self):
        p = params()
        c = map_to_chain(p, 300)
        lam = eigh_tridiagonal(c.eps, c.t, eigvals_only=True)
        tol = 1e-9 * p.omega_c
        assert lam.min() >= p.omega_b - tol
        assert lam.max() <= p.band_top + tol

    def test_matches_gauss_legendre_oracle(self):
        # independent rule: Stieltjes on the M-point Gauss-Legendre rule in
        # u = sqrt(k), the discretization the Fejer rule replaced
        p, N, M = params(), 300, 6000
        x, glw = roots_legendre(M)
        u = 0.5 * (x + 1.0)
        k = u * u
        J = spectral_density(p, p.omega_b + p.omega_c * k)
        w = (p.omega_c / math.pi) * J * u * glw  # dk = 2u du, du = glw/2
        alpha, beta = stieltjes_recurrence(k, w, N)
        c = map_to_chain(p, N, M=M)
        assert c.g == pytest.approx(math.sqrt(beta[0]), rel=1e-11)
        assert np.allclose(c.eps, p.omega_b + p.omega_c * alpha, rtol=1e-11, atol=0)
        assert np.allclose(c.t, p.omega_c * np.sqrt(beta[1:]), rtol=1e-11, atol=0)

    def test_four_nodes_per_site_suffice(self):
        # the M >= 4N guard of stieltjes_recurrence, at the sweep chain length
        a = map_to_chain(params(), 650, M=2600)
        b = map_to_chain(params(), 650, M=26000)
        assert abs(b.g - a.g) < 1e-12 * a.g
        assert np.all(np.abs(b.eps - a.eps) < 1e-12 * np.abs(a.eps))
        assert np.all(np.abs(b.t - a.t) < 1e-12 * np.abs(a.t))

    # the 4N rule sits above a cliff between 2.5N and 3N nodes per site
    @pytest.mark.parametrize("p, N", [(params(), 650),
                                      (params(omega_b=2.0, omega0=20.0, omega_c=100.0), 1000)],
                             ids=["wideband", "reduced"])
    def test_default_rule_clears_the_cliff(self, p, N):
        def coefficients(M):
            # the guard refuses M < 4N, so a sparser rule is padded to 4N
            # nodes of zero weight, which change no inner product
            k, w = (np.pad(a, (0, max(0, 4 * N - M))) for a in discretize_weight(p, M))
            return np.concatenate(stieltjes_recurrence(k, w, N))

        ref = coefficients(40 * N)
        assert np.max(np.abs(coefficients(5 * N // 2) / ref - 1.0)) > 1e-9
        assert np.max(np.abs(coefficients(quadrature_nodes(N)) / ref - 1.0)) < 1e-13
        c = map_to_chain(p, N)
        assert np.array_equal(c.eps, p.omega_b + p.omega_c * coefficients(4 * N)[:N])

    @pytest.mark.parametrize("N", [58, 650, 4000])
    def test_recurrence_matches_blas_loop(self, N):
        # the einsum loop against the same recurrence through BLAS calls
        from scipy.linalg.blas import daxpy, ddot, dscal

        k, w = discretize_weight(params(), quadrature_nodes(N))
        alpha, beta = np.empty(N), np.empty(N)
        beta[0] = w.sum()
        v, v_prev, sqrt_b = np.sqrt(w / beta[0]), np.zeros_like(w), 0.0
        for n in range(N):
            q = k * v
            alpha[n] = ddot(v, q)
            if n == N - 1:
                break
            q = daxpy(v_prev, daxpy(v, q, a=-alpha[n]), a=-sqrt_b)
            beta[n + 1] = ddot(q, q)
            sqrt_b = math.sqrt(beta[n + 1])
            v_prev, v = v, dscal(1.0 / sqrt_b, q)
        got = stieltjes_recurrence(k, w, N)
        assert np.max(np.abs(got[0] / alpha - 1.0)) <= 3e-13
        assert np.max(np.abs(got[1] / beta - 1.0)) <= 3e-13

    def test_long_chain_maps_into_band(self):
        p = params()
        c = map_to_chain(p, 4000)
        assert np.all(c.t > 0.0)
        lam = eigh_tridiagonal(c.eps, c.t, eigvals_only=True)
        tol = 1e-9 * p.omega_c
        assert lam.min() >= p.omega_b - tol
        assert lam.max() <= p.band_top + tol

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError, match="N"):
            map_to_chain(params(), 1)


class TestPropagatorReconstruction:
    def test_head_site_propagator_matches_kernel(self):
        # end-to-end: chain dynamics at the head site reproduce the continuum
        # bath correlation (delta = 0) until the light cone reaches the far end
        p = params()
        c = map_to_chain(p, 300)
        times = np.linspace(0.0, 20.0 / p.omega0, 41)
        chain = head_site_correlation(c, times)
        for t, val in zip(times, chain):
            assert abs(val - correlation_by_quadrature(p, t)) < 2e-3


class TestChainLength:
    def test_light_cone_bound(self):
        p = params()
        n = chain_length_for(p, 1.5)
        assert n >= math.ceil(2 * 1.5 * p.omega_c / 4) + 50
        assert chain_length_for(p, 0.0) == 50

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            chain_length_for(params(), -1.0)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t_max):
        with pytest.raises(ValueError, match=rf"^t_max must be finite and >= 0, got {t_max}$"):
            chain_length_for(params(), t_max)


class TestPositiveTimes:
    # the one refusal of EvolutionConfig, volterra_solve, chain_evolve and
    # laplace_invert, whose own tests pin its messages: a non-finite time is
    # named even where a negative one comes first
    def test_non_finite_named_before_sign(self):
        with pytest.raises(ValueError, match=r"^t must be finite, got inf$"):
            check_positive_times("t", np.array([0.5, -1.0, math.inf]))
        with pytest.raises(ValueError, match=r"^t must be positive$"):
            check_positive_times("t", np.array([0.5, -1.0]))
        check_positive_times("t", np.array([5e-324, 1e3]))
