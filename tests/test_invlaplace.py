"""Quadrature rules of the inverse Laplace transform: Filon-Legendre
panels on the band, the steepest-descent ray rule, and their failure modes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1, spherical_jn

from gapchain.invlaplace import _FILON_CHUNK, _bessel_sum, filon_fourier, ray_rule


def monomial_fourier(n, a, b, t):
    """int_a^b x^m e^{-i t x} dx for m = 0..n by parts, upward (stable for t > n)."""
    ea, eb = np.exp(-1j * t * a), np.exp(-1j * t * b)
    out = [(eb - ea) / (-1j * t)]
    for m in range(1, n + 1):
        out.append((b**m * eb - a**m * ea) / (-1j * t) + m / (1j * t) * out[-1])
    return np.array(out)


class TestFilon:
    EDGES = [-1.0, -0.25, 0.5, 1.0]
    COEFFS = np.random.default_rng(3).uniform(-1.0, 1.0, 32)  # degree 31

    def poly(self, x):
        return np.polynomial.polynomial.polyval(x, self.COEFFS)

    def test_exact_for_polynomials_at_zero_frequency(self):
        # t = 0 is plain 32-node Gauss-Legendre: exact to degree 63
        exact = sum(Fraction(float(c)) * (Fraction(1) ** (m + 1) - Fraction(-1) ** (m + 1))
                    / (m + 1) for m, c in enumerate(self.COEFFS))
        val = filon_fourier(self.poly, self.EDGES, np.array([0.0]))[0]
        assert val == pytest.approx(float(exact), rel=1e-14, abs=1e-15)

    def test_exact_for_polynomials_at_large_kappa(self):
        # kappa = t * (panel half width) from 50 to 4e4, far past the
        # 32 nodes' sampling of the oscillator
        times = np.array([200.0, 1e3, 3e4, 1e5])
        vals = filon_fourier(self.poly, self.EDGES, times)
        for t, v in zip(times, vals):
            ref = sum(c * sum(monomial_fourier(31, lo, hi, t)[m]
                              for lo, hi in zip(self.EDGES, self.EDGES[1:]))
                      for m, c in enumerate(self.COEFFS))
            assert abs(v - ref) <= 1e-13

    def test_closed_form_fourier_integral(self):
        # int_0^3 e^{-1.3 x} e^{-i t x} dx = (1 - e^{-3(1.3 + i t)})/(1.3 + i t),
        # over more times than one chunk of _bessel_sum
        times = np.concatenate([np.linspace(0.0, 200.0, _FILON_CHUNK + 37), [1e3, 1e5]])
        vals = filon_fourier(lambda x: np.exp(-1.3 * x), np.linspace(0.0, 3.0, 9), times)
        q = 1.3 + 1j * times
        np.testing.assert_allclose(vals, (1.0 - np.exp(-3.0 * q)) / q, rtol=0, atol=1e-14)

    def test_input_validation(self):
        f = lambda x: np.ones_like(x)
        for edges in ([0.0], [0.0, 1.0, 1.0], [1.0, 0.0]):
            with pytest.raises(ValueError):
                filon_fourier(f, edges, np.array([1.0]))
        assert filon_fourier(f, [0.0, 1.0], np.array([])).size == 0
        # |kappa| would fold a negative t onto -t; NaN is no time either
        for t in (-1e-300, -2.0, math.nan):
            with pytest.raises(ValueError, match="times"):
                filon_fourier(f, [0.0, 1.0], np.array([1.0, t]))


class TestBesselSum:
    # scipy's spherical_jn is the oracle only; the rule never calls it
    ORDERS = np.arange(32)

    def error(self, kappa):
        """max |_bessel_sum - sum_k c_k j_k| / sum_k |c_k| over random complex c, one per kappa."""
        kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
        rng = np.random.default_rng(kappa.size)
        c = rng.normal(size=(kappa.size, 32)) + 1j * rng.normal(size=(kappa.size, 32))
        ref = np.sum(c * spherical_jn(self.ORDERS, kappa[:, None]), axis=1)
        got = _bessel_sum(kappa[None, :], c)[0]
        return np.max(np.abs(got - ref) / np.sum(np.abs(c), axis=1))

    def test_matches_scipy_at_branch_points(self):
        # kappa = 0 and tiny kappa (ratios only), both sides of every integer,
        # where an order moves between the forward and ratio branches, and
        # kappa past the last order, where every order runs forward
        ints = np.arange(1.0, 33.0)
        kappa = np.concatenate(([0.0, 1e-12, 1e-3, math.pi, 2.0 * math.pi, 31.5, 1e3, 7.5e4],
                                np.nextafter(ints, 0.0), ints, np.nextafter(ints, 64.0),
                                ints - 1e-9, ints + 1e-9))
        assert self.error(kappa) <= 2e-15

    # the oracle returns NaN at subnormal kappa; the finiteness test covers those
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4, allow_subnormal=False))
    def test_matches_scipy_property(self, kappa):
        assert self.error(kappa) <= 2e-15

    def test_finite_and_exact_at_zero(self):
        # a dense sweep across the branch boundaries k = kappa, subnormal
        # kappa, and kappa up to 1e6, on a (times, panels) grid
        kappa = np.concatenate(([0.0, 5e-324, 1e-300], np.linspace(0.0, 40.0, 40001),
                                np.logspace(-12.0, 6.0, 500))).reshape(2, -1)
        c = np.random.default_rng(5).normal(size=(kappa.shape[1], 32)) * (1.0 - 2.0j)
        got = _bessel_sum(kappa, c)
        assert got.shape == kappa.shape
        assert np.all(np.isfinite(got))
        # at kappa = 0 every ratio is 0: the sum is c_0 itself
        assert np.array_equal(_bessel_sum(np.zeros((3, c.shape[0])), c),
                              np.broadcast_to(c[:, 0], (3, c.shape[0])))


class TestRayRule:
    # one rule for every t in [1e-2, 1e2]: panels from 1e-14 to 40/t_min
    TIMES = np.logspace(-2.0, 2.0, 9)

    def integrate(self, g, breaks=(), sqrt=False):
        y, w = ray_rule(1e-14, 40.0 / self.TIMES.min(), breaks, sqrt=sqrt)
        return np.exp(-np.outer(self.TIMES, y)) @ (w * g(y))

    def test_sqrt_endpoint_on_sqrt_panels(self):
        # int_0^inf sqrt(y) e^{-y t} dy = (sqrt(pi)/2) t^{-3/2}
        vals = self.integrate(np.sqrt, sqrt=True)
        np.testing.assert_allclose(vals, math.sqrt(math.pi) / 2.0 * self.TIMES**-1.5,
                                   rtol=1e-12, atol=0)

    def test_log_endpoint_on_y_panels(self):
        # int_0^inf e^{-y t} log y dy = -(gamma + ln t)/t, which vanishes
        # near t = e^{-gamma}: the tolerance scales with int |log y| e^{-y t}
        vals = self.integrate(np.log)
        ref = -(np.euler_gamma + np.log(self.TIMES)) / self.TIMES
        scale = (1.0 + np.abs(np.log(self.TIMES))) / self.TIMES
        assert np.all(np.abs(vals - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("y_p", [0.3, 7.0])
    def test_breakpoints_resolve_a_pole_near_the_ray(self, y_p):
        # 1/(y + a) has its pole at y_p - i d, d = 1e-5 y_p:
        # int_0^inf e^{-y t}/(y + a) dy = e^{a t} E1(a t)
        a = -y_p + 1e-5j * y_p
        ref = np.exp(a * self.TIMES) * exp1(a * self.TIMES)
        g = lambda y: 1.0 / (y + a)
        octaves = 1e-5 * y_p * 2.0 ** np.arange(-4, 20)
        refined = self.integrate(g, breaks=[y_p - octaves, y_p + octaves])
        assert np.max(np.abs(refined - ref) / np.abs(ref)) <= 1e-10
        plain = self.integrate(g)
        assert np.max(np.abs(plain - ref) / np.abs(ref)) > 0.1

    def test_panels_and_weights(self):
        # octave panels in y, or between their square roots in u = sqrt(y)
        y, w = ray_rule(1.0, 8.0, breaks=[3.0, -1.0, 9.0])
        assert y.size == 16 * 5 and np.all(np.diff(y) > 0.0)
        assert w.sum() == pytest.approx(8.0, rel=1e-14)
        y, w = ray_rule(1.0, 8.0, sqrt=True)
        assert y.size == 16 * 4
        assert np.sum(w * y) == pytest.approx(32.0, rel=1e-14)

    def test_input_validation(self):
        for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf),
                       (math.nan, 1.0)):
            with pytest.raises(ValueError):
                ray_rule(lo, hi)
