"""Inverse Laplace transforms and the Fourier rule of the cut integral:
Filon-Legendre panels, Talbot contour quadrature, and their failure modes."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gapchain import invlaplace
from gapchain.invlaplace import _talbot_sum, filon_fourier, talbot_invert


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
        # over more times than one block of the Bessel table
        times = np.concatenate([np.linspace(0.0, 200.0, 37), [1e3, 1e5]])
        vals = filon_fourier(lambda x: np.exp(-1.3 * x), np.linspace(0.0, 3.0, 9), times)
        q = 1.3 + 1j * times
        np.testing.assert_allclose(vals, (1.0 - np.exp(-3.0 * q)) / q, rtol=0, atol=1e-14)

    def test_input_validation(self):
        f = lambda x: np.ones_like(x)
        for edges in ([0.0], [0.0, 1.0, 1.0], [1.0, 0.0]):
            with pytest.raises(ValueError):
                filon_fourier(f, edges, np.array([1.0]))
        assert filon_fourier(f, [0.0, 1.0], np.array([])).size == 0


class TestTalbot:
    def test_exponential_pair(self):
        times = np.linspace(0.1, 3.0, 25)
        vals, spread = talbot_invert(lambda s: 1.0 / (s + 2.5), times, s_max=5.0)
        assert np.max(np.abs(vals - np.exp(-2.5 * times))) < 1e-8
        assert np.max(spread) < 1e-8

    def test_fast_oscillatory_pole(self):
        # tall-contour scaling must reach a pole at 40i
        times = np.linspace(0.1, 3.0, 13)
        vals, spread = talbot_invert(lambda s: 1.0 / (s - 40j), times, s_max=45.0)
        assert np.max(np.abs(vals - np.exp(40j * times))) < 1e-6
        assert np.max(spread) < 1e-6

    def test_odd_node_count_regression(self):
        # an odd node count places a node at theta = 0 where the contour
        # map is singular; the sum must bump it to even instead of
        # silently dropping the largest term
        times = np.array([0.5, 1.0])
        F = lambda s: 1.0 / (s + 1.0)
        v_odd = _talbot_sum(F, times, mu=4.0, nu=2.0, M=65)
        v_even = _talbot_sum(F, times, mu=4.0, nu=2.0, M=66)
        assert np.all(np.isfinite(v_odd))
        np.testing.assert_allclose(v_odd, v_even, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v_odd, np.exp(-times), rtol=0, atol=1e-9)

    def test_octave_grouping_matches_single_point_calls(self):
        # grouped evaluation shares one contour per octave; it must agree
        # with inverting each time in isolation
        F = lambda s: 1.0 / (s + 1.5) ** 2
        times = np.array([0.11, 0.4, 0.62, 1.3, 2.7, 5.9])
        grouped, _ = talbot_invert(F, times, s_max=4.0)
        single = np.concatenate(
            [talbot_invert(F, np.array([t]), s_max=4.0)[0] for t in times]
        )
        assert np.max(np.abs(grouped - single)) < 1e-7
        np.testing.assert_allclose(
            grouped, times * np.exp(-1.5 * times), rtol=0, atol=1e-8
        )

    def test_node_blocks_bound_memory(self, monkeypatch):
        # one octave of 32 times on a ~16k-node contour: the unblocked
        # weight matrix alone would take 8.3 MB
        times = np.linspace(0.5, 1.0, 33)[1:]
        F = lambda s: 1.0 / (s - 1500j)
        whole, whole_spread = talbot_invert(F, times, s_max=2000.0)
        assert np.max(np.abs(whole - np.exp(1500j * times))) < 1e-10
        monkeypatch.setattr(invlaplace, "_TALBOT_BLOCK", 2**12)
        tracemalloc.start()
        try:
            vals, spread = talbot_invert(F, times, s_max=2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(vals, whole, rtol=0, atol=1e-14)
        np.testing.assert_allclose(spread, whole_spread, rtol=0, atol=1e-14)
        nu = 2.5 * 2000.0 / (math.pi * invlaplace._TALBOT_MU)
        nodes = nu * math.log(1.0 / invlaplace._TALBOT_TOL) / 0.45
        assert peak < times.size * nodes * 16

    def test_input_validation(self):
        F = lambda s: 1.0 / (s + 1.0)
        with pytest.raises(ValueError):
            talbot_invert(F, np.array([0.0, 1.0]), s_max=5.0)
        with pytest.raises(ValueError):
            talbot_invert(F, np.array([1.0]), s_max=0.0)
        vals, spread = talbot_invert(F, np.array([]), s_max=5.0)
        assert vals.size == 0 and spread.size == 0
