"""Inverse Laplace transforms: Chebyshev-expansion inversion with pole
subtraction, Talbot contour quadrature, and their failure modes."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain.invlaplace import (
    _collocation_matrix,
    _talbot_sum,
    piessens_invert,
    talbot_invert,
)


class TestCollocationMatrix:
    def test_matches_exact_rational_sums(self):
        # V[j][k] = sum_m C[k][m] / (j + m + 1/2) at b = 1, where C[k][m]
        # are the integer monomial coefficients of T*_k(x) = T_k(2x - 1)
        n = 32
        C = [[1], [-1, 2]]
        for k in range(2, n):
            cur = [0] * (k + 1)
            for m, c in enumerate(C[k - 1]):
                cur[m] -= 2 * c
                cur[m + 1] += 4 * c
            for m, c in enumerate(C[k - 2]):
                cur[m] -= c
            C.append(cur)
        assert C[3] == [-1, 18, -48, 32]  # T*_3 = 32x^3 - 48x^2 + 18x - 1
        with mpmath.workdps(40 + 2 * n):
            V = _collocation_matrix(n, 1.0)
            for j in range(n):
                for k in range(n):
                    exact = sum(Fraction(c) / (Fraction(2 * j + 1, 2) + m)
                                for m, c in enumerate(C[k]))
                    ref = mpmath.mpf(exact.numerator) / exact.denominator
                    assert abs(V[j, k] - ref) <= 1e-75 * abs(ref), (j, k)


class TestPiessens:
    def test_exponential_pair(self):
        # 1/(s + 5/2)  <->  exp(-5t/2), frozen at the contract tolerance
        times = np.linspace(0.1, 3.0, 25)
        vals, coeffs = piessens_invert(lambda s: 1 / (s + mpmath.mpf(5) / 2), times, n=32)
        assert np.max(np.abs(vals - np.exp(-2.5 * times))) < 1e-8
        assert coeffs[-1] < 1e-8  # expansion converged, not truncated

    def test_pole_subtraction_is_exact(self):
        # a pure undamped pole leaves a zero remainder for the expansion
        times = np.linspace(0.1, 3.0, 11)
        loc = 0.3j
        vals, coeffs = piessens_invert(
            lambda s: 1 / (s - loc), times, n=12, poles=[(loc, 1.0)]
        )
        assert np.max(np.abs(vals - np.exp(loc * times))) < 1e-12
        assert np.max(coeffs) < 1e-20

    def test_oscillatory_pole_needs_subtraction(self):
        # without subtraction an undamped oscillation is an endpoint
        # singularity of the expansion variable and convergence stalls;
        # this documents why callers must pass known poles explicitly
        times = np.linspace(0.1, 10.0, 21)
        truth = np.exp(3j * times)
        bad, _ = piessens_invert(lambda s: 1 / (s - 3j), times, n=24)
        good, _ = piessens_invert(lambda s: 1 / (s - 3j), times, n=24, poles=[(3j, 1.0)])
        assert np.max(np.abs(bad - truth)) > 1e-3
        assert np.max(np.abs(good - truth)) < 1e-12

    def test_two_pole_mixture(self):
        times = np.linspace(0.2, 4.0, 17)
        vals, _ = piessens_invert(
            lambda s: 1 / (s + 1) + mpmath.mpf(1) / 2 / (s + 3), times, n=24
        )
        truth = np.exp(-times) + 0.5 * np.exp(-3.0 * times)
        assert np.max(np.abs(vals - truth)) < 1e-8

    @settings(max_examples=8, deadline=None)
    @given(
        lams=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
        amps=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    )
    def test_damped_mixtures_property(self, lams, amps):
        # decay rate lambda maps to the power x^(lambda/b) of the
        # expansion variable, so coefficients fall off algebraically as
        # k^-(2 lambda/b + 1); b = 0.5 keeps the worst draw at k^-3
        amps = amps[: len(lams)]
        times = np.linspace(0.1, 3.0, 7)

        def F(s):
            return sum(a / (s + lam) for a, lam in zip(amps, lams))

        vals, _ = piessens_invert(F, times, n=32, b=0.5)
        truth = sum(a * np.exp(-lam * times) for a, lam in zip(amps, lams))
        assert np.max(np.abs(vals - truth)) < 1e-4

    def test_input_validation(self):
        F = lambda s: 1 / (s + 1)
        with pytest.raises(ValueError):
            piessens_invert(F, np.array([-0.1, 1.0]))
        with pytest.raises(ValueError):
            piessens_invert(F, np.array([1.0]), n=1)
        with pytest.raises(ValueError):
            piessens_invert(F, np.array([1.0]), b=0.0)


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

    def test_input_validation(self):
        F = lambda s: 1.0 / (s + 1.0)
        with pytest.raises(ValueError):
            talbot_invert(F, np.array([0.0, 1.0]), s_max=5.0)
        with pytest.raises(ValueError):
            talbot_invert(F, np.array([1.0]), s_max=0.0)
        vals, spread = talbot_invert(F, np.array([]), s_max=5.0)
        assert vals.size == 0 and spread.size == 0
