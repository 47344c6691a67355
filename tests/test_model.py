"""Spectral model: closed forms vs quadrature oracles, Laplace transform, scales."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import erfc, gammainc

from gapchain.model import (
    ModelParams,
    _exp_e1,
    bath_correlation,
    erfcx,
    ghat,
    ghat_slope,
    spectral_density,
)
from oracles import (
    complex_quad,
    correlation_by_quadrature,
    derived_scales,
    laplace_integral,
    laplace_of_G,
)

WIDEBAND = dict(alpha=1.0, omega_b=5.0, omega0=100.0, omega_c=800.0)


def params(**kw):
    base = dict(WIDEBAND)
    base.update(kw)
    return ModelParams(**base)


class TestValidation:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            params(alpha=-0.5)

    def test_rejects_zero_band_edge(self):
        with pytest.raises(ValueError, match="omega_b"):
            params(omega_b=0.0)

    def test_rejects_small_bandwidth(self):
        with pytest.raises(ValueError, match="omega_c"):
            params(omega_c=100.0)  # < 4*omega0

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError, match="delta"):
            params(delta=-1.0)

    def test_collects_all_violations(self):
        with pytest.raises(ValueError) as err:
            ModelParams(alpha=-1.0, omega_b=-2.0, omega0=100.0, omega_c=800.0, delta=0.0)
        msg = str(err.value)
        assert "alpha" in msg and "omega_b" in msg

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            params(alpha=float("nan"))

    @pytest.mark.parametrize("kw,text", [
        (dict(alpha=-1, omega_b=0.0, omega0=100.0, omega_c=200.0, delta=-2),
         "alpha must be >= 0, got -1; omega_b must be > 0 (gapped model), got 0.0; "
         "delta must be >= 0, got -2; omega_c must be >= 4*omega0 so the hard cutoff "
         "dominates the exponential tail, got omega_c=200.0, omega0=100.0"),
        (dict(alpha=float("nan"), omega_b=5.0, omega0="x", omega_c=None, delta=0.0),
         "alpha must be a finite number, got nan; omega0 must be a finite number, "
         "got 'x'; omega_c must be a finite number, got None"),
        (dict(alpha=1.0, omega_b=5.0, omega0=-1.0, omega_c=-3.0),
         "omega0 must be > 0, got -1.0; omega_c must be > 0, got -3.0"),
    ])
    def test_message_text(self, kw, text):
        # the CLI prints this text as its "model:" line
        with pytest.raises(ValueError) as err:
            ModelParams(**kw)
        assert str(err.value) == text


class TestSpectralDensity:
    def test_zero_at_band_edge(self):
        assert spectral_density(params(), 5.0) == 0.0

    def test_direct_value(self):
        # sqrt(100) * exp(-1) = 10/e
        assert spectral_density(params(), 105.0) == pytest.approx(10.0 / math.e, rel=1e-12)

    def test_argmax_at_half_cutoff(self):
        p = params()
        res = minimize_scalar(
            lambda w: -spectral_density(p, w),
            bounds=(p.omega_b + 1e-6, p.band_top),
            method="bounded",
            options={"xatol": 1e-8},
        )
        assert res.x == pytest.approx(p.omega_b + p.omega0 / 2.0, rel=1e-6)

    def test_support(self):
        p = params()
        for w in (-3.0, 0.0, 4.999, 5.0, 805.0001, 1e6):
            assert spectral_density(p, w) == 0.0
        assert spectral_density(p, p.band_top) > 0.0

    def test_vectorized_matches_scalar(self):
        p = params()
        ws = np.array([2.0, 5.0, 7.5, 105.0, 900.0])
        vec = spectral_density(p, ws)
        assert vec.shape == ws.shape
        for w, v in zip(ws, vec):
            assert v == spectral_density(p, w)

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-100.0, max_value=2000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_everywhere(self, alpha, omega):
        p = params(alpha=alpha)
        j = spectral_density(p, omega)
        assert j >= 0.0
        if omega <= p.omega_b or omega > p.band_top:
            assert j == 0.0


class TestBathCorrelation:
    def test_t0_is_omega2(self):
        # G(0) = (1/pi) int_band J = Omega^2 P(3/2, omega_c/omega0)
        p = params()
        g0 = bath_correlation(p, 0.0)
        assert g0.imag == 0.0
        assert g0.real == pytest.approx(p.omega2 * gammainc(1.5, 8.0), rel=1e-14)

    def test_t0_against_quadrature_oracle(self):
        p = params(omega_c=2400.0)
        assert bath_correlation(p, 0.0) == pytest.approx(
            correlation_by_quadrature(p, 0.0), rel=1e-8
        )

    def test_alpha_zero(self):
        p = params(alpha=0.0)
        for t in (0.0, 0.7, 12.0):
            assert bath_correlation(p, t) == 0.0

    @pytest.mark.parametrize("p, t_max", [
        (ModelParams(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0, delta=1.0), 3.0),
        (params(delta=3.0), 1.0),
        # omega_c t reaches 400 here; the oracle's own error passes 1e-10 near t = 0.1
        (ModelParams(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4, delta=0.5), 0.01),
    ], ids=["reduced", "wideband", "shifted"])
    def test_matches_oracle(self, p, t_max):
        # the band top makes |G| ripple at frequency omega_c, so only the
        # band integral itself pins G(t)
        ts = np.linspace(0.0, t_max, 25)
        closed = bath_correlation(p, ts)
        for t, g in zip(ts, closed):
            assert g == pytest.approx(correlation_by_quadrature(p, t), rel=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bath_correlation(params(), -0.1)

    @pytest.mark.parametrize("s", [1.0 + 3j, 2.5 - 40j])
    def test_laplace_pair_with_ghat(self, s):
        # int_0^inf G(t) e^{-st} dt = G_hat(s); e^{-40} ends the integral at 40/Re s
        p = ModelParams(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0, delta=1.0)
        val = complex_quad(lambda t: bath_correlation(p, t) * np.exp(-s * t), 0.0,
                           40.0 / s.real, epsabs=1e-14, epsrel=1e-12, limit=20000)
        assert val == pytest.approx(complex(ghat(p, s)), rel=1e-8)

    def test_agreement_over_time_range(self):
        # |closed - quad| <= 1e-5 * |closed| on t in [0, 10/omega_b]
        p = params(omega_c=1600.0, delta=2.0)
        for t in np.linspace(0.0, 10.0 / p.omega_b, 21):
            closed = bath_correlation(p, t)
            quad = correlation_by_quadrature(p, t)
            assert abs(closed - quad) <= 1e-5 * abs(closed)


class TestCorrelationQuadrature:
    def test_phase_shift_property(self):
        p1 = params(delta=0.0)
        p2 = params(delta=4.0)
        t = 0.37
        shifted = correlation_by_quadrature(p1, t) * np.exp(1j * 4.0 * t)
        assert correlation_by_quadrature(p2, t) == pytest.approx(shifted, rel=1e-8)

    def test_linear_in_alpha(self):
        t = 0.11
        one = correlation_by_quadrature(params(alpha=1.0), t)
        two = correlation_by_quadrature(params(alpha=2.0), t)
        assert two == pytest.approx(2.0 * one, rel=1e-10)


class TestLaplace:
    def test_alpha_zero(self):
        assert laplace_of_G(params(alpha=0.0), 3.0 + 1j) == 0.0

    def test_rejects_left_half_plane(self):
        for s in (0.0, -1.0, -0.5 + 2j, 1j):
            with pytest.raises(ValueError, match="Re"):
                laplace_of_G(params(), s)

    def test_initial_value_theorem(self):
        # s * G_hat(s) -> G(0) as real s -> inf
        p = params(omega_c=1200.0)
        s = 1e6 * p.omega0
        assert s * laplace_of_G(p, s) == pytest.approx(
            complex(bath_correlation(p, 0.0)), rel=1e-3
        )

    def test_low_frequency_expansion(self):
        # expansion -i*alpha*sqrt(omega0/pi) + alpha*sqrt(i s - omega_b), valid for
        # |s|, omega_b << omega0; the pinned point s = i*omega_b/2 sits on the
        # imaginary axis but off the integration cut, so it is evaluated through
        # the analytic continuation the public operation gates away.
        wb = 1.0
        p = ModelParams(alpha=1.0, omega_b=wb, omega0=1e4 * wb, omega_c=4e4 * wb, delta=0.0)
        s = 1j * wb / 2.0
        expansion = -1j * p.alpha * math.sqrt(p.omega0 / math.pi) + p.alpha * np.sqrt(
            1j * s - wb + 0j
        )
        val = laplace_integral(p, s)
        assert abs(val - expansion) <= 0.05 * abs(expansion)

    def test_conjugate_kernel_identity(self):
        # conj(G_hat(conj(s))) equals the transform taken with the opposite
        # rotation sign e^{+i(omega-delta)t}, i.e. (1/pi) int J/(s - i(omega-delta));
        # checked against an independent quadrature.
        p = params(delta=3.0)
        for s in (2.0 + 5j, 0.3 - 40j, 11.0 + 0.5j):
            lhs = np.conj(laplace_integral(p, np.conj(s)))
            pref = 2.0 * p.alpha / math.pi
            rhs = pref * complex_quad(
                lambda u: u * u * np.exp(-u * u / p.omega0)
                / (s - 1j * (p.omega_b + u * u - p.delta)),
                0.0,
                math.sqrt(p.omega_c),
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_fixed_rule_matches_adaptive(self):
        p = params(delta=2.0)
        pts = np.array([3.0 + 1j, 0.5 - 200j, 40.0 + 0j, -30.0 + 900j, -5.0 - 320j])
        vec = ghat(p, pts)
        for s, v in zip(pts, vec):
            assert v == pytest.approx(laplace_integral(p, s), rel=1e-8)


def s_at(p, z):
    """The s where z = omega_b - delta - i s, the variable of ghat's closed form."""
    return 1j * (z - p.omega_b + p.delta)


# (omega_c/omega0 = 8, omega_c/omega0 = 5) corners
GHAT_CORNERS = [params(delta=3.0), ModelParams(alpha=1.0, omega_b=2.0, omega0=20.0,
                                               omega_c=100.0, delta=1.0)]


class TestGhatClosedForm:
    """model.ghat against the adaptive oracle where a fixed rule is weakest."""

    @pytest.mark.parametrize("p", GHAT_CORNERS, ids=["wc8w0", "wc5w0"])
    @pytest.mark.parametrize(
        "z_over_wc",
        [
            1e-9 + 1e-10j, 1e-6, -1e-6j, 1e-4 + 1e-4j,  # band edge, z -> 0
            -1.001 + 1e-3j, -1.001 - 1e-3j,  # just past the hard band top
            -0.999 + 1e-3j, -0.999 - 1e-3j,  # just inside it
            -1.0 + 1e-3j, -1.0 - 1e-3j,  # straight above and below it
            -2.0 + 1e-12j, -5.0 - 1e-9j, -1.5 + 1e-6j,  # next to the tail cut past the top
            -0.5 + 1e-3j, -0.5 - 1e-3j, -0.01 - 1e-3j, -0.99 + 1e-3j,  # 1e-3 omega_c off the cut
        ],
    )
    def test_matches_adaptive_oracle(self, p, z_over_wc):
        s = s_at(p, z_over_wc * p.omega_c)
        assert complex(ghat(p, s)) == pytest.approx(laplace_integral(p, s), rel=1e-10)

    def test_finite_where_exp_overflows(self):
        # omega_c/omega0 = 800: (z + omega_c)/omega0 passes e^x's overflow at 709
        p = ModelParams(alpha=1.0, omega_b=2.0, omega0=1.0, omega_c=800.0, delta=1.0)
        for z in (1000.0 + 5j, -300.0 - 1e-3j, 2.0 + 0j):
            s = s_at(p, z)
            assert complex(ghat(p, s)) == pytest.approx(laplace_integral(p, s), rel=1e-10)

    def test_batch_equals_pointwise(self):
        p = GHAT_CORNERS[0]
        pts = s_at(p, np.array([-3.0 * p.omega_c + 2j, 0.3 * p.omega_c - 5j, 7.0 + 40j]))
        batch = ghat(p, pts)
        for s, v in zip(pts, batch):
            assert complex(ghat(p, s)) == pytest.approx(v, rel=1e-14)
        # A scalar takes the dot-product tail and the unguarded e^x E1(x), an
        # array the running sum and the overflow guard.  10^4 more points, on
        # the wideband and broad corners at delta = 0, omega_b and the band
        # top: a third within 1e-14..1 of a band end, half just right of the
        # cut.  Scalar and array arithmetic differed by up to 4e-15 here
        # already when both paths summed the tail in a loop.
        rng = np.random.default_rng(5)
        for corner in (WIDEBAND, dict(alpha=0.2, omega_b=1.0, omega0=1e4, omega_c=4e4)):
            for delta in (0.0, corner["omega_b"], corner["omega_b"] + corner["omega_c"]):
                p = ModelParams(**corner, delta=delta)
                ends = np.array([p.omega_b - delta, p.band_top - delta])
                near = rng.choice(ends, 600) + rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(
                    -14.0, 0.0, 600)
                nu = np.concatenate([near, rng.uniform(ends[0] - p.omega_c, ends[1] + p.omega_c,
                                                       1067)])
                re = np.where(rng.random(nu.size) < 0.5, 1e-30, 10.0 ** rng.uniform(-12, 3, nu.size))
                pts = re * rng.choice([-1.0, 1.0], nu.size) - 1j * nu
                batch = ghat(p, pts)
                each = np.array([complex(ghat(p, s)) for s in pts])
                assert np.all(np.isfinite(batch)) and np.all(np.isfinite(each))
                assert np.max(np.abs(each - batch) / np.abs(batch)) <= 1e-14

    @pytest.mark.parametrize("p", GHAT_CORNERS, ids=["wc8w0", "wc5w0"])
    def test_slope_matches_quadrature(self, p):
        pref = 2.0 * p.alpha / math.pi
        for s in (s_at(p, 0.2 * p.omega0 + 0j), s_at(p, -0.5 * p.omega_c + 0.1 * p.omega_c * 1j),
                  3.0 + 40j):
            ref = -pref * complex_quad(
                lambda u: u * u * np.exp(-u * u / p.omega0)
                / (s + 1j * (p.omega_b + u * u - p.delta)) ** 2,
                0.0, math.sqrt(p.omega_c), epsrel=1e-12, limit=4000,
            )
            assert ghat_slope(p, s, complex(ghat(p, s))) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p", GHAT_CORNERS, ids=["wc8w0", "wc5w0"])
    def test_real_axis_matches_adaptive_oracle(self, p):
        for s in (0.75, 12.0, 47.25):
            assert complex(ghat(p, s)) == pytest.approx(laplace_integral(p, s), rel=1e-10)

    def test_hard_band_top_real_axis(self):
        # delta = omega_b + omega_c puts the E1 log singularity at s = 0
        p = ModelParams(alpha=1.0, omega_b=2.0, omega0=20.0, omega_c=100.0, delta=102.0)
        for s in (0.05, 1.0):
            assert complex(ghat(p, s)) == pytest.approx(laplace_integral(p, s), rel=1e-10)


def log_polar(rng, n, lo, hi, arg):
    """n points with |z| log-uniform in [lo, hi] and arg z uniform in [-arg, arg]."""
    return 10.0 ** rng.uniform(lo, hi, n) * np.exp(1j * rng.uniform(-arg, arg, n))


class TestSpecialFunctions:
    """The numpy erfcx and e^x E1(x) against scipy.special and mpmath."""

    def test_erfcx_matches_scipy_and_mpmath(self):
        from scipy import special

        rng = np.random.default_rng(11)
        r = 10.0 ** rng.uniform(-4.0, 4.0, 600)
        y = np.concatenate([log_polar(rng, 20000, -4.0, 4.0, math.pi / 2), r + 0j,
                            1j * r, -1j * r])  # Re y >= 0, both edges included
        got = erfcx(y)
        assert np.max(np.abs(got / special.erfcx(y) - 1.0)) <= 3e-14
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        few = y[::50]
        exact = np.array([complex(mpmath.exp(v * v) * mpmath.erfc(v))
                          for v in (mpmath.mpc(z.real, z.imag) for z in few)])
        assert np.max(np.abs(got[::50] / exact - 1.0)) <= 3e-15
        # a point gives the same bits alone as in an array
        assert all(complex(erfcx(v)) == g for v, g in zip(y[::97], got[::97]))
        assert np.array_equal(erfcx(y[:3]), got[:3])

    def test_exp_e1_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = np.random.default_rng(12)
        r = 10.0 ** rng.uniform(-4.0, 4.0, 300)
        x = np.concatenate([log_polar(rng, 3000, -4.0, 4.0, math.pi), r + 0j,
                            -r + 0j, -r - 0j * 1j])
        x[-r.size:] = [complex(-v, -0.0) for v in r]  # the cut's lower side

        def exact(z):
            if z.imag == 0.0 and z.real < 0.0:  # E1(-r +- i0) = -Ei(r) -+ i pi
                side = math.copysign(1.0, z.imag)
                return complex(mpmath.exp(z.real) * (-mpmath.ei(-z.real) - side * 1j * mpmath.pi))
            v = mpmath.mpc(z.real, z.imag)
            return complex(mpmath.exp(v) * mpmath.e1(v))

        ref = np.array([exact(z) for z in x])
        got = _exp_e1(x)
        assert np.max(np.abs(got / ref - 1.0)) <= 2e-15
        # the two sides of the cut differ by 2 pi i e^x; past |x| = 40 that is
        # below the rounding of e^x E1(x) ~ 1/x
        upper, lower, near = got[-2 * r.size:-r.size], got[-r.size:], r < 40.0
        jump = (lower - upper)[near] / (2j * math.pi * np.exp(-r[near]))
        assert np.max(np.abs(jump - 1.0)) <= 1e-12
        each = np.array([_exp_e1(z) for z in x])
        assert np.max(np.abs(each / ref - 1.0)) <= 2e-15

    def test_exp_e1_matches_scipy(self):
        from scipy import special

        rng = np.random.default_rng(13)
        x = log_polar(rng, 20000, -4.0, 2.5, math.pi)  # scipy's e^x overflows beyond
        assert np.max(np.abs(_exp_e1(x) / (np.exp(x) * special.exp1(x)) - 1.0)) <= 1e-12


class TestDerivedScales:
    def test_alpha_zero(self):
        d = derived_scales(params(alpha=0.0, delta=12.0))
        assert d.omega_s == 0.0 and d.e_en == 0.0 and d.e_en_approx == 0.0
        assert d.delta_L == 12.0 - 5.0
        assert d.delta_L_tilde == d.delta_L

    def test_e_en_approx_value(self):
        d = derived_scales(params())
        assert d.e_en_approx == pytest.approx(math.sqrt(100.0 / math.pi), rel=1e-14)

    def test_e_en_gap_correction_closed_form(self):
        # infinite-cutoff integral is exact: E_en = e_en_approx * (1 - sqrt(pi) z e^{z^2} erfc(z)),
        # z = sqrt(omega_b/omega0); the gap suppresses the near-edge weight, so quad < approx
        d = derived_scales(params())
        z = math.sqrt(5.0 / 100.0)
        expected = d.e_en_approx * (1.0 - math.sqrt(math.pi) * z * math.exp(z * z) * erfc(z))
        assert d.e_en < d.e_en_approx
        assert d.e_en == pytest.approx(expected, rel=1e-3)  # finite-cutoff tail ~ 1e-4

    def test_e_en_quadrature_within_ten_percent_for_deep_band(self):
        # the closed form above gives ~31% deviation at omega_b/omega0 = 0.05; the
        # approximation reaches 10% only once omega_b/omega0 <~ 0.003
        d = derived_scales(params(omega0=2000.0, omega_c=8000.0))
        assert 0.0 < (d.e_en_approx - d.e_en) / d.e_en_approx < 0.10

    def test_omega_s_linear_in_alpha(self):
        # omega_s = 4 Omega^2/omega0 with Omega^2 linear in alpha: doubling alpha doubles it
        assert params(alpha=2.0).omega_s == pytest.approx(2.0 * params(alpha=1.0).omega_s)
        assert params().omega_s == pytest.approx(2.0 * math.sqrt(100.0 / math.pi), rel=1e-14)

    def test_scale_invariance_of_kernel(self):
        # (omega -> k*omega, t -> t/k, alpha -> sqrt(k)*alpha) leaves G(t)*t dimensionless:
        # G_scaled(t/k) = k^2 G(t). Exactness of this rescaling is used by the
        # asymptotic cross-validation tests.
        k = 0.01
        p = params(delta=7.0)
        q = ModelParams(
            alpha=math.sqrt(k) * p.alpha,
            omega_b=k * p.omega_b,
            omega0=k * p.omega0,
            omega_c=k * p.omega_c,
            delta=k * p.delta,
        )
        for t in (0.0, 0.4, 2.0):
            assert bath_correlation(q, t / k) == pytest.approx(
                k * k * bath_correlation(p, t), rel=1e-12
            )
