"""Exact single-excitation dynamics in the rotating-wave approximation.

With one excitation shared between the emitter and the band, the excited
amplitude A(t) obeys the closed memory equation

    dA/dt = -integral_0^t G(t - tau) A(tau) d tau,

with the kernel G of ``model.bath_correlation``.  Three independent
solvers are provided: direct Volterra time stepping, inversion of the
resolvent 1/(s + G_hat(s)) with G_hat in the closed form of
``model.ghat``, and exact diagonalization of the mapped chain.  They
share no algorithmic machinery, so pairwise agreement is a genuine
cross-check.  The inversion collapses the Bromwich contour onto the
band: A(t) is the sum of the real-axis poles (a bound state below the
edge, and one above the hard band top) plus the Fourier integral of the
emitter's spectral density over the band, the spectral form of band-edge
decay (John & Quang, *PRA* 50, 1764 (1994)).  Deformed into the lower
half plane, the same band integral becomes the second-sheet resonance
poles plus two steepest-descent rays from the band ends, an independent
quadrature that checks every point.

Frames: the memory equation above propagates the interaction-picture
amplitude (A = 1 for all t when alpha = 0).  The lab-frame amplitude
carries the extra free phase exp(-i delta t); chain diagonalization
produces it directly because the emitter splitting sits in the chain
Hamiltonian.  Every series records its frame and converts on demand;
populations |A|^2 are frame-independent.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize
from scipy.linalg import eigh_tridiagonal

from ._quad import complex_quad
from .chainmap import ChainCoefficients
from .invlaplace import filon_fourier, ray_rule
from .model import ModelParams, bath_correlation, ghat, ghat_slope

__all__ = [
    "AmplitudeSeries",
    "RegimeClassification",
    "CoherenceTrace",
    "volterra_solve",
    "laplace_invert",
    "cut_invert",
    "ray_invert",
    "chain_evolve",
    "chain_state_amplitudes",
    "classify_regime",
    "stationary_population",
    "analytic_longtime",
    "find_bound_pole",
    "rwa_coherence",
]

_ATOL = 1e-6  # slack of AmplitudeSeries.validate on |A| <= 1 and A(0) = 1
_FLAG_TOL = 1e-3  # cut-ray disagreement, or sum-rule miss, that flags a Laplace point
_OFF_CUT = 1e-30  # Re s just right of the cut, where Re G_hat = J to 1e-14
# Panel breakpoints of the cut integral, fixed by the model alone:
_U_PANELS = 64  # cosine-spaced in u = sqrt(omega - omega_b)
_TOP_OCTAVES = np.arange(6, 40)  # band_top - omega_c 2^-k: the band-top log
_PEAK_OCTAVES = np.arange(-4, 20)  # omega_r +- Gamma 2^k: an in-band resonance
_RAY_FLOOR = 1e-14  # rays nu_e - i y of ``ray_invert``: first octave at y = omega_c 1e-14,
_RAY_REACH = 40.0  # last node at y = 40/t_min, where e^{-y t} <= e^{-40}
_NEWTON_STEPS = 60
_NEWTON_STALL = 20  # steps a Newton seed may take without halving its best |s + G_II|
_ZERO_TOL = 1e-10  # |s + G_II| of a kept second-sheet zero, in units of 1 + |nu|
_NEWTON_FLOOR = 1e-13  # |s + G_II| from which a seed takes one last step, same units


@dataclass
class AmplitudeSeries:
    """Excited-state amplitude A(t_j) from one solver.

    flags marks points where the solver's internal cross-check failed
    (only the Laplace inverter sets them); flagged points are exempt
    from the contractivity invariant since they are reported as
    unreliable rather than silently dropped.  checks holds what the
    cross-check used and found, for the run's manifest.
    """

    times: np.ndarray
    values: np.ndarray
    method: str  # volterra | laplace | chain | analytic
    params_echo: ModelParams | None
    delta: float
    frame: str = "interaction"  # interaction | lab
    flags: np.ndarray | None = None
    checks: dict | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if self.frame not in ("interaction", "lab"):
            raise ValueError(f"unknown frame {self.frame!r}")

    def validate(self):
        """self if |A| <= 1 and A(0) = 1 hold to 1e-6; ValueError if not."""
        mod = np.abs(self.values)
        ok = mod <= 1.0 + _ATOL
        if self.flags is not None:
            ok |= self.flags
        if not ok.all():
            j = int(np.argmax(~ok))
            raise ValueError(
                f"contractivity violated: |A({self.times[j]:g})| = {mod[j]:.6g}"
            )
        if self.times.size and self.times[0] == 0.0:
            if abs(self.values[0] - 1.0) > _ATOL:
                raise ValueError(f"A(0) = {self.values[0]:.6g}, expected 1")
        return self

    def to_lab(self):
        if self.frame == "lab":
            return self
        vals = self.values * np.exp(-1j * self.delta * self.times)
        return replace(self, values=vals, frame="lab")

    def to_interaction(self):
        if self.frame == "interaction":
            return self
        vals = self.values * np.exp(1j * self.delta * self.times)
        return replace(self, values=vals, frame="interaction")

    def population(self):
        """|A(t)|^2, frame-independent."""
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class RegimeClassification:
    """Long-time regime data from the quadratic root analysis.

    The roots solve r^2 + alpha r + D = 0 with D = Delta_L - omega_s/2:
    the resolvent derivation puts the half shift in the roots while the
    regime thresholds below use the fully shifted detuning, and the two
    were cross-validated numerically against the exact resolvent.
    pole_stable is False inside the shallow
    strip where the nominal bound root acquires an imaginary part; the
    stationary population estimate is then 0.
    """

    regime: str  # below_band | gap_dip | above_band
    r1: complex
    c1: complex
    delta_L_tilde: float
    r_plus: complex
    r_minus: complex
    pole_stable: bool


@dataclass
class CoherenceTrace:
    """Real emitter coherence trace <sigma_x(t)> extracted from a solver run."""

    times: np.ndarray
    sigma_x: np.ndarray
    method: str = "rwa"


def volterra_solve(p: ModelParams, t_max, dt=None, self_check=True):
    """Second-order predictor-corrector product integration of the memory equation.

    dt defaults to 0.05/omega0 and must satisfy dt <= 0.1/omega0 so the
    kernel's initial scale is resolved.  With self_check the run is
    repeated at dt/2 and rejected if |A|^2 moved by more than 1e-4.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if dt is None:
        dt = 0.05 / p.omega0
    if dt <= 0.0 or dt > 0.1 / p.omega0:
        raise ValueError(f"dt must lie in (0, 0.1/omega0 = {0.1 / p.omega0:g}]")
    n = max(1, int(round(t_max / dt)))
    times = np.arange(n + 1) * dt
    K = bath_correlation(p, times)
    A = np.zeros(n + 1, dtype=complex)
    F = np.zeros(n + 1, dtype=complex)
    A[0] = 1.0
    for m in range(n):
        # trapezoid weights on the convolution up to t_{m+1}: interior
        # nodes full weight, endpoints half; the K[0] endpoint couples to
        # the unknown A[m+1], closed by a Heun predictor-corrector pass
        core = np.dot(K[1 : m + 2][::-1], A[: m + 1]) - 0.5 * K[m + 1] * A[0]
        a_pred = A[m] + dt * F[m]
        f_pred = -dt * (core + 0.5 * K[0] * a_pred)
        A[m + 1] = A[m] + 0.5 * dt * (F[m] + f_pred)
        F[m + 1] = -dt * (core + 0.5 * K[0] * A[m + 1])
    series = AmplitudeSeries(times, A, "volterra", p, p.delta, frame="interaction")
    if self_check:
        fine = volterra_solve(p, t_max, dt=dt / 2.0, self_check=False)
        dev = np.max(np.abs(series.population() - fine.population()[::2][: n + 1]))
        if dev >= 1e-4:
            raise RuntimeError(
                f"step-size rejection: halving dt moved |A|^2 by {dev:.2e} "
                f"(>= 1e-4); reduce dt below {dt:g}"
            )
    return series.validate()


def find_bound_pole(p: ModelParams):
    """Every real-axis pole of the resolvent 1/(s + G_hat(s)), as [(location, residue)].

    Off the band, s = -i nu gives s + G_hat = i g(nu) with the real
    g(nu) = Im G_hat(-i nu + 0) - nu, which falls strictly on each side of
    the band.  So there is at most one pole below the edge, where g(nu_b)
    < 0, and exactly one above the top, where the log singularity sends g
    to +inf.  Each root is bracketed in the log of its distance d from the
    band end, between the last representable d and one past which the sign
    of g is fixed by |Im G_hat| <= max(omega_s/2, Omega^2/d).  The residue
    is 1/(1 + dG_hat/ds).  A pole closer to the top than double precision
    resolves has a weight pi d / J(band top) below that resolution too,
    and is skipped.
    """
    if p.alpha == 0.0:
        return []
    poles = []
    for end, side in ((p.omega_b - p.delta, -1.0), (p.band_top - p.delta, 1.0)):
        lo = math.log(8.0 * np.finfo(float).eps * (abs(end) + p.omega_c))
        hi = math.log(abs(end) + p.omega2 + p.omega_s + 1.0)

        def h(x):  # g at distance e^x from the band end
            nu = end + side * math.exp(x)
            return float(ghat(p, _OFF_CUT - 1j * nu).imag) - nu

        if not h(lo) * h(hi) < 0.0:
            continue
        nu = end + side * math.exp(optimize.brentq(h, lo, hi, xtol=1e-15))
        s = _OFF_CUT - 1j * nu
        poles.append((-1j * nu, 1.0 / (1.0 + ghat_slope(p, s, complex(ghat(p, s))))))
    return poles


def _cut_edges(p: ModelParams):
    """Panel breakpoints of the band in nu = omega - delta.

    Cosine spacing in u = sqrt(omega - omega_b) resolves the sqrt edge;
    octaves down to omega_c 2^-39 resolve the band-top log; when the
    shifted emitter line omega_r = delta + Im G_hat(+0) lies in the band,
    octaves of its width Gamma = Re G_hat(+0) resolve the Lorentzian peak.
    """
    nu_b, nu_t = p.omega_b - p.delta, p.band_top - p.delta
    u = math.sqrt(p.omega_c) * 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, _U_PANELS + 1)))
    nu = [nu_b + u * u, nu_t - p.omega_c * 2.0 ** -_TOP_OCTAVES]
    g0 = complex(ghat(p, _OFF_CUT))
    if nu_b < g0.imag < nu_t and g0.real > 0.0:
        nu += [g0.imag - g0.real * 2.0**_PEAK_OCTAVES, g0.imag + g0.real * 2.0**_PEAK_OCTAVES]
    return np.unique(np.clip(np.concatenate(nu), nu_b, nu_t))


def cut_invert(p: ModelParams, times):
    """Interaction-frame amplitude A(t) from the collapsed Bromwich contour.

    A(t) = sum_p Z_p e^{s_p t} + int_band rho(omega) e^{-i(omega - delta)t} d omega,
    with the poles of ``find_bound_pole`` and the emitter's spectral density
    rho = (1/pi) Re[1/(s + G_hat(s))] just right of the cut, integrated by
    ``invlaplace.filon_fourier`` on the panels of ``_cut_edges``.
    """
    times = np.asarray(times, dtype=float)
    if p.alpha == 0.0:
        return np.ones(times.size, dtype=complex)

    def density(nu):
        s = _OFF_CUT - 1j * nu
        return (1.0 / (s + ghat(p, s))).real / math.pi

    values = filon_fourier(density, _cut_edges(p), times)
    for loc, res in find_bound_pole(p):
        values = values + res * np.exp(loc * times)
    return values


def _continued_j(p: ModelParams, nu):
    """J_a(omega) = alpha sqrt(omega - omega_b) e^{-(omega - omega_b)/omega0} on the
    principal branch, and dJ_a/domega, at omega = nu + delta."""
    x = np.asarray(nu, dtype=complex) + p.delta - p.omega_b
    r, e = np.sqrt(x), p.alpha * np.exp(-x / p.omega0)
    return e * r, e * (0.5 / r - r / p.omega0)


def _second_sheet_zeros(p: ModelParams):
    """Zeros of s + G_II(s), s = -i nu, in the lower half nu-plane, as [(nu, Z)].

    G_II = G_hat + 2 J_a continues G_hat from just right of the cut through
    the band, and Z = 1/(1 + G_hat' + 2i J_a') is a zero's weight.  Newton
    runs at once from the shifted emitter line -i G_hat(+0) and from just
    below each band end; a zero is kept if |s + G_II| < 1e-10 (1 + |nu|).
    A seed stops once its step is below rounding or one step after its
    |s + G_II| reaches _NEWTON_FLOOR (1 + |nu|), where rounding, not Newton,
    sets the residual.  It is dropped once its next step lands back on its
    last iterate (a 2-cycle) or its best |s + G_II| has not halved for
    _NEWTON_STALL steps (up to 15 on the 385-point test grids).
    """
    nu_b, nu_t = p.omega_b - p.delta, p.band_top - p.delta
    nu = np.array([-1j * complex(ghat(p, _OFF_CUT)), nu_b - 1e-3j * (1.0 + abs(nu_b)),
                   nu_t - 1e-3j])
    back, dropped = np.full(nu.size, np.nan), np.zeros(nu.size, dtype=bool)
    best, stale = np.full(nu.size, np.inf), np.zeros(nu.size, dtype=int)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            s = -1j * nu
            g = ghat(p, s)
            j, dj = _continued_j(p, nu)
            f, z = s + g + 2.0 * j, 1.0 / (1.0 + ghat_slope(p, s, g) + 2j * dj)
            step = 1j * f * z  # d(s + G_II)/dnu = -i/Z
            halved = np.abs(f) < 0.5 * best
            best, stale = np.where(halved, np.abs(f), best), np.where(halved, 0, stale + 1)
            dropped |= (np.abs(nu - step - back) < 1e-2 * np.abs(step)) | (stale >= _NEWTON_STALL)
            live = (np.abs(step) > 1e-15 * (1.0 + np.abs(nu))) & ~dropped
            if not live.any():
                break  # every seed has converged, left the finite numbers or been dropped
            dropped |= np.abs(f) <= _NEWTON_FLOOR * (1.0 + np.abs(nu))  # a last step from the floor
            back, nu = nu, np.where(live, nu - step, nu)
    zeros = []
    for v, fv, zv in zip(nu, f, z):
        tol = _ZERO_TOL * (1.0 + abs(v))  # two seeds at one zero agree far within 1e3 tol
        if abs(fv) < tol and v.imag < 0.0 and all(abs(v - u) > 1e3 * tol for u, _ in zeros):
            zeros.append((complex(v), complex(zv)))
    return zeros


def _ray_term(p: ModelParams, times, zeros, top):
    """-+ i e^{-i nu_e t} int_0^inf h(nu_e - i y) e^{-y t} dy, the ray from the band
    edge nu_e (or, with top, the band top) in ``ray_invert``.

    h = (f_+ - f_-)/2 pi = -J_a f_+ f_- / pi continues the band density,
    with f_- = 1/(s + G_hat) and f_+ = 1/(s + G_II).  Each zero nu_p adds
    breakpoints -Im nu_p +- d 2^k, d = |Re nu_p - nu_e| its distance from
    the ray, as ``_PEAK_OCTAVES`` do for a peak on the band.
    """
    end = p.band_top - p.delta if top else p.omega_b - p.delta
    breaks = [-nu.imag + sign * abs(nu.real - end) * 2.0**_PEAK_OCTAVES
              for nu in zeros for sign in (-1.0, 1.0)]
    y, w = ray_rule(_RAY_FLOOR * p.omega_c, _RAY_REACH / times.min(), breaks, sqrt=not top)
    nu = end - 1j * y
    a, j = -1j * nu + ghat(p, -1j * nu), _continued_j(p, nu)[0]
    wh = -w * j / (math.pi * a * (a + 2.0 * j))  # weights times h
    return (1j if top else -1j) * np.exp(-1j * end * times) * (np.exp(-np.outer(times, y)) @ wh)


def ray_invert(p: ModelParams, times, bound):
    """Interaction-frame A(t) from the band integral deformed onto steepest-descent
    rays, as (values, resonances).

    Pushed into the lower half nu-plane, the band integral of ``cut_invert``
    becomes the two ``_ray_term`` rays plus sum Z_p e^{-i nu_p t} over the
    resonances, the ``_second_sheet_zeros`` with nu_b < Re nu_p < nu_t.
    ``bound`` holds the real-axis poles as ``find_bound_pole`` returns them.
    """
    times = np.asarray(times, dtype=float)
    if p.alpha == 0.0:
        return np.ones(times.size, dtype=complex), []
    zeros = _second_sheet_zeros(p)
    resonances = [(nu, z) for nu, z in zeros
                  if p.omega_b - p.delta < nu.real < p.band_top - p.delta]
    values = sum(_ray_term(p, times, [nu for nu, _ in zeros], top) for top in (False, True))
    for loc, res in bound + [(-1j * nu, z) for nu, z in resonances]:
        values = values + res * np.exp(loc * times)
    return values, resonances


def laplace_invert(p: ModelParams, times):
    """Invert the resolvent transform A_hat(s) = 1/(s + G_hat(s)).

    ``cut_invert`` is the primary inverter and ``ray_invert`` checks every
    point; disagreements beyond 1e-3 are flagged.  The real-axis poles are
    the one part both share, so the sum rule A(0) = 1 of the cut integral
    checks them, and a miss beyond 1e-3 flags every point.  ``checks``
    records the poles used and the sum-rule residual.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    if times.min() <= 0.0:
        raise ValueError("laplace_invert requires all times > 0")
    values = cut_invert(p, np.concatenate(([0.0], times)))
    residual = float(abs(values[0] - 1.0))
    bound = find_bound_pole(p)
    ref, resonances = ray_invert(p, times, bound)
    flags = (np.abs(values[1:] - ref) > _FLAG_TOL) | (residual > _FLAG_TOL)
    poles = ([{"nu": 1j * loc, "weight": res, "kind": "bound"} for loc, res in bound]
             + [{"nu": nu, "weight": z, "kind": "resonance"} for nu, z in resonances])
    return AmplitudeSeries(times, values[1:], "laplace", p, p.delta, frame="interaction",
                           flags=flags, checks={"poles": poles, "sum_rule_residual": residual}
                           ).validate()


def _chain_eigh(c: ChainCoefficients, delta):
    """Eigenvalues and eigenvectors of the single-excitation chain Hamiltonian:
    diagonal (delta, eps'_0, ...) and off-diagonal (g, t_0, ...)."""
    return eigh_tridiagonal(np.concatenate(([delta], c.eps)), np.concatenate(([c.g], c.t)))


def chain_state_amplitudes(c: ChainCoefficients, delta, times,
                           sites=slice(None)):
    """Amplitude matrix of e^{-iHt}|site 0> in the site basis, rows = times.

    Column 0 is the emitter amplitude A(t) (lab frame); the remaining
    columns are the chain-mode photon amplitudes.  ``sites`` (a slice or
    an index list into the sites 0..N) keeps only those columns.  Any time
    grid is allowed; this direct sum is the reference that the tests and
    ``perfbench/make_refs.py`` check ``chain_evolve`` against.
    """
    lam, V = _chain_eigh(c, delta)
    times = np.asarray(times, dtype=float)
    return (np.exp(-1j * np.outer(times, lam)) * V[0]) @ V[sites].T


def chain_evolve(c: ChainCoefficients, delta, t_max, samples=301):
    """Exact lab-frame amplitude on ``samples`` uniform times in [0, t_max].

    With t_k = k dt, k = aB + b and B = ceil(sqrt(samples)), each phase of
    the ``_chain_eigh`` modes splits as e^{-i lam t_aB} e^{-i lam t_b}, so a
    column sum_n V_0n V_sn e^{-i lam_n t_k} is one GEMM of the row phases
    (samples/B x N+1) and the column phases (N+1 x B), raveled.  Only the
    rounding of lam t differs from ``chain_state_amplitudes``; the two agree
    to 2e-15 at the wideband sweep corner (N = 650, 2001 samples).  A
    light-cone check requires the last-site occupation to stay below 1e-6
    and reports the first violating time otherwise.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    times = np.linspace(0.0, t_max, samples)
    lam, V = _chain_eigh(c, delta)
    block = math.isqrt(samples - 1) + 1
    rows, cols = (np.exp(-1j * np.outer(ts, lam)) for ts in (times[::block], times[:block]))
    amp, tail = (((rows * (V[0] * V[s])) @ cols.T).ravel()[:samples] for s in (0, -1))
    tail = np.abs(tail) ** 2
    bad = tail >= 1e-6
    if bad.any():
        j = int(np.argmax(bad))
        raise RuntimeError(
            f"light-cone violation: last-site occupation {tail[j]:.2e} at "
            f"t = {times[j]:g}; extend the chain"
        )
    return AmplitudeSeries(times, amp, "chain", None, delta, frame="lab").validate()


def classify_regime(p: ModelParams) -> RegimeClassification:
    """Three-regime classification of the long-time amplitude.

    Thresholds on the shifted detuning Delta_L_tilde: below_band for
    Delta_L_tilde <= 0 (closed-below tie-break), gap_dip for
    0 < Delta_L_tilde < alpha^2/2 (pole coefficient vanishes), and
    above_band otherwise (decaying resonance pole, though these broad-band
    asymptotics miss the real bound state above the hard band top).
    """
    D = p.delta_L - 0.5 * p.omega_s
    disc = 0.25 * p.alpha**2 - D
    root = np.sqrt(complex(disc))
    r_plus = -0.5 * p.alpha + root
    r_minus = -0.5 * p.alpha - root
    dlt = p.delta_L_tilde
    if r_plus == r_minus:
        # degenerate double root (disc = 0): the residue expansion is
        # invalid; report the decoupled-limit coefficient and no stable
        # pole so downstream estimates fall back to the cut integral
        regime = "below_band" if dlt <= 0.0 else (
            "gap_dip" if dlt < 0.5 * p.alpha**2 else "above_band")
        return RegimeClassification(regime, r_plus, 1.0 + 0.0j, dlt,
                                    r_plus, r_minus, False)
    if dlt <= 0.0:
        stable = disc > 0.0
        c1 = 2.0 * r_plus / (r_plus - r_minus)
        return RegimeClassification("below_band", r_plus, c1, dlt,
                                    r_plus, r_minus, stable)
    if dlt < 0.5 * p.alpha**2:
        return RegimeClassification("gap_dip", r_plus, 0.0 + 0.0j, dlt,
                                    r_plus, r_minus, False)
    c1 = 2.0 * r_minus / (r_minus - r_plus)
    return RegimeClassification("above_band", r_minus, c1, dlt,
                                r_plus, r_minus, False)


def stationary_population(p: ModelParams):
    """Long-time excited population |A(inf)|^2 predicted by the pole analysis.

    Nonzero only for a stable below-band pole: the gap dip and every
    above-band pole are taken to relax, so this misses the real bound state
    above the hard band top omega_b + omega_c, where the chain stays trapped.
    """
    cls = classify_regime(p)
    if cls.regime == "below_band" and cls.pole_stable:
        return float(abs(cls.c1) ** 2)
    return 0.0


def _branch_integral(p: ModelParams, t):
    """Cut contribution I(alpha, Delta_L, t) by adaptive quadrature.

    The cut is folded onto the ray s = i Delta_L - x, x > 0, giving the
    denominator (-x + i D)^2 + i alpha^2 x with the half-shifted
    D = Delta_L - omega_s/2; substitution x = y^2 tames the sqrt(x)
    numerator, and the integrand is truncated at x = 50/t where the
    exp(-x t) tail is below 1e-12 of the remaining integral.
    """
    D = p.delta_L - 0.5 * p.omega_s
    a2 = p.alpha**2
    y_top = math.sqrt(50.0 / t)

    def ig(y):
        y2 = y * y
        return y2 * np.exp(-y2 * t) / ((-y2 + 1j * D) ** 2 + 1j * a2 * y2)

    val = complex_quad(ig, 0.0, y_top)
    pref = 2.0 * p.alpha * complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) / math.pi
    return pref * np.exp(1j * p.delta_L * t) * val


def analytic_longtime(p: ModelParams, t):
    """Asymptotic closed-form amplitude: pole term plus branch-cut integral.

    Valid deep in the broad-band regime omega0 >> alpha^2, delta, omega_b
    and for t >> 1/omega0; a warning (not an error) marks calls outside
    that window.  Interaction-picture convention, matching
    volterra_solve.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    scale = max(p.alpha**2, abs(p.delta), p.omega_b)
    if p.omega0 < 20.0 * scale or t * p.omega0 < 5.0:
        warnings.warn(
            "analytic_longtime outside its asymptotic window "
            "(needs omega0 >> alpha^2, delta, omega_b and t >> 1/omega0)",
            stacklevel=2,
        )
    cls = classify_regime(p)
    val = _branch_integral(p, t)
    include_pole = (cls.regime == "above_band"
                    or (cls.regime == "below_band" and cls.pole_stable))
    if include_pole:
        r1 = cls.r1
        val = val + cls.c1 * np.exp(1j * (r1 * r1 + p.delta_L) * t)
    return complex(val)


def rwa_coherence(series: AmplitudeSeries) -> CoherenceTrace:
    """<sigma_x(t)> for the initial superposition (|g> + |e>)/sqrt(2).

    Under the rotating-wave coupling the ground component is inert, so
    the coherence is the real part of the lab-frame amplitude.
    """
    lab = series.to_lab()
    return CoherenceTrace(lab.times.copy(), np.real(lab.values), series.method)
