"""Exact single-excitation dynamics in the rotating-wave approximation.

With one excitation shared between the emitter and the band, the excited
amplitude A(t) obeys the closed memory equation

    dA/dt = -integral_0^t G(t - tau) A(tau) d tau,

with the kernel G of ``model.bath_correlation``.  Three independent
solvers are provided: direct Volterra time stepping, inversion of the
resolvent 1/(s + G_hat(s)) with G_hat in the closed form of
``model.ghat``, and a Chebyshev expansion of the mapped chain's
propagator (``chain_evolve``).  They share no algorithmic machinery, so
pairwise agreement is a genuine cross-check; the chain's dense
eigendecomposition (``chain_state_amplitudes``) is the reference that
the Chebyshev propagator is tested against.  The inversion collapses
the Bromwich contour onto the band: A(t) is the sum of the real-axis
poles (a bound state below the edge, and one above the hard band top)
plus the Fourier integral of the emitter's spectral density over the
band, the spectral form of band-edge decay (John & Quang, *PRA* 50,
1764 (1994)).  Deformed into the lower half plane, the same band
integral becomes the second-sheet resonance poles plus two
steepest-descent rays from the band ends, an independent quadrature
that checks every point.

Frame: every solver returns the interaction-picture amplitude that the
memory equation above propagates (A = 1 for all t when alpha = 0, where
the mapped chain has g = 0); the chain propagators get it by measuring the
chain's energies from delta (``_chain_matrix``).  The lab-frame amplitude
carries the extra free phase exp(-i delta t) (``AmplitudeSeries.to_lab``);
populations |A|^2 are the same in both.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .chainmap import LIGHT_CONE_TAIL, ChainCoefficients, check_positive_times, dct3
from .invlaplace import filon_fourier, ray_rule
from .model import ModelParams, bath_correlation, ghat, ghat_slope

__all__ = [
    "AmplitudeSeries",
    "volterra_solve",
    "laplace_invert",
    "cut_invert",
    "ray_invert",
    "chain_evolve",
    "chain_state_amplitudes",
    "find_bound_pole",
    "rwa_coherence",
]

_VOLTERRA_HALVINGS = 3  # further halvings of volterra_solve's default step
_ATOL = 1e-6  # slack of AmplitudeSeries' checks |A| <= 1 and A(0) = 1
_FLAG_TOL = 1e-3  # cut-ray disagreement, or sum-rule miss, that flags a Laplace point
_OFF_CUT = 1e-30  # Re s just right of the cut, where Re G_hat = J to 1e-14
# Panel breakpoints of the cut integral, fixed by the model alone:
_U_PANELS = 64  # cosine-spaced in u = sqrt(omega - omega_b)
_TOP_OCTAVES = np.arange(6, 40)  # band_top - omega_c 2^-k: the band-top log
_PEAK_OCTAVES = np.arange(-4, 20)  # omega_r +- Gamma 2^k: an in-band resonance
_RAY_FLOOR = 1e-14  # rays nu_e - i y of ``ray_invert``: first octave at y = omega_c 1e-14,
_RAY_REACH = 40.0  # last node at y = 40/t_min, where e^{-y t} <= e^{-40}
_POLE_STEPS = 100  # cap on the bound-pole search of one band end
_NEWTON_STEPS = 60
_NEWTON_STALL = 20  # steps a Newton seed may take without halving its best |s + G_II|
_NEWTON_CYCLE = 4  # earlier iterates a Newton step is checked against: cycles up to period 5
_ZERO_TOL = 1e-10  # |s + G_II| of a kept second-sheet zero, in units of 1 + |nu|
_NEWTON_FLOOR = 1e-13  # |s + G_II| from which a seed takes one last step, same units
_MOMENT_ROWS = 64  # recurrence steps per block of ``_chebyshev_moments``' products
_ENERGY_BLOCK = 256  # Chebyshev energies per block of ``_chain_ends``' phase tables


@dataclass
class AmplitudeSeries:
    """Interaction-picture excited-state amplitude A(t_j) at splitting delta.

    A series is checked when made: |A| <= 1 and, at t = 0, A = 1 must hold
    to _ATOL, or ValueError.  flags marks points where the solver's
    internal cross-check failed (only the Laplace inverter sets them);
    flagged points are exempt from the contractivity invariant since they
    are reported as unreliable rather than silently dropped.  checks holds
    what the cross-check used and found, for the run's manifest.
    """

    times: np.ndarray
    values: np.ndarray
    delta: float
    flags: np.ndarray | None = None
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
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

    def to_lab(self):
        """The lab-frame amplitude A(t) e^{-i delta t}."""
        return self.values * np.exp(-1j * self.delta * self.times)

    def population(self):
        """|A(t)|^2, the same in both frames."""
        return np.abs(self.values) ** 2


def _volterra_steps(p: ModelParams, n, dt):
    """A(k dt), k = 0..n, by predictor-corrector product integration."""
    K = bath_correlation(p, np.arange(n + 1) * dt)
    A, F = np.zeros((2, n + 1), dtype=complex)  # A and dA/dt
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
    return A


def volterra_solve(p: ModelParams, t_max, dt=None, self_check=True):
    """Second-order product integration of the memory equation (``_volterra_steps``).

    dt defaults to 0.05/omega0 and must satisfy dt <= 0.1/omega0 so the
    kernel's initial scale is resolved.  With self_check, 2n steps of dt/2
    repeat the n steps, and a change of 1e-4 or more in |A|^2 rejects the run;
    at the default dt its dt/2 run takes its place and is checked in turn, up
    to _VOLTERRA_HALVINGS times.  A passed check returns the Richardson
    extrapolation (4 A_dt/2 - A_dt)/3 on the dt grid (Phil. Trans. R. Soc. A
    210, 307 (1911)).  ``checks`` holds dt, self_check and, if checked, the
    halvings taken and the passing check's step_deviation.
    """
    check_positive_times("t_max", t_max)
    halvings = _VOLTERRA_HALVINGS if dt is None else 0
    if dt is None:
        dt = 0.05 / p.omega0
    if not 0.0 < dt <= 0.1 / p.omega0:
        raise ValueError(f"dt must lie in (0, 0.1/omega0 = {0.1 / p.omega0:g}]")
    n = max(1, int(round(t_max / dt)))
    A = _volterra_steps(p, n, dt)
    checks = {"self_check": "skipped"}
    if self_check:
        for halved in range(halvings + 1):
            fine = _volterra_steps(p, 2 * n, dt / 2.0)
            dev = float(np.max(np.abs(np.abs(A) ** 2 - np.abs(fine[::2]) ** 2)))
            if dev < 1e-4:
                break
            if halved == halvings:
                raise RuntimeError(f"step-size rejection: halving dt moved |A|^2 by "
                                   f"{dev:.2e} (>= 1e-4); reduce dt below {dt:g}")
            A, n, dt = fine, 2 * n, dt / 2.0
        A = (4.0 * fine[::2] - A) / 3.0
        checks = {"self_check": "passed", "halvings": halved, "step_deviation": dev}
    return AmplitudeSeries(np.arange(n + 1) * dt, A, p.delta, checks={"dt": dt, **checks})


def find_bound_pole(p: ModelParams):
    """Every real-axis pole of the resolvent 1/(s + G_hat(s)), as [(location, residue)].

    Off the band, s = -i nu gives s + G_hat = i g(nu) with the real
    g(nu) = Im G_hat(-i nu + 0) - nu, which falls strictly on each side of
    the band.  So there is at most one pole below the edge, where g(nu_b)
    < 0, and exactly one above the top, where the log singularity sends g
    to +inf.  Each root is bracketed in x = log d, d its distance from the
    band end, between the last representable d and one past which the sign
    of g is fixed by |Im G_hat| <= max(omega_s/2, Omega^2/d).  Newton's
    method in x, with g'(nu) = -Re G_hat'(s) - 1 from ``ghat_slope``, runs
    from the far end of the bracket and keeps it; a step that would leave
    the bracket bisects it instead.  The search ends with a last step once
    the step is at most 1e-15 max(1, |x|), or when the bracket is that
    narrow, which is where rounding in g ends it (_POLE_STEPS caps it).  The
    residue is 1/(1 + dG_hat/ds).  A pole closer to the top than double
    precision resolves has a weight pi d / J(band top) below that
    resolution too, and is skipped.
    """
    if p.alpha == 0.0:
        return []
    poles = []
    for end, side in ((p.omega_b - p.delta, -1.0), (p.band_top - p.delta, 1.0)):
        lo = math.log(8.0 * np.finfo(float).eps * (abs(end) + p.omega_c))
        hi = math.log(abs(end) + p.omega2 + p.omega_s + 1.0)

        def h(x):  # nu at distance e^x from the band end, g(nu) and dg/dx
            nu = end + side * math.exp(x)
            s = _OFF_CUT - 1j * nu
            g = complex(ghat(p, s))
            return nu, g.imag - nu, (-ghat_slope(p, s, g).real - 1.0) * (nu - end)

        (_, h_lo, _), (nu, h_x, slope) = h(lo), h(hi)
        if not h_lo * h_x < 0.0:
            continue
        a, b, x = lo, hi, hi  # h(a) has the sign of h(lo), h(b) the other
        for _ in range(_POLE_STEPS):
            step, tol = h_x / slope, 1e-15 * max(1.0, abs(x))
            if abs(step) <= tol:
                nu -= step * (nu - end)  # the last step, in nu: exp(x) would round it
                break
            x = x - step if a < x - step < b else 0.5 * (a + b)
            nu, h_x, slope = h(x)
            a, b = (x, b) if (h_x < 0.0) == (h_lo < 0.0) else (a, x)
            if b - a <= tol:
                break
        else:
            raise RuntimeError(f"bound-pole search did not converge in {_POLE_STEPS} steps "
                               f"(bracket [{a!r}, {b!r}] in log distance from {end:g})")
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
    edges = np.sort(np.clip(np.concatenate(nu), nu_b, nu_t))
    return edges[np.diff(edges, prepend=-math.inf) > 0.0]  # np.unique would import numpy.ma


def cut_invert(p: ModelParams, times, bound):
    """Interaction-frame amplitude A(t) from the collapsed Bromwich contour.

    A(t) = sum_p Z_p e^{s_p t} + int_band rho(omega) e^{-i(omega - delta)t} d omega,
    with the emitter's spectral density rho = (1/pi) Re[1/(s + G_hat(s))]
    just right of the cut, integrated by ``invlaplace.filon_fourier`` on the
    panels of ``_cut_edges``.  ``bound`` holds the real-axis poles (s_p, Z_p)
    as ``find_bound_pole`` returns them.
    """
    times = np.asarray(times, dtype=float)
    if p.alpha == 0.0:
        return np.ones(times.size, dtype=complex)

    def density(nu):
        s = _OFF_CUT - 1j * nu
        return (1.0 / (s + ghat(p, s))).real / math.pi

    values = filon_fourier(density, _cut_edges(p), times)
    for loc, res in bound:
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
    sets the residual.  It is dropped once its next step lands within 5 %
    of the step on one of its last _NEWTON_CYCLE iterates (a cycle of
    period 2 to 5) or its best |s + G_II| has not halved for _NEWTON_STALL
    steps.  The longest search on the 385-point test grids takes 26 steps.
    """
    nu_b, nu_t = p.omega_b - p.delta, p.band_top - p.delta
    nu = np.array([-1j * complex(ghat(p, _OFF_CUT)), nu_b - 1e-3j * (1.0 + abs(nu_b)),
                   nu_t - 1e-3j])
    back = np.full((_NEWTON_CYCLE, nu.size), np.nan)  # the last iterates, newest first
    dropped = np.zeros(nu.size, dtype=bool)
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
            cycle = np.any(np.abs(nu - step - back) < 5e-2 * np.abs(step), axis=0)
            dropped |= cycle | (stale >= _NEWTON_STALL)
            live = (np.abs(step) > 1e-15 * (1.0 + np.abs(nu))) & ~dropped
            if not live.any():
                break  # every seed has converged, left the finite numbers or been dropped
            dropped |= np.abs(f) <= _NEWTON_FLOOR * (1.0 + np.abs(nu))  # a last step from the floor
            back, nu = np.vstack((nu, back[:-1])), np.where(live, nu - step, nu)
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

    The sum over nodes is one real product of the (times x nodes) table
    e^{-y t} with the (nodes x 2) real and imaginary parts of the weights:
    a product of a real array with a complex one would first copy the
    whole table to complex.
    """
    end = p.band_top - p.delta if top else p.omega_b - p.delta
    breaks = [-nu.imag + sign * abs(nu.real - end) * 2.0**_PEAK_OCTAVES
              for nu in zeros for sign in (-1.0, 1.0)]
    y, w = ray_rule(_RAY_FLOOR * p.omega_c, _RAY_REACH / times.min(), breaks, sqrt=not top)
    nu = end - 1j * y
    a, j = -1j * nu + ghat(p, -1j * nu), _continued_j(p, nu)[0]
    wh = -w * j / (math.pi * a * (a + 2.0 * j))  # weights times h
    decay = np.outer(times, -y)  # times x nodes: one table, exponentiated in place
    np.exp(decay, out=decay)
    total = (decay @ wh.view(float).reshape(-1, 2)).view(complex)[:, 0]
    return (1j if top else -1j) * np.exp(-1j * end * times) * total


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
    point; disagreements beyond 1e-3 are flagged.  The real-axis poles,
    found once by ``find_bound_pole``, are the one part both share, so the
    sum rule A(0) = 1 of the cut integral checks them, and a miss beyond
    1e-3 flags every point.  ``checks`` records the poles used, the
    sum-rule residual and the number of flagged points.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    check_positive_times("times", times)
    bound = find_bound_pole(p)
    values = cut_invert(p, np.concatenate(([0.0], times)), bound)
    residual = float(abs(values[0] - 1.0))
    ref, resonances = ray_invert(p, times, bound)
    flags = (np.abs(values[1:] - ref) > _FLAG_TOL) | (residual > _FLAG_TOL)
    poles = ([{"nu": 1j * loc, "weight": res, "kind": "bound"} for loc, res in bound]
             + [{"nu": nu, "weight": z, "kind": "resonance"} for nu, z in resonances])
    return AmplitudeSeries(times, values[1:], p.delta, flags=flags,
                           checks={"poles": poles, "sum_rule_residual": residual,
                                   "flagged_points": int(flags.sum())})


def _chain_matrix(c: ChainCoefficients, delta):
    """Diagonal (0, eps_0 - delta, ...) and off-diagonal (g, t_0, ...) of the
    single-excitation chain Hamiltonian in the interaction picture."""
    return np.concatenate(([0.0], c.eps - delta)), np.concatenate(([c.g], c.t))


def chain_state_amplitudes(c: ChainCoefficients, delta, times,
                           sites=slice(None)):
    """Amplitude matrix of e^{-iHt}|site 0> in the site basis, rows = times.

    H is ``_chain_matrix``'s, so column 0 is the interaction-picture
    emitter amplitude A(t); the remaining columns are the chain-mode
    photon amplitudes, in the same picture.  ``sites`` (a slice or
    an index list into the sites 0..N) keeps only those columns.  Any time
    grid is allowed; this direct sum over the dense eigendecomposition of
    H shares no code with ``chain_evolve``, and is the reference that the
    tests and ``perfbench/make_refs.py`` check it against.
    """
    diag, off = _chain_matrix(c, delta)
    lam, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    times = np.asarray(times, dtype=float)
    return (np.exp(-1j * np.outer(times, lam)) * V[0]) @ V[sites].T


def _chebyshev_moments(diag, off, K):
    """mu_n = T_n(H)_00 and nu_n = T_n(H)_N0, n = 0..K, of the symmetric
    tridiagonal H (diag, off) with its spectrum in [-1, 1].

    With u_n = T_n(H) e_0 and w_n = T_n(H) e_N, T_2n = 2 T_n^2 - 1 and
    T_2n+1 = 2 T_n+1 T_n - T_1 give mu_2n = 2 u_n.u_n - mu_0,
    mu_2n+1 = 2 u_n+1.u_n - mu_1 and likewise nu from w_n.u_n, so the
    three-term recurrence u_n+1 = 2 H u_n - u_n-1 (and w) runs to K/2 + 1
    only.  u_n is zero beyond site n and w_n before site N - n (the light
    cone of a tridiagonal H), so each step stores u_i at 2i and w_N-i at
    2i + 1, behind two zero pads: w runs on the reversed chain, the three
    diagonals act by products shifted by 2, and both supports are one
    prefix of 2(n + 1) entries, capped at the chain, that the step and the
    products stop at.  w_n.u_n = sum_i u_i w_N-i is zero until 2n >= N.
    The vectors are kept _MOMENT_ROWS steps at a time, and their products
    taken per block, so memory stays linear in the chain length.  Against
    a dense recurrence on random tridiagonal H of 1 to 300 sites the moments
    agree to 3.6e-15.
    """
    m, size = K // 2 + 1, diag.size
    width = 2 * size  # u_0, w_N, u_1, w_N-1, ...
    d2, lower, upper = np.zeros(width), np.zeros(width), np.zeros(width)
    d2[::2], d2[1::2] = 2.0 * diag, 2.0 * diag[::-1]
    lower[2::2], lower[3::2] = 2.0 * off, 2.0 * off[::-1]  # H[i, i-1] of each chain
    upper[:-2] = lower[2:]  # H[i, i+1]
    tmp = np.empty(width)
    V = np.zeros((_MOMENT_ROWS + 2, width + 4))  # row 0 carries u_n0-1, row 1 u_n0
    V[1, 2] = V[1, 3] = 1.0
    mu, nu = np.empty(2 * m), np.empty(2 * m)
    for n0 in range(0, m, _MOMENT_ROWS):
        r = min(_MOMENT_ROWS, m - n0)
        for i in range(1, r + 1):  # row i + 1 holds u_n0+i, on its first 2(n0 + i + 1) entries
            P = min(2 * (n0 + i + 1), width)
            v, out, t = V[i], V[i + 1, 2:P + 2], tmp[:P]
            np.multiply(d2[:P], v[2:P + 2], out=out)
            out += np.multiply(lower[:P], v[:P], out=t)
            out += np.multiply(upper[:P], v[4:P + 4], out=t)
            if n0 + i > 1:
                out -= V[i - 1, 2:P + 2]
            else:
                out *= 0.5  # u_1 = H u_0
        if n0 == 0:
            base = V[1:3, 2].copy(), V[1:3, width].copy()  # (mu_0, mu_1), (nu_0, nu_1)
        # each product holds one u_n, n < n0 + r, zero beyond site n0 + r - 1,
        # and w_n.u_n, w_n+1.u_n hold w up to w_n0+r, zero before N - n0 - r
        lo, hi = max(size - 1 - (n0 + r), 0), min(n0 + r, size) - 1
        u = V[1:r + 2, 2:2 * hi + 3:2]
        w = V[1:r + 2, width + 1 - 2 * lo:width - 2 * hi:-2]  # sites lo..hi, empty if lo > hi
        for out, x, y, (even, odd) in ((mu, u, u, base[0]), (nu, w, u[:, lo:], base[1])):
            out[2 * n0:2 * (n0 + r):2] = 2.0 * np.einsum("ni,ni->n", x[:r], y[:r]) - even
            out[2 * n0 + 1:2 * (n0 + r):2] = 2.0 * np.einsum("ni,ni->n", x[1:], y[:r]) - odd
        V[:2] = V[r:r + 2]
    return mu[:K + 1], nu[:K + 1]


def _chain_ends(c: ChainCoefficients, delta, times):
    """Amplitudes of e^{-iHt}|site 0> on the emitter and on the last site, H
    of ``_chain_matrix`` (the interaction picture), at uniform times from 0,
    by a Chebyshev expansion of the propagator (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81 (1984) 3967).

    With H's spectrum inside its Gershgorin interval [b - a, b + a],
    e^{-iHt} = e^{-ibt} sum_n (2 - [n = 0]) (-i)^n J_n(a t) T_n((H - b)/a),
    cut at K = a t_max + 10 (a t_max)^(1/3) + 25, where J_K(a t) < 2e-20
    for a t up to 1e3.  (-i)^n J_n(x) is the Gauss-Chebyshev sum
    (1/M) sum_j T_n(l_j) e^{-i x l_j} over l_j = cos(pi (j + 1/2)/M), exact
    up to J_(2M - n)(x), so with M = K + 1 nodes the emitter amplitude is
    sum_j g_j e^{-i E_j t}, E_j = b + a l_j, where g_j = (1/M) sum_n
    (2 - [n = 0]) mu_n T_n(l_j) is one ``dct3`` of the moments mu_n of
    ``_chebyshev_moments``; the last site takes nu_n.  With t_k = k dt,
    k = pB + q and B = ceil(sqrt(samples)), each phase splits as
    e^{-i E t_pB} e^{-i E t_q}, so each sum is a GEMM of the row phases
    (samples/B x M) and the column phases (M x B), raveled.  Each table
    splits its times once more (``_phases``), so cos and sin are taken on
    about 4 sqrt(B) M phases, not 2 B M.  No eigenvalue is computed.

    Both moment sets and their weights g_j come first, so the recurrence's
    block is freed before any phase table exists.  The GEMMs then sum over
    blocks of _ENERGY_BLOCK energies, each block's row and column tables
    built just before its products, so no samples x M table is held: at
    the wideband sweep corner one call traces a peak of 0.84 MB.
    """
    diag, off = _chain_matrix(c, delta)
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    b, a = 0.5 * (hi + lo), max(0.5 * (hi - lo), np.finfo(float).tiny)
    x = a * times[-1]
    K = math.ceil(x + 10.0 * np.cbrt(x) + 25.0)
    M = K + 1
    weights = [dct3(m, M) / M for m in _chebyshev_moments((diag - b) / a, off / a, K)]
    energies = b + a * np.cos(math.pi / M * (np.arange(M) + 0.5))
    block = math.isqrt(times.size - 1) + 1
    sums = np.zeros((2, -(-times.size // block), block), dtype=complex)
    for j in range(0, M, _ENERGY_BLOCK):
        part = slice(j, j + _ENERGY_BLOCK)
        rows, cols = (_phases(ts, energies[part]) for ts in (times[::block], times[:block]))
        for total, w in zip(sums, weights):
            total += (rows * w[part]) @ cols.T
        del rows, cols  # before the next block's tables are built
    return tuple(total.ravel()[:times.size] for total in sums)


def _phases(ts, energies):
    """e^{-i E t} on the (ts x energies) grid, for uniform ts from 0.

    With t_k = t_sC + t_r, k = sC + r and C = ceil(sqrt(ts.size)), it is the
    product of the tables at t_sC and at t_r, and each of those is the cos
    and sin of one table of -E t, written into the two halves of a complex
    array.  The product differs from e^{-i E t_k} by its own rounding and
    by that of t_sC + t_r against t_k, as the split of ``_chain_ends``
    does: at the wideband sweep corner it moves A(t) by at most 2.0e-15 for
    delta from 1 to 900, since the energies are measured from delta and A's
    weight sits near E = 0, where |E t| is small.
    """
    step = math.isqrt(ts.size - 1) + 1
    coarse, fine = (_cos_sin(t, energies) for t in (ts[::step], ts[:step]))
    return (coarse[:, None, :] * fine).reshape(-1, energies.size)[:ts.size]


def _cos_sin(ts, energies):
    """e^{-i E t} on the (ts x energies) grid: cos and sin of one table of -E t."""
    phase = np.outer(ts, -energies)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def chain_evolve(c: ChainCoefficients, delta, t_max, samples=301):
    """Exact interaction-picture amplitude on ``samples`` uniform times in
    [0, t_max], from the Chebyshev propagator of ``_chain_ends``.

    At the wideband sweep corner (N = 650, 2001 samples, delta from a bound
    state to above the band top) A(t) agrees with ``chain_state_amplitudes``
    to 6.8e-14 and the last-site amplitude to 2.2e-15.  A light-cone check
    requires the last-site occupation to stay below
    ``chainmap.LIGHT_CONE_TAIL`` and reports the first violating time
    otherwise.
    """
    check_positive_times("t_max", t_max)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    times = np.linspace(0.0, t_max, samples)
    amp, last = _chain_ends(c, delta, times)
    tail = np.abs(last) ** 2
    bad = tail >= LIGHT_CONE_TAIL
    if bad.any():
        j = int(np.argmax(bad))
        raise RuntimeError(
            f"light-cone violation: last-site occupation {tail[j]:.2e} at "
            f"t = {times[j]:g}; extend the chain"
        )
    return AmplitudeSeries(times, amp, delta)


def rwa_coherence(series: AmplitudeSeries) -> np.ndarray:
    """<sigma_x(t_j)> for the initial superposition (|g> + |e>)/sqrt(2), on series.times.

    Under the rotating-wave coupling the ground component is inert, so
    the coherence is Re A_lab, the real part of the lab-frame amplitude.
    """
    return np.real(series.to_lab())
