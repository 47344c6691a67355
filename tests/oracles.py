"""Test-only oracles and reference formulas.

None of these is reached by a ``gapchain`` subcommand; the tests check the
package against them.

Quadrature (``complex_quad``): adaptive ``scipy.integrate.quad`` over the
real and imaginary parts of a complex integrand.

The model's: each integrates the band measure J/pi directly with
``complex_quad`` in u = sqrt(omega - omega_b), so it shares no algebra with
``bath_correlation`` or ``ghat``, the closed forms it checks.  The derived
scales (``derived_scales``, ``delta_L_tilde``) collect omega_s, the
environmental energy shift E_en and the shifted detuning.  Weideman's
Faddeeva expansion by FFT (``weideman_rule``) generates the literal
coefficients of the model's ``erfcx``.

The chain's: the head-site propagator, which must reproduce the bath
correlation kernel.  The MPS engine's: two-site expectation values and the
total bond energy, which the energy-drift and product-state tests use; the
top Fock occupation, a truncation health value; the doubling protocol
(``convergence_report``) of chi, d_b and dt; and the FULL-mode reference
(``full_mode_reference``), exact propagation with ``scipy.sparse`` on the
first L sites and at most K quanta, which shares no code with TEBD.

The RWA pole asymptotics: the three-regime classification of the
broad-band quadratic root analysis, its stationary population, and the
long-time closed form (pole term plus branch-cut integral), which the exact
solvers are checked against deep in the broad-band window.  The real-axis
poles by Brent's method (``bound_pole_by_brentq``), which the bracketed
Newton search of ``find_bound_pole`` is checked against.

The polaron closed forms: the residual-population branch at the band edge,
the large-splitting estimate and the adiabatic small-splitting
renormalization.  The polaron reference root (``damped_fixed_point``): the
damped map x <- x/2 + RHS(x)/2 from x = Delta, which falls onto the same
largest root as ``silbey_harris_solve`` by a different iteration, and
the largest root ln(delta_tilde/Delta) by bisection on a grid cell
(``log_root_by_bisection``), which also holds across the fold where the
two upper roots merge.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize
from scipy.linalg import eigh_tridiagonal

from gapchain import mps
from gapchain.chainmap import ChainCoefficients
from gapchain.model import ModelParams, ghat, ghat_slope
from gapchain.polaron import PolaronSolution, _renorm_integral
from gapchain.rwa import _OFF_CUT


def complex_quad(f, a, b, epsabs=1e-10, epsrel=1e-8, limit=2000):
    """Integrate complex-valued f over [a, b] (real and imaginary parts separately)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re, re_err = integrate.quad(
            lambda x: f(x).real, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit
        )
        im, im_err = integrate.quad(
            lambda x: f(x).imag, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit
        )
    val = complex(re, im)
    err = re_err + im_err
    if err > 50.0 * max(epsabs, epsrel * abs(val)):
        raise RuntimeError(
            f"quadrature did not converge on [{a}, {b}]: "
            f"estimated error {err:.3e} for value {val:.6e}"
        )
    return val


def correlation_by_quadrature(p: ModelParams, t):
    """Oracle for bath_correlation: adaptive quadrature of (1/pi) int J e^{-i(w-delta)t} dw.

    The substitution omega = omega_b + u^2 removes the square-root edge
    singularity; the integrand is then smooth on [0, sqrt(omega_c)].
    It is an oracle only while omega_c t is small: at the shifted corner
    (omega0 = 1e4, omega_c = 4e4) its relative error is 7e-13 for t <= 0.01,
    2e-10 for t <= 0.1 and 2e-9 for t <= 1, and it raises at t = 10.
    """
    t = float(t)
    if t < 0:
        raise ValueError("correlation_by_quadrature requires t >= 0")
    if p.alpha == 0.0:
        return 0.0 + 0.0j
    pref = 2.0 * p.alpha / math.pi
    phase0 = -1j * (p.omega_b - p.delta) * t

    def integrand(u):
        return u * u * np.exp(-u * u / p.omega0 + phase0 - 1j * u * u * t)

    # max phase ~ omega_c * t: allow generous subdivision for oscillatory tails
    limit = max(2000, int(40 * (p.omega_c * t + 1)))
    return pref * complex_quad(integrand, 0.0, math.sqrt(p.omega_c), limit=min(limit, 50000))


def laplace_integral(p: ModelParams, s):
    """(1/pi) int_band J(omega) / (s + i(omega - delta)) d omega for s off the cut."""
    if p.alpha == 0.0:
        return 0.0 + 0.0j
    pref = 2.0 * p.alpha / math.pi
    s = complex(s)

    def integrand(u):
        w = p.omega_b + u * u
        return u * u * np.exp(-u * u / p.omega0) / (s + 1j * (w - p.delta))

    return pref * complex_quad(integrand, 0.0, math.sqrt(p.omega_c), limit=4000)


def laplace_of_G(p: ModelParams, s):
    """Laplace transform of the kernel, G_hat(s), for Re(s) > 0."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"laplace_of_G requires Re(s) > 0, got s = {s}")
    return laplace_integral(p, s)


def weideman_rule(n=40):
    """Weideman's n-term expansion of the Faddeeva function (SIAM J. Numer.
    Anal. 31 (1994) 1497) by FFT: (L, coefficients highest power first), the
    generator of ``model._W_L`` and ``model._W_COEF``."""
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(-m + 1, m) * (0.5 * math.pi / m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1].tolist()


def delta_L_tilde(p: ModelParams):
    """Shifted detuning delta_L - omega_s."""
    return p.delta_L - p.omega_s


@dataclass(frozen=True)
class DerivedScales:
    omega_s: float
    e_en: float
    e_en_approx: float
    delta_L: float
    delta_L_tilde: float


def derived_scales(p: ModelParams) -> DerivedScales:
    """Derived frequency scales; E_en = (1/pi) int_band J(omega)/omega = Re[i G_hat(i delta)]."""
    return DerivedScales(
        omega_s=p.omega_s,
        e_en=float((1j * ghat(p, 1j * p.delta)).real),
        e_en_approx=p.e_en_approx,
        delta_L=p.delta_L,
        delta_L_tilde=delta_L_tilde(p),
    )


def head_site_correlation(c: ChainCoefficients, times) -> np.ndarray:
    """g^2 <head| exp(-iHt) |head> for the single-excitation chain; equals the
    bath correlation kernel at delta = 0 while t stays inside the light cone."""
    lam, V = eigh_tridiagonal(c.eps, c.t)
    head = V[0, :] ** 2
    times = np.atleast_1d(np.asarray(times, dtype=float))
    phases = np.exp(-1j * np.outer(times, lam))
    return c.g**2 * (phases @ head)


def measure_bond(state: mps.MPSState, j, op):
    """<O> for a two-site operator on bond (j, j+1), mixed-canonical."""
    B1, B2 = state.site_tensors[j], state.site_tensors[j + 1]
    dl, dr = B1.shape[1], B2.shape[1]
    w, B1 = mps._left_env(state, j, op, (dl, dr))
    theta = np.tensordot(B1, B2, axes=(2, 0))
    theta_w = w[:, None, None, None] * theta
    rho = np.tensordot(theta_w, theta.conj(), axes=([0, 3], [0, 3]))
    # rho indices (s, t, s', t') -> matrix (st, s't') = psi psi*
    rho_m = rho.reshape(dl * dr, dl * dr)
    return complex(np.trace(np.asarray(op, dtype=complex) @ rho_m))


def total_energy(state: mps.MPSState, c: ChainCoefficients, delta, cfg: mps.EvolutionConfig):
    """<H> summed over the bond decomposition that ``mps.build_gates`` exponentiates."""
    hams, _ = mps._bond_hamiltonians(c, delta, cfg)
    return sum(measure_bond(state, j, h).real for j, h in enumerate(hams))


def top_fock_occupation(state: mps.MPSState):
    """Largest population of the highest kept Fock level over all bosons."""
    worst = 0.0
    for site in range(1, state.n_sites):
        d = state.site_tensors[site].shape[1]
        proj = np.zeros((d, d), dtype=complex)
        proj[d - 1, d - 1] = 1.0
        worst = max(worst, mps.measure(state, site, proj).real)
    return worst


def full_mode_reference(c: ChainCoefficients, delta, times, L, K, d_b=4,
                        atom_state="excited"):
    """(sigma_z, sigma_x) of the emitter under the FULL coupling, at ``times``,
    by exact propagation on a truncated Fock space; shares no code with TEBD.

    H = delta |e><e| + g sigma_x (a_1 + a_1^dag) + sum_k eps_k n_k
    + sum_k t_k (a_k^dag a_k+1 + h.c.) on the emitter and the first L chain
    sites, in the basis of boson configurations with at most d_b - 1 quanta
    per site and at most K in all (times the two emitter levels), as a
    ``scipy.sparse`` matrix.  The state starts as the emitter's ``atom_state``
    (excited or plus_superposition) on the vacuum and is stepped from each
    sample time to the next by ``scipy.sparse.linalg.expm_multiply``, so an
    uneven grid such as TEBD's (its last interval is shorter) is followed
    exactly.  The L cut is controlled by the light cone (occupations fall
    below 1e-20 past its front); the K cut is checked by raising K.
    """
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    # a configuration is the sites of its quanta, each site d_b - 1 at most
    occ = np.array([np.bincount(np.asarray(sites, dtype=int), minlength=L)
                    for n in range(K + 1)
                    for sites in itertools.combinations_with_replacement(range(L), n)])
    occ = occ[occ.max(axis=1) < d_b]
    radix = d_b ** np.arange(L, dtype=np.int64)
    code = occ @ radix
    order = np.argsort(code)
    occ, code = occ[order], code[order]
    nb = code.size

    def index(new_code):
        j = np.searchsorted(code, new_code)
        j = np.minimum(j, nb - 1)
        return j, code[j] == new_code

    diag_b = occ @ np.asarray(c.eps[:L], dtype=float)
    r, q, v = [], [], []
    for k in range(L - 1):  # t_k (a_k^dag a_k+1 + h.c.): one quantum hops k+1 -> k
        src = np.flatnonzero((occ[:, k + 1] > 0) & (occ[:, k] < d_b - 1))
        dst, ok = index(code[src] + radix[k] - radix[k + 1])
        amp = c.t[k] * np.sqrt(occ[src, k + 1] * (occ[src, k] + 1.0))
        r += [dst[ok], src[ok]]
        q += [src[ok], dst[ok]]
        v += [amp[ok], amp[ok]]
    hop = sparse.csr_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(q))),
                            shape=(nb, nb))
    src = np.flatnonzero((occ[:, 0] < d_b - 1) & (occ.sum(axis=1) < K))  # a_1^dag
    dst, ok = index(code[src] + 1)
    up = sparse.csr_matrix((np.sqrt(occ[src[ok], 0] + 1.0), (dst[ok], src[ok])), shape=(nb, nb))
    bath = sparse.diags(diag_b) + hop
    x = c.g * (up + up.T)
    H = sparse.bmat([[bath, x], [x, bath + delta * sparse.identity(nb)]], format="csr")

    psi = np.zeros(2 * nb, dtype=complex)
    vac = int(np.searchsorted(code, 0))
    if atom_state == "excited":
        psi[nb + vac] = 1.0
    elif atom_state == "plus_superposition":
        psi[vac] = psi[nb + vac] = 1.0 / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown atom_state {atom_state!r}")
    times = np.asarray(times, dtype=float)
    sz, sx = np.empty(times.size), np.empty(times.size)
    now = 0.0
    for i, t in enumerate(times):
        if t > now:
            psi = expm_multiply(-1j * (t - now) * H, psi)
            now = t
        g, e = psi[:nb], psi[nb:]
        sz[i] = np.vdot(e, e).real - np.vdot(g, g).real
        sx[i] = 2.0 * np.vdot(g, e).real
    return sz, sx


def convergence_report(c: ChainCoefficients, cfg: mps.EvolutionConfig,
                       atom_state="excited", delta=0.0):
    """Doubling protocol: chi x2, d_b x2, dt/2 must each move the excited
    population by less than 5e-3 in sup norm."""
    base = mps.evolve(c, cfg, atom_state, delta)
    devs = {}
    for tag, alt_cfg in (
        ("chi_max", replace(cfg, chi_max=2 * cfg.chi_max)),
        ("d_b", replace(cfg, d_b=2 * cfg.d_b)),
        ("dt", replace(cfg, dt=0.5 * base.dt,
                       sample_stride=2 * cfg.sample_stride)),
    ):
        alt = mps.evolve(c, alt_cfg, atom_state, delta)
        # sample grids can differ by a half step at the tail; compare on
        # the base grid
        alt_pop = np.interp(base.times, alt.times, alt.pop_excited)
        devs[tag] = float(np.max(np.abs(base.pop_excited - alt_pop)))
    devs["converged"] = all(v < 5e-3 for k, v in devs.items() if k != "converged")
    return devs


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
    dlt = delta_L_tilde(p)
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


def bound_pole_by_brentq(p: ModelParams):
    """``rwa.find_bound_pole`` by Brent's method on the same bracket in x = log d.

    The search the package used before its bracketed Newton search: the
    same sign test, ``brentq`` to xtol 1e-15, and the residue
    1/(1 + dG_hat/ds) at the root.
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


class BoundaryPrediction(NamedTuple):
    """Both residual-population branches, returned exactly at Delta = w_b."""

    relaxed: float
    dressed: float
    boundary: bool


def residual_population(sol: PolaronSolution, p: ModelParams):
    """Long-time excited population predicted by the polaron ground state.

    Above the band edge the emitter relaxes into the joint ground state;
    below it relaxation is energetically blocked and the dressed excited
    state persists.  Exactly at Delta = w_b both branches are returned.
    """
    if p.delta > p.omega_b:
        return sol.p_up_relaxed
    if p.delta < p.omega_b:
        return sol.p_up_dressed
    return BoundaryPrediction(sol.p_up_relaxed, sol.p_up_dressed, True)


def approx_large_delta(p: ModelParams) -> float:
    """Closed-form estimate Delta*(1 - alpha/sqrt(Delta)) for w_b << Delta << w0.

    Qualitative by construction; warns outside a factor-3 window around
    its validity range.
    """
    if p.delta < 3.0 * p.omega_b or p.delta > p.omega0 / 3.0:
        warnings.warn(
            "large-splitting closed form used outside w_b << delta << w0",
            stacklevel=2)
    return p.delta * (1.0 - p.alpha / math.sqrt(p.delta))


def adiabatic_renorm(p: ModelParams) -> float:
    """Small-splitting renormalization Delta * exp(-alpha/sqrt(w_b))."""
    return p.delta * math.exp(-p.alpha / math.sqrt(p.omega_b))


def damped_fixed_point(p: ModelParams, tol=1e-12, max_steps=20_000) -> float:
    """Reference delta_tilde: iterate x <- x/2 + RHS(x)/2 from x = Delta
    until the defect |x - RHS(x)| is below tol * Delta.

    RHS is increasing, so the damped map also falls monotonically onto the
    largest root, at rate (1 + RHS')/2; it shares only ``_renorm_integral``
    with the solver's plain map.
    """
    def rhs(x):
        return p.delta * math.exp(-_renorm_integral(p, x))

    x = p.delta
    for _ in range(max_steps):
        r = rhs(x)
        if abs(x - r) < tol * p.delta:
            return x
        x = 0.5 * x + 0.5 * r
    raise RuntimeError(f"damped polaron iteration did not converge: last iterate {x:.6g}")


def log_root_by_bisection(p: ModelParams) -> float:
    """The largest y = ln(delta_tilde/Delta) of the polaron condition y = -I(Delta e^y),
    by bisection.

    I = ``_renorm_integral`` falls as x grows, so f(y) = y + I(Delta e^y) is
    positive at y = 0 and negative at y = -I(0) - 1.  f is tabulated on that
    interval at spacing 1e-3 (40 001 points at most, so coarser where
    I(0) > 39), from ``ghat`` and ``ghat_slope`` on the whole grid at once,
    and the last grid cell where f changes sign is halved until its
    midpoint is one of its ends: the largest root, to the last bit f
    resolves.  Where the condition has
    three roots, the dip of f below zero between the upper two must be
    wider than 1e-3 (on the small-gap corner it is 0.038 wide at
    delta = 1.48925, 1.4e-4 above the fold, and 0.007 wide at 1.48912).
    """
    def f(y):
        return y + _renorm_integral(p, p.delta * math.exp(y))

    bottom = -_renorm_integral(p, 0.0) - 1.0
    y = np.linspace(bottom, 0.0, min(40_001, math.ceil(-bottom / 1e-3) + 1))
    s = 1j * (p.delta + p.delta * np.exp(y))
    j = np.nonzero(y + 2.0 * ghat_slope(p, s, ghat(p, s)).real < 0.0)[0][-1]
    lo, hi = y[j], y[j + 1]
    if not f(lo) < 0.0 < f(hi):
        raise RuntimeError(f"grid cell [{lo!r}, {hi!r}] does not bracket a root")
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)
