"""Gapped spectral density, bath correlation function, and derived frequency scales.

The model is a two-level emitter with transition frequency ``delta`` coupled to
a photonic continuum whose density of coupling turns on at a band edge
``omega_b``:

    J(omega) = alpha * sqrt(omega - omega_b) * exp(-(omega - omega_b)/omega0)

on the band (omega_b, omega_b + omega_c], zero elsewhere.  Every other module
derives its couplings from the single canonical convention

    G(t) = (1/pi) * integral J(omega) * exp(-i (omega - delta) t) d omega
         = Omega^2 * exp(i (delta - omega_b) t) / (1 + i omega0 t)^{3/2} * P(3/2, z)

with Omega^2 = alpha * omega0^{3/2} / (2 sqrt(pi)) and the band-top factor
P(3/2, z) = 1 - e^{-z} (2 sqrt(z/pi) + erfcx(sqrt(z))), z = omega_c/omega0 + i omega_c t.
Its Laplace transform ``ghat`` gives every other band integral in closed form.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
# 24-node Gauss-Legendre on [-1, 1], bit for bit
# numpy.polynomial.legendre.leggauss(24), which makes the nodes odd and the
# weights even exactly; the literals are the upper half
_TAIL_X = np.array([0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
                    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
                    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
                    0.9382745520027328, 0.9747285559713095, 0.9951872199970213])
_TAIL_W = np.array([0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
                    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
                    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
                    0.04427743881741941, 0.02853138862893356, 0.01234122979998869])
_TAIL_X = np.concatenate((-_TAIL_X[::-1], _TAIL_X))
_TAIL_W = np.concatenate((_TAIL_W[::-1], _TAIL_W))
_SMALL = 4  # arrays up to this size go point by point through erfcx and _exp_e1
_EULER = 0.5772156649015329


# Weideman's 40-term expansion of the Faddeeva function (SIAM J. Numer. Anal.
# 31 (1994) 1497): its scale L and polynomial coefficients, highest power
# first.  Literals, bit for bit what tests/oracles.weideman_rule() builds by
# FFT, so that importing the package runs no FFT and loads no numpy.fft
_W_L = 5.3182958969449885
_W_COEF = [-1.7404341423286935e-15, 1.2291587955939944e-15, 1.1529729069165072e-14,
           -5.200039821056964e-15, -7.067920367632665e-14, 1.381518001713928e-14,
           4.5343560679118935e-13, 1.2034365414037787e-13, -2.90771851041427e-12,
           -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727332121065047e-11,
           -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085995172143158e-10,
           3.0177804477560245e-09, 3.2497466273539997e-09, -1.8315616800990142e-08,
           -6.351773480517409e-08, 1.419864242846458e-08, 5.912136953223345e-07,
           1.4835661133401e-06, -1.0660138984032193e-06, -1.800744714475281e-05,
           -5.591309264242065e-05, -3.939363145484148e-05, 0.000439807015986967,
           0.0027054056330737155, 0.010048186242783521, 0.029202916471241867,
           0.07182361779074331, 0.15504263802479507, 0.2998943799615006,
           0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
           1.7253830848179779, 2.201513794878312, 2.6160541527618597, 2.899624509389705]
# (-1)^k / (k k!), k <= 145, of E1(x) = -gamma - log x - sum_k>=1 (-1)^k x^k / (k k!)
_E1_SERIES = [0.0] + [(-1.0) ** k / (k * math.factorial(k)) for k in range(1, 146)]


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the gapped-environment model.

    alpha   : coupling amplitude, dimension frequency^(1/2)
    omega_b : band-edge frequency, > 0
    omega0  : exponential cutoff frequency of the spectral density
    omega_c : hard simulation bandwidth; band support is (omega_b, omega_b+omega_c]
    delta   : atomic transition frequency, >= 0
    """

    alpha: float
    omega_b: float
    omega0: float
    omega_c: float
    delta: float = 0.0

    def __post_init__(self):
        """ValueError listing every violated constraint, "; "-separated."""
        problems = []
        for key in ("alpha", "omega_b", "omega0", "omega_c", "delta"):
            value = getattr(self, key)
            try:
                ok = math.isfinite(float(value))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{key} must be a finite number, got {value!r}")
        if not problems:
            alpha, omega_b, omega0, omega_c, delta = (
                self.alpha, self.omega_b, self.omega0, self.omega_c, self.delta)
            if alpha < 0:
                problems.append(f"alpha must be >= 0, got {alpha}")
            if omega_b <= 0:
                problems.append(f"omega_b must be > 0 (gapped model), got {omega_b}")
            if omega0 <= 0:
                problems.append(f"omega0 must be > 0, got {omega0}")
            if omega_c <= 0:
                problems.append(f"omega_c must be > 0, got {omega_c}")
            if delta < 0:
                problems.append(f"delta must be >= 0, got {delta}")
            if omega0 > 0 and omega_c > 0 and omega_c < 4.0 * omega0:
                problems.append(
                    f"omega_c must be >= 4*omega0 so the hard cutoff dominates the "
                    f"exponential tail, got omega_c={omega_c}, omega0={omega0}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def band_top(self):
        return self.omega_b + self.omega_c

    @property
    def omega2(self):
        """Omega^2 = alpha * omega0^{3/2} / (2 sqrt(pi)), the kernel amplitude of the
        untruncated band; G(0) = Omega^2 P(3/2, omega_c/omega0)."""
        return self.alpha * self.omega0**1.5 / (2.0 * _SQRT_PI)

    @property
    def omega_s(self):
        """Environment-induced renormalization frequency omega_s = 4 Omega^2 / omega0."""
        return 4.0 * self.omega2 / self.omega0

    @property
    def delta_L(self):
        """Detuning from the band edge."""
        return self.delta - self.omega_b

    @property
    def e_en_approx(self):
        """Closed-form environmental energy shift alpha*sqrt(omega0/pi)."""
        return self.alpha * math.sqrt(self.omega0 / math.pi)


def spectral_density(p: ModelParams, omega):
    """J(omega) on the band (omega_b, omega_b+omega_c], zero elsewhere."""
    w = np.asarray(omega, dtype=float)
    u = w - p.omega_b
    inside = (u > 0.0) & (u <= p.omega_c)
    us = np.where(inside, u, 1.0)
    vals = p.alpha * np.sqrt(us) * np.exp(-us / p.omega0)
    out = np.where(inside, vals, 0.0)
    if np.ndim(omega) == 0:
        return float(out)
    return out


def bath_correlation(p: ModelParams, t):
    """Closed-form kernel G(t) of the module docstring.

    The band-top factor needs no overflow guard: |e^{-z}| <= e^{-4} as omega_c >= 4 omega0.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ValueError("bath_correlation requires t >= 0")
    z = p.omega_c / p.omega0 + 1j * p.omega_c * ts
    r = np.sqrt(z)
    band = 1.0 - np.exp(-z) * (2.0 / _SQRT_PI * r + erfcx(r))
    g = p.omega2 * np.exp(1j * p.delta_L * ts) / (1.0 + 1j * p.omega0 * ts) ** 1.5 * band
    if np.ndim(t) == 0:
        return complex(g)
    return g


def erfcx(y):
    """e^{y^2} erfc(y) = w(iy) for complex y with Re y >= 0, by Weideman's
    40-term expansion of the Faddeeva function w (SIAM J. Numer. Anal. 31
    (1994) 1497): with d = L + y and Z = (L - y)/d it is
    (2 p(Z)/d + 1/sqrt(pi))/d, p the polynomial of ``_W_COEF``.

    Within 1.2e-15 relative of mpmath for |y| from 1e-4 to 1e4.  A point
    (arrays of up to _SMALL points go point by point) and an array take the
    same rounded operations (``_weideman_poly``), so a point's value does
    not depend on which it came in: ``ghat`` cancels two terms of its size
    and would magnify any difference (its tail sum does differ; see there).
    """
    y = np.asarray(y, dtype=complex)
    if y.size <= _SMALL:
        return _elementwise(lambda v: complex(*_erfcx_parts(v.real, v.imag)), y)
    re, im = _erfcx_parts(np.ascontiguousarray(y.real), np.ascontiguousarray(y.imag))
    return re + 1j * im


def _erfcx_parts(yr, yi):
    """(Re, Im) of erfcx(yr + i yi), floats or arrays alike."""
    dr = _W_L + yr
    m = dr * dr + yi * yi
    ir, ii = dr / m, -yi / m  # 1/d
    nr = _W_L - yr
    zr, zi = nr * ir + yi * ii, nr * ii - yi * ir  # (L - y)/d
    pr, pi = _weideman_poly(zr, zi)
    qr = 2.0 * (pr * ir - pi * ii) + 1.0 / _SQRT_PI
    qi = 2.0 * (pr * ii + pi * ir)
    return qr * ir - qi * ii, qr * ii + qi * ir


def _weideman_poly(zr, zi):
    """(Re, Im) of p(zr + i zi) by Horner's rule: floats through Python's
    complex product (pr zr - pi zi, pr zi + pi zr), arrays through those
    real operations (numpy's complex product may fuse them)."""
    if isinstance(zr, float):
        z, p = complex(zr, zi), 0j
        for a in _W_COEF:
            p = p * z + a
        return p.real, p.imag
    pr = pi = 0.0
    for a in _W_COEF:
        pr, pi = pr * zr - pi * zi + a, pr * zi + pi * zr
    return pr, pi


def _elementwise(f, x):
    """f over the points of the small array x, as an array of x's shape
    (a 0-d x gives f's own complex)."""
    if x.ndim == 0:
        return f(complex(x))
    return np.array([f(complex(v)) for v in x.ravel()]).reshape(x.shape)


def _e1_terms(x):
    """(series, terms) of e^x E1(x) at each point of the array x.

    With s = |x| + Re x, the power series (A&S 5.1.11) serves s <= 2 and
    |x| <= 40, where its terms cancel by at most e^s/sqrt(2 pi |x|); it
    takes 3|x| + 25 terms.  Elsewhere the even continued fraction (A&S
    5.1.22), whose convergence rate falls with s and rises with |x|, takes
    min(240/s, 1000/|x|) + 4.  Both counts are set by measurement against
    mpmath, with a margin; ``_exp_e1_scalar`` repeats them for one point.
    """
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        s = ax + x.real
        series = (s <= 2.0) & (ax <= 40.0)
        n = np.where(series, 3.0 * ax + 25.0, np.minimum(240.0 / s, 1000.0 / ax) + 4.0)
        return series, np.ceil(np.where(np.isfinite(n), n, 0.0)).astype(int)


def _exp_e1_scalar(x):
    if not (x and cmath.isfinite(x)):  # E1(0) = inf; a term count needs a finite x
        return complex(_exp_e1_array(np.array([x]))[0])
    ax, s = abs(x), abs(x) + x.real
    acc = 0j
    if s <= 2.0 and ax <= 40.0:
        for k in range(math.ceil(3.0 * ax + 25.0), 0, -1):
            acc = acc * x + _E1_SERIES[k]
        return cmath.exp(x) * (-_EULER - cmath.log(x) - acc * x)
    for k in range(math.ceil(min(240.0 / s if s else math.inf, 1000.0 / ax) + 4.0), 0, -1):
        acc = k * k / (x + (2 * k + 1) - acc)
    return 1.0 / (x + 1.0 - acc)


def _exp_e1(x):
    """e^x E1(x) for complex x, on the principal branch: the sign of a zero
    Im x picks the side of the cut x < 0.

    Each point sums the series or the continued fraction of ``_e1_terms``
    with its own term count, so no e^x overflows.  Within 8e-16 relative
    of mpmath for |x| from 1e-4 to 1e4 (scipy's ``exp1`` is off by up to
    4e-13 near |x| = 4.5).  Arrays of up to _SMALL points take a scalar
    loop; in larger ones (``_exp_e1_array``) the points are sorted by term
    count, so a backward recurrence step runs only over the points that
    need it.
    """
    x = np.asarray(x, dtype=complex)
    if x.size <= _SMALL:
        return _elementwise(_exp_e1_scalar, x)
    return _exp_e1_array(x.ravel()).reshape(x.shape)


def _exp_e1_array(flat):
    series, n = _e1_terms(flat)
    out = np.empty_like(flat)
    order = np.argsort(n, kind="stable")
    for use_series in (True, False):
        idx = order[series[order] == use_series]
        if idx.size == 0:
            continue
        xs, ns = flat[idx], n[idx]
        acc = np.zeros_like(xs)
        first = np.searchsorted(ns, np.arange(ns[-1] + 1))  # first point with n >= k
        for k in range(ns[-1], 0, -1):
            a, xa = acc[first[k]:], xs[first[k]:]
            if use_series:
                a *= xa
                a += _E1_SERIES[k]
            else:
                np.subtract(xa + (2 * k + 1), a, out=a)
                np.divide(k * k, a, out=a)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[idx] = (np.exp(xs) * (-_EULER - np.log(xs) - acc * xs) if use_series
                        else 1.0 / (xs + 1.0 - acc))
    return out


@functools.lru_cache(maxsize=64)
def _tail_rule(omega0, omega_c):
    """24-node Gauss-Legendre (nodes, weights) for int_{sqrt(omega_c)}^inf 2w e^{-w^2/omega0} f(w) dw.

    Cut where the Gaussian has fallen by 2^-53, the double-precision unit.
    """
    r = math.sqrt(omega_c / omega0)
    half = math.sqrt(omega0) * (math.sqrt(r * r + 53.0 * math.log(2.0)) - r) / 2.0
    nodes = math.sqrt(omega_c) + half * (1.0 + _TAIL_X)
    return nodes, half * _TAIL_W * 2.0 * nodes * np.exp(-nodes * nodes / omega0)


def ghat(p: ModelParams, s):
    """G_hat(s) = (1/pi) int_band J(omega) / (s + i(omega - delta)) d omega in closed form.

    With z = omega_b - delta - i s this is (alpha/(i pi)) I(z), where
    I(z) = int_0^omega_c sqrt(u) e^{-u/omega0}/(u + z) du, continued off
    the cut z in [-omega_c, 0].  Over the untruncated band
    I = sqrt(pi omega0) - pi sqrt(z) erfcx(sqrt(z/omega0)) (erfcx(y) is the
    Faddeeva w(iy)).  With c = sqrt(-z) and (w - c)/(w^2 - c^2) = 1/(w + c),
    the tail beyond omega_c is c e^{z/omega0} E1((z + omega_c)/omega0) plus
    int_{sqrt(omega_c)}^inf 2w e^{-w^2/omega0}/(w + c) dw.  The E1 term holds
    the log singularity at the hard band top z = -omega_c and the tail cut
    z < -omega_c exactly; the remainder's pole w = -c never nears the path
    (Re c >= 0), so one fixed ``_tail_rule`` serves every s and no point
    switches to a band quadrature.

    s is a complex scalar, whose tail sum is one dot product (a 0-d running
    sum takes about 3x as long), or an ndarray, whose running sum keeps the
    temporaries the size of s.  The two differ by rounding: by at most
    3.4e-15 relative on a grid about both band ends (1.4e-15 within 1e-3
    omega_c of the cut); the Laplace inverter runs both.  Just right of the
    cut, at s = -i(omega - delta) + 0, Re G_hat = J(omega) and Im G_hat is
    the principal-value shift, which the cut integral of ``rwa.cut_invert``
    samples.
    """
    s = np.asarray(s, dtype=complex)
    z = p.omega_b - p.delta - 1j * s
    c = np.sqrt(-z)
    full = math.sqrt(math.pi * p.omega0) - math.pi * np.sqrt(z) * erfcx(np.sqrt(z / p.omega0))
    nodes, weights = _tail_rule(p.omega0, p.omega_c)
    if c.ndim == 0:
        rest = weights @ (1.0 / (nodes + c))
    else:  # a running sum keeps the temporaries the size of s
        rest = sum(wk / (xk + c) for xk, wk in zip(nodes, weights))
    top = p.band_top - p.delta - 1j * s  # z + omega_c, to ulp(top) and not ulp(omega_c)
    tail = c * math.exp(-p.omega_c / p.omega0) * _exp_e1(top / p.omega0) + rest
    return p.alpha / (1j * math.pi) * (full - tail)


def ghat_slope(p: ModelParams, s, g):
    """dG_hat/ds at s from g = ghat(p, s), by parts: with dz/ds = -i and
    A = sqrt(pi omega0) erf(sqrt(omega_c/omega0)),
    I'(z) = sqrt(omega_c) e^{-omega_c/omega0}/(omega_c + z) - (A - I)/(2z) + I/omega0.
    """
    z = p.omega_b - p.delta - 1j * s
    a = math.sqrt(math.pi * p.omega0) * math.erf(math.sqrt(p.omega_c / p.omega0))
    b = math.sqrt(p.omega_c) * math.exp(-p.omega_c / p.omega0)
    top = p.band_top - p.delta - 1j * s  # omega_c + z, as in ``ghat``
    return (-p.alpha / math.pi * (b / top - a / (2.0 * z))
            - 1j * g * (0.5 / z + 1.0 / p.omega0))

