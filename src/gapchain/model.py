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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT_PI = math.sqrt(math.pi)
_TAIL_X, _TAIL_W = np.polynomial.legendre.leggauss(24)


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
    band = 1.0 - np.exp(-z) * (2.0 / _SQRT_PI * r + special.erfcx(r))
    g = p.omega2 * np.exp(1j * p.delta_L * ts) / (1.0 + 1j * p.omega0 * ts) ** 1.5 * band
    if np.ndim(t) == 0:
        return complex(g)
    return g


def _exp_e1(x):
    """e^x E1(x); past the overflow of e^x, 1/x - 1/x^2 + 2/x^3 (error < 6/x^4).

    A finite scalar x != 0 with |Re x| < 700 needs no guard: e^x stays finite
    and E1 is finite off x = 0.
    """
    if np.ndim(x) == 0 and abs(x.real) < 700.0 and math.isfinite(x.imag) and x != 0:
        return np.exp(x) * special.exp1(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.exp(x) * special.exp1(x)
        return np.where(np.isfinite(v), v, (1.0 - (1.0 - 2.0 / x) / x) / x)


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

    s is a complex scalar or ndarray; temporaries are the size of s (a
    scalar sums the tail rule as one dot product).  Just
    right of the cut, at s = -i(omega - delta) + 0, Re G_hat = J(omega)
    and Im G_hat is the principal-value shift, which is what the cut
    integral of ``rwa.cut_invert`` samples.
    """
    s = np.asarray(s, dtype=complex)
    z = p.omega_b - p.delta - 1j * s
    c = np.sqrt(-z)
    full = math.sqrt(math.pi * p.omega0) - math.pi * np.sqrt(z) * special.erfcx(
        np.sqrt(z / p.omega0))
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

