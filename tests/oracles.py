"""Test-only oracles.

The model's: each integrates the band measure J/pi directly with
``complex_quad`` in u = sqrt(omega - omega_b), so it shares no algebra with
``bath_correlation`` or ``ghat``, the closed forms it checks.

The chain's: the head-site propagator, which must reproduce the bath
correlation kernel.  The MPS engine's: two-site expectation values and the
total bond energy, which the energy-drift and product-state tests use.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from gapchain import mps
from gapchain._quad import complex_quad
from gapchain.chainmap import ChainCoefficients
from gapchain.model import ModelParams


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


def total_energy(state: mps.MPSState, gates: mps.Gates):
    """<H> summed over the bond decomposition."""
    return sum(measure_bond(state, j, h).real for j, h in enumerate(gates.hamiltonians))
