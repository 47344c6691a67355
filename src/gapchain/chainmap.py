"""Continuum-to-chain mapping via orthogonal polynomial recurrences.

The band is parametrized by the linear dispersion omega(k) = omega_b + omega_c*k
on k in [0, 1] with coupling weight h^2(k) = omega_c*J(omega(k))/pi, so that the
chain model shares the bath correlation of ``model.bath_correlation`` exactly,
hard band top included (a chain needs a measure of finite support).
Recurrence coefficients come from the Stieltjes procedure on an oversampled
global Fejer (first rule) discretization of the measure (never from raw moments,
which are hopelessly ill-conditioned for this weight beyond n ~ 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .model import ModelParams, spectral_density


@dataclass(frozen=True)
class DiscretizedWeight:
    """Quadrature representation of the measure h^2(k) dk on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    M: int


@dataclass(frozen=True)
class ChainCoefficients:
    """Nearest-neighbour chain equivalent of the continuum bath.

    eps are absolute on-site frequencies (band edge included), t the hoppings,
    g the system-to-head coupling, weight_norm the raw band integral of J.
    """

    g: float
    eps: np.ndarray
    t: np.ndarray
    N: int
    weight_norm: float


def _sqrt_rule(M: int):
    """Global M-point Fejer first rule in u = sqrt(k) on [0, 1].

    The substitution removes the sqrt(k) weight singularity exactly, and the
    arcsine clustering of the Chebyshev nodes matches the zero crowding of
    deep orthogonal polynomials at both endpoints, so every Stieltjes inner
    product up to depth ~M/2 is integrated at spectral accuracy. Composite
    low-order panels fail here: a 16-point panel saturates near degree 30
    while polynomial products reach degree 2N+1. The weights are one DCT-III
    of the Chebyshev moments 2/(1 - 4j^2) (Waldvogel, BIT 46 (2006) 195),
    so the rule costs O(M log M) where Gauss-Legendre nodes cost O(M^2).
    """
    moments = np.zeros(M)
    moments[::2] = 2.0 / (1.0 - np.arange(0, M, 2) ** 2.0)
    u = 0.5 - 0.5 * np.cos((np.arange(M) + 0.5) * (math.pi / M))
    return u, 0.5 * dct(moments, type=3) / M


def discretize_weight(p: ModelParams, M: int) -> DiscretizedWeight:
    """Fejer first-rule discretization of the measure h^2(k) dk, M nodes total."""
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    if p.alpha == 0.0:
        raise ValueError("zero weight: alpha = 0 leaves no environment to map")
    u, du = _sqrt_rule(int(M))
    k = u * u
    w = (p.omega_c / math.pi) * spectral_density(p, p.omega_b + p.omega_c * k) * (2.0 * u * du)
    return DiscretizedWeight(nodes=k, weights=w, M=k.size)


def stieltjes_recurrence(w: DiscretizedWeight, N: int):
    """Three-term recurrence coefficients of the measure's orthogonal polynomials.

    Returns (alpha, beta): alpha_n for n = 0..N-1 and beta with beta[0] the total
    weight, beta[1..N-1] the monic norm ratios. Internally runs the recurrence on
    orthonormal polynomials; monic values underflow near n ~ 260 while the
    coefficients themselves stay well-conditioned. The M >= 10N guard is set
    by measurement on the Fejer rule: at the wideband corner and N = 650,
    M = 10N matches M = 40N to 1.3e-14 relative in every coefficient.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > w.M / 10:
        raise ValueError(f"recurrence depth N={N} needs M >= 10*N nodes, got M={w.M}")
    k, wt = w.nodes, w.weights
    alpha = np.empty(N)
    beta = np.empty(N)
    beta[0] = wt.sum()
    if beta[0] <= 0.0:
        raise RuntimeError("loss of orthogonality: total weight is not positive")
    p_prev = np.zeros_like(k)
    p_cur = np.full_like(k, 1.0 / math.sqrt(beta[0]))
    sqrt_b = 0.0
    for n in range(N):
        alpha[n] = wt @ (k * p_cur * p_cur)
        if n == N - 1:
            break
        q = (k - alpha[n]) * p_cur - sqrt_b * p_prev
        b = wt @ (q * q)
        if b <= 0.0:
            raise RuntimeError(
                f"loss of orthogonality at n={n + 1}: beta <= 0 (quadrature undersampled)"
            )
        beta[n + 1] = b
        sqrt_b = math.sqrt(b)
        p_prev, p_cur = p_cur, q / sqrt_b
    return alpha, beta


def map_to_chain(p: ModelParams, N: int, M: int | None = None) -> ChainCoefficients:
    """Chain coefficients for a length-N truncation of the semi-infinite chain."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if M is None:
        M = max(2000, 20 * N)
    w = discretize_weight(p, M)
    alpha, beta = stieltjes_recurrence(w, N)
    return ChainCoefficients(
        g=math.sqrt(beta[0]),
        eps=p.omega_b + p.omega_c * alpha,
        t=p.omega_c * np.sqrt(beta[1:]),
        N=N,
        weight_norm=math.pi * beta[0],
    )


def chain_length_for(p: ModelParams, t_max: float) -> int:
    """Light-cone chain length: reflections from the truncated end must not
    re-enter the system window. Group velocity is bounded by 2*max(t_n) with
    t_n -> omega_c/4."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    return int(math.ceil(2.0 * t_max * p.omega_c / 4.0)) + 50
