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
from functools import cached_property

import numpy as np
from scipy.fft import dct
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, ddot, dscal

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

    @cached_property
    def bath_modes(self) -> np.ndarray:
        """Ascending eigenvalues of the bath chain alone (diagonal eps, off-diagonal t).

        They do not depend on the emitter, so every detuning's
        ``rwa.chain_evolve`` shares them; computed on first use, they
        are then pickled with the chain.
        """
        return eigh_tridiagonal(self.eps, self.t, eigvals_only=True, lapack_driver="sterf")


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
    orthonormal polynomials in Lanczos-vector form, v_n = sqrt(w) p_n on the
    nodes, with in-place products and two dot products per step; monic values
    would underflow near n ~ 260 while the coefficients themselves stay
    well-conditioned. Every BLAS call of the loop goes to scipy's BLAS: where
    numpy was imported before gapchain, numpy's and scipy's OpenBLAS pools
    both run several threads, and alternating between them made the loop
    about 100x slower (50 s at N = 4000 under pytest on 2 cores).

    The M >= 4N guard is set by measurement on the Fejer rule: for
    omega_c/omega0 from 4 to 500 and N from 300 to 4000, M = 3N and 4N
    match M = 40N to 6.5e-14 relative in every coefficient, while M = 2.5N
    misses it by 1e-7 to 6e-6. A Fejer rule integrates these smooth
    integrands well past its polynomial degree (Trefethen, SIAM Rev. 50
    (2008) 67); the cliff between 2.5N and 3N is where that stops.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > w.M / 4:
        raise ValueError(f"recurrence depth N={N} needs M >= 4*N nodes, got M={w.M}")
    k = w.nodes
    alpha = np.empty(N)
    beta = np.empty(N)
    beta[0] = w.weights.sum()
    if beta[0] <= 0.0:
        raise RuntimeError("loss of orthogonality: total weight is not positive")
    v = np.sqrt(w.weights / beta[0])
    v_prev, q = np.zeros_like(v), np.empty_like(v)
    sqrt_b = 0.0
    for n in range(N):
        np.multiply(k, v, out=q)
        alpha[n] = ddot(v, q)
        if n == N - 1:
            break
        q = daxpy(v, q, a=-alpha[n])  # q = (k - alpha_n) v_n - sqrt(beta_n) v_{n-1}, in place
        q = daxpy(v_prev, q, a=-sqrt_b)
        b = ddot(q, q)
        if b <= 0.0:
            raise RuntimeError(
                f"loss of orthogonality at n={n + 1}: beta <= 0 (quadrature undersampled)"
            )
        beta[n + 1] = b
        sqrt_b = math.sqrt(b)
        q = dscal(1.0 / sqrt_b, q)
        v_prev, v, q = v, q, v_prev
    return alpha, beta


def quadrature_nodes(N: int) -> int:
    """Default Fejer node count of a length-N chain: 4N, and at least 2000."""
    return max(2000, 4 * N)


def map_to_chain(p: ModelParams, N: int, M: int | None = None) -> ChainCoefficients:
    """Chain coefficients for a length-N truncation of the semi-infinite chain,
    from M Fejer nodes (``quadrature_nodes(N)`` by default)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    w = discretize_weight(p, quadrature_nodes(N) if M is None else M)
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
