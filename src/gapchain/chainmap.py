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

from .model import ModelParams, spectral_density


@dataclass(frozen=True)
class ChainCoefficients:
    """Nearest-neighbour chain equivalent of the continuum bath.

    eps are absolute on-site frequencies (band edge included), t the hoppings,
    g the system-to-head coupling, weight_norm the raw band integral of J.
    """

    g: float
    eps: np.ndarray
    t: np.ndarray
    weight_norm: float

    @property
    def N(self) -> int:
        return self.eps.size


def dct3(v, M: int):
    """DCT-III of v zero-padded to M points: v_0 + 2 sum_n v_n cos(pi n (2j+1)/2M),
    j = 0..M-1, as 2M times the real part of one inverse FFT of length 2M of
    c_n v_n e^{i pi n/2M}, with c_0 = 1 and c_n = 2."""
    v = np.asarray(v, dtype=float)
    n = np.arange(v.size)
    scaled = np.zeros(2 * M, dtype=complex)
    scaled[:v.size] = 2.0 * v * np.exp(1j * math.pi / (2 * M) * n)
    scaled[0] *= 0.5
    return np.fft.ifft(scaled)[:M].real * (2 * M)


def _sqrt_rule(M: int):
    """Global M-point Fejer first rule in u = sqrt(k) on [0, 1].

    The substitution removes the sqrt(k) weight singularity exactly, and the
    arcsine clustering of the Chebyshev nodes matches the zero crowding of
    deep orthogonal polynomials at both endpoints, so every Stieltjes inner
    product up to depth ~M/2 is integrated at spectral accuracy. Composite
    low-order panels fail here: a 16-point panel saturates near degree 30
    while polynomial products reach degree 2N+1. The weights are one DCT-III
    (``dct3``) of the Chebyshev moments 2/(1 - 4j^2) (Waldvogel, BIT 46
    (2006) 195), so the rule costs O(M log M) where Gauss-Legendre nodes
    cost O(M^2).
    """
    moments = np.zeros(M)
    moments[::2] = 2.0 / (1.0 - np.arange(0, M, 2) ** 2.0)
    u = 0.5 - 0.5 * np.cos((np.arange(M) + 0.5) * (math.pi / M))
    return u, dct3(moments, M) / (2 * M)


def discretize_weight(p: ModelParams, M: int):
    """Fejer first-rule discretization of the measure h^2(k) dk: (nodes k, weights)."""
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    if p.alpha == 0.0:
        raise ValueError("zero weight: alpha = 0 leaves no environment to map")
    u, du = _sqrt_rule(int(M))
    k = u * u
    w = (p.omega_c / math.pi) * spectral_density(p, p.omega_b + p.omega_c * k) * (2.0 * u * du)
    return k, w


def stieltjes_recurrence(nodes: np.ndarray, weights: np.ndarray, N: int):
    """Three-term recurrence coefficients of the measure's orthogonal polynomials.

    Returns (alpha, beta): alpha_n for n = 0..N-1 and beta with beta[0] the total
    weight, beta[1..N-1] the monic norm ratios. Internally runs the recurrence on
    orthonormal polynomials in Lanczos-vector form, v_n = sqrt(w) p_n on the
    nodes, with in-place products and two dot products per step; monic values
    would underflow near n ~ 260 while the coefficients themselves stay
    well-conditioned. Each dot product is numpy's pairwise sum of an
    elementwise product: it calls no BLAS, so the loop runs the same however
    many threads numpy's BLAS pool has, and it rounds less than ``einsum``'s
    running sum, which moves the N = 650 coefficients by up to 1.3e-13 from
    a 40N-node rule (the pairwise sum: 1.5e-14).

    The guard M = nodes.size >= 4N is set by measurement on the Fejer rule:
    for omega_c/omega0 from 4 to 500 and N from 300 to 4000, M = 3N and 4N
    match M = 40N to 6.5e-14 relative in every coefficient, while M = 2.5N
    misses it by 1e-7 to 6e-6. A Fejer rule integrates these smooth
    integrands well past its polynomial degree (Trefethen, SIAM Rev. 50
    (2008) 67); the cliff between 2.5N and 3N is where that stops.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > nodes.size / 4:
        raise ValueError(f"recurrence depth N={N} needs M >= 4*N nodes, got M={nodes.size}")
    alpha = np.empty(N)
    beta = np.empty(N)
    beta[0] = weights.sum()
    if beta[0] <= 0.0:
        raise RuntimeError("loss of orthogonality: total weight is not positive")
    v = np.sqrt(weights / beta[0])
    v_prev, q, tmp = np.zeros_like(v), np.empty_like(v), np.empty_like(v)
    sqrt_b = 0.0
    for n in range(N):
        np.multiply(nodes, v, out=q)
        alpha[n] = np.multiply(v, q, out=tmp).sum()
        if n == N - 1:
            break
        q -= np.multiply(v, alpha[n], out=tmp)  # q = (k - alpha_n) v_n - sqrt(beta_n) v_{n-1}
        q -= np.multiply(v_prev, sqrt_b, out=tmp)
        b = np.multiply(q, q, out=tmp).sum()
        if b <= 0.0:
            raise RuntimeError(
                f"loss of orthogonality at n={n + 1}: beta <= 0 (quadrature undersampled)"
            )
        beta[n + 1] = b
        sqrt_b = math.sqrt(b)
        q *= 1.0 / sqrt_b
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
    nodes, weights = discretize_weight(p, quadrature_nodes(N) if M is None else M)
    alpha, beta = stieltjes_recurrence(nodes, weights, N)
    return ChainCoefficients(
        g=math.sqrt(beta[0]),
        eps=p.omega_b + p.omega_c * alpha,
        t=p.omega_c * np.sqrt(beta[1:]),
        weight_norm=math.pi * beta[0],
    )


def chain_length_for(p: ModelParams, t_max: float) -> int:
    """Light-cone chain length: the one-way reach ceil(omega_c*t_max/2) of the
    front at the group velocity bound 2*max(t_n) -> omega_c/2, plus 50 sites that
    keep the last site's occupation below the 1e-6 at which ``rwa.chain_evolve``
    raises and ``mps.evolve`` flags a sample."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    return math.ceil(p.omega_c * t_max / 2.0) + 50
