"""Numerical inverse Laplace transforms and the Fourier rule of the cut integral.

``filon_fourier``
    int f(x) e^{-i x t} dx over a panelled interval, for every t at once.
    On each panel f is replaced by its Legendre interpolant on 32 Gauss
    nodes, and each Legendre polynomial is integrated against the
    oscillator exactly: int_{-1}^{1} P_k(x) e^{-i kappa x} dx =
    2 (-i)^k j_k(kappa).  The rule is Gauss-Legendre at t = 0 and exact
    for a polynomial f of degree < 32 at every t, so its error does not
    grow with the number of oscillations per panel (Iserles & Norsett,
    *BIT* 44 (2004) 755).  ``rwa.cut_invert`` integrates the emitter's
    spectral density over the band with it: once the resolvent's poles
    are known, the Bromwich contour collapses onto the branch cut.

``talbot_invert``
    Deformed-contour quadrature on s(theta) = mu(theta cot theta +
    i nu theta), theta in (-pi, pi), evaluated with the midpoint rule.
    The two shape parameters decouple the decay scale (mu ~ 1/t) from
    the vertical reach (mu nu pi / 2), so transforms with singularities
    far up the imaginary axis are enclosed without pushing the contour
    into the right half plane.  Node counts scale linearly with the
    enclosure aspect ratio nu.

Both are pure and operate on caller-supplied functions; the physics
kernels live in the solver modules.  ``rwa.laplace_invert`` hands Talbot
the resolvent 1/(s + G_hat(s)) built on the closed form ``model.ghat``
as the independent cross-check of the cut integral.
"""

import math

import numpy as np
from scipy.special import spherical_jn

__all__ = ["filon_fourier", "talbot_invert"]

_TALBOT_TOL = 1e-8  # quadrature resolution; node count grows with log 1/tol
_TALBOT_MU = 4.0  # max Re(s t) on the contour: weights stay <= e^4
_TALBOT_BLOCK = 2**22  # (times + 8) x nodes entries per block of the Talbot sum
_FILON_X, _FILON_W = np.polynomial.legendre.leggauss(32)
_FILON_K = np.arange(32)
# node values f_j -> Legendre coefficients (k + 1/2) sum_j w_j P_k(x_j) f_j,
# times the 2 (-i)^k of int_{-1}^{1} P_k e^{-i kappa x} dx = 2 (-i)^k j_k(kappa)
_FILON_COEF = (np.polynomial.legendre.legvander(_FILON_X, 31)
               * (_FILON_W[:, None] * (_FILON_K + 0.5)) * (2.0 * (-1j) ** _FILON_K))
_FILON_CHUNK = 16  # times per (times, panels, degree) table of j_k


def filon_fourier(f, edges, times):
    """int_{edges[0]}^{edges[-1]} f(x) e^{-i x t} dx for each t in ``times``.

    f is called once, on the (panels, 32) array of Gauss nodes.  The j_k
    table is built for 16 times at a time, so temporaries stay at
    16 x panels x 32 doubles however many times are asked for.
    """
    edges = np.asarray(edges, dtype=float)
    times = np.asarray(times, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be an increasing sequence of >= 2 points")
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    coef = (f(mid[:, None] + half[:, None] * _FILON_X) @ _FILON_COEF) * half[:, None]
    out = np.empty(times.size, dtype=complex)
    for i in range(0, times.size, _FILON_CHUNK):
        t = times[i:i + _FILON_CHUNK]
        jk = spherical_jn(_FILON_K, np.outer(t, half)[..., None])
        out[i:i + _FILON_CHUNK] = np.sum(
            np.einsum("tpk,pk->tp", jk, coef) * np.exp(-1j * np.outer(t, mid)), axis=1)
    return out


def _talbot_sum(transform, tgroup, mu, nu, M):
    # midpoint rule; M must be even or a node lands on the theta=0
    # removable singularity and silently drops the largest term
    M += M % 2
    # the transform's temporaries count as 8 rows (model.ghat keeps ~8 per node)
    step = max(1, _TALBOT_BLOCK // (tgroup.size + 8))
    total = 0.0
    for k0 in range(0, M, step):
        k = np.arange(k0, min(k0 + step, M))
        theta = -np.pi + (k + 0.5) * (2.0 * np.pi / M)
        cot = np.cos(theta) / np.sin(theta)
        s = mu * (theta * cot + 1j * nu * theta)
        ds = mu * (cot - theta / np.sin(theta) ** 2 + 1j * nu)
        Fds = np.asarray(transform(s), dtype=complex) * ds
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            w = np.exp(s[None, :] * tgroup[:, None])
            w = np.where(np.isfinite(w), w, 0.0)
        total += w @ Fds
    return total / (1j * M)


def talbot_invert(transform, times, s_max):
    """Invert a Laplace transform on a contour enclosing |Im s| <= s_max.

    Parameters
    ----------
    transform : callable
        F(s) for a complex ndarray batch s (double precision).
    times : array_like of t > 0.
    s_max : enclosure bound: all singularities lie within
        |Im s| <= s_max, Re s <= 0.

    Returns
    -------
    values : complex ndarray on ``times``.
    spread : per-point |difference| between two node-count variants, an
        internal convergence estimate.

    Times are processed in octave groups sharing one contour, so the
    transform is evaluated O(log(t_max/t_min)) times regardless of grid
    size.  Each contour targets a quadrature resolution of 1e-8 and keeps
    its exponential weights at or below e^4; node blocks of <= 2^22 weights
    bound its memory.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.zeros(0, dtype=complex), np.zeros(0)
    if times.min() <= 0.0:
        raise ValueError("talbot_invert requires t > 0")
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")
    values = np.zeros(times.size, dtype=complex)
    spread = np.zeros(times.size)
    t_top = times.max()
    n_oct = max(1, int(math.ceil(math.log2(t_top / times.min()))) + 1)
    for i in range(n_oct):
        hi = t_top / 2.0**i
        lo = hi / 2.0 if i < n_oct - 1 else 0.0
        sel = (times > lo) & (times <= hi)
        if not sel.any():
            continue
        mu = _TALBOT_MU / hi
        # vertical stretch reaches 1.25x the enclosure bound but never
        # drops below the classical nu = 1 contour shape
        nu = max(1.0, 2.5 * s_max / (math.pi * mu))
        M0 = max(64, int(math.ceil(nu * math.log(1.0 / _TALBOT_TOL) / 0.45)))
        v0 = _talbot_sum(transform, times[sel], mu, nu, M0)
        v1 = _talbot_sum(transform, times[sel], mu, nu, int(1.05 * M0) + 8)
        values[sel] = v0
        spread[sel] = np.abs(v0 - v1)
    return values, spread
