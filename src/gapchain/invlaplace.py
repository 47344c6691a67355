"""Quadrature rules of the inverse Laplace transform: the band and the rays.

``filon_fourier``
    int f(x) e^{-i x t} dx over a panelled interval, for every t at once.
    On each panel f is replaced by its Legendre interpolant on 32 Gauss
    nodes, and each Legendre polynomial is integrated against the
    oscillator exactly: int_{-1}^{1} P_k(x) e^{-i kappa x} dx =
    2 (-i)^k j_k(kappa).  The rule is Gauss-Legendre at t = 0 and exact
    for a polynomial f of degree < 32 at every t, so its error does not
    grow with the number of oscillations per panel (Iserles & Norsett,
    *BIT* 44 (2004) 755).  The spherical Bessel table j_k(kappa), k < 32,
    comes from two three-term recurrences run over all (t, panel) pairs
    at once: forward from j_0 and j_1 for k <= kappa, and above kappa,
    where j_k is the minimal solution, Miller's backward continued
    fraction for the ratios j_k/j_{k-1} (Gautschi, *SIAM Rev.* 9 (1967)
    24).  ``rwa.cut_invert`` integrates the emitter's spectral density
    over the band with it: once the resolvent's poles are known, the
    Bromwich contour collapses onto the branch cut.

``ray_rule``
    Nodes and weights for int_0^inf g(y) e^{-y t} dy that serve every
    t >= t_min at once: octave panels in y, 16-node Gauss on each, in y or
    in sqrt(y).  Deformed into the lower half plane, the band integral
    becomes two such integrals along the steepest-descent rays of
    e^{-i nu t} (Huybrechs & Vandewalle, *SIAM J. Numer. Anal.* 44 (2006)
    1026); ``rwa.ray_invert`` evaluates the density once per node, and
    each time is one row of the matrix e^{-y_j t}.

Both are pure and operate on caller-supplied data; the physics kernels
live in the solver modules.
"""

import math

import numpy as np

__all__ = ["filon_fourier", "ray_rule"]

_FILON_X, _FILON_W = np.polynomial.legendre.leggauss(32)
_FILON_K = np.arange(32)
# node values f_j -> Legendre coefficients (k + 1/2) sum_j w_j P_k(x_j) f_j,
# times the 2 (-i)^k of int_{-1}^{1} P_k e^{-i kappa x} dx = 2 (-i)^k j_k(kappa)
_FILON_COEF = (np.polynomial.legendre.legvander(_FILON_X, 31)
               * (_FILON_W[:, None] * (_FILON_K + 0.5)) * (2.0 * (-1j) ** _FILON_K))
_FILON_CHUNK = 16  # times per (times, panels, degree) table of j_k
_MILLER_START = 72  # order of r = 0 in the ratio recurrence: ample for kappa < 32
_RAY_X, _RAY_W = np.polynomial.legendre.leggauss(16)


def filon_fourier(f, edges, times):
    """int_{edges[0]}^{edges[-1]} f(x) e^{-i x t} dx for each t in ``times``.

    f is called once, on the (panels, 32) array of Gauss nodes.  The j_k
    table (``_bessel_table``, two vectorized recurrences after Gautschi
    1967) is built for 16 times at a time, so temporaries stay at
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
        jk = _bessel_table(np.outer(t, half))
        out[i:i + _FILON_CHUNK] = np.sum(
            np.einsum("tpk,pk->tp", jk, coef) * np.exp(-1j * np.outer(t, mid)), axis=1)
    return out


def _bessel_table(kappa):
    """Spherical Bessel j_k(kappa) for k = 0..31, shape kappa.shape + (32,).

    Orders k <= kappa run the forward recurrence
    j_{k+1} = (2k + 1)/kappa j_k - j_{k-1} from j_0 = sin(kappa)/kappa and
    j_1 = (j_0 - cos kappa)/kappa, as scipy's ``spherical_jn`` does there.
    Above kappa j_k is the minimal solution, which that recurrence loses,
    so the ratios r_k = j_k/j_{k-1} = kappa/(2k + 1 - kappa r_{k+1}) run
    down from r_72 = 0 (Miller's continued fraction) and j_k = r_k j_{k-1}
    chains them up from the last forward value (Gautschi, *SIAM Rev.* 9
    (1967) 24).  At kappa = 0 every ratio is 0 and j_0 is 1.
    """
    x = np.abs(np.asarray(kappa, dtype=float))
    jk = np.empty((_FILON_K.size,) + x.shape)  # r_k first, then j_k over it
    r = np.zeros_like(x)
    for k in range(_MILLER_START, 0, -1):
        r = np.where(x < k, x / (2 * k + 1 - x * r), 0.0)
        if k < _FILON_K.size:
            jk[k] = r
    jk[0] = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    xf = np.maximum(x, 1.0)  # forward values are kept only where kappa >= k >= 1
    jk[1] = np.where(x >= 1.0, (jk[0] - np.cos(x)) / xf, jk[1] * jk[0])
    for k in range(2, _FILON_K.size):
        jk[k] = np.where(x >= k, (2 * k - 1) * jk[k - 1] / xf - jk[k - 2], jk[k] * jk[k - 1])
    jk[1::2] *= np.where(np.asarray(kappa) < 0.0, -1.0, 1.0)  # j_k(-kappa) = (-1)^k j_k(kappa)
    return np.moveaxis(jk, 0, -1)


def ray_rule(y_lo, y_hi, breaks=(), sqrt=False):
    """(y_j, w_j) with sum_j w_j g(y_j) ~ int_0^{y_hi} g(y) dy.

    The panels are [0, y_lo], the octaves y_lo 2^k below y_hi, and the
    last one up to y_hi, split again at every breakpoint inside (0, y_hi):
    breakpoints that close in on a point resolve a pole of g near the ray.
    Each panel carries 16-node Gauss-Legendre in y, or with ``sqrt`` in
    u = sqrt(y) between the square roots of the panel ends (weights
    2 u du), which integrates a sqrt(y) endpoint like a polynomial.
    """
    if not 0.0 < y_lo < y_hi < math.inf:
        raise ValueError("need 0 < y_lo < y_hi < inf")
    octaves = y_lo * 2.0 ** np.arange(math.ceil(math.log2(y_hi / y_lo)))
    edges = np.concatenate(([0.0], octaves, [y_hi], np.ravel(breaks)))
    edges = np.unique(np.clip(edges, 0.0, y_hi))
    if sqrt:
        edges = np.sqrt(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _RAY_X).ravel()
    w = (half[:, None] * _RAY_W).ravel()
    return (x * x, 2.0 * x * w) if sqrt else (x, w)
