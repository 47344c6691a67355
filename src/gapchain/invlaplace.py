"""Quadrature rules of the inverse Laplace transform: the band and the rays.

``filon_fourier``
    int f(x) e^{-i x t} dx over a panelled interval, for every t at once.
    On each panel f is replaced by its Legendre interpolant on 32 Gauss
    nodes, and each Legendre polynomial is integrated against the
    oscillator exactly: int_{-1}^{1} P_k(x) e^{-i kappa x} dx =
    2 (-i)^k j_k(kappa).  The rule is Gauss-Legendre at t = 0 and exact
    for a polynomial f of degree < 32 at every t, so its error does not
    grow with the number of oscillations per panel (Iserles & Norsett,
    *BIT* 44 (2004) 755).  Each (t, panel) pair needs only the sum
    sum_k c_k j_k(kappa), k < 32, which ``_bessel_sum`` accumulates inside
    the two three-term recurrences of j_k: forward from j_0 and j_1 for
    k <= kappa, and above kappa, where j_k is the minimal solution, as a
    Horner tail over the ratios j_k/j_{k-1} of Miller's backward continued
    fraction (Gautschi, *SIAM Rev.* 9 (1967) 24); no j_k is stored.
    ``rwa.cut_invert`` integrates the emitter's spectral density over the
    band with it: once the resolvent's poles are known, the Bromwich
    contour collapses onto the branch cut.

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
_FILON_CHUNK = 128  # times per call of _bessel_sum: its temporaries are chunk x panels
_RATIO_SEED = 48  # order of the ratio recurrence's uniform-asymptotic start
_RAY_X, _RAY_W = np.polynomial.legendre.leggauss(16)


def filon_fourier(f, edges, times):
    """int_{edges[0]}^{edges[-1]} f(x) e^{-i x t} dx for each t >= 0 in ``times``.

    f is called once, on the (panels, 32) array of Gauss nodes.  For each
    chunk of 128 times, ``_bessel_sum`` contracts the panels' Legendre
    coefficients with j_k(t half-width), so temporaries stay at
    128 x panels however many times are asked for.
    """
    edges = np.asarray(edges, dtype=float)
    times = np.asarray(times, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be an increasing sequence of >= 2 points")
    if not np.all(times >= 0.0):
        raise ValueError("times must be >= 0")
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    coef = (f(mid[:, None] + half[:, None] * _FILON_X) @ _FILON_COEF) * half[:, None]
    out = np.empty(times.size, dtype=complex)
    for i in range(0, times.size, _FILON_CHUNK):
        t = times[i:i + _FILON_CHUNK]
        phase = np.exp(np.outer(t, -1j * mid))
        phase *= _bessel_sum(np.outer(t, half), coef)
        out[i:i + _FILON_CHUNK] = phase.sum(axis=1)
    return out


def _bessel_sum(kappa, coef):
    """sum_k coef[p, k] j_k(kappa[t, p]) over k = 0..31, for kappa >= 0 of shape (t, p).

    Orders k <= kappa run the forward recurrence
    j_{k+1} = (2k + 1)/kappa j_k - j_{k-1} from j_0 = sin(kappa)/kappa and
    j_1 = (j_0 - cos kappa)/kappa, as scipy's ``spherical_jn`` does there,
    and add c_k j_k as they go.  Above kappa j_k is the minimal solution,
    which that recurrence loses, so the ratios
    r_k = j_k/j_{k-1} = kappa/(2k + 1 - kappa r_{k+1}) run down (Gautschi,
    *SIAM Rev.* 9 (1967) 24) from their uniform-asymptotic value
    kappa/(n + sqrt(n^2 - kappa^2)), n = 48.5, at order 48, and carry the
    Horner tail H_k = r_k (c_k + H_{k+1}) = sum_{m >= k} c_m j_m / j_{k-1}.
    With k* = min(floor kappa, 31) the last forward order, the sum is the
    forward part plus j_{k*} H_{k*+1}.

    The pairs are ordered by k* (a radix sort), so that the pairs each
    step of either recurrence updates are one slice and none is masked.
    At kappa = 0 every ratio is 0 and the sum is c_0.
    """
    n_p = kappa.shape[1]
    x = kappa.ravel()
    last = _FILON_K.size - 1
    kstar = np.minimum(x, last).astype(np.uint8)
    order = np.argsort(kstar, kind="stable")
    ends = np.bincount(kstar, minlength=_FILON_K.size).cumsum()  # pairs with k* <= k
    x, panel, ct = x[order], order % n_p, np.ascontiguousarray(coef.T)

    # down: the ratio orders k > k* of the pairs with k* < 31, in x[:ends[k - 1]]
    xr = x[:ends[last - 1]]
    n = _RATIO_SEED + 0.5
    r = xr / (n + np.sqrt(n * n - xr * xr))
    h = np.zeros(x.size, dtype=complex)  # stays 0 where k* = 31
    c = np.empty(x.size, dtype=complex)  # the c_k of each pair, so no step allocates them
    for k in range(_RATIO_SEED - 1, 0, -1):
        m = ends[k - 1] if k <= last else xr.size
        r[:m] = xr[:m] / (2 * k + 1 - xr[:m] * r[:m])
        if k <= last:
            ct[k].take(panel[:m], out=c[:m])
            c[:m] += h[:m]
            np.multiply(r[:m], c[:m], out=h[:m])

    # up: the forward orders 1 <= k <= k* of the pairs in x[ends[k - 1]:]
    j0 = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    out = j0 * ct[0].take(panel)
    lo = ends[0]
    out[:lo] += j0[:lo] * h[:lo]
    jp, j = j0[lo:], (j0[lo:] - np.cos(x[lo:])) / x[lo:]
    for k in range(1, _FILON_K.size):
        if lo == x.size:
            break
        if k > 1:
            d = j.size - (x.size - lo)
            jp, j = j[d:], (2 * k - 1) * j[d:] / x[lo:] - jp[d:]
        ck = ct[k].take(panel[lo:], out=c[lo:])
        ck *= j
        out[lo:] += ck
        hi = ends[k]
        out[lo:hi] += j[:hi - lo] * h[lo:hi]
        lo = hi
    res = np.empty_like(out)
    res[order] = out
    return res.reshape(kappa.shape)


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
    edges = np.sort(np.clip(edges, 0.0, y_hi))
    edges = edges[np.diff(edges, prepend=-1.0) > 0.0]  # np.unique would import numpy.ma
    if sqrt:
        edges = np.sqrt(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _RAY_X).ravel()
    w = (half[:, None] * _RAY_W).ravel()
    return (x * x, 2.0 * x * w) if sqrt else (x, w)
