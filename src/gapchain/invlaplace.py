"""Numerical inverse Laplace transforms.

Two algorithmically independent inverters:

``piessens_invert``
    Chebyshev-expansion method: the time function is expanded as
    f(t) = sum_k c_k T*_k(exp(-b t)) with shifted Chebyshev polynomials
    T*_k on [0, 1].  Each basis function has an exact transform, built
    by the Chebyshev recurrence, so the coefficients follow from
    collocating F at real points s_j = b (j + 1/2).  The collocation
    matrix is a disguised moment matrix and is exponentially
    ill-conditioned, so the fit is carried out in extended precision and
    F must be sampled in extended precision as well; the returned
    coefficients are well-scaled doubles (the basis is bounded by 1).
    Undamped spectral content (poles on the imaginary axis) is an
    endpoint singularity of the x = exp(-b t) variable and ruins the
    expansion's convergence; callers subtract known poles via ``poles``
    and the inverter adds them back exactly.

``talbot_invert``
    Deformed-contour quadrature on s(theta) = mu(theta cot theta +
    i nu theta), theta in (-pi, pi), evaluated with the midpoint rule.
    The two shape parameters decouple the decay scale (mu ~ 1/t) from
    the vertical reach (mu nu pi / 2), so transforms with singularities
    far up the imaginary axis are enclosed without pushing the contour
    into the right half plane.  Node counts scale linearly with the
    enclosure aspect ratio nu.

Both inverters are pure and operate on caller-supplied transforms; the
physics kernels live in the solver modules.  ``rwa.laplace_invert`` hands
both the resolvent 1/(s + G_hat(s)) built on the closed form
``model.ghat``, which takes mpmath scalars for Piessens and complex
batches for Talbot.
"""

import math

import mpmath
import numpy as np

__all__ = ["piessens_invert", "talbot_invert"]

_TALBOT_TOL = 1e-8  # quadrature resolution; node count grows with log 1/tol
_TALBOT_MU = 4.0  # max Re(s t) on the contour: weights stay <= e^4


def _collocation_matrix(n, b):
    """V[j][k] = transform of T*_k(exp(-b t)) at s_j = b (j + 1/2), j, k < n.

    Multiplying by x = exp(-b t) shifts s_j to s_{j+1}, so the recurrence
    T*_{k+1} = (4x - 2) T*_k - T*_{k-1} reads
    V[j][k+1] = 4 V[j+1][k] - 2 V[j][k] - V[j][k-1], from V[j][0] = 1/s_j
    and V[j][1] = 2 V[j+1][0] - V[j][0].  Column k is needed on rows
    j < 2n - 1 - k.  Runs at the caller's mpmath precision.
    """
    bb = mpmath.mpf(b)
    cols = [[1 / (bb * (2 * j + 1) / 2) for j in range(2 * n - 1)]]
    cols.append([2 * cols[0][j + 1] - cols[0][j] for j in range(2 * n - 2)])
    for k in range(1, n - 1):
        cur, prev = cols[k], cols[k - 1]
        cols.append([4 * cur[j + 1] - 2 * cur[j] - prev[j]
                     for j in range(len(cur) - 1)])
    return mpmath.matrix([[cols[k][j] for k in range(n)] for j in range(n)])


def _clenshaw_shifted(coeffs, x):
    """sum_k coeffs[k] T*_k(x) for ndarray x in [0,1]."""
    y = 2.0 * (2.0 * x - 1.0)
    u1 = np.zeros_like(x, dtype=complex)
    u2 = np.zeros_like(x, dtype=complex)
    for k in range(len(coeffs) - 1, 0, -1):
        u1, u2 = coeffs[k] + y * u1 - u2, u1
    return coeffs[0] + (2.0 * x - 1.0) * u1 - u2


def piessens_invert(transform, times, n=32, b=1.0, poles=()):
    """Invert a Laplace transform by shifted-Chebyshev expansion in exp(-b t).

    Parameters
    ----------
    transform : callable
        F(s) evaluated at an mpmath scalar; must return a value mpmath
        can convert (mpf/mpc/complex).  Evaluations happen inside the
        extended-precision context, and the transform should carry that
        precision: sampling F in double precision defeats the solve.
    times : array_like of t >= 0.
    n : expansion order (collocation at n real nodes s_j = b(j+1/2)).
    b : inverse time scale of the expansion variable x = exp(-b t).
        Accuracy windows roughly t in [0, few/b].
    poles : sequence of (location, residue)
        Simple poles subtracted from F before fitting and re-added
        analytically, f += residue * exp(location * t).

    Returns
    -------
    values : complex ndarray on ``times``.
    coeffs : |c_k| ndarray, a convergence diagnostic (tail ~ error).
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0.0:
        raise ValueError("piessens_invert requires t >= 0")
    if n < 2:
        raise ValueError("expansion order n must be >= 2")
    if b <= 0.0:
        raise ValueError("time scale b must be positive")
    # working digits grow with n to cover the moment-matrix conditioning
    with mpmath.workdps(max(50, 40 + 2 * n)):
        bb = mpmath.mpf(b)
        s_nodes = [bb * (2 * j + 1) / 2 for j in range(n)]
        V = _collocation_matrix(n, b)
        rhs = []
        for s in s_nodes:
            val = mpmath.mpc(transform(s))
            for loc, res in poles:
                val -= mpmath.mpc(res) / (s - mpmath.mpc(loc))
            rhs.append(val)
        sol = mpmath.lu_solve(V, mpmath.matrix(rhs))
    coeffs = np.array([complex(sol[k]) for k in range(n)])
    x = np.exp(-b * times)
    values = _clenshaw_shifted(coeffs, x)
    for loc, res in poles:
        values = values + complex(res) * np.exp(complex(loc) * times)
    return values, np.abs(coeffs)


def _talbot_sum(transform, tgroup, mu, nu, M):
    # midpoint rule; M must be even or a node lands on the theta=0
    # removable singularity and silently drops the largest term
    M += M % 2
    k = np.arange(M)
    theta = -np.pi + (k + 0.5) * (2.0 * np.pi / M)
    cot = np.cos(theta) / np.sin(theta)
    s = mu * (theta * cot + 1j * nu * theta)
    ds = mu * (cot - theta / np.sin(theta) ** 2 + 1j * nu)
    Fds = np.asarray(transform(s), dtype=complex) * ds
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        w = np.exp(s[None, :] * tgroup[:, None])
        w = np.where(np.isfinite(w), w, 0.0)
    return (w @ Fds) / (1j * M)


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
    its exponential weights at or below e^4.
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
