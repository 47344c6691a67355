"""Variational polaron ground state of the emitter-field system.

The dressing of the atomic states by coherent field displacements
renormalizes the bare splitting Delta to Delta_tilde, fixed by the
self-consistency condition

    Delta_tilde = Delta * exp[ -(2/pi) Int_{w_b}^{w_b+w_c} dw J(w)/(w+Delta_tilde)^2 ].

The overlap factor Phi = Delta_tilde/Delta sets the residual excited
population: (1-Phi)/2 once the emitter can relax to the joint ground
state (Delta > w_b), (1+Phi)/2 when relaxation is blocked and the
emitter is stranded in the dressed excited state (Delta < w_b).
"""

import math
from dataclasses import dataclass

from .model import ModelParams, ghat, ghat_slope

__all__ = ["PolaronSolution", "silbey_harris_solve"]


@dataclass(frozen=True)
class PolaronSolution:
    """Self-consistent renormalized splitting and derived populations."""

    delta_tilde: float
    phi: float  # Delta_tilde / Delta, in (0, 1]
    p_up_relaxed: float  # (1 - phi) / 2
    p_up_dressed: float  # (1 + phi) / 2
    iterations: int
    residual: float  # last step |d ln(Delta_tilde)| of the map


def _renorm_integral(p: ModelParams, delta_tilde):
    """(2/pi) Int_band J(w) / (w + delta_tilde)^2 dw = 2 Re G_hat'(s), s = i(delta + delta_tilde).

    There s + i(w - delta) = i(w + delta_tilde), so dG_hat/ds =
    (1/pi) Int_band J(w) / (w + delta_tilde)^2 dw, real and positive.
    """
    s = 1j * (p.delta + delta_tilde)
    return 2.0 * float(ghat_slope(p, s, ghat(p, s)).real)


def silbey_harris_solve(p: ModelParams) -> PolaronSolution:
    """Fixed-point map y <- -I(Delta e^y) on y = ln(Delta_tilde/Delta) from y = 0,
    with secant steps where it is slow; returns the largest root.

    I is ``_renorm_integral``.  The map is x <- Delta e^{-I(x)} in the
    logarithm of x = Delta e^y: its right side is increasing in x and at
    most Delta, so the iterates fall monotonically onto the largest root
    and never pass it.  Where the condition has three roots (small w_b,
    strong coupling) the two below are never reached.  Iterating in y
    makes the stop |dy| <= 1e-13 max(1, |y|) relative in Delta_tilde,
    however small the root.

    At the fold where the two upper roots merge the map's rate tends to 1
    (alpha 1, w_b 1e-3, w0 100, w_c 800, delta near 1.4891, where the map
    alone ran out of 1000 steps).  So once a fall is more than half the one
    before it, each next point is the secant root of f(y) = y + I(Delta e^y)
    through the last two points, for as long as f falls.  A point where
    f < 0 lies below the largest root: it is dropped for the map's last
    image, and the map resumes.  Where the condition has one root, f > 0
    holds exactly above it, so that check alone keeps the search on it.
    Where it has three, f is convex about its minimum between the upper
    two, and a chord's extension lies below a convex function, so the
    secant root of two points above the largest root does not pass it.
    ``iterations`` counts I evaluations and ``residual`` is the last |dy|.
    """
    if p.delta <= 0.0:
        raise ValueError("delta must be positive: the overlap factor "
                         "phi = delta_tilde/delta is undefined at delta = 0")
    if p.alpha == 0.0:
        return PolaronSolution(p.delta, 1.0, 0.0, 1.0, 1, 0.0)

    y, back, secant = 0.0, None, False  # back: the last point above the root, and its f
    for iterations in range(1, 1001):
        y_next = -_renorm_integral(p, p.delta * math.exp(y))
        fall = y - y_next  # f(y)
        step = abs(fall)
        if step <= 1e-13 * max(1.0, abs(y_next)):
            y = y_next
            break
        if fall < 0.0:  # a secant point below the root
            y, back, secant = safe, None, False
            continue
        safe = y_next
        secant = secant or (back is not None and fall > 0.5 * back[1])
        if secant and fall < back[1]:
            back, y = (y, fall), y - fall * (y - back[0]) / (fall - back[1])
        else:
            back, y = (y, fall), y_next
    else:
        raise RuntimeError(
            f"polaron self-consistency did not converge: last iterate "
            f"{p.delta * math.exp(y):.6g}, step {step:.3e} in ln(delta_tilde/delta) "
            f"after {iterations} iterations")
    phi = math.exp(y)
    return PolaronSolution(p.delta * phi, phi, 0.5 * (1.0 - phi), 0.5 * (1.0 + phi),
                           iterations, step)
