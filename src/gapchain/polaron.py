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
    residual: float


def _renorm_integral(p: ModelParams, delta_tilde):
    """(2/pi) Int_band J(w) / (w + delta_tilde)^2 dw = 2 Re G_hat'(s), s = i(delta + delta_tilde).

    There s + i(w - delta) = i(w + delta_tilde), so dG_hat/ds =
    (1/pi) Int_band J(w) / (w + delta_tilde)^2 dw, real and positive.
    """
    s = 1j * (p.delta + delta_tilde)
    return 2.0 * float(ghat_slope(p, s, ghat(p, s)).real)


def silbey_harris_solve(p: ModelParams) -> PolaronSolution:
    """Fixed-point map x <- RHS(x) from x = Delta; returns the largest root.

    RHS is increasing in x and at most Delta, so the iterates fall
    monotonically onto the largest root and never pass it.  Where the
    condition has three roots (small w_b, strong coupling) the two below
    are never reached.  ``iterations`` counts RHS evaluations.
    """
    if p.delta <= 0.0:
        raise ValueError("delta must be positive: the overlap factor "
                         "phi = delta_tilde/delta is undefined at delta = 0")
    if p.alpha == 0.0:
        return PolaronSolution(p.delta, 1.0, 0.0, 1.0, 1, 0.0)

    tol = 1e-10 * p.delta
    x = p.delta
    for iterations in range(1, 501):
        x_next = p.delta * math.exp(-_renorm_integral(p, x))
        defect = x - x_next
        if defect < tol:
            break
        x = x_next
    else:
        raise RuntimeError(
            f"polaron self-consistency did not converge: last iterate "
            f"{x:.6g}, defect {defect:.3e} after {iterations} iterations")
    phi = x / p.delta
    return PolaronSolution(x, phi, 0.5 * (1.0 - phi), 0.5 * (1.0 + phi),
                           iterations, defect)
