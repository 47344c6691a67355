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

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy import optimize

from .model import ModelParams, ghat, ghat_slope

__all__ = [
    "PolaronSolution",
    "BoundaryPrediction",
    "silbey_harris_solve",
    "residual_population",
    "approx_large_delta",
    "adiabatic_renorm",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolaronSolution:
    """Self-consistent renormalized splitting and derived populations."""

    delta_tilde: float
    phi: float  # Delta_tilde / Delta, in (0, 1]
    p_up_relaxed: float  # (1 - phi) / 2
    p_up_dressed: float  # (1 + phi) / 2
    iterations: int
    residual: float


class BoundaryPrediction(NamedTuple):
    """Both residual-population branches, returned exactly at Delta = w_b."""

    relaxed: float
    dressed: float
    boundary: bool


def _renorm_integral(p: ModelParams, delta_tilde):
    """(2/pi) Int_band J(w) / (w + delta_tilde)^2 dw = 2 Re G_hat'(s), s = i(delta + delta_tilde).

    There s + i(w - delta) = i(w + delta_tilde), so dG_hat/ds =
    (1/pi) Int_band J(w) / (w + delta_tilde)^2 dw, real and positive.
    """
    s = 1j * (p.delta + delta_tilde)
    return 2.0 * float(ghat_slope(p, s, ghat(p, s)).real)


def silbey_harris_solve(p: ModelParams) -> PolaronSolution:
    """Damped fixed-point solve of the self-consistency condition.

    Iterates x <- x/2 + RHS(x)/2 from x = Delta; if the defect ever
    stops decreasing the scalar root is bracketed in (0, Delta] and found
    by Brent's method instead.
    """
    if p.delta <= 0.0:
        raise ValueError("delta must be positive: the overlap factor "
                         "phi = delta_tilde/delta is undefined at delta = 0")
    if p.alpha == 0.0:
        return PolaronSolution(p.delta, 1.0, 0.0, 1.0, 1, 0.0)

    def rhs(x):
        return p.delta * math.exp(-_renorm_integral(p, x))

    tol = 1e-10 * p.delta
    x = p.delta
    defect = abs(x - rhs(x))
    iterations = 0
    while defect >= tol and iterations < 500:
        x_new = 0.5 * x + 0.5 * rhs(x)
        new_defect = abs(x_new - rhs(x_new))
        iterations += 1
        if new_defect >= defect:
            logger.info("damped polaron iteration stalled at defect %.3e "
                        "after %d steps; switching to Brent's method",
                        new_defect, iterations)
            x = optimize.brentq(lambda y: y - rhs(y), 1e-300, p.delta,
                                xtol=1e-13 * p.delta)
            defect = abs(x - rhs(x))
            break
        x, defect = x_new, new_defect
    if defect >= tol:
        raise RuntimeError(
            f"polaron self-consistency did not converge: last iterate "
            f"{x:.6g}, defect {defect:.3e} after {iterations} iterations")
    phi = min(x / p.delta, 1.0)
    return PolaronSolution(x, phi, 0.5 * (1.0 - phi), 0.5 * (1.0 + phi),
                           iterations, defect)


def residual_population(sol: PolaronSolution, p: ModelParams):
    """Long-time excited population predicted by the polaron ground state.

    Above the band edge the emitter relaxes into the joint ground state;
    below it relaxation is energetically blocked and the dressed excited
    state persists.  Exactly at Delta = w_b both branches are returned.
    """
    if p.delta > p.omega_b:
        return sol.p_up_relaxed
    if p.delta < p.omega_b:
        return sol.p_up_dressed
    return BoundaryPrediction(sol.p_up_relaxed, sol.p_up_dressed, True)


def approx_large_delta(p: ModelParams) -> float:
    """Closed-form estimate Delta*(1 - alpha/sqrt(Delta)) for w_b << Delta << w0.

    Qualitative by construction; warns outside a factor-3 window around
    its validity range.
    """
    import warnings

    if p.delta < 3.0 * p.omega_b or p.delta > p.omega0 / 3.0:
        warnings.warn(
            "large-splitting closed form used outside w_b << delta << w0",
            stacklevel=2)
    return p.delta * (1.0 - p.alpha / math.sqrt(p.delta))


def adiabatic_renorm(p: ModelParams) -> float:
    """Small-splitting renormalization Delta * exp(-alpha/sqrt(w_b))."""
    return p.delta * math.exp(-p.alpha / math.sqrt(p.omega_b))
