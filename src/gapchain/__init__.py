"""Dissipative dynamics of a two-level emitter in a gapped photonic environment.

Submodules
----------
model      : spectral density, bath correlation kernel and its Laplace transform
chainmap   : orthogonal-polynomial mapping of the continuum onto a chain
invlaplace : Filon rule of the band cut integral and the steepest-descent ray rule
rwa        : exact single-excitation solvers (Volterra, Laplace inversion, chain)
mps        : matrix-product-state TEBD evolution (full and RWA couplings)
polaron    : variational polaron theory of the renormalized splitting
analysis   : frequency/plateau/decay extraction and detuning sweeps
svgplot    : deterministic SVG line plots
cli        : command-line interface
"""

from .model import ModelParams, bath_correlation, spectral_density

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "bath_correlation",
    "spectral_density",
    "__version__",
]
