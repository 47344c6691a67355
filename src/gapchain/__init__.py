"""Dissipative dynamics of a two-level emitter in a gapped photonic environment.

Submodules
----------
model      : spectral density, bath correlation kernel and its Laplace transform
chainmap   : orthogonal-polynomial mapping of the continuum onto a chain
invlaplace : Filon rule of the band cut integral and the steepest-descent ray rule
rwa        : exact single-excitation solvers (Volterra, Laplace inversion, Chebyshev chain)
mps        : matrix-product-state TEBD evolution (full and RWA couplings)
polaron    : variational polaron theory of the renormalized splitting
analysis   : frequency/plateau/decay extraction and detuning sweeps
svgplot    : deterministic SVG line plots
cli        : command-line interface

Thread policy: one BLAS thread per process.  Importing the package sets
OPENBLAS_NUM_THREADS to 1 unless it is already set, so numpy's OpenBLAS
pool, the only one the package loads, starts with one thread; a sweep
runs in parallel only through worker processes (``sweep --jobs``).  The
pool reads the variable when numpy is first imported, so the policy holds
only when gapchain is imported before numpy.  An explicit
OPENBLAS_NUM_THREADS overrides it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .model import ModelParams, bath_correlation, spectral_density

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "bath_correlation",
    "spectral_density",
    "__version__",
]
