"""Adaptive quadrature of complex-valued integrands."""

from __future__ import annotations

import warnings

from scipy import integrate


def complex_quad(f, a, b, epsabs=1e-10, epsrel=1e-8, limit=2000):
    """Integrate complex-valued f over [a, b] (real and imaginary parts separately)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re, re_err = integrate.quad(
            lambda x: f(x).real, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit
        )
        im, im_err = integrate.quad(
            lambda x: f(x).imag, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit
        )
    val = complex(re, im)
    err = re_err + im_err
    if err > 50.0 * max(epsabs, epsrel * abs(val)):
        raise RuntimeError(
            f"quadrature did not converge on [{a}, {b}]: "
            f"estimated error {err:.3e} for value {val:.6e}"
        )
    return val

