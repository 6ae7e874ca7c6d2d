r"""Logarithm of the modified Bessel function of the first kind, log I_nu(z),
for 0 <= nu <= NU_MAX and z >= 0, computed without overflow for any z.

For z <= max(50, nu^2/2) the power series

    I_nu(z) = (z/2)^nu sum_k (z^2/4)^k / (k! Gamma(k + nu + 1))

is summed to machine precision (all terms positive, no cancellation).  Above
that the large-argument expansion of e^{-z} I_nu(z) in powers of 1/z is used
(https://dlmf.nist.gov/10.40), truncated at the first non-decreasing term.
Its k-th term is the (k-1)-th times (4 nu^2 - (2k-1)^2) / (8 k z), so below
z = nu^2/2 the terms grow from the first one; from there on its
optimal-truncation error is far below double precision.  At nu = NU_MAX the
series sum at z = nu^2/2 is near 1e289, and at nu = 41 it overflows, so
larger orders are rejected.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_modified_bessel_i"]

Z_SWITCH = 50.0
NU_MAX = 40.0  # largest order checked against mpmath
_SERIES_MAX_TERMS = 600  # up to NU_MAX the series ends within 512 terms
_ASYMPTOTIC_MAX_TERMS = 60


def _check_args(nu: float, z: np.ndarray) -> None:
    if not 0 <= nu <= NU_MAX:
        raise ValueError(f"order nu must lie in [0, {NU_MAX:g}], got {nu}")
    if np.any(z < 0):
        raise ValueError("argument z must be nonnegative")


def _log_series_sum(nu: float, zp: np.ndarray) -> np.ndarray:
    """log of Sum_k (z^2/4)^k / (k! (nu+1)_k) for strictly positive z."""
    q = 0.25 * zp * zp
    total = np.ones_like(zp)
    term = np.ones_like(zp)
    for k in range(1, _SERIES_MAX_TERMS):
        term *= q
        term /= k * (k + nu)
        total += term
        # all-positive terms, so an occasional elementwise check suffices
        if k % 8 == 0 and np.all(term <= 1e-17 * total):
            break
    return np.log(total, out=total)


def _piecewise(mask: np.ndarray, z: np.ndarray, f, g) -> np.ndarray:
    """f on z[mask] and g on z[~mask], as one array; f or g takes the whole
    of z, with no gather or scatter, when the mask holds everywhere or nowhere."""
    if mask.all():
        return f(z)
    if not mask.any():
        return g(z)
    out = np.empty_like(z)
    out[mask] = f(z[mask])
    out[~mask] = g(z[~mask])
    return out


def _series_log(nu: float, z: np.ndarray) -> np.ndarray:
    """log I_nu(z) by the power series; valid for modest z (all-positive terms)."""

    def positive(zp):
        out = _log_series_sum(nu, zp)
        lead = np.multiply(zp, 0.5)
        np.log(lead, out=lead)
        lead *= nu
        lead -= math.lgamma(nu + 1.0)
        out += lead
        return out

    return _piecewise(z > 0, z, positive, lambda z0: np.full(z0.shape, 0.0 if nu == 0 else -math.inf))


def _asymptotic_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_nu(z) by the 1/z expansion; requires z > max(Z_SWITCH, nu^2/2).

    There the terms shrink monotonically well past double precision, so a
    plain truncated sum with a divergence guard (optimal truncation) is enough.
    """
    mu = 4.0 * nu * nu
    total = np.ones_like(z)
    term = np.ones_like(z)
    prev_worst = math.inf
    for k in range(1, _ASYMPTOTIC_MAX_TERMS):
        term = term * (-(mu - (2 * k - 1) ** 2) / (8.0 * k * z))
        worst = np.abs(term).max()
        if worst >= prev_worst:
            break
        total += term
        if worst < 1e-18:
            break
        prev_worst = worst
    return total / np.sqrt(2.0 * math.pi * z)


def log_modified_bessel_i(nu: float, z, scaled: bool = False):
    """log I_nu(z), or log(e^{-z} I_nu(z)) when scaled, without overflow for any z >= 0."""
    zs = np.asarray(z, dtype=float)
    _check_args(nu, zs)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)

    def series(zb):
        out = _series_log(nu, zb)
        return np.subtract(out, zb, out=out) if scaled else out

    def asymptotic(zb):
        out = np.log(_asymptotic_scaled(nu, zb))
        return out if scaled else np.add(out, zb, out=out)

    out = _piecewise(zs <= max(Z_SWITCH, 0.5 * nu * nu), zs, series, asymptotic)
    return float(out[0]) if scalar else out
