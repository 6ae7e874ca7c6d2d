r"""Logarithm of the modified Bessel function of the first kind, log I_nu(z),
for nu >= 0 and z >= 0, computed without overflow for any z.

For z <= 50 the power series

    I_nu(z) = (z/2)^nu sum_k (z^2/4)^k / (k! Gamma(k + nu + 1))

is summed to machine precision (all terms positive, no cancellation).  For
z > 50 the large-argument expansion of e^{-z} I_nu(z) in powers of 1/z is
used (https://dlmf.nist.gov/10.40), truncated at the first non-decreasing
term; at z = 50 its optimal-truncation error is far below double precision
for the orders used here.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_modified_bessel_i"]

Z_SWITCH = 50.0
_SERIES_MAX_TERMS = 600
_ASYMPTOTIC_MAX_TERMS = 60


def _check_args(nu: float, z: np.ndarray) -> None:
    if nu < 0:
        raise ValueError(f"order nu must be nonnegative, got {nu}")
    if np.any(z < 0):
        raise ValueError("argument z must be nonnegative")


def _series_sum(nu: float, zp: np.ndarray) -> np.ndarray:
    """Sum_k (z^2/4)^k / (k! (nu+1)_k) for strictly positive z, in place."""
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
    return total


def _series_log(nu: float, z: np.ndarray) -> np.ndarray:
    """log I_nu(z) by the power series; valid for modest z (all-positive terms)."""
    out = np.full(z.shape, -math.inf)
    pos = z > 0
    if nu == 0:
        out[~pos] = 0.0
    if not np.any(pos):
        return out
    zp = z[pos]
    res = np.empty_like(zp)
    # band by magnitude so small arguments stop after a few terms
    small = zp <= 10.0
    for band in (small, ~small):
        if np.any(band):
            res[band] = np.log(_series_sum(nu, zp[band]))
    out[pos] = nu * np.log(0.5 * zp) - math.lgamma(nu + 1.0) + res
    return out


def _asymptotic_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_nu(z) by the 1/z expansion; requires z large (z > Z_SWITCH).

    For z above Z_SWITCH and the moderate orders used here the terms shrink
    monotonically well past double precision, so a plain truncated sum with a
    divergence guard (optimal truncation) is enough.
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
    out = np.empty_like(zs)
    small = zs <= Z_SWITCH
    if np.any(small):
        out[small] = _series_log(nu, zs[small]) - (zs[small] if scaled else 0.0)
    if np.any(~small):
        zl = zs[~small]
        log_scaled = np.log(_asymptotic_scaled(nu, zl))
        out[~small] = log_scaled if scaled else zl + log_scaled
    return float(out[0]) if scalar else out

