"""Analytic limit of the empirical measure on the slowed-down clock.

At time t the limit measure is the law of a time-changed squared Bessel
process: draw x from the initial law, run a squared Bessel process of
dimension 2*eta from x for the deterministic clock

    J(t) = (2 m / eta) (e^{eta t / 2} - 1),

equivalently draw (J/4) * V with V noncentral chi-squared, 2*eta degrees of
freedom and noncentrality 4x/J.  The density of a single start point x is

    f(y | x) = (2/J) (y/x)^{(eta-1)/2} exp(-2(x+y)/J) I_{eta-1}(4 sqrt(xy)/J)

and the full density is its mixture over the initial law, exact for each
family (a = J/2, b = a + theta):

* ``DiscreteAtoms``: the kernel's log-sum-exp over the atoms, of which
  ``PointMass(x0)`` has one.
* ``GammaLaw(k, theta)``: the mixed BESQ Laplace transform
  (1 + a s)^{k-eta} (1 + b s)^{-k} (Revuz & Yor, Continuous Martingales and
  Brownian Motion, ch. XI) inverts, by Kummer's function
  (https://dlmf.nist.gov/13.2), to Gamma(eta, scale b) at eta = k and in general
  f(y) = y^{eta-1} e^{-y/b} 1F1(eta-k; eta; -y(1/a - 1/b)) / (Gamma(eta) a^{eta-k} b^k),
  with log 1F1 from special.log_kummer.
* ``UniformLaw(a0, b0)``: as d/dlam F(z; d, lam) = -f(z; d+2, lam) for the
  noncentral chi-squared CDF F, the Poisson-gamma series telescopes to
  f(y) = [F(4y/J; 2eta-2, 4a0/J) - F(4y/J; 2eta-2, 4b0/J)] / (b0 - a0),
  a difference of CDFs below (a0 + b0)/2 and of survival functions above.

Everything here is evaluated in log space so large Bessel arguments (small
t, large y) do not overflow: the log-sum-exp over atoms shifts each point's
terms by their largest, and the kernel pairs -2(sqrt x - sqrt y)^2 / J with
log(e^{-z} I(z)) so that small t keeps its digits.

``quadrature(ll, t)`` gives the law at t as nodes and weights, for pairing it
with test functions: 8-point Gauss-Legendre panels in u = sqrt(y), each as
wide as a quarter of the kernel scale sqrt(J) and at most 0.02.  They cover a
range [y_lo, y_hi] with at most 1e-16 of the law beyond each end, by a
Chernoff bound on the closed-form Laplace transform of every family,

    log E[e^{sY}] = -eta log(1 - a s) + log M(s / (1 - a s)),

M the initial law's moment generating function, taking the best s of a fixed
grid.  ``cdf`` and ``quantile`` read the same panels: at the panel ends the
running sum of the weights, and inside a panel the integral of the degree-7
polynomial through its 8 node values, so the law at t has one discretization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bessel import log_modified_bessel_i
from .errors import ConfigurationError, ValidationError
from .model import (
    DiscreteAtoms,
    GammaLaw,
    InitialLaw,
    UniformLaw,
    moments,
    sample_initial,
)
from .special import gauss_jacobi, log_kummer

__all__ = [
    "LimitLaw",
    "time_change",
    "mean",
    "density",
    "cdf",
    "quantile",
    "sample",
    "density_grid",
    "quadrature",
]

_LEG, _POLY = np.polynomial.legendre, np.polynomial.polynomial
_GL_NODES, _GL_WEIGHTS = _LEG.leggauss(8)
# most (point, atom) kernel values in one block of an atomic density: a
# one-atom quadrature (at most 4096 x 8 nodes) takes two blocks, a 580-atom law
# 28 points a block.  Each block's temporaries stay near 128 kB apiece
_KERNEL_BUDGET = 2**14
TAIL_EPS = 1e-16  # mass a quadrature leaves beyond each end of its range, at most
PANEL_WIDTH = 0.02  # widest quadrature panel in u = sqrt(y): resolves the test-function bank
# most panels in one quadrature (8 nodes each): bounds the memory of a narrow
# kernel over a wide law (a gamma law at t = 1e-4 takes 1900)
MAX_PANELS = 4096
MASS_TOL = 1e-8  # largest |total weight - 1| a quadrature may return
# nodes of density_grid, and of the t = 0 grid of a gamma or uniform law that
# convergence compares with (experiments._law_measure)
GRID_NODES = 4096


@dataclass(frozen=True)
class LimitLaw:
    """The limit fixed by eta and the initial law; m_lambda is the law's mean."""

    eta: float
    law: InitialLaw
    m_lambda: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.eta < math.inf:
            raise ValidationError(f"eta must be finite and exceed 1, got {self.eta}")
        object.__setattr__(self, "m_lambda", moments(self.law)[0])


def _check_t(t: float, positive: bool = False) -> None:
    if not math.isfinite(t) or t < 0 or (positive and t == 0):
        raise ValueError(f"t must be {'positive' if positive else 'nonnegative'} and finite, got {t}")


def time_change(ll: LimitLaw, t: float) -> float:
    """Deterministic clock J(t) = (2 m / eta)(e^{eta t/2} - 1)."""
    _check_t(t)
    return 2.0 * ll.m_lambda / ll.eta * math.expm1(0.5 * ll.eta * t)


def mean(ll: LimitLaw, t: float) -> float:
    """First moment of the limit measure at time t (exact closed form)."""
    _check_t(t)
    return ll.m_lambda * math.exp(0.5 * ll.eta * t)


def _log_kernel(eta: float, J: float, x, y) -> np.ndarray:
    """Log transition density from a single start x, broadcast over x and y.

    The exponent is taken as -2(sqrt x - sqrt y)^2 / J + log(e^{-z} I(z)),
    z = 4 sqrt(xy)/J: the direct -2(x+y)/J + log I(z) nearly cancels when J
    is small, which loses about 1e-16 z of relative accuracy (1e-11 at
    J = 1e-4, x = y = 1) and every digit once z passes 1e16.

    log and sqrt are taken once per coordinate, on the contiguous x and y (a
    strided copy can change their last bit); z and the exponent are then
    formed per pair in place, and pairs with a zero coordinate fixed after.
    """
    x, y = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(y, dtype=float)
    nu = eta - 1.0
    z = np.multiply(x, y)
    np.sqrt(z, out=z)
    z *= 4.0
    z /= J
    log_i = log_modified_bessel_i(nu, z, scaled=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero coordinates, set below
        out = np.log(y) - np.log(x)
        out *= 0.5 * nu
        out += math.log(2.0 / J)
        gap = np.subtract(np.sqrt(x), np.sqrt(y), out=z)
        gap *= gap
        gap *= 2.0
        gap /= J
        out -= gap
        out += log_i
    x_pos, y_pos = x > 0, y > 0
    if not (x_pos.all() and y_pos.all()):
        out[~(x_pos & y_pos)] = -np.inf
        central = (x == 0) & y_pos
        # start at the origin: the transition law is a plain gamma
        yc = np.broadcast_to(y, out.shape)[central]
        out[central] = eta * math.log(2.0 / J) + nu * np.log(yc) - 2.0 * yc / J - math.lgamma(eta)
    return out


def _support_hi(law: InitialLaw) -> float:
    """Upper end of the initial law's support; all but ~1e-15 of a gamma law."""
    if isinstance(law, DiscreteAtoms):
        return float(law.locations().max())
    if isinstance(law, UniformLaw):
        return law.b
    return law.ppf(1.0 - 1e-15)


def _log_gamma_mixture(eta: float, J: float, law: GammaLaw, y: np.ndarray) -> np.ndarray:
    k, a = law.shape, 0.5 * J
    b = a + law.scale
    p, x = eta - k, y * (law.scale / (a * b))
    log_m = log_kummer(k, eta, x)
    log_norm = math.lgamma(eta) + p * math.log(a) + k * math.log(b)
    with np.errstate(divide="ignore"):
        return (eta - 1.0) * np.log(y) - y / b + log_m - log_norm


def _log_uniform_mixture(eta: float, J: float, law: UniformLaw, y: np.ndarray) -> np.ndarray:
    # ncx2 evaluates noncentrality 0 (a0 = 0) as the central chi-squared law;
    # see density() for the accuracy of the difference quotient
    from scipy.stats import ncx2  # on first use: importing vsmhl skips scipy.stats

    z, df = 4.0 * y / J, 2.0 * eta - 2.0
    nc_a, nc_b = 4.0 * law.a / J, 4.0 * law.b / J
    lo = y <= 0.5 * (law.a + law.b)
    diff = np.empty(y.shape)
    # where a series does not converge ncx2 warns and returns its closest value:
    # the warnings are recorded (raising one inside the ufunc breaks it) and refused
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        diff[lo] = ncx2.cdf(z[lo], df, nc_a) - ncx2.cdf(z[lo], df, nc_b)
        diff[~lo] = ncx2.sf(z[~lo], df, nc_b) - ncx2.sf(z[~lo], df, nc_a)
    if caught:
        raise ConfigurationError(f"ncx2 did not converge for {law} at clock J = {J}: {caught[0].message}")
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(diff, 0.0)) - math.log(law.b - law.a)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a real 2-D array, each row shifted by its
    largest entry M (by 0 where M is not finite) so that no term overflows."""
    a_max = a.max(axis=1, keepdims=True)
    a_max[~np.isfinite(a_max)] = 0.0
    with np.errstate(divide="ignore"):  # an all -inf row: log 0
        return np.log(np.exp(a - a_max).sum(axis=1)) + a_max[:, 0]


def _log_kernel_mixture(ll: LimitLaw, J: float, y: np.ndarray) -> np.ndarray:
    """Log density of an atomic start on a 1-D block of points: the log-sum-exp
    over the atoms of log weight plus log kernel.  For one atom that is the
    kernel plus log 1 = 0, bit for bit (_logsumexp of one column is its entry)."""
    law = ll.law
    lk = _log_kernel(ll.eta, J, law.locations()[None, :], y[:, None])
    return _logsumexp(np.add(lk, np.log(law.weights()), out=lk))


def _log_density(ll: LimitLaw, J: float, y: np.ndarray) -> np.ndarray:
    """Log limit density at clock J; an atomic law takes blocks of points
    holding at most _KERNEL_BUDGET kernel values."""
    if isinstance(ll.law, GammaLaw):
        return _log_gamma_mixture(ll.eta, J, ll.law, y)
    if isinstance(ll.law, UniformLaw):
        return _log_uniform_mixture(ll.eta, J, ll.law, y)
    rows = max(1, _KERNEL_BUDGET // len(ll.law.atoms))
    out = np.empty(y.shape)
    for start in range(0, len(y), rows):
        out[start : start + rows] = _log_kernel_mixture(ll, J, y[start : start + rows])
    return out


def _check_density_args(t: float, y: np.ndarray) -> None:
    _check_t(t, positive=True)
    if not np.all((y >= 0) & (y < math.inf)):  # NaN fails both comparisons
        raise ValueError("y must be nonnegative and finite")


def density(ll: LimitLaw, t: float, y):
    """Pointwise density of the limit measure at time t > 0.

    For a ``UniformLaw(a0, b0)`` start the closed form is a difference
    quotient, so its relative error is about 1e-16 J(t) / (b0 - a0): 1e-10 at
    J / (b0 - a0) = 1e6, and no correct digit near 1e16.  A very narrow
    uniform law or a long horizon should use a point mass or
    ``DiscreteAtoms`` instead.  The same holds for ``cdf`` and ``quantile``.
    Where scipy's ncx2 does not converge on a point it raises ConfigurationError.
    """
    ys = np.asarray(y, dtype=float)
    _check_density_args(t, ys)
    scalar = ys.ndim == 0
    J = time_change(ll, t)
    out = np.exp(_log_density(ll, J, np.atleast_1d(ys).ravel()))
    return float(out[0]) if scalar else out.reshape(ys.shape)


def _y_hi(ll: LimitLaw, t: float) -> float:
    """Upper end of density_grid's range: 45 standard deviations past the mean,
    both of the whole law and of a start at the top of its support."""
    J = time_change(ll, t)
    m1, m2 = moments(ll.law)
    var_law = max(m2 - m1 * m1, 0.0)
    mu = mean(ll, t)
    sd = math.sqrt(0.25 * ll.eta * J * J + ll.m_lambda * J + var_law)
    x_hi = _support_hi(ll.law)
    sd_hi = math.sqrt(x_hi * J + 0.25 * ll.eta * J * J)
    return max(mu + 45.0 * sd, x_hi + 0.5 * ll.eta * J + 45.0 * sd_hi, 16.0 * J)


def _log_mgf(ll: LimitLaw, J: float, s: np.ndarray) -> np.ndarray:
    """log E[e^{sY}] of the law at clock J: -eta log(1 - a s) + log M(s / (1 - a s)),
    a = J/2, M the initial law's moment generating function; finite for s
    below the bound _tail_range keeps to.  A point mass at x0 gives
    -eta log(1 - a s) + x0 r, r = s / (1 - a s), bit for bit."""
    law, a = ll.law, 0.5 * J
    r = s / (1.0 - a * s)
    if isinstance(law, DiscreteAtoms):
        log_m = _logsumexp(np.log(law.weights())[None, :] + r[:, None] * law.locations()[None, :])
    elif isinstance(law, GammaLaw):
        log_m = -law.shape * np.log1p(-law.scale * r)
    else:
        # (e^{b0 r} - e^{a0 r}) / ((b0 - a0) r), with d = (b0 - a0) r never 0
        d = (law.b - law.a) * r
        log_m = law.a * r + np.maximum(d, 0.0) + np.log(-np.expm1(-np.abs(d)) / np.abs(d))
    return -ll.eta * np.log1p(-a * s) + log_m


# fractions of the largest admissible s tried by the Chernoff bound, logistic
# in 97 steps so both q and 1 - q run from about 6e-6 to 1
_S_FRACTIONS = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 12.0, 97)))


def _tail_range(ll: LimitLaw, J: float) -> tuple[float, float]:
    """[y_lo, y_hi] with at most TAIL_EPS of the law at clock J beyond each end.

    Chernoff: P(Y >= y) <= exp(L(s) - s y) for s > 0 and P(Y <= y) <= the same
    for s < 0, L = _log_mgf, so each s gives an end (L(s) - log TAIL_EPS) / s;
    any s is valid, and the best over a fixed grid is taken.  s stays below
    1 / (a + theta) for a gamma law and 1 / a otherwise, where L is finite.
    """
    theta = ll.law.scale if isinstance(ll.law, GammaLaw) else 0.0
    s_max = 1.0 / (0.5 * J + theta)
    s = s_max * np.concatenate([_S_FRACTIONS, -_S_FRACTIONS / (1.0 - _S_FRACTIONS)])
    ends = (_log_mgf(ll, J, s) - math.log(TAIL_EPS)) / s
    n = len(_S_FRACTIONS)
    return max(float(ends[n:].max()), 0.0), float(ends[:n].min())


def _panel_width(J: float) -> float:
    """Widest panel in u: a quarter of the kernel scale sqrt(J), and at most
    PANEL_WIDTH so the test-function bank is resolved too."""
    return min(0.25 * math.sqrt(J), PANEL_WIDTH) if J > 0 else PANEL_WIDTH


class _Panels(NamedTuple):
    """8-point Gauss-Legendre panels in u = sqrt(y): the n + 1 panel ends in u,
    the half-width, the (n, 8) nodes y and g = f(y) dy/du = 2 u f(y) at them."""

    edges_u: np.ndarray
    halfw: float
    y: np.ndarray
    g: np.ndarray

    def weights(self) -> np.ndarray:
        return self.halfw * (self.g * _GL_WEIGHTS[None, :])


def _panels(ll: LimitLaw, t: float) -> _Panels:
    """Panels of width _panel_width(J), at most MAX_PANELS of them, over the
    tail range of the law at t (over [a0, b0] for a uniform law at t = 0).
    Raises ConfigurationError if the density is not finite on every node."""
    law, J = ll.law, time_change(ll, t)
    y_lo, y_hi = (law.a, law.b) if t == 0 and isinstance(law, UniformLaw) else _tail_range(ll, J)
    u_lo, u_hi = math.sqrt(y_lo), math.sqrt(y_hi)
    n_panels = min(max(1, math.ceil((u_hi - u_lo) / _panel_width(J))), MAX_PANELS)
    edges_u = np.linspace(u_lo, u_hi, n_panels + 1)
    halfw = 0.5 * (edges_u[1] - edges_u[0])
    u = 0.5 * (edges_u[1:] + edges_u[:-1])[:, None] + halfw * _GL_NODES[None, :]
    y = u * u
    if t > 0:
        f = np.exp(_log_density(ll, J, y.ravel())).reshape(y.shape)
    elif isinstance(law, GammaLaw):
        f = law.pdf(y)
    else:
        f = np.full(y.shape, 1.0 / (law.b - law.a))
    if not np.all(np.isfinite(f)):
        raise ConfigurationError(f"the limit density is not finite on the quadrature nodes at t = {t}")
    return _Panels(edges_u, halfw, y, f * 2.0 * u)


def _check_mass(t: float, total: float) -> None:
    if not abs(total - 1.0) <= MASS_TOL:
        msg = f"the quadrature at t = {t} has total weight {float(total)!r}, not 1 within {MASS_TOL:g}"
        raise ConfigurationError(msg)


def quadrature(ll: LimitLaw, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w with sum(w g(y)) = E g(Y_t) for the limit law at t >= 0.

    8-point Gauss-Legendre panels in u = sqrt(y), of width _panel_width(J)
    (at most MAX_PANELS of them), cover the tail range [y_lo, y_hi] of
    _tail_range, outside which each tail holds at most TAIL_EPS; each weight
    is the density times dy at its node.  Like cdf and quantile, it raises
    ConfigurationError (a ValueError) where a uniform law's ncx2 does not
    converge or the density is not finite on a node, or where the total weight
    misses 1 by more than MASS_TOL (MAX_PANELS panels too wide for the kernel).
    At t = 0 the initial law's own pieces are used: its atoms for an atomic
    law (a point mass is one atom), panels over the gamma pdf (Gauss-Jacobi
    with weight y^{k-1} on the first), and panels over [a0, b0] for a uniform.
    """
    _check_t(t)
    law = ll.law
    if t == 0 and isinstance(law, DiscreteAtoms):
        return law.locations(), law.weights()
    p = _panels(ll, t)
    y, w = p.y, p.weights()
    if t == 0 and isinstance(law, GammaLaw) and p.edges_u[0] == 0.0:
        # the pdf's factor y^{k-1} is not smooth at 0 (not even bounded for
        # k < 1): on the first panel, Gauss-Jacobi in y with that weight
        k, h = law.shape, (2.0 * p.halfw) ** 2
        x, wj = gauss_jacobi(len(_GL_NODES), k - 1.0)
        y[0] = 0.5 * h * (1.0 + x)
        w[0] = (0.5 * h) ** k * wj * np.exp(-y[0] / law.scale - math.lgamma(k) - k * math.log(law.scale))
    _check_mass(t, w.sum())
    return y.ravel(), w.ravel()


# the Lagrange basis l_i = W_i sum_{k<8} (k + 1/2) P_k(x_i) P_k on the Gauss nodes in Legendre
# coefficients, and its antiderivatives from -1 in monomials (row k: x^k); column i is W_i at 1
_lagrange = (_LEG.legvander(_GL_NODES, 7) * (np.arange(8) + 0.5) * _GL_WEIGHTS[:, None]).T
_LAGRANGE_INTEGRALS = np.column_stack([_LEG.leg2poly(c) for c in _LEG.legint(_lagrange, lbnd=-1, axis=0).T])


@lru_cache(maxsize=64)
def _panel_cdf(ll: LimitLaw, t: float) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """quadrature's panel ends in u and half-width at t > 0, the CDF at the
    ends (the running sum of the weights) and, as (9, n) monomial coefficients
    in x in [-1, 1], its rise across each panel: halfw times the integral from
    -1 of the degree-7 polynomial through the panel's 8 node values g."""
    p = _panels(ll, t)
    F_edges = np.concatenate([[0.0], np.cumsum(np.sum(p.weights(), axis=1))])
    _check_mass(t, F_edges[-1])
    return p.edges_u, p.halfw, F_edges, p.halfw * (_LAGRANGE_INTEGRALS @ p.g.T)


def cdf(ll: LimitLaw, t: float, y):
    """Cumulative distribution of the limit measure at time t > 0; 0 below the
    quadrature's range and its total weight (1 within MASS_TOL) above it."""
    ys = np.asarray(y, dtype=float)
    _check_density_args(t, ys)
    edges_u, halfw, F_edges, coef = _panel_cdf(ll, t)
    u = np.sqrt(np.atleast_1d(ys).ravel())
    i = np.clip(np.searchsorted(edges_u, u, "right") - 1, 0, len(F_edges) - 2)
    x = (u - 0.5 * (edges_u[i] + edges_u[i + 1])) / halfw
    out = np.where(u >= edges_u[-1], F_edges[-1], F_edges[i] + _POLY.polyval(x, coef[:, i], tensor=False))
    out = np.clip(np.where(u <= edges_u[0], 0.0, out), 0.0, 1.0)
    return float(out[0]) if ys.ndim == 0 else out.reshape(ys.shape)


def quantile(ll: LimitLaw, t: float, p):
    """Inverse of cdf(ll, t, .) on (0, 1): bracketed Newton in x on the panel
    polynomial that holds p, from linear interpolation between its ends."""
    _check_t(t, positive=True)
    ps = np.asarray(p, dtype=float)
    if not np.all((ps > 0) & (ps < 1)):  # NaN fails both comparisons
        raise ValueError("p must lie strictly between 0 and 1")
    edges_u, halfw, F_edges, coef = _panel_cdf(ll, t)
    pv = np.atleast_1d(ps).ravel()
    i = np.clip(np.searchsorted(F_edges, pv) - 1, 0, len(F_edges) - 2)
    c, dc, r = coef[:, i], _POLY.polyder(coef[:, i]), pv - F_edges[i]
    lo, hi, tol = np.full(len(pv), -1.0), np.full(len(pv), 1.0), 4.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        # r > 0 exceeds a panel's mass (even an empty one's) only past F_edges[-1]: x stays at 1
        x = np.clip(2.0 * r / (F_edges[i + 1] - F_edges[i]) - 1.0, -1.0, 1.0)
        for _ in range(64):
            val = _POLY.polyval(x, c, tensor=False) - r
            lo, hi = np.where(val < 0, x, lo), np.where(val < 0, hi, x)
            if np.all((np.abs(val) <= tol) | (hi - lo <= tol)):
                break
            step = x - val / _POLY.polyval(x, dc, tensor=False)
            # a converged step lands on its bracket's end, so the test is not strict
            x = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    y = (0.5 * (edges_u[i] + edges_u[i + 1]) + halfw * x) ** 2
    return float(y[0]) if ps.ndim == 0 else y.reshape(ps.shape)


def sample(ll: LimitLaw, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the limit measure at time t > 0.

    Each draw chains x ~ initial law, K ~ Poisson(2x/J), then a gamma with
    shape eta + K and scale J/2; this is the Poisson-mixture form of the
    scaled noncentral chi-squared and is valid for non-integer 2*eta.
    """
    _check_t(t, positive=True)
    if n < 1:
        raise ValueError("n must be at least 1")
    J = time_change(ll, t)
    x = sample_initial(ll.law, n, rng)
    k = rng.poisson(2.0 * x / J)
    return 0.25 * J * rng.gamma(ll.eta + k, 2.0)


def density_grid(ll: LimitLaw, t: float) -> tuple[np.ndarray, np.ndarray]:
    """GRID_NODES evenly spaced nodes on [0, _y_hi(ll, t)] with the density
    at them; it builds no CDF."""
    y = np.linspace(0.0, _y_hi(ll, t), GRID_NODES)
    return y, density(ll, t, y)
