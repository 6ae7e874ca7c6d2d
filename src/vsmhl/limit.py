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

* ``PointMass(x0)``: the kernel itself; ``DiscreteAtoms``: its log-sum-exp.
* ``GammaLaw(k, theta)``: the mixed BESQ Laplace transform
  (1 + a s)^{k-eta} (1 + b s)^{-k} (Revuz & Yor, Continuous Martingales and
  Brownian Motion, ch. XI) inverts, by Kummer's function
  (https://dlmf.nist.gov/13.2), to Gamma(eta, scale b) at eta = k and in general
  f(y) = y^{eta-1} e^{-y/b} 1F1(eta-k; eta; -y(1/a - 1/b)) / (Gamma(eta) a^{eta-k} b^k).
* ``UniformLaw(a0, b0)``: as d/dlam F(z; d, lam) = -f(z; d+2, lam) for the
  noncentral chi-squared CDF F, the Poisson-gamma series telescopes to
  f(y) = [F(4y/J; 2eta-2, 4a0/J) - F(4y/J; 2eta-2, 4b0/J)] / (b0 - a0),
  a difference of CDFs below (a0 + b0)/2 and of survival functions above.

Everything here is evaluated in log space so large Bessel arguments (small
t, large y) do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, hyp1f1, logsumexp

from .bessel import log_modified_bessel_i
from .errors import ValidationError
from .model import (
    DiscreteAtoms,
    GammaLaw,
    InitialLaw,
    PointMass,
    UniformLaw,
    moments,
    sample_initial,
)

__all__ = [
    "LimitLaw",
    "time_change",
    "mean",
    "density",
    "cdf",
    "quantile",
    "sample",
    "density_grid",
    "log_modified_bessel_i",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_CHUNK = 1024


@dataclass(frozen=True)
class LimitLaw:
    """The limit fixed by eta and the initial law; m_lambda is the law's mean."""

    eta: float
    law: InitialLaw
    m_lambda: float = field(init=False)

    def __post_init__(self):
        if not self.eta > 1.0:
            raise ValidationError("eta must exceed 1")
        object.__setattr__(self, "m_lambda", moments(self.law)[0])


def time_change(ll: LimitLaw, t: float) -> float:
    """Deterministic clock J(t) = (2 m / eta)(e^{eta t/2} - 1)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return 2.0 * ll.m_lambda / ll.eta * math.expm1(0.5 * ll.eta * t)


def mean(ll: LimitLaw, t: float) -> float:
    """First moment of the limit measure at time t (exact closed form)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return ll.m_lambda * math.exp(0.5 * ll.eta * t)


def _log_kernel(eta: float, J: float, x, y) -> np.ndarray:
    """Log transition density from a single start x, broadcast over x and y."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    nu = eta - 1.0
    out = np.full(x.shape, -np.inf)
    both = (x > 0) & (y > 0)
    if np.any(both):
        xb, yb = x[both], y[both]
        z = 4.0 * np.sqrt(xb * yb) / J
        out[both] = (
            math.log(2.0 / J)
            + 0.5 * nu * (np.log(yb) - np.log(xb))
            - 2.0 * (xb + yb) / J
            + log_modified_bessel_i(nu, z)
        )
    central = (x == 0) & (y > 0)
    if np.any(central):
        # start at the origin: the transition law is a plain gamma
        yc = y[central]
        out[central] = (
            eta * math.log(2.0 / J)
            + nu * np.log(yc)
            - 2.0 * yc / J
            - math.lgamma(eta)
        )
    return out


def _support_hi(law: InitialLaw) -> float:
    """Upper end of the initial law's support; all but ~1e-15 of a gamma law."""
    if isinstance(law, PointMass):
        return law.x0
    if isinstance(law, DiscreteAtoms):
        return float(law.locations().max())
    if isinstance(law, UniformLaw):
        return law.b
    return law.ppf(1.0 - 1e-15)


def _log_gamma_mixture(eta: float, J: float, law: GammaLaw, y: np.ndarray) -> np.ndarray:
    k, a = law.shape, 0.5 * J
    b = a + law.scale
    p, x = eta - k, y * (law.scale / (a * b))
    m = hyp1f1(p, eta, -x)
    log_norm = gammaln(eta) + p * math.log(a) + k * math.log(b)
    with np.errstate(divide="ignore"):
        return (eta - 1.0) * np.log(y) - y / b + np.log(m) - log_norm


def _log_uniform_mixture(eta: float, J: float, law: UniformLaw, y: np.ndarray) -> np.ndarray:
    # ncx2 evaluates noncentrality 0 (a0 = 0) as the central chi-squared law;
    # see density() for the accuracy of the difference quotient
    from scipy.stats import ncx2  # on first use: importing vsmhl skips scipy.stats

    z, df = 4.0 * y / J, 2.0 * eta - 2.0
    nc_a, nc_b = 4.0 * law.a / J, 4.0 * law.b / J
    lo = y <= 0.5 * (law.a + law.b)
    diff = np.empty(y.shape)
    diff[lo] = ncx2.cdf(z[lo], df, nc_a) - ncx2.cdf(z[lo], df, nc_b)
    diff[~lo] = ncx2.sf(z[~lo], df, nc_b) - ncx2.sf(z[~lo], df, nc_a)
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(diff, 0.0)) - math.log(law.b - law.a)


def _log_kernel_mixture(ll: LimitLaw, J: float, y: np.ndarray) -> np.ndarray:
    """Log density of a point-mass or atomic start on a 1-D block of points."""
    law = ll.law
    if isinstance(law, PointMass):
        return _log_kernel(ll.eta, J, law.x0, y)
    lk = _log_kernel(ll.eta, J, law.locations()[None, :], y[:, None])
    return logsumexp(lk + np.log(law.weights())[None, :], axis=1)


def _log_density(ll: LimitLaw, J: float, y: np.ndarray) -> np.ndarray:
    if isinstance(ll.law, GammaLaw):
        return _log_gamma_mixture(ll.eta, J, ll.law, y)
    if isinstance(ll.law, UniformLaw):
        return _log_uniform_mixture(ll.eta, J, ll.law, y)
    out = np.empty(y.shape)
    for start in range(0, len(y), _CHUNK):
        block = y[start : start + _CHUNK]
        out[start : start + len(block)] = _log_kernel_mixture(ll, J, block)
    return out


def _check_density_args(t: float, y: np.ndarray) -> None:
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")


def density(ll: LimitLaw, t: float, y):
    """Pointwise density of the limit measure at time t > 0.

    For a ``UniformLaw(a0, b0)`` start the closed form is a difference
    quotient, so its relative error is about 1e-16 J(t) / (b0 - a0): 1e-10 at
    J / (b0 - a0) = 1e6, and no correct digit near 1e16.  A very narrow
    uniform law or a long horizon should use ``PointMass`` or
    ``DiscreteAtoms`` instead.  The same holds for ``cdf`` and ``quantile``.
    """
    ys = np.asarray(y, dtype=float)
    _check_density_args(t, ys)
    scalar = ys.ndim == 0
    J = time_change(ll, t)
    out = np.exp(_log_density(ll, J, np.atleast_1d(ys).ravel()))
    return float(out[0]) if scalar else out.reshape(ys.shape)


def _y_hi(ll: LimitLaw, t: float) -> float:
    """Upper end of the tabulated range: 45 standard deviations past the mean,
    both of the whole law and of a start at the top of its support."""
    J = time_change(ll, t)
    m1, m2 = moments(ll.law)
    var_law = max(m2 - m1 * m1, 0.0)
    mu = mean(ll, t)
    sd = math.sqrt(0.25 * ll.eta * J * J + ll.m_lambda * J + var_law)
    x_hi = _support_hi(ll.law)
    sd_hi = math.sqrt(x_hi * J + 0.25 * ll.eta * J * J)
    return max(mu + 45.0 * sd, x_hi + 0.5 * ll.eta * J + 45.0 * sd_hi, 16.0 * J)


class _CdfTable:
    """Cumulative table of the limit density, Hermite-interpolated in y.

    Panel integrals in u = sqrt(y) are exact to roundoff; between edges a
    cubic Hermite spline with the density itself as the derivative keeps the
    interpolation error near 1e-9 on the panel widths used here.  It equals
    scipy's CubicHermiteSpline bit for bit (coefficients, interval, sum order).
    """

    def __init__(self, ll: LimitLaw, t: float):
        J = time_change(ll, t)
        y_hi = _y_hi(ll, t)
        u_max = math.sqrt(y_hi)
        h_u = max(min(math.sqrt(J) / 64.0, u_max / 128.0), u_max / 80000.0)
        n_panels = math.ceil(u_max / h_u)
        edges_u = np.linspace(0.0, u_max, n_panels + 1)
        centers = 0.5 * (edges_u[1:] + edges_u[:-1])
        halfw = 0.5 * (edges_u[1] - edges_u[0])
        u = centers[:, None] + halfw * _GL_NODES[None, :]
        f = np.exp(_log_density(ll, J, (u * u).ravel())).reshape(u.shape)
        panel = halfw * np.sum(f * 2.0 * u * _GL_WEIGHTS[None, :], axis=1)
        F = np.concatenate([[0.0], np.cumsum(panel)])
        self.y_hi = y_hi
        self.y_edges = edges_u * edges_u
        self.F_edges = F
        f_edges = np.exp(_log_density(ll, J, self.y_edges))
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(f_edges))):
            raise ValueError("the limit density is not finite on the table edges")
        dy = np.diff(self.y_edges)
        slope = np.diff(F) / dy
        t = (f_edges[:-1] + f_edges[1:] - 2 * slope) / dy
        self._coef = (F[:-1], f_edges[:-1], (slope - f_edges[:-1]) / dy - t, t / dy)

    def cdf(self, y: np.ndarray) -> np.ndarray:
        inner = np.minimum(y, self.y_hi)
        i = np.clip(np.searchsorted(self.y_edges, inner, "right") - 1, 0, len(self.y_edges) - 2)
        s, (c0, c1, c2, c3) = inner - self.y_edges[i], (c[i] for c in self._coef)
        out = np.where(y >= self.y_hi, self.F_edges[-1], c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s))
        return np.clip(out, 0.0, 1.0)


@lru_cache(maxsize=64)
def _table(ll: LimitLaw, t: float) -> _CdfTable:
    return _CdfTable(ll, t)


def cdf(ll: LimitLaw, t: float, y):
    """Cumulative distribution of the limit measure at time t > 0."""
    ys = np.asarray(y, dtype=float)
    _check_density_args(t, ys)
    scalar = ys.ndim == 0
    out = _table(ll, t).cdf(np.atleast_1d(ys).ravel())
    return float(out[0]) if scalar else out.reshape(ys.shape)


def quantile(ll: LimitLaw, t: float, p):
    """Inverse of cdf(ll, t, .) on (0, 1), by bracketed bisection."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    ps = np.asarray(p, dtype=float)
    if np.any((ps <= 0) | (ps >= 1)):
        raise ValueError("p must lie strictly between 0 and 1")
    scalar = ps.ndim == 0
    pv = np.atleast_1d(ps).ravel()
    tab = _table(ll, t)
    idx = np.clip(np.searchsorted(tab.F_edges, pv), 1, len(tab.F_edges) - 1)
    lo = tab.y_edges[idx - 1]
    hi = tab.y_edges[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = tab.cdf(mid) < pv
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out.reshape(ps.shape)


def sample(ll: LimitLaw, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the limit measure at time t > 0.

    Each draw chains x ~ initial law, K ~ Poisson(2x/J), then a gamma with
    shape eta + K and scale J/2; this is the Poisson-mixture form of the
    scaled noncentral chi-squared and is valid for non-integer 2*eta.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if n < 1:
        raise ValueError("n must be at least 1")
    J = time_change(ll, t)
    x = sample_initial(ll.law, n, rng)
    k = rng.poisson(2.0 * x / J)
    return 0.25 * J * rng.gamma(ll.eta + k, 2.0)


def density_grid(ll: LimitLaw, t: float, n_nodes: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Evenly spaced grid on [0, y_hi], the range of the CDF table at t, with
    density values; only the closed-form upper end is computed, no table."""
    y = np.linspace(0.0, _y_hi(ll, t), n_nodes)
    return y, density(ll, t, y)
