r"""The special functions of a gamma start, on numpy and math alone: Kummer's
function of its limit density, its regularized incomplete gamma function and
inverse, and the Gauss-Jacobi rule of its pdf at the origin.

Each is checked against 200-bit mpmath on shapes k in [SHAPE_MIN, SHAPE_MAX]
and, for Kummer's function, on 1 < eta <= ETA_MAX; outside that range each
raises ValueError, and ExperimentConfig refuses such a law before any work.

* ``log_kummer(k, eta, x)`` is log M(eta - k, eta, -x) for x >= 0
  (https://dlmf.nist.gov/13.2).  By Kummer's transformation it is
  -x + log M(k, eta, x), and M(k, eta, x) = sum_n (k)_n x^n / ((eta)_n n!) is
  the all-positive series of the negative-binomial mixture of gammas.  Below
  a switch x_s(k, eta) that series is summed with its first term e^{-x}, so
  neither the terms nor the sum overflow and no -x cancels.  Above it
  (DLMF 13.7.1, the e^x cancelled)

      log M = log Gamma(eta) - log Gamma(k) + (k - eta) log x
              + log sum_{s < S} (1 - k)_s (eta - k)_s / (s! x^s),

  whose dropped recessive part is e^{-x} x^{eta - 2k} Gamma(k) / Gamma(eta - k)
  relative to it (DLMF 13.7.2).  x_s is the first point of a geometric grid
  where that part is below 2^-56, where the terms from some S on, up to the
  first that grows again, sum to below 2^-56 of the first S (the optimal
  truncation), and where those S terms cancel by at most a factor 16; the
  same S terms then serve every larger x.  Where eta - k is 0 or a negative
  integer -m, the series of M(eta - k, eta, -x) ends after m + 1 positive
  terms and is that polynomial in x, exact at every x >= 0.
* ``gamma_cdf(k, x)`` is P(k, x) = gamma(k, x) / Gamma(k): the series
  x^k e^{-x} sum_n x^n / Gamma(k + n + 1) below x = k + 1 (DLMF 8.7.1), and
  1 - Q above it, Q by Legendre's continued fraction (DLMF 8.9.2), evaluated
  by the modified Lentz method.
* ``gamma_ppf(k, q)`` inverts whichever of P and Q is the smaller at q, by a
  bracketed Newton iteration on its logarithm, so that a q near 1 keeps the
  digits of 1 - q.
* ``gauss_jacobi(n, beta)`` is the n-point rule for the weight (1 + x)^beta on
  [-1, 1]: the eigenvalues of the Jacobi matrix of its three-term recurrence
  and the squared first components of its eigenvectors (Golub & Welsch,
  Math. Comp. 23, 1969), by numpy's eigh.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bessel import _piecewise

__all__ = [
    "SHAPE_MIN",
    "SHAPE_MAX",
    "ETA_MAX",
    "gamma_range_violations",
    "log_kummer",
    "gamma_cdf",
    "gamma_ppf",
    "gauss_jacobi",
]

SHAPE_MIN, SHAPE_MAX = 0.05, 40.0  # gamma shapes checked against mpmath
ETA_MAX = 50.0  # largest eta of log_kummer checked against mpmath
_TINY = 2.0**-56  # the switch's bound on every dropped part, relative
_CANCEL = 16.0  # most the expansion's sum may cancel: its terms' magnitudes over it
_SUM_TOL = 1e-17  # a sum stops once each of its terms is below this much of it
_MAX_TERMS = 1000  # within the checked range the longest series ends within 640 terms
_EXPANSION_TERMS = 128  # within the checked range S is at most 40
_CF_MAX_TERMS = 300  # within the checked range the fraction ends within 90 terms
# a continued fraction stops once each factor is within this of 1: its
# rounding alone moves a converged factor by up to 2 ulp of 1
_CF_TOL = 1e-15


def gamma_range_violations(k: float, eta: float | None = None) -> list[str]:
    """Why a gamma shape k, and with it eta, lies outside the checked range: one
    message per parameter outside it."""
    out = []
    if not SHAPE_MIN <= k <= SHAPE_MAX:
        out.append(
            f"gamma shape {k:g} lies outside [{SHAPE_MIN:g}, {SHAPE_MAX:g}]: the gamma law's incomplete "
            f"gamma function and its limit law's Kummer function are verified only there"
        )
    if eta is not None and not 1.0 < eta <= ETA_MAX:
        out.append(
            f"eta = {eta:g} lies outside (1, {ETA_MAX:g}] for a gamma law: its limit law's Kummer "
            f"function is verified only there"
        )
    return out


def _check_range(k: float, eta: float | None = None) -> None:
    out = gamma_range_violations(k, eta)
    if out:
        raise ValueError("; ".join(out))


def _terms_needed(c: list[float], k: float, x: float) -> int | None:
    """The optimal truncation S of sum_s c_s x^{-s}, or None when no term
    falls below _TINY of the sum before the terms grow again, or when the sum
    cancels to below 1/_CANCEL of the sum of its terms' magnitudes."""
    total, magnitude, prev = 1.0, 1.0, 1.0
    for s in range(1, len(c)):
        term = c[s] * x**-s
        if abs(term) <= _TINY * abs(total):
            tail = abs(term)  # the terms up to the first that grows again
            for r in range(s + 1, len(c)):
                nxt = abs(c[r] * x**-r)
                if nxt >= abs(term) or nxt == 0.0:
                    break
                tail, term = tail + nxt, c[r] * x**-r
            ok = tail <= _TINY * abs(total) and magnitude <= _CANCEL * abs(total)
            return s if ok else None
        if abs(term) >= abs(prev) and s > k:  # growing again past the hump
            return None
        total, magnitude, prev = total + term, magnitude + abs(term), term
    return None


def _read_only(values) -> np.ndarray:
    """values as an array that no caller of a cached result can write to."""
    out = np.asarray(values, dtype=float)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _kummer_switch(k: float, eta: float) -> tuple[float, np.ndarray]:
    """x_s and the expansion's S coefficients, highest power of 1/x first.
    Where eta - k = -m, m = 0, 1, ..., the series of M(-m, eta, -x) ends
    after m + 1 positive terms: then (0, their coefficients, highest power
    of x first)."""
    m = k - eta
    if m == round(m) and m >= 0:
        d = [1.0]
        for j in range(1, int(m) + 1):
            d.append(d[-1] * (m - j + 1) / ((eta + j - 1) * j))
        return 0.0, _read_only(d[::-1])
    c = [1.0]  # (1 - k)_s (eta - k)_s / s!
    for s in range(1, _EXPANSION_TERMS):
        c.append(c[-1] * (s - k) * (eta - k + s - 1) / s)
    log_gamma_ratio = math.lgamma(k) - math.lgamma(eta - k)  # lgamma is log |Gamma|
    for j in range(8 * 12):
        x = 2.0 ** (j / 8)
        recessive = log_gamma_ratio + (eta - 2.0 * k) * math.log(x) - x
        if x >= eta - 2.0 * k and recessive <= math.log(_TINY):
            terms = _terms_needed(c, k, x)
            if terms is not None:
                return x, _read_only(c[:terms][::-1])
    raise ValueError(f"no switch found for Kummer's function at k = {k}, eta = {eta}")


def _log_gamma_ratio(a: float, b: float) -> float:
    """log(Gamma(a) / Gamma(b)) for a, b > 0.  Both arguments are first shifted
    down by the same whole n to below 2, since log Gamma near 40 is near 110
    and its rounding alone would cost 1e-14 of a ratio near 1."""
    n = max(0, int(min(a, b)) - 1)
    out = math.lgamma(a - n) - math.lgamma(b - n)
    for i in range(1, n + 1):
        out += math.log((a - i) / (b - i))
    return out


def _log_kummer_series(k: float, eta: float, x: np.ndarray) -> np.ndarray:
    """log of e^{-x} sum_n (k)_n x^n / ((eta)_n n!), all terms positive."""
    term = np.exp(-x)
    total = term.copy()
    for n in range(1, _MAX_TERMS):
        term *= x
        term *= (k + n - 1) / ((eta + n - 1) * n)
        total += term
        # past the largest term they shrink, so an occasional check suffices
        if n % 8 == 0 and np.all(term <= _SUM_TOL * total):
            break
    return np.log(total, out=total)


def log_kummer(k: float, eta: float, x) -> np.ndarray:
    """log M(eta - k, eta, -x) for x >= 0, an array, for k and eta in the checked range."""
    k, eta = float(k), float(eta)
    _check_range(k, eta)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("Kummer's function is taken at -x for x >= 0 only")
    x_s, coef = _kummer_switch(k, eta)
    if x_s == 0.0:
        return np.log(np.polyval(coef, x))
    log_ratio = _log_gamma_ratio(eta, k)

    def expansion(xh):
        return log_ratio + (k - eta) * np.log(xh) + np.log(np.polyval(coef, 1.0 / xh))

    return _piecewise(x < x_s, x, lambda xl: _log_kummer_series(k, eta, xl), expansion)


def _log_prefactor(k: float, x):
    """log(x^k e^{-x} / Gamma(k)), -inf at x = 0."""
    with np.errstate(divide="ignore"):
        return k * np.log(x) - x - math.lgamma(k)


def _p_series(k: float, x):
    """P(k, x) by DLMF 8.7.1 for 0 <= x < k + 1, x a float or an array."""
    term = total = 1.0 + 0.0 * x
    for n in range(1, _MAX_TERMS):
        term = term * x / (k + n)
        total = total + term
        if n % 8 == 0 and np.all(term <= _SUM_TOL * total):
            break
    return np.exp(_log_prefactor(k, x)) / k * total


def _q_fraction(k: float, x):
    """Q(k, x) by the continued fraction of DLMF 8.9.2 (modified Lentz) for
    x >= k + 1, x a float or an array.  There every partial denominator
    x + 2i + 1 - k is at least 2, and no guard against a zero one is needed."""
    b = x + 1.0 - k
    c = 1e300 + 0.0 * x
    d = h = 1.0 / b
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - k)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h = h * delta
        if i % 4 == 0 and np.all(np.abs(delta - 1.0) <= _CF_TOL):
            break
    return np.exp(_log_prefactor(k, x)) * h


def gamma_cdf(k: float, x) -> np.ndarray:
    """P(k, x) = gamma(k, x) / Gamma(k) for x >= 0, an array; 1 at x = inf."""
    _check_range(k)
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape)
    low = x < k + 1.0
    out[low] = _p_series(k, x[low])
    high = ~low & (x < math.inf)
    out[high] = 1.0 - _q_fraction(k, x[high])
    return out


def _log_p_or_q(k: float, x: float, lower: bool) -> float:
    """log P(k, x) (lower) or log Q(k, x), each from whichever side x lies on."""
    below = x < k + 1.0
    p = float(_p_series(k, x) if below else _q_fraction(k, x))
    if below != lower:
        return math.log1p(-p)
    return math.log(p) if p > 0.0 else -math.inf


@lru_cache(maxsize=64)
def gamma_ppf(k: float, q: float) -> float:
    """The x with P(k, x) = q, for 0 <= q <= 1.

    Below the median it solves log P(k, e^v) = log q in v = log x, where P
    grows like x^k; above it log Q(k, x) = log(1 - q) in x, where log Q falls
    nearly linearly.  Each Newton step that leaves the bracket of the iterates
    so far is replaced by its midpoint, or by a step outwards while one end is
    open."""
    _check_range(k)
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q in (0.0, 1.0):
        return 0.0 if q == 0.0 else math.inf
    lower = q <= 0.5
    target = math.log(q) if lower else math.log1p(-q)
    # from the small-x limit P ~ x^k / Gamma(k + 1), or from past the mean
    v = min((target + math.lgamma(k + 1.0)) / k, math.log(k + 1.0)) if lower else k + 1.0
    lo, hi = (-math.inf, math.inf) if lower else (0.0, math.inf)
    for _ in range(200):
        x = math.exp(v) if lower else v
        log_pq = _log_p_or_q(k, x, lower)
        r = log_pq - target  # increasing in v below the median, decreasing above
        if r == 0.0:
            break
        if (r < 0.0) == lower:
            lo = v
        else:
            hi = v
        # d log P / d log x = x pdf / P and d log Q / dx = -pdf / Q
        log_x_pdf = float(_log_prefactor(k, x))
        slope = math.exp(log_x_pdf - log_pq) if lower else -math.exp(log_x_pdf - math.log(x) - log_pq)
        step = v - r / slope if math.isfinite(r) and slope != 0.0 else math.nan
        if not lo < step < hi:
            if hi == math.inf:
                step = v + max(1.0, abs(v))
            elif lo == -math.inf:
                step = v - max(1.0, abs(v))
            else:
                step = 0.5 * (lo + hi)
        tol = 4e-16 * (max(abs(v), 1.0) if lower else v)
        done = abs(step - v) <= tol or hi - lo <= tol
        v = step
        if done:
            break
    return math.exp(v) if lower else v


@lru_cache(maxsize=64)
def gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss rule for (1 + x)^beta
    on [-1, 1], beta > -1; read-only arrays.  The Jacobi matrix holds the
    recurrence coefficients of the monic Jacobi polynomials P_j^(0, beta),
    s = 2j + beta: beta^2 / (s (s + 2)) on its diagonal (beta / (beta + 2) at
    j = 0), and sqrt(4 j^2 (j + beta)^2 / (s^2 (s + 1) (s - 1))) beside it."""
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))])
    off = np.sqrt(4.0 * j * j * (j + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 ** (beta + 1.0) / (beta + 1.0) * vectors[0] ** 2  # the weight's integral times v_0^2
    return _read_only(nodes), _read_only(weights)
