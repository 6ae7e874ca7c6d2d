"""Probability measures on the half-line and the metrics used to compare them.

A measure is stored either as weighted atoms or as density values on a grid;
both expose a CDF, which is all the two metrics need.  Wasserstein-1 is the
area between CDFs, computed exactly for the piecewise-constant /
piecewise-linear representations used here.  The Levy metric is also exact:
one sweep along the anti-diagonals x + y = s of the two completed CDF graphs.
A path of measures over a time grid is one Measure1D per node (MeasurePath).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .limit import LimitLaw, quantile

__all__ = [
    "Measure1D",
    "MeasurePath",
    "empirical",
    "wasserstein1",
    "levy",
    "sup_distance",
    "ranked_vs_limit",
]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of an already sorted 1-D array: its entries that rise above
    the one before.  np.unique (and np.union1d) would look up numpy.ma, about
    10 ms to import, which no run needs otherwise."""
    return a[np.concatenate([[True], a[1:] > a[:-1]])]


class Measure1D:
    """A probability measure on [0, inf): weighted atoms or a grid density."""

    ATOMS = "atoms"
    GRID = "grid"

    __slots__ = ("kind", "x", "_cum")

    def __init__(self, kind: str, x: np.ndarray, cum: np.ndarray):
        self.kind = kind
        self.x = x
        self._cum = cum

    @classmethod
    def from_atoms(cls, locations, weights=None) -> "Measure1D":
        locs = np.asarray(locations, dtype=float)
        if locs.ndim != 1 or len(locs) == 0:
            raise ValueError("need a nonempty 1-D array of atom locations")
        if not np.all(np.isfinite(locs)):
            raise ValueError("atom locations must be finite")
        if weights is None:
            wts = np.full(len(locs), 1.0 / len(locs))
        else:
            wts = np.asarray(weights, dtype=float)
        # each check fails NaN: a NaN comparison is False
        if not np.all(wts >= 0):
            raise ValueError("atom weights must be nonnegative")
        if not abs(wts.sum() - 1.0) <= 1e-9:
            raise ValueError(f"atom weights must sum to 1, got {float(wts.sum())!r}")
        uniq, inv = np.unique(locs, return_inverse=True)
        agg = np.zeros(len(uniq))
        np.add.at(agg, inv, wts)
        keep = agg > 0
        uniq, agg = uniq[keep], agg[keep]
        return cls(cls.ATOMS, uniq, np.cumsum(agg))

    @classmethod
    def from_grid(cls, x, values) -> "Measure1D":
        xs = np.asarray(x, dtype=float)
        vals = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != vals.shape or len(xs) < 2:
            raise ValueError("grid and values must be matching 1-D arrays")
        # each check fails NaN: a NaN comparison is False
        if not np.all(np.diff(xs) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(vals >= -1e-12):
            raise ValueError("density values must be nonnegative")
        vals = np.maximum(vals, 0.0)
        mass = np.trapezoid(vals, xs)
        if not abs(mass - 1.0) <= 5e-2:  # coarse grids under-resolve narrow densities
            raise ConfigurationError(f"grid density mass {float(mass)!r} is too far from 1")
        vals /= mass
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (vals[1:] + vals[:-1]) / 2.0)])
        cum /= cum[-1]
        cum[-1] = 1.0
        return cls(cls.GRID, xs, cum)

    def cdf(self, q) -> np.ndarray:
        qs = np.asarray(q, dtype=float)
        if self.kind == self.ATOMS:
            idx = np.searchsorted(self.x, qs, side="right")
            cum = np.concatenate([[0.0], self._cum])
            return cum[idx]
        return np.clip(np.interp(qs, self.x, self._cum, left=0.0, right=1.0), 0.0, 1.0)


@dataclass(frozen=True)
class MeasurePath:
    """One measure per node of an increasing time grid starting at 0."""

    times: np.ndarray
    measures: tuple[Measure1D, ...]

    def __post_init__(self):
        if len(self.times) != len(self.measures) or len(self.times) == 0:
            raise ValueError("need one measure per time node")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must increase from 0")


def empirical(positions) -> Measure1D:
    """Uniform atoms at the given positions (duplicates merged)."""
    return Measure1D.from_atoms(positions)


def wasserstein1(mu: Measure1D, nu: Measure1D) -> float:
    """Area between the two CDFs, exact for atom and grid representations."""
    xs = _sorted_unique(np.sort(np.concatenate([mu.x, nu.x])))  # np.union1d(mu.x, nu.x)
    f_right = [m.cdf(xs) for m in (mu, nu)]
    # CDF approaching the next knot from the left: constant for atoms,
    # continuous for grid densities
    f_left = [
        fr[:-1] if m.kind == Measure1D.ATOMS else fr[1:]
        for m, fr in zip((mu, nu), f_right)
    ]
    da = f_right[0][:-1] - f_right[1][:-1]
    db = f_left[0] - f_left[1]
    seg_len = np.diff(xs)
    cross = da * db < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = 0.5 * (da * da + db * db) / np.abs(da - db)
    seg = np.where(cross, crossing, 0.5 * (np.abs(da) + np.abs(db)))
    return float(seg_len @ seg)


def _completed_graph(m: Measure1D) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (s, y) of the CDF graph with its jumps filled in, s = x + y.

    Along the graph s increases strictly and y is piecewise linear in s: each
    atom gives a vertical segment, each grid cell a straight one.
    """
    if m.kind == Measure1D.GRID:
        return m.x + m._cum, m._cum
    cum = np.concatenate([[0.0], m._cum])
    y = np.column_stack([cum[:-1], cum[1:]]).ravel()
    return np.repeat(m.x, 2) + y, y


def levy(mu: Measure1D, nu: Measure1D) -> float:
    """Levy metric: smallest corridor half-width enclosing both CDFs.

    A shift by (-eps, +eps) keeps x + y = s fixed, so the corridor holds at
    width eps exactly when the two completed graphs are within eps in height
    on every anti-diagonal.  The height gap is piecewise linear in s, so its
    maximum sits at a vertex of one of the graphs and the result is exact:
    the gap is read at each graph's vertices, against the other graph
    interpolated there.
    """
    (s_mu, y_mu), (s_nu, y_nu) = _completed_graph(mu), _completed_graph(nu)
    at_mu = np.abs(y_mu - np.interp(s_mu, s_nu, y_nu, 0.0, 1.0)).max()
    at_nu = np.abs(np.interp(s_nu, s_mu, y_mu, 0.0, 1.0) - y_nu).max()
    return float(max(at_mu, at_nu))


_METRICS = {"levy": levy, "wasserstein1": wasserstein1}


def sup_distance(p: MeasurePath, q: MeasurePath, metric: str = "wasserstein1") -> float:
    """Largest node-wise distance between two paths on the same time grid."""
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}, got {metric!r}")
    if len(p.times) != len(q.times) or not np.array_equal(p.times, q.times):
        raise GridMismatchError("measure paths must share an identical time grid")
    dist = _METRICS[metric]
    return max(dist(a, b) for a, b in zip(p.measures, q.measures))


def ranked_vs_limit(positions, ll: LimitLaw, t: float) -> np.ndarray:
    """Compare ranked positions with the limit quantiles at plotting points.

    Returns an (N, 4) array with columns (rank k, k-th smallest position,
    quantile at k/(N+1), absolute gap).  The k/(N+1) plotting positions
    avoid the p = 1 endpoint.
    """
    pos = np.sort(np.asarray(positions, dtype=float))
    n = len(pos)
    if n == 0:
        raise ValueError("need a nonempty position vector")
    ranks = np.arange(1, n + 1)
    q = quantile(ll, t, ranks / (n + 1.0))
    return np.column_stack([ranks.astype(float), pos, q, np.abs(pos - q)])
