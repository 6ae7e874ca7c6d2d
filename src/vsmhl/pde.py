"""Conservative finite-difference solver for the limiting forward equation.

The density solves

    d rho / dt = -(eta/2) c(t) d rho / dx + (1/2) c(t) d^2 (x rho) / dx^2,

with c(t) = m e^{eta t / 2}, rewritten as a conservation law with flux

    F = (eta c / 2) rho - (c / 2) d(x rho)/dx

on [0, x_max] with zero flux through both ends.  Cells are uniform, time
stepping is backward Euler with the growing coefficient evaluated at the new
level, and each step is one tridiagonal solve by LAPACK gtsv (Gaussian
elimination with partial pivoting; Anderson et al., LAPACK Users' Guide,
sec. 2.4).  The advective part of the flux is centered on every face where
that keeps the system an M-matrix and taken from the left (donor) cell on the
rest; the scheme conserves mass to solver precision and keeps cell values
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist

from .errors import ConfigurationError, ValidationError
from .limit import LimitLaw, cdf
from .measures import _PAIR_BYTES, GridPath, MeasurePath
from .model import (
    DiscreteAtoms,
    GammaLaw,
    InitialLaw,
    ModelParams,
    PointMass,
    UniformLaw,
    validate,
)

__all__ = [
    "SolverGrid",
    "DensityTrajectory",
    "TestFunction",
    "solve",
    "weak_residual",
    "test_function_bank",
    "mollified_start_law",
    "TRUNCATION_MASS_TOL",
]

TRUNCATION_MASS_TOL = 1e-6
MOLLIFIER_WIDTH_CELLS = 2.0


@dataclass(frozen=True)
class SolverGrid:
    """Uniform computational grid: nx cells on [0, x_max], nt time steps."""

    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValueError("x_max must be positive")
        if self.nx < 16 or self.nt < 16:
            raise ValueError("need at least 16 cells and 16 time steps")

    def dx(self) -> float:
        return self.x_max / self.nx

    def centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx()


@dataclass(frozen=True)
class DensityTrajectory:
    """Cell-average densities at every time level of a solve."""

    grid: SolverGrid
    times: np.ndarray
    values: np.ndarray  # shape (nt + 1, nx)

    def __post_init__(self):
        if self.values.shape != (len(self.times), self.grid.nx):
            raise ValueError("values shape disagrees with grid and times")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cell values must be finite")
        if self.values.min() < -1e-12:
            raise ValueError("cell values undershoot below -1e-12")
        drift = np.abs(self.mass() - 1.0).max()
        if drift > TRUNCATION_MASS_TOL:
            raise ValueError(f"discrete mass drifts by {drift:.3e}")

    def mass(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.dx()

    def measure_path(self) -> GridPath:
        return GridPath(self.times, self.grid.centers(), self.values)


def _advance(
    values: np.ndarray,
    centers: np.ndarray,
    dx: float,
    dt: float,
    coeff: float,
    eta: float,
) -> np.ndarray:
    """One backward-Euler step with coefficient c = coeff held at the new level."""
    nx = len(values)
    a = 0.5 * eta * coeff
    b = 0.5 * coeff
    r = dt / dx

    # interior faces f = j + 1/2 between cells j and j+1
    x_left = centers[:-1]
    x_right = centers[1:]
    centered = 0.5 * a <= (b / dx) * x_right if coeff > 0 else np.ones(nx - 1, bool)
    adv_left = np.where(centered, 0.5 * a, a)
    adv_right = np.where(centered, 0.5 * a, 0.0)
    flux_left = adv_left + (b / dx) * x_left  # multiplies rho_j in F_{j+1/2}
    flux_right = adv_right - (b / dx) * x_right  # multiplies rho_{j+1}

    diag = np.ones(nx)
    diag[:-1] += r * flux_left
    diag[1:] -= r * flux_right
    upper = r * flux_right
    lower = -r * flux_left

    # the diagonals are temporaries, so gtsv may factor them in place
    _, _, _, out, info = dgtsv(
        lower, diag, upper, values, overwrite_dl=1, overwrite_d=1, overwrite_du=1
    )
    if info != 0:
        raise LinAlgError(f"tridiagonal solve failed: gtsv info {info}")
    return out


def _mollified_cells(x0: float, grid: SolverGrid) -> np.ndarray:
    """Cell averages of a narrow Gaussian replacing a point mass at x0."""
    dx = grid.dx()
    sigma = MOLLIFIER_WIDTH_CELLS * dx
    edges = np.linspace(0.0, grid.x_max, grid.nx + 1)
    cdf_edges = ndtr((edges - x0) / sigma)
    return (cdf_edges[1:] - cdf_edges[:-1]) / dx


def _initial_cells(law: InitialLaw, grid: SolverGrid) -> np.ndarray:
    dx = grid.dx()
    edges = np.linspace(0.0, grid.x_max, grid.nx + 1)
    if isinstance(law, PointMass):
        vals = _mollified_cells(law.x0, grid)
    elif isinstance(law, DiscreteAtoms):
        vals = np.zeros(grid.nx)
        for loc, w in law.atoms:
            vals += w * _mollified_cells(loc, grid)
    elif isinstance(law, GammaLaw):
        ce = gamma_dist.cdf(edges, law.shape, scale=law.scale)
        vals = (ce[1:] - ce[:-1]) / dx
    elif isinstance(law, UniformLaw):
        overlap = np.minimum(edges[1:], law.b) - np.maximum(edges[:-1], law.a)
        vals = np.maximum(overlap, 0.0) / (law.b - law.a) / dx
    else:
        raise ValidationError(f"unknown initial law type {type(law).__name__}")
    mass = vals.sum() * dx
    if mass <= 0:
        raise ConfigurationError("initial law has no mass on the grid")
    return vals / mass


def mollified_start_law(law: InitialLaw, grid: SolverGrid) -> DiscreteAtoms:
    """The grid projection of the initial law, as an atomic law.

    Lets the analytic density be started from exactly the data the solver
    starts from, which removes the mollification gap when comparing.
    """
    vals = _initial_cells(law, grid)
    w = vals * grid.dx()
    keep = w > 0
    w = w[keep]
    w = w / w.sum()
    locs = grid.centers()[keep]
    return DiscreteAtoms(tuple((float(l), float(wt)) for l, wt in zip(locs, w)))


def solve(
    params: ModelParams,
    law: InitialLaw,
    grid: SolverGrid,
) -> DensityTrajectory:
    """Solve the forward equation up to the horizon on the given grid.

    Raises ConfigurationError when the analytic law keeps more than
    TRUNCATION_MASS_TOL of its mass beyond x_max at the horizon, since a
    zero-flux box that small would distort the solution.
    """
    bad = validate(params, law)
    if bad:
        raise ValidationError("; ".join(bad))
    ll = LimitLaw(params.eta, law)
    tail = 1.0 - cdf(ll, params.horizon, grid.x_max)
    if tail > TRUNCATION_MASS_TOL:
        raise ConfigurationError(
            f"mass {tail:.3e} beyond x_max={grid.x_max} at the horizon exceeds {TRUNCATION_MASS_TOL}"
        )
    dx = grid.dx()
    centers = grid.centers()
    times = np.linspace(0.0, params.horizon, grid.nt + 1)
    dt = params.horizon / grid.nt
    values = np.empty((grid.nt + 1, grid.nx))
    values[0] = _initial_cells(law, grid)
    for k in range(grid.nt):
        coeff = ll.m_lambda * math.exp(0.5 * params.eta * times[k + 1])
        values[k + 1] = _advance(values[k], centers, dx, dt, coeff, params.eta)
    return DensityTrajectory(grid=grid, times=times, values=values)


@dataclass(frozen=True)
class TestFunction:
    """A smooth test function with its first two derivatives in closed form."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


def _gaussian(c: float, sigma: float) -> TestFunction:
    def f(x):
        return np.exp(-((x - c) ** 2) / (2.0 * sigma**2))

    def df(x):
        return -(x - c) / sigma**2 * f(x)

    def d2f(x):
        return (((x - c) / sigma**2) ** 2 - 1.0 / sigma**2) * f(x)

    return TestFunction(f"gaussian(c={c},sigma={sigma})", f, df, d2f)


def _bump(c: float, w: float) -> TestFunction:
    def _parts(x):
        s = (np.asarray(x, dtype=float) - c) / w
        inside = np.abs(s) < 1.0
        s = np.where(inside, s, 0.0)
        one = 1.0 - s * s
        return s, one, inside

    def f(x):
        s, one, inside = _parts(x)
        return np.where(inside, np.exp(1.0 - 1.0 / one), 0.0)

    def df(x):
        s, one, inside = _parts(x)
        phi1 = -2.0 * s / (w * one**2)
        return np.where(inside, phi1 * np.exp(1.0 - 1.0 / one), 0.0)

    def d2f(x):
        s, one, inside = _parts(x)
        phi1 = -2.0 * s / (w * one**2)
        phi2 = -2.0 * (1.0 + 3.0 * s * s) / (w**2 * one**3)
        return np.where(inside, (phi2 + phi1 * phi1) * np.exp(1.0 - 1.0 / one), 0.0)

    return TestFunction(f"bump(c={c},w={w})", f, df, d2f)


def test_function_bank() -> list[TestFunction]:
    """Fixed bank: three Gaussians and two compactly supported bumps."""
    bank = [_gaussian(1.0, 0.5), _gaussian(2.0, 1.0), _gaussian(5.0, 2.0)]
    bank += [_bump(1.0, 1.0), _bump(3.0, 2.0)]
    return bank


def _generator(g: TestFunction, eta: float) -> Callable[[np.ndarray], np.ndarray]:
    """The spatial part of the weak form, (eta/2) g' + (x/2) g''."""
    return lambda x: 0.5 * eta * g.df(x) + 0.5 * x * g.d2f(x)


def _pairing_table(path: GridPath | MeasurePath, funcs: list[Callable], stop: int) -> np.ndarray:
    """Pairings of the path's first `stop` measures with each function.

    Returns a (len(funcs), stop) array.  On a GridPath each function is
    evaluated once on the shared grid and reduced against contiguous blocks of
    at most _PAIR_BYTES of rows, views into w, each row in the same order as
    GridPath.expect.  On a MeasurePath each measure is paired by its own
    Measure1D.expect.  Either way every entry equals the per-measure pairing
    bit for bit.
    """
    table = np.empty((len(funcs), stop))
    if isinstance(path, GridPath):
        x = path.x
        fx = [f(x) for f in funcs]
        step = max(1, _PAIR_BYTES // x.nbytes)
        for k in range(0, stop, step):
            w = path.w[k : min(k + step, stop)]
            for i, fxi in enumerate(fx):
                table[i, k : k + len(w)] = np.trapezoid(w * fxi, x, axis=1)
        return table
    for k in range(stop):
        table[:, k] = [path.expect(k, f) for f in funcs]
    return table


def weak_residual(
    path: GridPath | MeasurePath,
    bank: list[TestFunction],
    eta: float,
    m_lambda: float,
    t_values,
) -> np.ndarray:
    """Residuals of the integrated test-function identity, one per (g, t).

    Entry [i, j] is (rho(t_j), g_i) - (rho(0), g_i) minus the time integral
    of m e^{eta s/2} (rho(s), (eta/2) g_i' + (x/2) g_i''), the integral taken
    by composite Simpson (one trapezoid on a single step) on the path's own
    time grid; every t_j must be a grid node.  The path is a GridPath (the
    solver's densities, one row per node on one grid) or a MeasurePath (one
    Measure1D per node, atoms or grids).  Each measure up to the last
    requested node is paired once with every (eta/2) g' + (x/2) g'', and each
    t_j reads its own prefix of that table; g itself is paired only at 0 and
    at the t_j.  All bad t_j are rejected before any pairing.
    """
    times = np.asarray(path.times, dtype=float)
    tol = 1e-9 * max(1.0, times[-1])
    nodes = []
    for t in t_values:
        if t > times[-1] + tol:
            raise ValueError(f"t={t} exceeds the path horizon {times[-1]}")
        idx = int(np.argmin(np.abs(times - t)))
        if abs(times[idx] - t) > tol:
            raise ValueError(f"t={t} is not a node of the path's time grid")
        nodes.append(idx)
    paired = _pairing_table(path, [_generator(g, eta) for g in bank], max(nodes, default=-1) + 1)
    out = np.empty((len(bank), len(nodes)))
    for j, idx in enumerate(nodes):
        out[:, j] = [path.expect(idx, g.f) - path.expect(0, g.f) for g in bank]
        if idx == 0 or m_lambda == 0.0:
            continue
        s = times[: idx + 1]
        integrand = m_lambda * np.exp(0.5 * eta * s) * paired[:, : idx + 1]
        if idx == 1:
            out[:, j] -= 0.5 * (integrand[:, 0] + integrand[:, 1]) * (s[1] - s[0])
        else:
            out[:, j] -= simpson(integrand, x=s, axis=-1)
    return out
