"""Conservative finite-difference solver for the limiting forward equation.

The density solves

    d rho / dt = -(eta/2) c(t) d rho / dx + (1/2) c(t) d^2 (x rho) / dx^2,

with c(t) = m e^{eta t / 2}, rewritten as a conservation law with flux

    F = (eta c / 2) rho - (c / 2) d(x rho)/dx

on [0, x_max] with zero flux through both ends.  Cells are uniform and the
solver steps their masses m = rho dx.  Time stepping is backward Euler with
the growing coefficient evaluated at the new level: the flux is c(t) times an
operator that does not depend on t, assembled once per solve, and each step
is one tridiagonal solve by LAPACK gtsv (Gaussian elimination with partial
pivoting; Anderson et al., LAPACK Users' Guide, sec. 2.4).  The advective
part of the flux is centered on every face where that keeps the system an
M-matrix and taken from the left (donor) cell on the rest; the scheme
conserves mass to solver precision and keeps cell masses nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr

from .errors import ConfigurationError, ValidationError
from .limit import LimitLaw, cdf
from .measures import GridPath, NodePath
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
        if not 0 < self.x_max < math.inf:
            raise ValueError(f"x_max must be positive and finite, got {self.x_max!r}")
        if self.nx < 16 or self.nt < 16:
            raise ValueError("need at least 16 cells and 16 time steps")

    def dx(self) -> float:
        return self.x_max / self.nx

    def centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx()


@dataclass(frozen=True)
class DensityTrajectory:
    """Cell masses (density times dx) at every time level of a solve."""

    grid: SolverGrid
    times: np.ndarray
    masses: np.ndarray  # shape (nt + 1, nx)

    def __post_init__(self):
        if self.masses.shape != (len(self.times), self.grid.nx):
            raise ValueError("masses shape disagrees with grid and times")
        if not np.all(np.isfinite(self.masses)):
            raise ValueError("cell masses must be finite")
        if self.masses.min() < -1e-12 * self.grid.dx():
            raise ValueError("cell densities undershoot below -1e-12")
        drift = np.abs(self.mass() - 1.0).max()
        if drift > TRUNCATION_MASS_TOL:
            raise ValueError(f"discrete mass drifts by {drift:.3e}")

    def mass(self) -> np.ndarray:
        return self.masses.sum(axis=1)

    def measure_path(self) -> GridPath:
        return GridPath(self.times, self.grid.centers(), self.masses)


def _operator(centers: np.ndarray, dx: float, eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower, main and upper diagonals of the flux operator per unit c dt / dx.

    Face j + 1/2 carries F = (eta c / 2) rho - (c / 2) d(x rho)/dx; its
    advective part is centered where 0.25 eta <= 0.5 x_{j+1} / dx (the
    M-matrix condition, the same for every c > 0) and donor elsewhere.
    """
    x_left = centers[:-1]
    x_right = centers[1:]
    centered = 0.25 * eta <= (0.5 / dx) * x_right
    flux_left = np.where(centered, 0.25 * eta, 0.5 * eta) + (0.5 / dx) * x_left  # times m_j
    flux_right = np.where(centered, 0.25 * eta, 0.0) - (0.5 / dx) * x_right  # times m_{j+1}
    diag = np.concatenate([flux_left, [0.0]]) - np.concatenate([[0.0], flux_right])
    return -flux_left, diag, flux_right


def _advance(m: np.ndarray, op: tuple[np.ndarray, np.ndarray, np.ndarray], rc: float) -> np.ndarray:
    """One backward-Euler step of the cell masses m: solve (I + rc A) m' = m,
    A the _operator diagonals and rc = c dt / dx at the new level."""
    lower, diag, upper = op
    # the scaled diagonals are temporaries, so gtsv may factor them in place
    _, _, _, out, info = dgtsv(
        rc * lower, 1.0 + rc * diag, rc * upper, m, overwrite_dl=1, overwrite_d=1, overwrite_du=1
    )
    if info != 0:
        raise LinAlgError(f"tridiagonal solve failed: gtsv info {info}")
    return out


def _mollified_masses(x0: float, grid: SolverGrid) -> np.ndarray:
    """Cell masses of a narrow Gaussian replacing a point mass at x0."""
    sigma = MOLLIFIER_WIDTH_CELLS * grid.dx()
    edges = np.linspace(0.0, grid.x_max, grid.nx + 1)
    cdf_edges = ndtr((edges - x0) / sigma)
    return cdf_edges[1:] - cdf_edges[:-1]


def _initial_masses(law: InitialLaw, grid: SolverGrid) -> np.ndarray:
    """Cell masses of the initial law on the grid, scaled to unit sum."""
    edges = np.linspace(0.0, grid.x_max, grid.nx + 1)
    if isinstance(law, PointMass):
        m = _mollified_masses(law.x0, grid)
    elif isinstance(law, DiscreteAtoms):
        m = np.zeros(grid.nx)
        for loc, w in law.atoms:
            m += w * _mollified_masses(loc, grid)
    elif isinstance(law, GammaLaw):
        ce = law.cdf(edges)
        m = ce[1:] - ce[:-1]
    elif isinstance(law, UniformLaw):
        overlap = np.minimum(edges[1:], law.b) - np.maximum(edges[:-1], law.a)
        m = np.maximum(overlap, 0.0) / (law.b - law.a)
    else:
        raise ValidationError(f"unknown initial law type {type(law).__name__}")
    mass = m.sum()
    if mass <= 0:
        raise ConfigurationError("initial law has no mass on the grid")
    return m / mass


def mollified_start_law(law: InitialLaw, grid: SolverGrid) -> DiscreteAtoms:
    """The grid projection of the initial law, as an atomic law.

    Lets the analytic density be started from exactly the data the solver
    starts from, which removes the mollification gap when comparing.
    """
    m = _initial_masses(law, grid)
    keep = m > 0
    return DiscreteAtoms(tuple((float(l), float(w)) for l, w in zip(grid.centers()[keep], m[keep])))


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
    op = _operator(grid.centers(), dx, params.eta)
    times = np.linspace(0.0, params.horizon, grid.nt + 1)
    r = params.horizon / grid.nt / dx
    masses = np.empty((grid.nt + 1, grid.nx))
    masses[0] = _initial_masses(law, grid)
    for k in range(grid.nt):
        coeff = ll.m_lambda * math.exp(0.5 * params.eta * times[k + 1])
        masses[k + 1] = _advance(masses[k], op, coeff * r)
    return DensityTrajectory(grid=grid, times=times, masses=masses)


@dataclass(frozen=True)
class TestFunction:
    """A smooth test function; jet(x) is (g, g', g'') at x in closed form."""

    name: str
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def f(self, x):
        return self.jet(x)[0]

    def df(self, x):
        return self.jet(x)[1]

    def d2f(self, x):
        return self.jet(x)[2]


def _gaussian(c: float, sigma: float) -> TestFunction:
    def jet(x):
        d = x - c
        e = np.exp(-(d**2) / (2.0 * sigma**2))
        return e, -d / sigma**2 * e, ((d / sigma**2) ** 2 - 1.0 / sigma**2) * e

    return TestFunction(f"gaussian(c={c},sigma={sigma})", jet)


def _bump(c: float, w: float) -> TestFunction:
    def jet(x):
        # evaluated on the support |x - c| < w only, zero elsewhere
        x = np.asarray(x, dtype=float)
        s = (x - c) / w
        inside = np.abs(s) < 1.0
        s = s[inside]
        one = 1.0 - s * s
        phi1 = -2.0 * s / (w * one**2)
        phi2 = -2.0 * (1.0 + 3.0 * s * s) / (w**2 * one**3)
        e = np.exp(1.0 - 1.0 / one)
        out = np.zeros((3, *x.shape))
        out[:, inside] = e, phi1 * e, (phi2 + phi1 * phi1) * e
        return out[0], out[1], out[2]

    return TestFunction(f"bump(c={c},w={w})", jet)


def test_function_bank() -> list[TestFunction]:
    """Fixed bank: three Gaussians and two compactly supported bumps."""
    bank = [_gaussian(1.0, 0.5), _gaussian(2.0, 1.0), _gaussian(5.0, 2.0)]
    bank += [_bump(1.0, 1.0), _bump(3.0, 2.0)]
    return bank


def _generator(g: TestFunction, eta: float) -> Callable[[np.ndarray], np.ndarray]:
    """The spatial part of the weak form, (eta/2) g' + (x/2) g'', from one jet."""

    def generator(x):
        _, d1, d2 = g.jet(x)
        return 0.5 * eta * d1 + 0.5 * x * d2

    return generator


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.integrate.simpson(y, x=x, axis=-1) bit for bit, for increasing 1-D x of
    at least 3 points; an even count takes Cartwright's last-interval correction."""
    n = len(x)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    tmp = hsum / 6.0 * (
        y[..., 0:stop:2] * (2.0 - 1.0 / h0divh1)
        + y[..., 1 : stop + 1 : 2] * (hsum * (hsum / hprod))
        + y[..., 2 : stop + 2 : 2] * (2.0 - h0divh1)
    )
    result = np.sum(tmp, axis=-1)
    if n % 2 == 0:
        a, b = h[-2:-1], h[-1:]  # one-element arrays, as scipy computes them
        w1 = (2 * b**2 + 3 * a * b) / (6 * (b + a))
        w2 = (b**2 + 3.0 * a * b) / (6 * a)
        w3 = b**3 / (6 * a * (a + b))
        result += w1 * y[..., -1] + w2 * y[..., -2] - w3 * y[..., -3]
    return result


def weak_residual(
    path: GridPath | NodePath,
    bank: list[TestFunction],
    eta: float,
    m_lambda: float,
    t_values,
) -> np.ndarray:
    """Residuals of the integrated test-function identity, one per (g, t).

    Entry [i, j] is (rho(t_j), g_i) - (rho(0), g_i) minus the time integral
    of m e^{eta s/2} (rho(s), (eta/2) g_i' + (x/2) g_i''), taken by the path's
    own rule in time; every t_j must be a finite node of its time grid.  A
    GridPath (the solver's cell masses, one row per node on one grid) takes
    composite Simpson (one trapezoid on a single step) over its nodes.  A
    NodePath (one set of weighted nodes per node: the limit law's quadrature,
    or atoms) takes its time_weights, so each t_j must be one of its panel
    ends.  The limit law's path integrates by Gauss-Legendre in sqrt(t) up to
    T/2, where its pairings are smooth in sqrt(t) and not in t, and in t from
    T/2 to T (experiments._analytic_time_rule).  The path's
    pairings pair each measure up to the last requested node once with every
    (eta/2) g' + (x/2) g'', and each t_j reads its own prefix of that table;
    g itself is paired only at 0 and at the t_j.  All bad t_j are rejected
    before any pairing.
    """
    times = np.asarray(path.times, dtype=float)
    tol = 1e-9 * max(1.0, times[-1])
    nodes = []
    for t in t_values:
        if not math.isfinite(t):
            raise ValueError(f"t={t} is not finite")
        if t > times[-1] + tol:
            raise ValueError(f"t={t} exceeds the path horizon {times[-1]}")
        idx = int(np.argmin(np.abs(times - t)))
        if abs(times[idx] - t) > tol:
            raise ValueError(f"t={t} is not a node of the path's time grid")
        if isinstance(path, NodePath) and path.time_weights[idx] != 0.0:
            raise ValueError(f"t={t} is not a panel end of the path's rule in time")
        nodes.append(idx)
    generators = [_generator(g, eta) for g in bank]
    # C order fixes the order in which a row is summed, whatever the path returns
    paired = np.ascontiguousarray(path.pairings(generators, range(max(nodes, default=-1) + 1)))
    at_nodes = path.pairings([g.f for g in bank], [0, *nodes])
    out = at_nodes[:, 1:] - at_nodes[:, :1]
    for j, idx in enumerate(nodes):
        if idx == 0 or m_lambda == 0.0:
            continue
        s = times[: idx + 1]
        integrand = m_lambda * np.exp(0.5 * eta * s) * paired[:, : idx + 1]
        if isinstance(path, NodePath):
            out[:, j] -= np.sum(integrand * path.time_weights[: idx + 1], axis=1)
        elif idx == 1:
            out[:, j] -= 0.5 * (integrand[:, 0] + integrand[:, 1]) * (s[1] - s[0])
        else:
            out[:, j] -= _simpson(integrand, s)
    return out
