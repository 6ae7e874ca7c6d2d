"""Conservative finite-difference solver for the limiting forward equation.

The density solves

    d rho / dt = -(eta/2) c(t) d rho / dx + (1/2) c(t) d^2 (x rho) / dx^2,

with c(t) = m e^{eta t / 2}, rewritten as a conservation law with flux

    F = (eta c / 2) rho - (c / 2) d(x rho)/dx

on [0, x_max] with zero flux through both ends.  Cells are uniform and the
solver steps their masses m = rho dx.  Time stepping is backward Euler with
the growing coefficient evaluated at the new level: the flux is c(t) times an
operator that does not depend on t, assembled once per solve, and each step
is one tridiagonal solve, in place, by LAPACK gtsv (Gaussian elimination with
partial pivoting; Anderson et al., LAPACK Users' Guide, sec. 2.4).  gtsv is
the dgtsv that numpy's bundled OpenBLAS exports (as scipy_dgtsv_64_, with
64-bit integers), called through ctypes in the library numpy has already
loaded, so a solve imports no scipy subpackage and starts no second BLAS
thread pool.  One stepper per solve owns every array gtsv writes through:
the masses and three scratch diagonals, made by the stepper itself.  On a
numpy built on another LAPACK the stepper calls scipy.linalg.lapack.dgtsv
instead, which overwrites the same arrays.  The advective
part of the flux is centered on every face where that keeps the system an
M-matrix and taken from the left (donor) cell on the rest; the scheme
conserves mass to solver precision and keeps cell masses nonnegative.  A
solve streams its levels: it keeps level 0, the middle level and the last,
and the time integrals up to each of the two that the weak residual reads.

The weak form lives here too.  A WeakFormPath is what the integrated
test-function identity reads of a path of measures: the measure at 0 and at
a few end times, and a time integral up to each end.  The solver's path
(DensityTrajectory.measure_path) integrates by Simpson over the steps, the
limit law's (quadrature_path) by a Gauss rule over panel quadratures, and
weak_residual pairs either path with a bank of test functions.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConfigurationError
from .limit import LimitLaw, cdf, quadrature
from .model import DiscreteAtoms, GammaLaw, InitialLaw, ModelParams, _floats, _is_integer

__all__ = [
    "SolverGrid",
    "DensityTrajectory",
    "WeakFormPath",
    "TestFunction",
    "solve",
    "quadrature_path",
    "weak_residual",
    "test_function_bank",
    "mollified_start_law",
    "truncation_violations",
    "TRUNCATION_MASS_TOL",
    "GRID_MAX",
]

TRUNCATION_MASS_TOL = 1e-6
# the most cells, and the most steps, a SolverGrid takes: 5x the largest grid
# of any study in ROADMAP.md (nx 4800, nt 12800), and far below the sizes at
# which an array cannot be allocated or a solve would never end
GRID_MAX = 2**16
MOLLIFIER_WIDTH_CELLS = 2.0
_SQRT1_2 = math.sqrt(0.5)
# Gauss-Legendre nodes of the analytic weak residual's rule in time: in
# sqrt(t) on [0, T/2], where the pairings are smooth in sqrt(t) (the kernel is
# sqrt(J(t)) wide), and in t on [T/2, T]; set by the study in CHANGES.md
TIME_NODES_SQRT = 24
TIME_NODES_LATE = 12
# nodes per block of a test function's jet in weak_residual: the jets' 64 KiB
# temporaries stay below glibc's default mmap threshold (128 KiB), so each
# block reuses heap pages rather than mapping and faulting in fresh ones
_JET_BLOCK = 2**13


@dataclass(frozen=True)
class SolverGrid:
    """Uniform computational grid: nx cells on [0, x_max], nt time steps,
    each of nx and nt an integer from 16 to GRID_MAX.

    Built only from valid fields: ConfigurationError lists every one that is not.
    """

    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        out = _floats(self, "x_max")
        if not out and not self.x_max > 0:
            out.append(f"x_max must be positive, got {self.x_max!r}")
        for name, n in (("nx", self.nx), ("nt", self.nt)):
            if not (_is_integer(n) and n >= 16):
                out.append(f"{name} must be an integer of at least 16, got {n!r}")
            elif n > GRID_MAX:
                out.append(f"{name} must be at most {GRID_MAX}, got {n!r}")
        if out:
            raise ConfigurationError(*out)

    def dx(self) -> float:
        return self.x_max / self.nx

    def centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx()

    def level_time(self, k: int, horizon: float) -> float:
        """The time of a solve's level k of nt up to the horizon: k horizon / nt,
        and the horizon itself at k = nt."""
        return horizon if k == self.nt else k * (horizon / self.nt)

    def ends(self) -> tuple[int, int]:
        """The levels, besides 0, that a solve keeps: the weak form's end times."""
        return self.nt // 2, self.nt


@dataclass(frozen=True)
class WeakFormPath:
    """A path of measures mu_s as the integrated weak form reads it at a few
    end times t_j > 0: mu_0, mu_{t_j}, and Lambda_j, the time integral of
    c(s) mu_s over [0, t_j] by the path's own rule in time (c the forward
    equation's coefficient).  start and each of stops is a weighted node set
    (x, w), the measure sum_i w_i delta(x_i).  The time integrals share one
    node set, integral_x: Lambda_j weighs its first len(integral_w[j]) nodes
    by integral_w[j]."""

    ends: np.ndarray
    start: tuple[np.ndarray, np.ndarray]
    stops: list[tuple[np.ndarray, np.ndarray]]
    integral_x: np.ndarray
    integral_w: list[np.ndarray]

    def __post_init__(self):
        if len(self.ends) == 0 or self.ends[0] <= 0 or np.any(np.diff(self.ends) <= 0):
            raise ValueError("end times must be positive and strictly increasing")
        if not len(self.stops) == len(self.integral_w) == len(self.ends):
            raise ValueError("need one measure and one time integral per end time")
        if any(np.ndim(x) != 1 or np.shape(x) != np.shape(w) for x, w in [self.start, *self.stops]):
            raise ValueError("each node set needs matching 1-D nodes and weights")
        if any(np.ndim(w) != 1 or len(w) > len(self.integral_x) for w in self.integral_w):
            raise ValueError("each time integral weighs a prefix of integral_x")


@dataclass(frozen=True)
class DensityTrajectory:
    """What a solve keeps: the cell masses (density times dx) at levels 0,
    nt // 2 and nt, and for each of the two ends the time integral of
    c(t) m(t) from 0 to it, composite Simpson over the steps.  max_drift is
    the largest |sum(m) - 1| over every level."""

    grid: SolverGrid
    times: np.ndarray  # levels 0, nt // 2 and nt
    masses: np.ndarray  # shape (3, nx)
    integrals: np.ndarray  # shape (2, nx), up to nt // 2 and up to nt
    max_drift: float

    def measure_path(self) -> WeakFormPath:
        x = self.grid.centers()
        stops = [(x, m) for m in self.masses[1:]]
        return WeakFormPath(self.times[1:], (x, self.masses[0]), stops, x, list(self.integrals))


_Diagonals = tuple[np.ndarray, np.ndarray, np.ndarray]  # lower, main, upper


def _operator(centers: np.ndarray, dx: float, eta: float) -> _Diagonals:
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


# the LAPACK dgtsv of numpy's bundled OpenBLAS (ILP64: 64-bit integers)
_DGTSV = "scipy_dgtsv_64_"


@cache
def _gtsv() -> ctypes._CFuncPtr | None:
    """LAPACK dgtsv from the OpenBLAS numpy has already loaded, as a ctypes
    function: dlsym on numpy's core extension searches its dependencies too,
    so the library's hashed file name is never named.  Where numpy's LAPACK
    does not export it (an Accelerate, MKL or system build), None, once
    scipy.linalg.lapack is imported: _stepper then calls its dgtsv."""
    try:
        dgtsv = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), _DGTSV)
    except (AttributeError, OSError):
        import scipy.linalg.lapack  # noqa: F401

        return None
    dgtsv.argtypes = [ctypes.c_void_p] * 8
    dgtsv.restype = None
    return dgtsv


def _stepper(op: _Diagonals, m0: np.ndarray) -> tuple[np.ndarray, Callable[[float], None]]:
    """Backward-Euler steps of cell masses, in place: returns m, a float64
    copy of m0, and step(rc), which solves (I + rc A) m' = m, A the
    _operator diagonals op and rc = c dt / dx at the new level, and
    overwrites m with m'.  The diagonals of I + rc A go into three scratch
    arrays made here, which gtsv factors in place.  So every array LAPACK
    writes through is the stepper's own, step holds all four, and a step
    allocates nothing: the ctypes arguments are built once, here."""
    m = np.array(m0, dtype=np.float64)
    system = (np.empty(len(m) - 1), np.empty(len(m)), np.empty(len(m) - 1), m)  # dl, d, du, b
    dgtsv = _gtsv()
    if dgtsv is None:
        from scipy.linalg.lapack import dgtsv as scipy_dgtsv

        def gtsv():
            return scipy_dgtsv(*system, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)[-1]

    else:
        n, one, info = ctypes.c_int64(len(m)), ctypes.c_int64(1), ctypes.c_int64()
        pointers = [a.ctypes.data for a in system]
        args = (ctypes.byref(n), ctypes.byref(one), *pointers, ctypes.byref(n), ctypes.byref(info))  # ldb = n

        def gtsv():
            dgtsv(*args)
            return info.value

    def step(rc: float) -> None:
        for a, s in zip(op, system):  # the three diagonals; system[3] is m
            np.multiply(a, rc, out=s)
        np.add(system[1], 1.0, out=system[1])
        info = gtsv()
        if info != 0:
            raise LinAlgError(f"tridiagonal solve failed: gtsv info {info}")

    return m, step


def _ndtr(a: float) -> float:
    """The standard normal CDF at a, 0.5 erfc(-a sqrt(1/2)) on libm's erfc."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


def _mollified_masses(x0: float, grid: SolverGrid) -> np.ndarray:
    """Cell masses of a narrow Gaussian replacing a point mass at x0."""
    sigma = MOLLIFIER_WIDTH_CELLS * grid.dx()
    a = (np.linspace(0.0, grid.x_max, grid.nx + 1) - x0) / sigma
    # _ndtr is exactly 0 below a = -40 (erfc underflows) and exactly 1 above
    # a = 9 (erfc rounds to 2), so only the edges between take a libm call
    cdf_edges = (a > 0).astype(float)
    inside = (a > -40.0) & (a < 9.0)
    cdf_edges[inside] = [_ndtr(v) for v in a[inside].tolist()]
    return cdf_edges[1:] - cdf_edges[:-1]


def _initial_masses(law: InitialLaw, grid: SolverGrid) -> np.ndarray:
    """Cell masses of the initial law on the grid, scaled to unit sum."""
    edges = np.linspace(0.0, grid.x_max, grid.nx + 1)
    if isinstance(law, DiscreteAtoms):
        m = np.zeros(grid.nx)
        for loc, w in law.atoms:
            m += w * _mollified_masses(loc, grid)
    elif isinstance(law, GammaLaw):
        ce = law.cdf(edges)
        m = ce[1:] - ce[:-1]
    else:  # a UniformLaw
        overlap = np.minimum(edges[1:], law.b) - np.maximum(edges[:-1], law.a)
        m = np.maximum(overlap, 0.0) / (law.b - law.a)
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


def _simpson_weight(k: int, n: int) -> float:
    """Weight, in steps, of node k of n >= 3 uniform nodes in the rule
    scipy.integrate.simpson takes: composite Simpson on the n nodes, or on
    the first n - 1 plus Cartwright's correction on the last interval when n
    is even."""
    last = n - 1 if n % 2 else n - 2
    w = 0.0 if k > last else (1.0 if k in (0, last) else 4.0 if k % 2 else 2.0) / 3.0
    if n % 2 == 0:
        w += {n - 1: 5.0 / 12.0, n - 2: 2.0 / 3.0, n - 3: -1.0 / 12.0}.get(k, 0.0)
    return w


def _checked_drift(m: np.ndarray, k: int, dx: float) -> float:
    """|sum(m) - 1| of the cell masses m at step k, once they pass the checks."""
    total = m.sum()
    if not math.isfinite(total):  # a NaN or infinite cell mass makes the sum so
        raise ValueError(f"cell masses are not finite at step {k}")
    if m.min() < -1e-12 * dx:
        raise ValueError(f"cell densities undershoot below -1e-12 at step {k}")
    drift = abs(total - 1.0)
    if drift > TRUNCATION_MASS_TOL:
        raise ValueError(f"discrete mass drifts by {drift:.3e} at step {k}")
    return drift


def truncation_violations(params: ModelParams, law: InitialLaw, grid: SolverGrid) -> list[str]:
    """One message if the limit law keeps more than TRUNCATION_MASS_TOL of its mass
    beyond x_max at the horizon (a zero-flux box that small distorts the solution)."""
    tail = 1.0 - cdf(LimitLaw(params.eta, law), params.horizon, grid.x_max)
    msg = f"mass {tail:.3e} beyond x_max={grid.x_max} at the horizon exceeds {TRUNCATION_MASS_TOL}"
    return [msg] if tail > TRUNCATION_MASS_TOL else []


def solve(params: ModelParams, law: InitialLaw, grid: SolverGrid) -> DensityTrajectory:
    """Solve the forward equation up to the horizon on the given grid.

    The solve streams: each level is checked as it is made (finite, no cell
    density below -1e-12, mass drift at most TRUNCATION_MASS_TOL; a failure
    raises ValueError naming its step) and added into the time integrals up
    to the ends nt // 2 and nt.  The steps overwrite the stepper's one
    masses array and scratch diagonals, and only levels 0, nt // 2 and nt
    are copied out, so memory does not grow with nt and a step allocates
    nothing.

    Raises ConfigurationError for a grid that truncation_violations refuses.
    """
    bad = truncation_violations(params, law, grid)
    if bad:
        raise ConfigurationError(*bad)
    ll = LimitLaw(params.eta, law)
    dx = grid.dx()
    op = _operator(grid.centers(), dx, params.eta)
    dt = params.horizon / grid.nt
    r = dt / dx
    m, step = _stepper(op, _initial_masses(law, grid))
    scaled = np.empty_like(m)
    ends = grid.ends()
    integrals = np.zeros((len(ends), grid.nx))
    masses = np.empty((3, grid.nx))
    times, drift = [], 0.0
    for k in range(grid.nt + 1):
        t = grid.level_time(k, params.horizon)
        coeff = ll.m_lambda * math.exp(0.5 * params.eta * t)
        if k:
            step(coeff * r)
        drift = max(drift, _checked_drift(m, k, dx))
        for row, end in zip(integrals, ends):
            w = _simpson_weight(k, end + 1)
            if w:
                row += np.multiply(m, w * dt * coeff, out=scaled)
        if k == 0 or k in ends:
            masses[len(times)] = m
            times.append(t)
    return DensityTrajectory(grid, np.array(times), masses, integrals, float(drift))


@dataclass(frozen=True)
class TestFunction:
    """A smooth test function; jet(x) is (g, g', g'') at x in closed form."""

    name: str
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def f(self, x):
        return self.jet(x)[0]


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


def _pair(f: Callable[[np.ndarray], np.ndarray], nodes: tuple[np.ndarray, np.ndarray]) -> float:
    x, w = nodes
    return float(np.sum(w * f(x)))


def _analytic_time_rule(horizon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times and time weights of the analytic path's rule: Gauss-Legendre in
    u = sqrt(t) on [0, horizon/2] (dt = 2u du) and in t on [horizon/2, horizon],
    with the panel ends 0, horizon/2 and horizon as nodes of weight 0; and the
    indices of the ends horizon/2 and horizon among the times."""
    half = 0.5 * horizon
    x, w = np.polynomial.legendre.leggauss(TIME_NODES_SQRT)
    r = 0.5 * math.sqrt(half)
    u = r * (1.0 + x)
    early, w_early = u * u, r * w * 2.0 * u
    x, w = np.polynomial.legendre.leggauss(TIME_NODES_LATE)
    late, w_late = half + 0.5 * half * (1.0 + x), 0.5 * half * w
    times = np.concatenate([[0.0], early, [half], late, [horizon]])
    weights = np.concatenate([[0.0], w_early, [0.0], w_late, [0.0]])
    return times, weights, np.array([len(early) + 1, len(times) - 1])


def quadrature_path(ll: LimitLaw, horizon: float) -> WeakFormPath:
    """The limit law on _analytic_time_rule(horizon), one panel quadrature per
    time, read at the panel ends horizon/2 and horizon.  The quadratures are
    concatenated in time with their weights scaled by time weight times
    c(t) = m e^{eta t/2}, so each end's time integral is a prefix of them."""
    times, weights, ends = _analytic_time_rule(horizon)
    rules = [quadrature(ll, float(t)) for t in times]
    scale = weights * ll.m_lambda * np.exp(0.5 * ll.eta * times)
    lengths = [len(x) for x, _ in rules]
    x = np.concatenate([x for x, _ in rules])
    w = np.concatenate([w for _, w in rules])
    w *= np.repeat(scale, lengths)
    set_ends = np.cumsum(lengths)  # node set k ends at set_ends[k]
    prefixes = [w[: set_ends[k - 1]] for k in ends]
    return WeakFormPath(times[ends], rules[0], [rules[k] for k in ends], x[: set_ends[-2]], prefixes)


def weak_residual(path: WeakFormPath, bank: list[TestFunction], eta: float) -> np.ndarray:
    """Residuals of the integrated test-function identity, one per (g, end).

    Entry [i, j] is (mu_{t_j}, g_i) - (mu_0, g_i) - (Lambda_j, (eta/2) g_i' +
    (x/2) g_i''), t_j = path.ends[j], where Lambda_j is the path's time
    integral of c(s) mu_s over [0, t_j] by its own rule in time: composite
    Simpson over the solver's steps, or the analytic path's Gauss rule
    (_analytic_time_rule).  Each pairing is one sum over a node set, and each
    generator term is evaluated once, on the time integrals' shared nodes, in
    blocks of _JET_BLOCK nodes so the jets' temporaries stay small.
    """
    x = path.integral_x
    generator, products = np.empty(len(x)), np.empty(len(x))
    out = np.empty((len(bank), len(path.ends)))
    for i, g in enumerate(bank):
        at_start, lg = _pair(g.f, path.start), _generator(g, eta)
        for start in range(0, len(x), _JET_BLOCK):
            generator[start : start + _JET_BLOCK] = lg(x[start : start + _JET_BLOCK])
        for j, (stop, w) in enumerate(zip(path.stops, path.integral_w)):
            integral = np.multiply(w, generator[: len(w)], out=products[: len(w)]).sum()
            out[i, j] = _pair(g.f, stop) - at_start - float(integral)
    return out
