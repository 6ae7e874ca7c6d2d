"""Euler simulation of the interacting particle system on the slow clock.

The N coupled positions follow

    dY_i = (eta / 2N) S dt + sqrt(Y_i S / N) dB_i,      S = sum_j Y_j,

discretized by Euler-Maruyama with full truncation: the diffusion term is
evaluated at max(Y_i, 0) and the state is clipped at 0 after every step, so
stored paths are nonnegative by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateStateError, ValidationError
from .model import InitialLaw, ModelParams, moments, sample_initial, validate

__all__ = [
    "ParticlePaths",
    "simulate_system",
    "euler_full_truncation",
    "mean_path",
    "log_growth_diagnostic",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _column_sums(positions: np.ndarray) -> np.ndarray:
    # per-column 1-D sums; bit-identical to summing the contiguous state
    # vector of each step, unlike positions.sum(axis=0)
    return np.array([positions[:, j].sum() for j in range(positions.shape[1])])


@dataclass(frozen=True)
class ParticlePaths:
    """Positions of all particles on a uniform time grid, plus their totals."""

    time_grid: np.ndarray
    positions: np.ndarray  # shape (N, len(time_grid))
    totals: np.ndarray

    def __post_init__(self):
        n, g = self.positions.shape
        if self.time_grid.shape != (g,) or self.totals.shape != (g,):
            raise ValueError("time_grid, positions and totals shapes disagree")
        if self.time_grid[0] != 0.0 or np.any(np.diff(self.time_grid) <= 0):
            raise ValueError("time grid must increase from 0")
        if np.any(self.positions < 0):
            raise ValueError("positions must be nonnegative")
        if not np.array_equal(self.totals, _column_sums(self.positions)):
            raise ValueError("totals must equal the per-node particle sums exactly")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])


def euler_full_truncation(eta: float, initial: np.ndarray, step: float, noise: np.ndarray) -> np.ndarray:
    """Advance the coupled system over precomputed standard-normal noise.

    ``noise`` has shape (n_steps, N); returns positions of shape
    (N, n_steps + 1) including the initial state.  Raises
    DegenerateStateError if the total ever hits exactly zero.
    """
    n_steps, n = noise.shape
    if initial.shape != (n,):
        raise ValueError("initial state and noise widths disagree")
    sqrt_h = math.sqrt(step)
    y = np.array(initial, dtype=float)
    states = np.empty((n_steps + 1, n))
    states[0] = y
    for k in range(n_steps):
        s = y.sum()
        if s == 0.0:
            raise DegenerateStateError(f"total capitalization hit 0 at step {k}")
        drift = (eta / (2.0 * n)) * s * step
        diff = np.sqrt(np.maximum(y, 0.0) * (s / n)) * sqrt_h
        y = np.maximum(y + drift + diff * noise[k], 0.0)
        states[k + 1] = y
    return states.T


def simulate_system(
    params: ModelParams,
    law: InitialLaw,
    dt: float,
    rng: np.random.Generator,
) -> ParticlePaths:
    """Simulate one replication; deterministic for a fixed generator state.

    The grid is uniform with the number of steps chosen as round(T / dt), so
    the actual step is the closest divisor-step to the requested dt and the
    grid ends exactly at the horizon.
    """
    bad = validate(params, law)
    if bad:
        raise ValidationError("; ".join(bad))
    if not 0 < dt <= params.horizon:
        raise ValueError(f"dt must lie in (0, horizon], got {dt}")
    m1, _ = moments(law)
    if 0.5 * params.eta * params.horizon + math.log(max(params.n_particles * m1, 1.0)) > _LOG_FLOAT_MAX - 10:
        raise ConfigurationError(
            "expected total grows past float range over this horizon; shrink horizon or eta"
        )
    n_steps = max(int(round(params.horizon / dt)), 1)
    h = params.horizon / n_steps
    y0 = sample_initial(law, params.n_particles, rng)
    noise = rng.standard_normal((n_steps, params.n_particles))
    positions = euler_full_truncation(params.eta, y0, h, noise)
    grid = np.linspace(0.0, params.horizon, n_steps + 1)
    return ParticlePaths(time_grid=grid, positions=positions, totals=_column_sums(positions))


def mean_path(paths: ParticlePaths) -> np.ndarray:
    """Average position per grid node, exactly totals / N."""
    return paths.totals / paths.n_particles


def log_growth_diagnostic(paths: ParticlePaths, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-step increments of log Y_i with the concurrent market weight.

    Returns (increments, weights) where increments[k] = log Y_i(t_{k+1}) -
    log Y_i(t_k) and weights[k] = Y_i(t_k) / S(t_k).  Smaller weights should
    associate with larger mean increments when eta > 1.
    """
    y = paths.positions[i]
    if np.any(y == 0):
        raise ValueError("log growth diagnostic requires a strictly positive path")
    increments = np.diff(np.log(y))
    weights = y[:-1] / paths.totals[:-1]
    return increments, weights
