"""Euler simulation of the interacting particle system on the slow clock.

The N coupled positions follow

    dY_i = (eta / 2N) S dt + sqrt(Y_i S / N) dB_i,      S = sum_j Y_j,

discretized by Euler-Maruyama with full truncation: the diffusion term is
evaluated at max(Y_i, 0) and the state is clipped at 0 after every step, so
stored paths are nonnegative by construction.

The simulation streams: noise is drawn in blocks of steps, the state is
carried from block to block, and only the states at the requested step
indices (the snapshot nodes) are kept, so memory grows with N times the
number of nodes, not N times the number of steps.
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
    "step_count",
    "mean_path",
    "log_growth_diagnostic",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# standard normals per noise block: the block's noise and its states take
# about 2 MB each, whatever N is (down to one step per block)
_NOISE_BUDGET = 2**18


def _column_sums(positions: np.ndarray) -> np.ndarray:
    # per-column 1-D sums; bit-identical to summing the contiguous state
    # vector of each step, unlike positions.sum(axis=0)
    return np.array([positions[:, j].sum() for j in range(positions.shape[1])])


@dataclass(frozen=True)
class ParticlePaths:
    """Positions of all particles at the snapshot times, plus their totals.

    The snapshot times are the nodes of a uniform step grid that the
    simulation kept: every step, or the step indices the caller asked for.
    """

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


def step_count(horizon: float, dt: float) -> int:
    """Number of uniform steps over [0, horizon]: round(horizon / dt), at least 1."""
    return max(int(round(horizon / dt)), 1)


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
            raise DegenerateStateError(k)
        drift = (eta / (2.0 * n)) * s * step
        diff = np.sqrt(np.maximum(y, 0.0) * (s / n)) * sqrt_h
        y = np.maximum(y + drift + diff * noise[k], 0.0, out=states[k + 1])
    return states.T


def _checked_nodes(nodes, n_steps: int) -> np.ndarray:
    if nodes is None:
        return np.arange(n_steps + 1)
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or nodes.size == 0 or not np.issubdtype(nodes.dtype, np.integer):
        raise ValueError("nodes must be a nonempty 1-D array of step indices")
    if nodes[0] != 0 or nodes[-1] > n_steps or np.any(np.diff(nodes) <= 0):
        raise ValueError(f"nodes must increase strictly from 0 and stay within {n_steps} steps")
    return nodes


def simulate_system(
    params: ModelParams,
    law: InitialLaw,
    dt: float,
    rng: np.random.Generator,
    nodes=None,
) -> ParticlePaths:
    """Simulate one replication; deterministic for a fixed generator state.

    The step grid is uniform with step_count(T, dt) steps, so the actual step
    is the closest divisor-step to the requested dt and the grid ends exactly
    at the horizon.  ``nodes`` lists the step indices to keep, strictly
    increasing from 0; None keeps every step.  The draws, and hence the kept
    states, do not depend on ``nodes``.
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
    n_steps = step_count(params.horizon, dt)
    nodes = _checked_nodes(nodes, n_steps)
    n = params.n_particles
    h = params.horizon / n_steps
    # one noise buffer for every block: a fresh 2 MB array per block would be
    # handed back to the system on release and faulted in again
    noise = np.empty((min(max(_NOISE_BUDGET // n, 1), n_steps), n))
    kept = np.empty((len(nodes), n))  # row j: the state at step nodes[j]
    totals = np.empty(len(nodes))
    j = 0
    y = sample_initial(law, n, rng)
    for start in range(0, n_steps, len(noise)):
        block = rng.standard_normal(out=noise[: n_steps - start])
        try:
            # rows: the states at steps start .. start + len(block)
            states = euler_full_truncation(params.eta, y, h, block).T
        except DegenerateStateError as exc:
            raise DegenerateStateError(start + exc.step) from None
        while j < len(nodes) and nodes[j] < start + len(states):
            kept[j] = states[nodes[j] - start]
            totals[j] = kept[j].sum()
            j += 1
        y = states[-1].copy()
        del states  # let the next block reuse its memory
    grid = np.linspace(0.0, params.horizon, n_steps + 1)[nodes]
    return ParticlePaths(time_grid=grid, positions=kept.T, totals=totals)


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
