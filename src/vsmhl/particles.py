"""Euler simulation of the interacting particle system on the slow clock.

The N coupled positions follow

    dY_i = (eta / 2N) S dt + sqrt(Y_i S / N) dB_i,      S = sum_j Y_j,

discretized by Euler-Maruyama with full truncation: the diffusion term is
evaluated at max(Y_i, 0) and the state is clipped at 0 after every step, so
stored paths are nonnegative by construction.

R independent replications of one N are stepped together as one (R, N)
state.  Row r draws its initial positions and then its noise from its own
generator, in the same order as a run of that replication alone, and every
row is reduced over its own contiguous N values, so each row equals the
one-replication run bit for bit.

The simulation streams: noise is drawn in blocks of steps, one (R, N) state
is stepped in place through every block, and it is copied out only at the
requested step indices (the snapshot nodes), into one (R, nodes, N) array
that the run returns as it is.  No array of per-step states is built, so
memory grows with R times N times the number of nodes, not with the number
of steps or the block width.  The totals S at node j are
states[..., j, :].sum(axis=-1), each row summed over its contiguous N values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DegenerateStateError
from .model import InitialLaw, ModelParams, moments, sample_initial

__all__ = [
    "simulate_system",
    "simulate_replications",
    "euler_full_truncation",
    "float_range_violations",
    "step_count",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# standard normals per noise block: the block's noise takes about 2 MB,
# whatever R and N are (down to one step per block)
_NOISE_BUDGET = 2**18


def step_count(horizon: float, dt: float) -> int:
    """Number of uniform steps over [0, horizon]: round(horizon / dt), at least 1."""
    return max(int(round(horizon / dt)), 1)


def euler_full_truncation(eta: float, y: np.ndarray, step: float, noise: np.ndarray) -> None:
    """Advance R independent copies of the coupled system in place over
    precomputed standard-normal noise.

    ``y`` has shape (R, N) and is nonnegative; ``noise`` has shape
    (R, n_steps, N), row r of both belonging to replication r.  On return
    ``y`` holds the states after the n_steps steps.  Raises
    DegenerateStateError if the total of any row ever hits exactly zero at a
    step taken; its step counts from the start of this call.
    """
    reps, n_steps, n = noise.shape
    if y.shape != (reps, n):
        raise ValueError("initial state and noise shapes disagree")
    if (y < 0).any():
        raise ValueError("initial state must be nonnegative")
    sqrt_h = math.sqrt(step)
    totals = np.empty((n_steps, reps, 1))  # [k, r]: row r's total at the k-th step taken
    diff = np.empty((reps, n))  # scratch for the diffusion term
    for k in range(n_steps):
        s = totals[k]
        np.add.reduce(y, axis=1, keepdims=True, out=s)
        # in place, the one-row step max(y + drift + diff * noise, 0) with
        # drift = (eta / 2N) S h and diff = sqrt(y S / N) sqrt(h), every
        # operation in the same order; y >= 0, as the start is and each step
        # clips
        np.multiply(y, s / n, out=diff)
        np.sqrt(diff, out=diff)
        diff *= sqrt_h
        diff *= noise[:, k]
        y += (eta / (2.0 * n)) * s * step
        y += diff
        np.maximum(y, 0.0, out=y)
    # checked once per call: a zero total is absorbing (every position is 0
    # and stays 0), so the steps taken past it change nothing
    if not totals.all():
        raise DegenerateStateError(int(np.argmax((totals == 0.0).any(axis=(1, 2)))))


def float_range_violations(params: ModelParams, law: InitialLaw) -> list[str]:
    """One message if the expected total N m1 e^{eta T / 2} of the system comes
    within a factor e^10 of the largest float, else none."""
    m1, _ = moments(law)
    if 0.5 * params.eta * params.horizon + math.log(max(params.n_particles * m1, 1.0)) > _LOG_FLOAT_MAX - 10:
        return ["expected total grows past float range over this horizon; shrink horizon or eta"]
    return []


def _checked_nodes(nodes, n_steps: int) -> np.ndarray:
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or nodes.size == 0 or not np.issubdtype(nodes.dtype, np.integer):
        raise ValueError("nodes must be a nonempty 1-D array of step indices")
    if nodes[0] < 0 or nodes[-1] > n_steps or np.any(np.diff(nodes) <= 0):
        raise ValueError(f"nodes must increase strictly within [0, {n_steps}]")
    return nodes


def simulate_replications(
    params: ModelParams,
    law: InitialLaw,
    dt: float,
    rngs: list[np.random.Generator],
    nodes,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one replication per generator, all stepped as one (R, N) state.

    The step grid is uniform with step_count(T, dt) steps, so the actual step
    is the closest divisor-step to the requested dt and the grid ends exactly
    at the horizon.  ``nodes`` lists the step indices to keep, strictly
    increasing within [0, step_count(T, dt)].  Returns the kept times and the
    kept states, shape (R, len(nodes), N): states[r, j] is row r at step
    nodes[j].  Row r is a function of rngs[r] alone, and neither the draws
    nor the kept states depend on ``nodes``.  Besides the noise block and the
    kept states, memory holds the stepped state and a few vectors of its
    size: no per-block array of states.
    """
    if not 0 < dt <= params.horizon:
        raise ValueError(f"dt must lie in (0, horizon], got {dt}")
    bad = float_range_violations(params, law)
    if bad:
        raise ConfigurationError(*bad)
    if len(rngs) == 0:
        raise ValueError("rngs must hold at least one generator")
    n_steps = step_count(params.horizon, dt)
    nodes = _checked_nodes(nodes, n_steps)
    n, reps = params.n_particles, len(rngs)
    h = params.horizon / n_steps
    # one noise buffer for every block: a fresh 2 MB array per block would be
    # handed back to the system on release and faulted in again.  Each row's
    # block is contiguous, as Generator.standard_normal(out=) requires
    noise = np.empty((reps, min(max(_NOISE_BUDGET // (reps * n), 1), n_steps), n))
    kept = np.empty((reps, len(nodes), n))  # [r, j]: row r's state at step nodes[j]
    y = np.array([sample_initial(law, n, rng) for rng in rngs])
    j = int(nodes[0] == 0)  # the next node to keep: step 0 is kept only if asked for
    kept[:, :j] = y[:, None]
    for start in range(0, n_steps, noise.shape[1]):
        block = noise[:, : n_steps - start]
        for rng, row in zip(rngs, block):
            rng.standard_normal(out=row)
        # step y in place to each node inside the block, then to its end
        stop, at = start + block.shape[1], start
        for to in [*nodes[(start < nodes) & (nodes < stop)], stop]:
            try:
                euler_full_truncation(params.eta, y, h, block[:, at - start : to - start])
            except DegenerateStateError as exc:
                raise DegenerateStateError(at + exc.step) from None
            at = to
            if j < len(nodes) and nodes[j] == at:
                kept[:, j] = y
                j += 1
    return np.linspace(0.0, params.horizon, n_steps + 1)[nodes], kept


def simulate_system(
    params: ModelParams, law: InitialLaw, dt: float, rng: np.random.Generator, nodes
) -> tuple[np.ndarray, np.ndarray]:
    """The one-row call of simulate_replications: the kept times and that row's
    kept states, shape (len(nodes), N).  No experiment calls it; it stays
    because perfbench/tracing.py looks the name up in vsmhl.experiments."""
    times, states = simulate_replications(params, law, dt, [rng], nodes)
    return times, states[0]
