"""Benchmark workloads: one vsmhl experiment config per (workload, seed, size).

Why each workload is here, and what it predicts, is written beside its
definition.  Sizes: ``full`` is what the benchmark measures, ``tiny`` is the
smoke size the self-test runs.  ``pde_check`` with ``GammaLaw`` is left out
on purpose: at the recorded baseline it takes about 500 s and fails its
analytic weak-residual check (ROADMAP open item 3).  It can join as its own
benchmark change once the exact gamma limit law (open item 2) makes it fast.
A point-mass W1 ``convergence`` workload (N 64-1024, 20 replications) was
tried and dropped: its interpreter-bound wall time followed the shared host's
load past the 0.25 bound over ten runs (README, "Steadiness").
"""

from __future__ import annotations

# ``--seed n`` selects experiment seed BASE_SEED + n % POOL_SIZE, so every
# seed has a reference summary recorded in reference.json.  Seeds 0-9 are for
# tuning; seed 10 is held out for checking a claimed gain.
BASE_SEED = 20250809
POOL_SIZE = 11
HELD_OUT_SEED = 10

_POINT = {"type": "point_mass", "x0": 1.0}
_GAMMA = {"type": "gamma", "shape": 2.0, "scale": 0.5}


def _params(n_particles=64):
    return {"eta": 2.0, "n_particles": n_particles, "horizon": 1.0}


_PDE = {
    "experiment": "pde_check", "params": _params(), "law": _POINT,
    "grid": {"x_max": 30.0, "nx": 1200, "nt": 800},
}


WORKLOADS = {
    # Continuous-mixture limit tables (~1 s each, 8 per process and per pool
    # worker) and the Levy bisection (~17 ms per snapshot pair): open items 2
    # and 5.  At two threads each worker rebuilds the analytic path, so this
    # also prices the worker pool.  Its 18 small-N particle simulations keep
    # the loop-bound Euler regime in the per-layer numbers.  Replications are
    # cut from 20 to 6 so one 1-thread plus 2-thread cycle fits a run.
    "conv_gamma_levy": {
        "layers": ("limit", "measures"),
        "full": {
            "experiment": "convergence", "params": _params(), "law": _GAMMA, "dt": 1e-3,
            "n_values": [64, 256, 1024], "replications": 6, "metric": "levy",
        },
        "tiny": {
            "experiment": "convergence", "params": _params(), "law": _GAMMA, "dt": 1e-2,
            "n_values": [16, 256], "replications": 2, "metric": "levy",
        },
    },
    # PDE solve plus weak residuals (open item 3), and many cheap point-mass
    # limit tables (97 small-t grids) rather than a few expensive mixture
    # tables.  No particles, no pool: the experiment ignores --threads, so
    # wall_s_2t here should equal wall_s.  Its outputs do not depend on the
    # seed.  The smoke size is the full size: coarser grids (nx 600, nt 400)
    # fail the solver's weak-residual tolerance.
    "pde_point": {
        "layers": ("pde", "limit"),
        "full": _PDE,
        "tiny": _PDE,
    },
    # Particle engine in its large-N, memory-bound regime: the (steps x N)
    # noise draw, full path storage and the column-sum checks outweigh the
    # Euler loop.  A batching change aimed at the small-N loop (particle spans
    # of conv_gamma_levy) that hurts this regime shows here; a streaming change
    # shows in peak_rss_mb.
    "moments_bigN": {
        "layers": ("particles",),
        "full": {
            "experiment": "moment_check", "params": _params(16384), "law": _POINT,
            "dt": 1e-3, "replications": 8,
        },
        "tiny": {
            "experiment": "moment_check", "params": _params(1024), "law": _POINT,
            "dt": 1e-2, "replications": 8,
        },
    },
}


def pool_index(seed: int) -> int:
    return seed % POOL_SIZE


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """The experiment config the package receives for (workload, seed)."""
    spec = dict(WORKLOADS[workload][size])
    spec["seed"] = BASE_SEED + pool_index(seed)
    return spec
