"""Span recorder that wraps the public functions of each vsmhl layer.

The wrappers are installed by patching module and class attributes at run
time, so the package source stays untouched.  Each attribute is patched
where the caller looks it up (``from .limit import density_grid`` binds
``vsmhl.experiments.density_grid``, not ``vsmhl.limit.density_grid``).
Spans stay in memory as ``[name, start, end, parent, work]`` rows; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        """Return fn wrapped in a span; ``work(args, result)`` gives counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced


def _size(i):
    return lambda args, result: {"points": int(np.size(args[i]))}


def _simulate_work(args, paths):
    n, nodes = paths.positions.shape
    return {"particle_steps": n * (nodes - 1), "path_bytes": int(paths.positions.nbytes)}


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    import vsmhl.experiments as experiments
    import vsmhl.limit as limit
    import vsmhl.particles as particles
    import vsmhl.pde as pde
    from vsmhl.measures import Measure1D

    module_patches = [
        (experiments, "simulate_system", "particles.simulate", _simulate_work),
        (particles, "euler_full_truncation", "particles.euler", None),
        (particles, "sample_initial", "model.sample_initial", None),
        (limit, "log_modified_bessel_i", "bessel.log_i", _size(1)),
        (experiments, "density_grid", "limit.density_grid", None),
        (limit, "density", "limit.density", _size(2)),
        (experiments, "density", "limit.density", _size(2)),
        (experiments, "cdf", "limit.cdf", None),
        (pde, "cdf", "limit.cdf", None),
        (experiments, "sup_distance", "measures.sup_distance",
         lambda args, result: {"pairs": len(args[0].times)}),
        (experiments, "empirical", "measures.empirical", None),
        (experiments, "solve", "pde.solve", lambda args, result: {"steps": args[2].nt}),
        (experiments, "weak_residual", "pde.weak_residual", None),
        (experiments, "write_results", "experiments.write_results", None),
    ]
    for module, attr, name, work in module_patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), work))
    from_grid = Measure1D.__dict__["from_grid"].__func__
    Measure1D.from_grid = classmethod(tracer.wrap("measures.from_grid", from_grid))
    pde.DensityTrajectory.measure_path = tracer.wrap(
        "pde.measure_path", pde.DensityTrajectory.measure_path
    )
