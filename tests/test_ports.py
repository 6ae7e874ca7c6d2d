"""The scipy routines vsmhl carries its own copy of, checked against scipy with ==.

Importing vsmhl loads only scipy.special and scipy.linalg.lapack; the other
scipy subpackages it used cost about 0.6 s of start-up per process.  Each
copy must give scipy's result to the bit, so every output stays the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.stats import gamma as gamma_dist

from vsmhl import GammaLaw, Measure1D

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("shape, scale", [(2.0, 0.5), (0.7, 2.0), (1.0, 1.0), (35.5, 0.01)])
def test_gamma_law_equals_scipy_stats(shape, scale):
    law = GammaLaw(shape, scale)
    for q in (1.0 - 1e-15, 1.0 - 1e-12, 0.5, 1e-9):
        assert law.ppf(q) == float(gamma_dist.ppf(q, shape, scale=scale))
    x = np.linspace(0.0, law.ppf(1.0 - 1e-12), 4096)
    x = np.concatenate([x, np.random.default_rng(3).exponential(shape * scale, 1000)])
    assert np.array_equal(law.pdf(x), gamma_dist.pdf(x, shape, scale=scale))
    assert np.array_equal(law.cdf(x), gamma_dist.cdf(x, shape, scale=scale))


def test_from_grid_equals_cumulative_trapezoid():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4096):
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        vals = rng.uniform(0.5, 1.5, n)
        vals /= np.trapezoid(vals, x)
        m = Measure1D.from_grid(x, vals)
        cum = np.concatenate([[0.0], cumulative_trapezoid(m.w, x)])  # m.w: vals normalized
        cum /= cum[-1]
        cum[-1] = 1.0
        assert np.array_equal(m._cum, cum)


def test_import_loads_only_light_scipy_subpackages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, vsmhl.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    modules = json.loads(out)
    heavy = ("scipy.stats", "scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse")
    assert [m for m in modules if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []
    assert "scipy.special" in modules and "scipy.linalg.lapack" in modules


def test_point_mass_pde_check_loads_no_heavy_scipy_subpackage():
    # the analytic path's Chernoff range takes the best of a fixed grid of s,
    # and its panels are summed in numpy: no optimizer and no integrator
    script = (
        "import json, sys\n"
        "from vsmhl import ExperimentConfig, ModelParams, PointMass, SolverGrid, run_experiment\n"
        "cfg = ExperimentConfig('pde_check', ModelParams(2.0, 1, 1.0), PointMass(1.0), grid=SolverGrid(30.0, 300, 16))\n"
        "run_experiment(cfg)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    heavy = ("scipy.stats", "scipy.optimize", "scipy.integrate")
    assert [m for m in json.loads(out) if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []
