"""The scipy routines vsmhl carries its own copy of, checked against scipy,
and the scipy subpackages each run loads.

Each copy gives scipy's result to the bit, checked with ==, so every output
stays the same; importing the subpackage it came from would cost about 0.6 s
of start-up per process, and scipy.stats about 1 s.  Two routines are the
plain formulas instead, each held to a bound: limit._logsumexp, the
log-sum-exp over a law's atoms shifted by each row's largest term, to 200-bit
mpmath within one ulp of max(1, |exact|); and pde._ndtr, the mollifier's
normal CDF 0.5 erfc(-a sqrt(1/2)) on libm's erfc, to scipy.special.ndtr
within a measured bound.

Importing vsmhl loads scipy itself and none of its subpackages: the modules
name scipy.special by attribute, which scipy loads on first use.  Each
experiment loads, while its config is built (and checked), the modules its
run reads and no others, so the run itself, and any worker forked for it,
loads no scipy module and none of numpy's lazy ones:

* pde_check, any law: nothing for the solver's dgtsv, which is called
  through ctypes from the OpenBLAS numpy has loaded (scipy.linalg's only on
  a numpy without it), so the run maps one OpenBLAS and, at one thread,
  starts no thread.  At two threads its solver side runs in one forked
  worker, which loads nothing;
* a gamma law adds scipy.special (gammainc, hyp1f1), and in a pde_check
  scipy.linalg (roots_jacobi);
* a UniformLaw adds scipy.stats (its ncx2 CDF), which loads the other two;
* an atomic law (a point mass is one atom) adds no scipy subpackage: its
  kernel, log-sum-exp and mollifier are vsmhl's own.  convergence,
  rank_check and sampler_check of an atomic law load only numpy.random
  (split_rng's generators), and not numpy.ma; a pde_check loads neither;
* moment_check never reads the limit law and loads no scipy subpackage.
  Its run imports numpy.random itself, once, before its worker pool forks,
  so a forked worker loads no module at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

from vsmhl import (
    DiscreteAtoms,
    ExperimentConfig,
    GammaLaw,
    LimitLaw,
    Measure1D,
    ModelParams,
    PointMass,
    SolverGrid,
    UniformLaw,
    cdf,
    law_to_dict,
    sample,
    split_rng,
)
from vsmhl.experiments import SAMPLER_N, _ks_statistic
from vsmhl.limit import _logsumexp
from vsmhl.pde import _ndtr

SRC = Path(__file__).resolve().parents[1] / "src"
LAWS = [PointMass(1.0), GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5), DiscreteAtoms(((0.5, 0.3), (2.0, 0.7)))]
# what neither the import nor a moment_check loads: the limit law's two
# subpackages, scipy.stats, and scipy's array-API layer under all three (about
# 0.3 s: it pulls in numpy.f2py, numpy.testing and numpy.ma)
LAZY_SCIPY = ("scipy.special", "scipy.linalg", "scipy.stats", "scipy._lib._array_api")


def loaded(modules, packages) -> list[str]:
    """The modules that are one of the packages or inside one."""
    return [m for m in modules if m in packages or m.startswith(tuple(p + "." for p in packages))]


def run_python(script: str, *args: str) -> dict:
    """The JSON object a script prints as its last line, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


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


@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_ks_statistic_equals_kstest(law):
    ll = LimitLaw(2.0, law)
    for j, t in enumerate((0.5, 1.0)):
        draws = sample(ll, t, SAMPLER_N, split_rng(5, j))
        F = lambda y: cdf(ll, t, y)  # noqa: E731
        assert _ks_statistic(draws, F) == kstest(draws, F).statistic


def _logsumexp_cases() -> list:
    rng = np.random.default_rng(7)
    # the kernel blocks of a 57-atom and a 768-atom law: _KERNEL_BUDGET // atoms rows
    cases = [rng.normal(-30.0, 20.0, shape) for shape in ((287, 57), (21, 768))]
    cases += [rng.normal(0.0, 1.0, (40, 1)), rng.normal(700.0, 5.0, (30, 4)), rng.normal(-700.0, 5.0, (30, 4))]
    edge = rng.normal(0.0, 3.0, (9, 5))
    edge[0] = -np.inf  # every term 0: a density at y = 0
    edge[1, :3] = edge[1].max() + 1.0  # a three-way tie at the max
    edge[2] = 2.5  # all tied
    edge[3, 1] = np.nan
    edge[4, 2] = np.inf
    edge[5, :] = [709.0, 710.0, 708.0, 711.0, 712.0]
    edge[6, :] = [-745.0, -746.0, -1000.0, -744.0, -800.0]
    edge[7, :4] = -np.inf  # one finite term
    edge[8, [0, 4]] = -np.inf
    cases.append(edge)
    cases.append(np.round(rng.normal(0.0, 1.0, (200, 6)), 1))  # many ties
    return cases


def test_logsumexp_near_mpmath():
    # within one ulp of max(1, |exact|), exact by 200-bit mpmath; a row with a
    # NaN gives NaN, one with +inf gives +inf and an all -inf row -inf, as in
    # scipy.special.logsumexp
    with mpmath.workprec(200):
        for a in _logsumexp_cases():
            exact = np.array([float(mpmath.log(mpmath.fsum(mpmath.exp(v) for v in row))) for row in a.tolist()])
            ours = _logsumexp(a.copy())
            f = np.isfinite(exact)
            assert np.array_equal(ours[~f], exact[~f], equal_nan=True)
            assert np.all(np.abs(ours[f] - exact[f]) <= np.spacing(np.maximum(1.0, np.abs(exact[f]))))


def test_ndtr_near_scipy():
    # measured on [-40, 40]: at most 1 ulp of 1 apart (2.2e-16) absolutely,
    # and at most 5.8e-14 relatively (258 ulp, at -32.9) where scipy's value
    # is a normal float; both err up to 2e-13 against mpmath in that tail
    from scipy.special import ndtr

    x = np.concatenate([np.linspace(-40.0, 40.0, 160_001), [-1.0, 1.0, np.nextafter(-1.0, 0.0), 0.0]])
    ours, ref = np.array([_ndtr(v) for v in x.tolist()]), ndtr(x)
    assert np.all(np.abs(ours - ref) <= 2.3e-16)
    normal = ref >= np.finfo(float).tiny
    assert np.all(np.abs(ours - ref)[normal] <= 6e-14 * ref[normal])
    grid = ours[:160_001]
    assert np.all(np.diff(grid) >= 0.0) and grid[0] == 0.0 and grid[-1] == 1.0
    # pde._mollified_masses calls it only on (-40, 9): exactly 0 and 1 beyond
    assert all(_ndtr(v) == 0.0 for v in (-40.0, -1e3, -1e300, -np.inf))
    assert all(_ndtr(v) == 1.0 for v in (9.0, 1e3, 1e300, np.inf))


def test_import_loads_no_scipy_subpackage():
    modules = run_python("import json, sys, vsmhl.cli; print(json.dumps(sorted(sys.modules)))")
    assert "scipy" in modules
    assert loaded(modules, LAZY_SCIPY) == []
    heavy = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse")
    assert loaded(modules, heavy) == []


RUN_CLI = """
import json, sys
from vsmhl import cli
code = cli.main(["run", "--config", sys.argv[1], "--output-dir", sys.argv[2], *sys.argv[3:]])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_moment_check_loads_no_scipy_subpackage(tmp_path, law):
    spec = {
        "experiment": "moment_check",
        "params": {"eta": 2.0, "n_particles": 64, "horizon": 1.0},
        "law": law_to_dict(law),
        "dt": 0.1,
        "replications": 4,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(spec))
    out = run_python(RUN_CLI, str(tmp_path / "cfg.json"), str(tmp_path / "out"))
    assert out["exit"] == 0 and (tmp_path / "out" / "moment_check.csv").exists()
    # the benchmark reads scipy's version from sys.modules after every run
    assert "scipy" in out["modules"]
    assert loaded(out["modules"], LAZY_SCIPY) == []


RUN_IN_FORKED_WORKERS = """
import json, os, sys
import vsmhl.experiments as exp
cfg = exp.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
parent = os.getpid()
at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
worker_function = sys.argv[2]  # the function the run hands its workers
real = getattr(exp, worker_function)


def checked(*args):
    result = real(*args)
    new = sorted(set(sys.modules) - at_fork)
    assert os.getpid() != parent and new == [], new
    return result


setattr(exp, worker_function, checked)
exp.run_experiment(cfg, threads=2)
print(json.dumps({"ok": True}))
"""


@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_moment_check_workers_load_nothing(law):
    # numpy.random loads once, before the pool forks, not in every worker
    cfg = ExperimentConfig("moment_check", ModelParams(2.0, 64, 1.0), law, dt=0.1, replications=4)
    assert run_python(RUN_IN_FORKED_WORKERS, json.dumps(cfg.to_dict()), "_run_chunk") == {"ok": True}


@pytest.mark.parametrize("law", [PointMass(1.0), GammaLaw(2.0, 0.5)], ids=repr)
def test_pde_check_solver_worker_loads_nothing(law):
    # the solve and its weak residuals read only what validation loaded
    cfg = ExperimentConfig("pde_check", ModelParams(2.0, 1, 1.0), law, grid=SolverGrid(30.0, 300, 16))
    assert run_python(RUN_IN_FORKED_WORKERS, json.dumps(cfg.to_dict()), "_solver_side") == {"ok": True}


RUN_AFTER_VALIDATION = """
import json, sys
import vsmhl.experiments as exp
cfg = exp.ExperimentConfig.from_dict(json.loads(sys.argv[1]))  # checked as it is built
validated = set(sys.modules)


def new_lazy():
    # scipy's subpackages, and numpy's that load on first use (numpy.random, numpy.ma)
    return sorted(m for m in set(sys.modules) - validated if m.split(".")[0] in ("numpy", "scipy"))


real_run_chunk = exp._run_chunk


def checked_run_chunk(*args):
    # runs in each forked pool worker, or in this process when serial
    result = real_run_chunk(*args)
    assert new_lazy() == [], new_lazy()
    return result


exp._run_chunk = checked_run_chunk
exp.run_experiment(cfg, threads=int(sys.argv[2]))
print(json.dumps({"validated": sorted(validated), "run": new_lazy()}))
"""

POINT, GAMMA, UNIFORM, ATOMS = LAWS
PDE_GRID = SolverGrid(30.0, 300, 16)
ATOMS_GRID = SolverGrid(40.0, 400, 16)  # the atom at 2 reaches past 30
N_VALUES = {"dt": 0.05, "n_values": (16, 64), "replications": 2}
SPECIAL, LINALG, STATS = "scipy.special", "scipy.linalg", "scipy.stats"

PDE = ModelParams(2.0, 1, 1.0)
SMALL = ModelParams(2.0, 16, 1.0)

# (config, threads, the scipy subpackages the run reads): every pde_check law,
# and every experiment that reads the limit law of an atomic start
AFTER_VALIDATION_RUNS = [
    pytest.param(ExperimentConfig("pde_check", PDE, POINT, grid=PDE_GRID), 1, set(), id="pde_check-point"),
    pytest.param(ExperimentConfig("pde_check", PDE, ATOMS, grid=ATOMS_GRID), 1, set(), id="pde_check-atoms"),
    pytest.param(
        ExperimentConfig("pde_check", PDE, GAMMA, grid=PDE_GRID), 1, {SPECIAL, LINALG}, id="pde_check-gamma"
    ),
    pytest.param(
        ExperimentConfig("pde_check", PDE, UNIFORM, grid=PDE_GRID), 1, {SPECIAL, LINALG, STATS},
        id="pde_check-uniform",
    ),
    # the solver side runs in a forked worker; this process runs the rest
    pytest.param(
        ExperimentConfig("pde_check", PDE, POINT, grid=PDE_GRID), 2, set(), id="pde_check-point-threads2"
    ),
    pytest.param(
        ExperimentConfig("pde_check", PDE, GAMMA, grid=PDE_GRID), 2, {SPECIAL, LINALG},
        id="pde_check-gamma-threads2",
    ),
    pytest.param(
        ExperimentConfig("convergence", SMALL, GAMMA, metric="levy", **N_VALUES), 2, {SPECIAL},
        id="convergence-gamma-threads2",
    ),
    pytest.param(
        ExperimentConfig("convergence", SMALL, POINT, **N_VALUES), 2, set(), id="convergence-point-threads2"
    ),
    pytest.param(ExperimentConfig("convergence", SMALL, ATOMS, **N_VALUES), 1, set(), id="convergence-atoms"),
    pytest.param(ExperimentConfig("rank_check", SMALL, ATOMS, **N_VALUES), 1, set(), id="rank_check-atoms"),
    pytest.param(ExperimentConfig("rank_check", SMALL, POINT, **N_VALUES), 1, set(), id="rank_check-point"),
    pytest.param(ExperimentConfig("sampler_check", PDE, POINT), 1, set(), id="sampler_check-point"),
    pytest.param(ExperimentConfig("sampler_check", PDE, ATOMS), 1, set(), id="sampler_check-atoms"),
    pytest.param(ExperimentConfig("sampler_check", PDE, GAMMA), 1, {SPECIAL}, id="sampler_check-gamma"),
    # scipy.stats loads scipy.special and scipy.linalg itself
    pytest.param(
        ExperimentConfig("sampler_check", PDE, UNIFORM), 1, {SPECIAL, LINALG, STATS}, id="sampler_check-uniform"
    ),
]


@pytest.mark.parametrize("cfg, threads, reads", AFTER_VALIDATION_RUNS)
def test_run_loads_nothing_validation_did_not(cfg, threads, reads):
    # in a fresh process: in this one, earlier tests have loaded every module
    out = run_python(RUN_AFTER_VALIDATION, json.dumps(cfg.to_dict()), str(threads))
    assert out["run"] == []
    # validation loads what the run reads and no more
    assert {p for p in (SPECIAL, LINALG, STATS) if p in out["validated"]} == reads
    if STATS not in reads:
        # no optimizer, integrator or interpolator: only scipy.stats brings them
        heavy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.sparse")
        assert loaded(out["validated"], heavy) == []
    if not reads:
        # nor numpy.ma (about 10 ms), which every scipy subpackage brings
        assert loaded(out["validated"], ("numpy.ma", "scipy._lib._array_api")) == []


ATOMIC_PDE_CHECKS = [
    pytest.param(ExperimentConfig("pde_check", PDE, POINT, grid=PDE_GRID), id="point"),
    pytest.param(ExperimentConfig("pde_check", PDE, ATOMS, grid=ATOMS_GRID), id="atoms"),
]


@pytest.mark.parametrize("cfg", ATOMIC_PDE_CHECKS)
def test_atomic_pde_check_loads_no_lazy_module(tmp_path, cfg):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    out = run_python(RUN_CLI, str(tmp_path / "cfg.json"), str(tmp_path / "out"))
    assert out["exit"] == 0 and (tmp_path / "out" / "pde_check.csv").exists()
    # the benchmark reads scipy's version from sys.modules after every run,
    # though the run itself reads nothing of scipy
    assert "scipy" in out["modules"]
    assert loaded(out["modules"], (*LAZY_SCIPY, "numpy.random", "numpy.ma")) == []


def test_pde_check_at_two_threads_loads_no_lazy_module(tmp_path):
    # the benchmark's own path: a fresh CLI process whose solver side runs in
    # a forked worker
    cfg = ExperimentConfig("pde_check", PDE, POINT, grid=PDE_GRID)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    out = run_python(RUN_CLI, str(tmp_path / "cfg.json"), str(tmp_path / "out"), "--threads", "2")
    assert out["exit"] == 0 and (tmp_path / "out" / "pde_check.csv").exists()
    assert "scipy" in out["modules"]
    assert loaded(out["modules"], (*LAZY_SCIPY, "numpy.random", "numpy.ma")) == []


THREADS_AND_OPENBLAS = """
import json, os, sys
import vsmhl.experiments as exp
before = len(os.listdir("/proc/self/task"))
exp.run_experiment(exp.ExperimentConfig.from_dict(json.loads(sys.argv[1])), threads=1)
with open("/proc/self/maps") as maps:
    openblas = {line.split()[-1] for line in maps if "openblas" in line}
print(json.dumps({"started": len(os.listdir("/proc/self/task")) - before, "openblas": len(openblas)}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("cfg", ATOMIC_PDE_CHECKS)
def test_atomic_pde_check_starts_no_thread(cfg):
    # the solver's dgtsv is in the OpenBLAS numpy loaded, whose thread pool
    # started with numpy; a second OpenBLAS (scipy's) would start its own
    out = run_python(THREADS_AND_OPENBLAS, json.dumps(cfg.to_dict()))
    assert out == {"started": 0, "openblas": 1}
