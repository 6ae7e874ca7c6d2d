import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import vsmhl.experiments as exp
import vsmhl.limit as limit
import vsmhl.particles as particles
import vsmhl.pde as pde
from vsmhl import (
    ConfigurationError,
    DegenerateStateError,
    DiscreteAtoms,
    ExperimentConfig,
    GammaLaw,
    Measure1D,
    ModelParams,
    PointMass,
    SolverGrid,
    UniformLaw,
    ValidationError,
    run_experiment,
)
from vsmhl.cli import main
from vsmhl.special import ETA_MAX, SHAPE_MAX, SHAPE_MIN


def small_convergence_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="convergence",
        params=ModelParams(2.0, 16, 1.0),
        law=PointMass(1.0),
        dt=0.02,
        n_values=(16, 64),
        replications=3,
        seed=99,
        metric="wasserstein1",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _atoms_spec(experiment: str) -> dict:
    return {
        "experiment": experiment,
        "params": {"eta": 2.0, "n_particles": 1, "horizon": 2e-10},
        "law": {"type": "atoms", "atoms": [[0.5, 0.3], [2.0, 0.7]]},
        "dt": 1e-10,
        "n_values": [1] if experiment == "rank_check" else [],
    }


def _convergence_spec(law: dict, horizon: float, dt: float, metric: str) -> dict:
    return {
        "experiment": "convergence",
        "params": {"eta": 2.0, "n_particles": 64, "horizon": horizon},
        "law": law,
        "dt": dt,
        "n_values": [64],
        "replications": 1,
        "metric": metric,
    }


def _uniform_pde_spec(params: tuple, ends: tuple, grid: tuple) -> dict:
    """A pde_check of a uniform law: (eta, N, T), (a, b), (x_max, nx, nt)."""
    return {
        "experiment": "pde_check",
        "params": dict(zip(("eta", "n_particles", "horizon"), params)),
        "law": dict(zip(("type", "a", "b"), ("uniform", *ends))),
        "grid": dict(zip(("x_max", "nx", "nt"), grid)),
    }


def fuzz_spec(rng: np.random.Generator) -> dict:
    """One config drawn over the range the config accepts, at tiny sizes:
    experiment, law and metric uniform; eta in 1.001-1.1 (odds 0.3), 40.5-41.5
    (0.15), else 1 + log-uniform on [1e-3, 45]; T log-uniform on [1e-4, 3];
    dt = T / (1 to 200 steps); N 1-128; 1-3 replications (2-3 for
    moment_check); 1-3 distinct sorted n_values up to 128; atom locations
    log-uniform on [1e-3, 0.1] or [0.1, 10] at even odds, 1-4 atoms with
    Dirichlet weights; gamma shape log-uniform on [0.05, 40], scale on
    [0.1, 10]; uniform a = 0 or U(0, 2), width log-uniform on [1e-3, 10]; grid
    x_max log-uniform on [1, 100], nx and nt 100-800.  The draws come in the
    order of the scratch fuzz that chose seed 20261021, so that seed's third
    config is the uniform-law pde_check it found, where ncx2 does not
    converge; its 79th is one whose limit density is not finite."""

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    def location():
        return log_uniform(1e-3, 0.1) if rng.random() < 0.5 else log_uniform(0.1, 10.0)

    steps = int(rng.integers(1, 201))
    experiment = exp.EXPERIMENT_KINDS[rng.integers(5)]
    horizon = log_uniform(1e-4, 3.0)
    u = rng.random()
    eta = rng.uniform(1.001, 1.1) if u < 0.3 else rng.uniform(40.5, 41.5) if u < 0.45 else 1.0 + log_uniform(1e-3, 45.0)
    n_particles = int(rng.integers(1, 129))
    kind = rng.integers(4)
    if kind == 0:
        law = {"type": "point_mass", "x0": location()}
    elif kind == 1:
        n_atoms = int(rng.integers(1, 5))
        locations = [location() for _ in range(n_atoms)]
        law = {"type": "atoms", "atoms": [list(a) for a in zip(locations, rng.dirichlet(np.ones(n_atoms)).tolist())]}
    elif kind == 2:
        law = {"type": "gamma", "shape": log_uniform(0.05, 40.0), "scale": log_uniform(0.1, 10.0)}
    else:
        a = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
        law = {"type": "uniform", "a": a, "b": a + log_uniform(1e-3, 10.0)}
    metric = "levy" if rng.random() < 0.5 else "wasserstein1"
    seed = int(rng.integers(2**63))
    grid = {"x_max": log_uniform(1.0, 100.0), "nx": int(rng.integers(100, 801)), "nt": int(rng.integers(100, 801))}
    n_values = sorted(rng.choice(np.arange(1, 129), int(rng.integers(1, 4)), replace=False).tolist())
    return {
        "experiment": experiment,
        "params": {"eta": eta, "n_particles": n_particles, "horizon": horizon},
        "law": law,
        "dt": horizon / steps,
        "n_values": n_values,
        "replications": int(rng.integers(2 if experiment == "moment_check" else 1, 4)),
        "seed": seed,
        "grid": grid,
        "metric": metric,
    }


_OFF_ONE = ", not 1 within 1e-08\n"  # the endings of the mass refusals
_TOO_FAR = " is too far from 1\n"


@contextmanager
def leaves_no_worker():
    """Check that the block leaves no worker process and no thread behind."""
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace the process pool by a serial fake; list each pool's max_workers."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(exp, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestConfig:
    def test_round_trip(self):
        cfg = small_convergence_cfg(grid=SolverGrid(30.0, 100, 100))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_omitted_keys_take_the_field_defaults(self):
        cfg = ExperimentConfig("sampler_check", ModelParams(2.0, 1, 1.0), PointMass(1.0))
        spec = {key: cfg.to_dict()[key] for key in ("experiment", "params", "law")}
        assert ExperimentConfig.from_dict(spec) == cfg

    def test_violations(self):
        with pytest.raises(ConfigurationError) as info:
            small_convergence_cfg(n_values=(64, 16), replications=0, metric="hausdorff")
        bad = info.value.args
        assert any("n_values" in v for v in bad)
        assert any("replications" in v for v in bad)
        assert any("metric" in v for v in bad)
        assert str(info.value) == "; ".join(bad)

    def test_pde_check_needs_grid(self):
        with pytest.raises(ConfigurationError, match="pde_check needs a grid"):
            small_convergence_cfg(experiment="pde_check", n_values=())

    @pytest.mark.parametrize(
        "section, key",
        [(None, "replicatons"), ("params", "replicatons"), ("grid", "replicatons"), ("law", "replicatons"),
         # where a run's files go is the caller's out_dir, not the config's
         (None, "output_dir")],
    )
    def test_unknown_key_rejected(self, section, key):
        spec = small_convergence_cfg(grid=SolverGrid(30.0, 100, 100)).to_dict()
        (spec if section is None else spec[section])[key] = 3
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict(spec)

    @pytest.mark.parametrize("experiment", ["convergence", "pde_check", "sampler_check", "rank_check"])
    def test_uniform_law_too_narrow_for_horizon(self, experiment):
        # J(1) = e - 1 at eta 2 and mean 1, so a width of 1e-11 puts J/(b - a) near 1.7e11
        grid = SolverGrid(30.0, 100, 100)
        with pytest.raises(ConfigurationError, match="too narrow"):
            small_convergence_cfg(experiment=experiment, law=UniformLaw(1.0, 1.0 + 1e-11), grid=grid)
        small_convergence_cfg(experiment=experiment, law=UniformLaw(0.5, 1.5), grid=grid)

    @pytest.mark.parametrize("experiment", ["convergence", "pde_check", "sampler_check", "rank_check", "moment_check"])
    @pytest.mark.parametrize(
        "law", [PointMass(1.0), DiscreteAtoms(((0.5, 0.5), (1.5, 0.5))), GammaLaw(2.0, 0.5)], ids=str
    )
    def test_bessel_order_past_verified_range(self, experiment, law):
        # the kernel's order is eta - 1, and log_modified_bessel_i stops at NU_MAX = 40;
        # a gamma limit law reads no kernel, but pde_check's mollified start does
        reads_kernel = experiment == "pde_check" or (
            experiment != "moment_check" and not isinstance(law, GammaLaw)
        )
        grid = SolverGrid(30.0, 100, 100)

        def build(eta):
            return small_convergence_cfg(experiment=experiment, law=law, params=ModelParams(eta, 16, 0.1), grid=grid)

        if reads_kernel:
            with pytest.raises(ConfigurationError, match="Bessel kernel"):
                build(41.5)
        else:
            build(41.5)
        build(41.0)

    @pytest.mark.parametrize("experiment", ["convergence", "pde_check", "sampler_check", "rank_check", "moment_check"])
    @pytest.mark.parametrize(
        "shape, eta, cause",
        [
            (SHAPE_MAX * 1.5, 2.0, "gamma shape 60 lies outside"),
            (SHAPE_MIN / 5.0, 2.0, "gamma shape 0.01 lies outside"),
            (2.0, ETA_MAX + 0.5, "eta = 50.5 lies outside (1, 50] for a gamma law"),
        ],
    )
    def test_gamma_law_past_verified_range(self, experiment, shape, eta, cause):
        # the gamma law's special functions raise ValueError outside the range
        # they were checked on; every experiment that reads the limit law
        # refuses such a law as it is built, and moment_check never reads it
        def build(law, eta):
            grid = SolverGrid(30.0, 100, 100)
            return small_convergence_cfg(experiment=experiment, law=law, params=ModelParams(eta, 16, 0.1), grid=grid)

        if experiment == "moment_check":
            build(GammaLaw(shape, 0.5), eta)
        else:
            with pytest.raises(ConfigurationError, match=re.escape(cause)):
                build(GammaLaw(shape, 0.5), eta)
        # the nearest law inside, where pde_check's mollified start stops eta at 41
        inside = min(max(shape, SHAPE_MIN), SHAPE_MAX), min(eta, 41.0 if experiment == "pde_check" else ETA_MAX)
        build(GammaLaw(inside[0], 0.5), inside[1])

    @pytest.mark.parametrize("experiment", exp.EXPERIMENT_KINDS)
    def test_dt_checked_only_where_particles_step(self, experiment):
        # the default dt 1e-3 exceeds a horizon of 1e-4, which sampler_check and
        # pde_check never read
        spec = dict(n_values=(16, 64), replications=2, grid=SolverGrid(30.0, 300, 16))
        params = ModelParams(2.0, 16, 1e-4)
        if experiment in ("sampler_check", "pde_check"):
            assert ExperimentConfig(experiment, params, PointMass(1.0), **spec).dt == 1e-3
        else:
            with pytest.raises(ConfigurationError, match=r"dt must lie in \(0, horizon\]"):
                ExperimentConfig(experiment, params, PointMass(1.0), **spec)

    def test_uniform_width_not_checked_without_limit_law(self):
        small_convergence_cfg(experiment="moment_check", law=UniformLaw(1.0, 1.0 + 1e-11))

    def test_float_fields_take_json_integers(self):
        spec = small_convergence_cfg(grid=SolverGrid(30.0, 100, 100)).to_dict()
        spec["params"] |= {"eta": 2, "horizon": 1}
        spec |= {"dt": 1, "law": {"type": "atoms", "atoms": [[1, 1]]}}
        spec["grid"]["x_max"] = 30
        cfg = ExperimentConfig.from_dict(spec)
        assert (cfg.params.eta, cfg.params.horizon, cfg.dt, cfg.grid.x_max) == (2.0, 1.0, 1.0, 30.0)
        assert all(type(v) is float for v in (cfg.params.eta, cfg.params.horizon, cfg.dt, cfg.grid.x_max))
        assert cfg.law == DiscreteAtoms(((1.0, 1.0),)) and cfg.to_dict()["law"]["atoms"] == [[1.0, 1.0]]

    def test_moment_check_needs_two_replications(self):
        with pytest.raises(ConfigurationError) as info:
            small_convergence_cfg(experiment="moment_check", n_values=(), replications=1)
        assert info.value.args == ("moment_check needs at least 2 replications: a standard error needs two",)
        small_convergence_cfg(experiment="moment_check", n_values=(), replications=2)

    def test_malformed_dict(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"experiment": "convergence"})


class TestConvergence:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = small_convergence_cfg()
        r1 = run_experiment(cfg, out_dir=tmp_path / "a", threads=1)
        run_experiment(cfg, out_dir=tmp_path / "b", threads=1)
        r3 = run_experiment(cfg, out_dir=tmp_path / "c", threads=2)
        csv_a = (tmp_path / "a" / "convergence.csv").read_bytes()
        assert csv_a == (tmp_path / "b" / "convergence.csv").read_bytes()
        assert csv_a == (tmp_path / "c" / "convergence.csv").read_bytes()
        assert r1.rows == r3.rows
        assert len(r1.rows) == 6
        sidecar = json.loads((tmp_path / "a" / "convergence_summary.json").read_text())
        assert sidecar["seed"] == 99
        assert sidecar["config"]["law"] == {"type": "point_mass", "x0": 1.0}

    @pytest.mark.parametrize("threads, workers", [(2, 2), (500, 6)])
    def test_pool_capped_at_task_count(self, recorded_pools, threads, workers):
        r = run_experiment(small_convergence_cfg(), threads=threads)  # 2 N x 3 reps
        assert recorded_pools == [workers]
        assert r.rows == run_experiment(small_convergence_cfg(), threads=1).rows

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True], ids=repr)
    def test_thread_count_not_a_positive_integer_refused(self, tmp_path, monkeypatch, recorded_pools, threads):
        # refused before any directory, pool or solve
        monkeypatch.setattr(exp, "solve", lambda *args: pytest.fail("solved with a refused thread count"))
        pde_cfg = ExperimentConfig("pde_check", ModelParams(2.0, 1, 1.0), PointMass(1.0), grid=SolverGrid(30.0, 64, 32))
        out = tmp_path / "out"
        for cfg in (small_convergence_cfg(), pde_cfg):
            with pytest.raises(ConfigurationError) as info:
                run_experiment(cfg, out_dir=out, threads=threads)
            assert info.value.args == (f"threads must be an integer of at least 1, got {threads!r}",)
        assert recorded_pools == [] and not out.exists()

    def test_gate_builds_the_analytic_path_the_tasks_read(self):
        # run_experiment builds it before any work; each of the two chunks
        # (one per N) then reads it from the cache
        exp._analytic_path.cache_clear()
        run_experiment(small_convergence_cfg())
        info = exp._analytic_path.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("experiment", ["convergence", "pde_check", "sampler_check", "rank_check"])
    def test_one_limit_law_per_run(self, monkeypatch, experiment):
        built = []
        monkeypatch.setattr(exp, "LimitLaw", lambda *args: built.append(args) or limit.LimitLaw(*args))
        law = UniformLaw(0.5, 1.5)
        cfg = small_convergence_cfg(experiment=experiment, law=law, grid=SolverGrid(40.0, 400, 16), dt=0.1)
        run_experiment(cfg)
        # pde_check also builds the limit law of its mollified start
        assert [args for args in built if args[1] == law] == [(2.0, law)]

    def test_median_equals_np_median(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4, 7, 10):
            values = list(rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n))
            assert exp._median(values) == np.median(values)
            assert np.isnan(exp._median(values[:-1] + [np.nan])) and np.isnan(np.median(values[:-1] + [np.nan]))
        assert exp._median([0.1, 0.2]) == np.median([0.1, 0.2]) == 0.15000000000000002

    def test_snapshot_indices_equal_np_unique(self):
        for n_steps in (0, 1, 3, 8, 9, 17, 100, 1001):
            idx = np.round(np.linspace(0, n_steps, exp.SNAPSHOT_COUNT)).astype(int)
            assert np.array_equal(exp._snapshot_indices(n_steps), np.unique(idx))

    def test_seed_changes_values(self, tmp_path):
        r1 = run_experiment(small_convergence_cfg(seed=1))
        r2 = run_experiment(small_convergence_cfg(seed=2))
        assert r1.rows != r2.rows

    @pytest.mark.parametrize("shape", [0.3, 0.999])
    def test_gamma_shape_below_one(self, shape):
        # the gamma pdf is infinite at 0, so the t = 0 measure reads the law's cdf
        r = run_experiment(small_convergence_cfg(law=GammaLaw(shape, 1.0), n_values=(16, 64, 256)))
        assert r.passed and len(r.rows) == 9
        law = GammaLaw(shape, 1.0)
        x = np.linspace(0.0, law.ppf(1.0 - 1e-12), limit.GRID_NODES)
        assert np.allclose(exp._law_measure(law).cdf(x), law.cdf(x), rtol=0.0, atol=1e-12)

    def test_levy_metric_variant(self):
        r = run_experiment(small_convergence_cfg(metric="levy"))
        assert all(row[3] >= 0 for row in r.rows)
        assert all(row[2] == "levy" for row in r.rows)

    @pytest.mark.parametrize(
        "experiment, replications, failed_task",
        [("convergence", 3, [64, 0]), ("rank_check", 3, [64, 0]), ("moment_check", 6, [3])],
    )
    def test_failure_manifest(self, tmp_path, monkeypatch, experiment, replications, failed_task):
        # N in (16, 64) x 3 replications, or 6 replications of one N: every
        # batch holding the fourth replication fails, after three completed rows
        cfg = small_convergence_cfg(experiment=experiment, replications=replications)
        run_experiment(cfg, out_dir=tmp_path / "whole")
        header = (tmp_path / "whole" / f"{experiment}.csv").read_text().splitlines()[0]
        real = exp.simulate_replications
        seen = []  # generator states in the order replications first arrive

        def failing(params, law, dt, rngs, nodes):
            states = [g.bit_generator.state for g in rngs]
            seen.extend(st for st in states if st not in seen)
            if len(seen) >= 4 and seen[3] in states:
                raise RuntimeError("boom")
            return real(params, law, dt, rngs, nodes)

        monkeypatch.setattr(exp, "simulate_replications", failing)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "failure_manifest.json").read_text())
        assert manifest["experiment"] == experiment
        assert "boom" in manifest["error"]
        assert len(manifest["completed_rows"]) == 3
        # each completed row of a per-N experiment is a CSV row; moment_check's
        # are the totals of one replication, which its CSV summarizes
        if experiment != "moment_check":
            assert all(len(row) == len(header.split(",")) for row in manifest["completed_rows"])
        assert manifest["failed_task"] == failed_task

    def test_degenerate_row_mid_chunk_matches_unbatched_run(self, tmp_path, recorded_pools):
        # one particle, four unit steps, seed 35: replication 2 hits 0 at step
        # 3, replication 4 already at step 1, so the batch stops on row 4 first
        cfg = ExperimentConfig(
            "rank_check", ModelParams(2.0, 1, 4.0), PointMass(1.0), dt=1.0,
            n_values=(1,), replications=8, seed=35,
        )
        keys = [(1, rep) for rep in range(8)]
        assert exp._chunks(keys, 1, 1) == [keys]
        with pytest.raises(DegenerateStateError, match="at step 1$"):
            exp._simulate(cfg, 1, [4], keys)
        manifests, steps = [], []
        for threads in (1, 8):  # one chunk of 8 rows; 8 one-row chunks
            out = tmp_path / str(threads)
            with pytest.raises(DegenerateStateError) as info:
                run_experiment(cfg, out_dir=out, threads=threads)
            manifests.append(json.loads((out / "failure_manifest.json").read_text()))
            steps.append(info.value.step)
        assert recorded_pools == [8]
        batched, unbatched = manifests
        assert batched == unbatched
        assert batched["failed_task"] == [1, 2]
        assert [row[:2] for row in batched["completed_rows"]] == [[1, 0], [1, 1]]
        assert steps == [3, 3]

    def test_chunk_rule(self):
        def sizes(n, reps, threads):
            keys = [(n, rep) for rep in range(reps)]
            chunks = exp._chunks(keys, n, threads)
            assert [k for chunk in chunks for k in chunk] == keys
            return [len(chunk) for chunk in chunks]

        assert sizes(64, 6, 1) == [6]
        assert sizes(64, 6, 2) == [3, 3]  # at least one chunk per thread
        assert sizes(64, 2, 5) == [1, 1]  # but never an empty one
        assert exp.STATE_BUDGET // 1024 == 16
        assert sizes(1024, 20, 1) == [10, 10]  # at most 16 rows of 1024
        assert sizes(16384, 8, 1) == [1] * 8  # the moments_bigN size runs one row per chunk
        assert sizes(100_000, 2, 1) == [1, 1]

    @pytest.mark.parametrize("experiment", ["convergence", "rank_check"])
    def test_rows_independent_of_thread_count(self, experiment):
        # 5 replications of each N run as chunks 5, 2 + 3 and 1 + 2 + 2
        cfg = small_convergence_cfg(experiment=experiment, replications=5)
        rows = [run_experiment(cfg, threads=threads).rows for threads in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]
        assert len(rows[0]) == 10

    def test_tracing_patch_points(self, monkeypatch):
        # the benchmark's particles.* spans wrap two module globals:
        # experiments.simulate_system, the one-row call, and
        # particles.euler_full_truncation, which the batched engine must call
        # through the module global
        euler_calls = []
        real_euler = particles.euler_full_truncation

        def counting_euler(*args):
            euler_calls.append(args[3].shape)
            return real_euler(*args)

        kept = []
        real_simulate = exp.simulate_replications

        def recording_simulate(params, law, dt, rngs, nodes):
            result = real_simulate(params, law, dt, rngs, nodes)
            kept.append((params.n_particles, nodes, result))
            return result

        monkeypatch.setattr(particles, "euler_full_truncation", counting_euler)
        monkeypatch.setattr(exp, "simulate_replications", recording_simulate)
        n = 4096
        exp._convergence_task(small_convergence_cfg(dt=0.01), n, [(n, 0), (n, 1)])  # 100 steps
        # the engine steps each noise block in pieces that end at the
        # snapshot nodes 12, 25, 38, 50, 62, 75, 88 and at the block's end:
        # two rows take blocks of 32 steps, one row blocks of 64
        assert particles._NOISE_BUDGET // (2 * n) == 32
        widths = [12, 13, 7] + [6, 12, 12, 2] + [11, 13, 8] + [4]
        assert euler_calls == [(2, w, n) for w in widths]
        [(n_kept, nodes, (times, states))] = kept
        assert n_kept == n
        assert list(nodes) == list(exp._snapshot_indices(100)) == [0, 12, 25, 38, 50, 62, 75, 88, 100]
        assert type(states) is np.ndarray and states.shape == (2, len(nodes), n)
        euler_calls.clear()
        one_times, one = exp.simulate_system(ModelParams(2.0, n, 1.0), PointMass(1.0), 0.01, exp.split_rng(0), nodes)
        widths = [12, 13, 13, 12, 12, 2] + [11, 13, 12]
        assert euler_calls == [(1, w, n) for w in widths]
        assert type(one) is np.ndarray and one.shape == (len(nodes), n)
        assert np.array_equal(one_times, times)

    def test_tracer_installs(self):
        # perfbench/tracing.py looks up every name it patches when it installs,
        # so a rename breaks a traced benchmark run; install it in a fresh process
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
            cwd=root / "perfbench",
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestOtherRunners:
    def test_sampler_check(self):
        cfg = ExperimentConfig("sampler_check", ModelParams(2.0, 1, 1.0), PointMass(1.0), seed=5)
        r = run_experiment(cfg)
        assert r.passed
        assert [row[0] for row in r.rows] == [0.5, 1.0]

    @pytest.mark.parametrize("law", [GammaLaw(2.0, 0.5), UniformLaw(0.0, 2.0)], ids=str)
    def test_sampler_check_continuous_laws(self, law):
        cfg = ExperimentConfig("sampler_check", ModelParams(2.0, 1, 1.0), law, seed=5)
        assert run_experiment(cfg).passed

    def test_moment_check(self):
        cfg = ExperimentConfig(
            "moment_check", ModelParams(2.0, 64, 1.0), PointMass(1.0), dt=2e-3, replications=40, seed=6
        )
        r = run_experiment(cfg, threads=2)
        assert r.passed
        assert len(r.rows) == 4  # two times, two moments

    def test_moment_check_single_step_reads_the_start_as_middle(self):
        cfg = ExperimentConfig(
            "moment_check", ModelParams(2.0, 8, 1.0), PointMass(1.0), dt=1.0, replications=3, seed=6
        )
        rows = run_experiment(cfg).rows
        assert [(t, moment) for t, moment, *_ in rows] == [(0.0, 1), (0.0, 2), (1.0, 1), (1.0, 2)]
        assert rows[0][2] == 8.0  # the total at step 0 of eight unit point masses

    def test_rank_check(self):
        cfg = ExperimentConfig(
            "rank_check",
            ModelParams(2.0, 1, 1.0),
            PointMass(1.0),
            dt=2e-3,
            n_values=(32, 256),
            replications=10,
            seed=71,
        )
        r = run_experiment(cfg, threads=2)
        assert r.passed
        meds = r.summary["medians"]
        assert meds["256"] < meds["32"]

    def test_pde_check_patch_points(self, monkeypatch):
        # the benchmark's pde.*, limit.density_grid and measures.from_grid
        # spans wrap these names
        calls = {"weak_residual": 0, "density_grid": 0, "measure_path": 0}
        grid_sizes = []
        real_from_grid = Measure1D.__dict__["from_grid"].__func__

        def recording_from_grid(cls, x, values):
            grid_sizes.append(len(x))
            return real_from_grid(cls, x, values)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(exp, "weak_residual", counting("weak_residual", exp.weak_residual))
        monkeypatch.setattr(exp, "density_grid", counting("density_grid", exp.density_grid))
        monkeypatch.setattr(
            pde.DensityTrajectory,
            "measure_path",
            counting("measure_path", pde.DensityTrajectory.measure_path),
        )
        monkeypatch.setattr(Measure1D, "from_grid", classmethod(recording_from_grid))
        cfg = ExperimentConfig(
            "pde_check", ModelParams(2.0, 1, 1.0), PointMass(1.0), grid=SolverGrid(30.0, 300, 16)
        )
        run_experiment(cfg)
        assert calls == {"weak_residual": 2, "density_grid": 0, "measure_path": 1}
        # the solver path holds cell masses and the analytic path panel
        # quadratures, so no Measure1D grid measure is built
        assert grid_sizes == []

    @pytest.mark.parametrize(
        "law",
        [PointMass(1.0), DiscreteAtoms(((0.5, 0.5), (1.5, 0.5))), GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5)],
        ids=str,
    )
    def test_pde_check_builds_one_cdf(self, law):
        # the solver's tail check reads one CDF; the 39 analytic quadratures read none
        limit._panel_cdf.cache_clear()
        cfg = ExperimentConfig("pde_check", ModelParams(2.0, 1, 1.0), law, grid=SolverGrid(40.0, 400, 16))
        run_experiment(cfg)
        assert limit._panel_cdf.cache_info().misses == 1

    def test_pde_check_peak_memory(self):
        # the pde_point config from a cold CDF cache.  The analytic
        # path holds its 56,729 time-integral nodes and weights (0.9 MB); the weak
        # residual adds its generator values and their product with the
        # weights (0.9 MB) and one block's jet temporaries, budgeted as 12
        # arrays of _KERNEL_BUDGET values (1.6 MB; a bump's jet makes about
        # 10); a block of the mollified law's density holds less.  That is
        # 3.4 MB; kernel blocks of 2**16 values took the peak to 7.9 MB
        cfg = ExperimentConfig("pde_check", ModelParams(2.0, 64, 1.0), PointMass(1.0), grid=SolverGrid(30.0, 1200, 800))
        assert 12 * 8 * limit._KERNEL_BUDGET <= 1.6e6
        limit._panel_cdf.cache_clear()
        tracemalloc.start()
        try:
            r = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed
        assert peak < 4e6

    @pytest.mark.parametrize(
        "law, x_max, nx",
        [
            (PointMass(1.0), 30.0, 1200),
            (GammaLaw(2.0, 0.5), 30.0, 1200),
            (UniformLaw(0.5, 1.5), 30.0, 1200),
            (DiscreteAtoms(((0.5, 0.3), (2.0, 0.7))), 40.0, 1600),
        ],
        ids=["point", "gamma", "uniform", "atoms"],
    )
    def test_pde_check_passes_for_each_law(self, law, x_max, nx):
        # the pde_point grid's dx and nt; the atoms' tail check needs x_max 40
        cfg = ExperimentConfig("pde_check", ModelParams(2.0, 64, 1.0), law, grid=SolverGrid(x_max, nx, 800))
        r = run_experiment(cfg)
        assert r.passed and r.summary["residuals_ok"]
        worst = max(abs(v) for check, _, _, v in r.rows if check == "residual_analytic")
        assert worst <= exp.RESIDUAL_TOL_ANALYTIC == 1e-4
        # the pairings are smooth in sqrt(t), not in t, and the Gauss rule in
        # sqrt(t) keeps the time integral's error below this
        assert worst <= 1e-6

    def test_pde_check_csv_reads_four_fields_per_row(self, tmp_path):
        # the test-function names hold commas, so their cells are quoted
        cfg = ExperimentConfig("pde_check", ModelParams(2.0, 1, 1.0), PointMass(1.0), grid=SolverGrid(30.0, 300, 16))
        result = run_experiment(cfg, out_dir=tmp_path)
        with open(tmp_path / "pde_check.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == result.columns == ["check", "t", "detail", "value"]
        assert len(rows) == len(result.rows) == 25
        assert all(len(row) == 4 for row in rows)
        assert [row[2] for row in rows[5:7]] == ["gaussian(c=1.0,sigma=0.5)"] * 2
        assert [(c, float(t), d, float(v)) for c, t, d, v in rows] == result.rows

    @pytest.mark.parametrize(
        "law, x_max, nx",
        [
            (PointMass(1.0), 30.0, 300),
            (GammaLaw(2.0, 0.5), 30.0, 300),
            (UniformLaw(0.5, 1.5), 30.0, 300),
            (DiscreteAtoms(((0.5, 0.3), (2.0, 0.7))), 40.0, 400),
        ],
        ids=["point", "gamma", "uniform", "atoms"],
    )
    def test_pde_check_outputs_independent_of_thread_count(self, tmp_path, law, x_max, nx):
        # at two threads the solver side runs in a forked worker
        cfg = ExperimentConfig("pde_check", ModelParams(2.0, 1, 1.0), law, grid=SolverGrid(x_max, nx, 16))
        for threads in (1, 2):
            with leaves_no_worker():
                run_experiment(cfg, out_dir=tmp_path / str(threads), threads=threads)
        for name in ("pde_check.csv", "pde_check_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_pde_check_solver_failure_propagates_from_the_worker(self, tmp_path, monkeypatch):
        real_checked_drift = pde._checked_drift

        def planted(m, k, dx):
            if k == 5:
                raise np.linalg.LinAlgError("planted failure at step 5")
            return real_checked_drift(m, k, dx)

        monkeypatch.setattr(pde, "_checked_drift", planted)  # the forked worker inherits it
        cfg = ExperimentConfig("pde_check", ModelParams(2.0, 1, 1.0), PointMass(1.0), grid=SolverGrid(30.0, 300, 16))
        for threads in (1, 2):
            with leaves_no_worker(), pytest.raises(np.linalg.LinAlgError) as failure:
                run_experiment(cfg, out_dir=tmp_path / str(threads), threads=threads)
            assert type(failure.value) is np.linalg.LinAlgError
            assert str(failure.value) == "planted failure at step 5"

    def test_pde_check_at_a_high_kernel_order_reports(self):
        # eta 40: the kernel's order 39 needs the series up to z = 760.5; the
        # 1/z expansion's terms still grow just above z = 50
        cfg = ExperimentConfig("pde_check", ModelParams(40.0, 64, 0.1), PointMass(1.0), grid=SolverGrid(30.0, 300, 20))
        r = run_experiment(cfg)
        assert np.isfinite([row[3] for row in r.rows]).all()

    @pytest.mark.parametrize("nx, nt", [(150, 100), (64, 32)])
    def test_pde_check_coarse_grid_fails_threshold(self, tmp_path, nx, nt):
        # 64/32 under-resolves the start so far that it must report, not raise
        cfg = ExperimentConfig(
            "pde_check",
            ModelParams(2.0, 1, 1.0),
            PointMass(1.0),
            grid=SolverGrid(30.0, nx, nt),
            seed=1,
        )
        r = run_experiment(cfg, out_dir=tmp_path)
        assert not r.passed
        assert np.isfinite([row[3] for row in r.rows]).all()
        assert r.summary["l1_final"] > exp.PDE_L1_TOL
        # refinement monotonicity against a finer grid
        cfg_fine = ExperimentConfig(
            "pde_check",
            ModelParams(2.0, 1, 1.0),
            PointMass(1.0),
            grid=SolverGrid(30.0, 600, 400),
            seed=1,
        )
        r_fine = run_experiment(cfg_fine)
        assert r_fine.summary["l1_final"] < r.summary["l1_final"]


class TestCli:
    def write_cfg(self, tmp_path, spec):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "experiment": "convergence",
                "params": {"eta": 2.0, "n_particles": 16, "horizon": 1.0},
                "law": {"type": "point_mass", "x0": 1.0},
                "dt": 0.02,
                "n_values": [16, 64],
                "replications": 3,
                "seed": 99,
            },
        )
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "convergence.csv").exists()
        assert "convergence" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "experiment": "convergence",
                "params": {"eta": 1.0, "n_particles": 16, "horizon": 1.0},
                "law": {"type": "point_mass", "x0": 0.0},
                "n_values": [16],
                "seed": 1,
            },
        )
        assert main(["run", "--config", cfg]) == 2
        # params are built before the law, so only their violation is reported
        assert capsys.readouterr().err == "config error: eta must exceed 1\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_rejected(self, tmp_path, capsys, recorded_pools, threads):
        cfg = self.write_cfg(tmp_path, small_convergence_cfg().to_dict())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out), "--threads", threads]) == 2
        assert capsys.readouterr().err == f"config error: threads must be an integer of at least 1, got {threads}\n"
        assert recorded_pools == [] and not out.exists()

    @pytest.mark.parametrize(
        "overrides, messages",
        [
            ({"law": {"type": "uniform", "a": 1.0, "b": 1.0 + 1e-11}}, ["too narrow for the horizon", "J(T)/(b - a)"]),
            ({"params": {"eta": 42.0, "n_particles": 16, "horizon": 0.1}}, ["Bessel kernel", "verified up to 40"]),
            ({"law": {"type": "gamma", "shape": 60.0, "scale": 0.5}}, ["gamma shape 60 lies outside [0.05, 40]"]),
            (
                {"law": {"type": "gamma", "shape": 2.0, "scale": 0.5},
                 "params": {"eta": 51.0, "n_particles": 16, "horizon": 0.1}},
                ["eta = 51 lies outside (1, 50]", "Kummer function"],
            ),
        ],
    )
    def test_limit_law_violation_exit_code(self, tmp_path, capsys, overrides, messages):
        spec = small_convergence_cfg().to_dict() | overrides
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, spec)
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(m in err for m in messages)
        assert not out.exists()

    def test_short_pde_grid_exit_code(self, tmp_path, capsys, monkeypatch):
        # the grid's tail check comes before the output directory and the solve
        spec = {
            "experiment": "pde_check",
            "params": {"eta": 2.0, "n_particles": 1, "horizon": 1.0},
            "law": {"type": "point_mass", "x0": 1.0},
            "grid": {"x_max": 5.0, "nx": 100, "nt": 100},
        }
        monkeypatch.setattr(exp, "solve", lambda *args: pytest.fail("solved a refused grid"))
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: mass 1.088e-01 beyond x_max=5.0 at the horizon exceeds 1e-06\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message, ending, threads",
        [
            pytest.param(
                spec, message, ending, threads, id=f"{spec['experiment']}-{message}" + "-threads2" * (threads == 2)
            )
            for spec, message, ending, thread_counts in [
                (_atoms_spec("sampler_check"), "the quadrature at t = 1e-10 has total weight 0.3036", _OFF_ONE, (1,)),
                (_atoms_spec("rank_check"), "the quadrature at t = 2e-10 has total weight 1.2396", _OFF_ONE, (1,)),
                (
                    {
                        "experiment": "pde_check",
                        "params": {"eta": 1.1, "n_particles": 1, "horizon": 1.0},
                        "law": {"type": "gamma", "shape": 0.3, "scale": 1.0},
                        "grid": {"x_max": 40.0, "nx": 1200, "nt": 800},
                    },
                    "the quadrature at t = 2.8953564196339443e-06 has total weight 0.99999937",
                    _OFF_ONE,
                    (1, 2),
                ),
                (
                    _convergence_spec({"type": "gamma", "shape": 0.33, "scale": 1.2}, 0.08, 1e-3, "wasserstein1"),
                    "grid density mass 0.8352606787719359 is too far from 1",
                    _TOO_FAR,
                    (1, 2),
                ),
                (
                    _convergence_spec({"type": "atoms", "atoms": [[0.01, 0.5], [1.0, 0.5]]}, 1e-3, 1e-4, "levy"),
                    "grid density mass 1.1246087881692797 is too far from 1",
                    _TOO_FAR,
                    (1, 2),
                ),
                (
                    _convergence_spec({"type": "gamma", "shape": 0.1, "scale": 0.5}, 1.0, 1e-3, "levy"),
                    "grid density mass 0.8157499528492116 is too far from 1",
                    _TOO_FAR,
                    (1, 2),
                ),
                (
                    _uniform_pde_spec(
                        (1.001024795349005, 79, 1.4230833439308292e-4),
                        (1.799129671921631, 1.8398562414624997),
                        (7.328503623889294, 448, 597),
                    ),
                    "the limit density is not finite on the quadrature nodes",
                    " at t = 4.120333495524266e-10\n",
                    (1, 2),
                ),
                (
                    _uniform_pde_spec(
                        (1.0220200148131273, 103, 1.081093419483734e-4),
                        (0.0, 0.08074785945757425),
                        (1.0557060546344335, 755, 266),
                    ),
                    "ncx2 did not converge for UniformLaw(a=0.0, b=0.08074785945757425) at clock J = "
                    "1.2637648733251561e-11",
                    ": Series did not converge, closest value was %1%\n",
                    (1, 2),
                ),
            ]
            for threads in thread_counts
        ],
    )
    def test_quadrature_mass_off_one_exit_code(self, tmp_path, capsys, monkeypatch, spec, message, ending, threads):
        # MAX_PANELS panels are too wide for the atoms' kernel at t <= 2e-10,
        # and the first panel misses GammaLaw(0.3, 1)'s y^(eta - 1) at the
        # origin at eta 1.1: the quadrature the run reads first refuses the
        # law before any output directory (and, at one thread, before any
        # solve), and the CLI reports it as a config error.  At two threads
        # pde_check's solver worker has started: it is shut down, and none
        # is left.  convergence's 4096-node density grids miss mass 1 at a
        # steep power at the origin (gamma shapes below 1, an atom near 0):
        # its analytic path refuses the law before any particle is stepped.
        # A uniform law at t near 3e-10 is refused where scipy's ncx2 does
        # not converge or returns a non-finite density
        if threads == 1:
            monkeypatch.setattr(exp, "solve", lambda *args: pytest.fail("solved a refused config"))
        monkeypatch.setattr(exp, "simulate_replications", lambda *args: pytest.fail("simulated a refused config"))
        out = tmp_path / "out"
        args = ["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out), "--threads", str(threads)]
        with leaves_no_worker():
            assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert err.endswith(ending)
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"replications": 2.9}, "replications must be an integer"),
            ({"experiment": "moment_check", "replications": 1}, "a standard error needs two"),
        ],
    )
    def test_invalid_replications_exit_code(self, tmp_path, capsys, overrides, message):
        spec = small_convergence_cfg().to_dict() | overrides
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, horizon, n_particles, n_values",
        [
            pytest.param("rank_check", 700.0, 4, [4, 8], id="rank_check-700.0"),
            pytest.param("sampler_check", 720.0, 4, [4, 8], id="sampler_check-720.0"),
            pytest.param("pde_check", 720.0, 4, [4, 8], id="pde_check-720.0"),
            pytest.param("moment_check", 700.0, 4, [4, 8], id="moment_check-700.0"),
            # N itself past float range, where N m1 would overflow
            pytest.param("moment_check", 1.0, 10**400, [4, 8], id="moment_check-n_particles-1e400"),
            pytest.param("convergence", 1.0, 4, [4, 10**400], id="convergence-n_values-1e400"),
        ],
    )
    def test_horizon_past_float_range_exit_code(
        self, tmp_path, capsys, recorded_pools, experiment, horizon, n_particles, n_values
    ):
        # N m1 e^{eta T / 2} within e^10 of the float range: refused before any
        # work, where the pool or limit.time_change would fail mid-run
        spec = {
            "experiment": experiment,
            "params": {"eta": 2.0, "n_particles": n_particles, "horizon": horizon},
            "law": {"type": "point_mass", "x0": 1.0},
            "dt": 1.0,
            "n_values": n_values,
            "replications": 2,
            "grid": {"x_max": 30.0, "nx": 64, "nt": 32},
        }
        out = tmp_path / "out"
        args = ["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out), "--threads", "2"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "config error: expected total grows past float range over this horizon; shrink horizon or eta\n"
        )
        assert recorded_pools == [] and not out.exists()

    def test_sampler_check_below_float_range_passes(self, tmp_path):
        spec = {
            "experiment": "sampler_check",
            "params": {"eta": 2.0, "n_particles": 4, "horizon": 690.0},
            "law": {"type": "point_mass", "x0": 1.0},
            "seed": 3,
        }
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(tmp_path / "out")]) == 0

    def test_string_float_field_exit_code(self, tmp_path, capsys):
        spec = small_convergence_cfg().to_dict() | {"dt": "0.02"}
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out)]) == 2
        assert "dt must be a finite number, got '0.02'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_dir_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(exp._RUNNERS, "convergence", lambda cfg, threads: calls.append(cfg))
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = self.write_cfg(tmp_path, small_convergence_cfg().to_dict())
        assert main(["run", "--config", cfg, "--output-dir", str(blocker / "sub")]) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert calls == []

    def test_unwritable_output_dir_shuts_the_solver_worker_down(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        spec = {
            "experiment": "pde_check",
            "params": {"eta": 2.0, "n_particles": 1, "horizon": 1.0},
            "law": {"type": "point_mass", "x0": 1.0},
            "grid": {"x_max": 30.0, "nx": 300, "nt": 16},
        }
        args = ["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(blocker / "sub"), "--threads", "2"]
        with leaves_no_worker():
            assert main(args) == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("nx", 10**400), ("nt", 10**400), ("nx", 10**20), ("nx", 2**40), ("nt", 10**20)]
    )
    def test_oversized_pde_grid_exit_code(self, tmp_path, capsys, field, value):
        # an overflow, an array too large to allocate, or a solve that never
        # ends: each is refused as a config error before the output directory
        spec = {
            "experiment": "pde_check",
            "params": {"eta": 2.0, "n_particles": 1, "horizon": 1.0},
            "law": {"type": "point_mass", "x0": 1.0},
            "grid": {"x_max": 30.0, "nx": 300, "nt": 16} | {field: value},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field} must be at most {pde.GRID_MAX}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file or directory"),
            (b'{"experiment": ', "Expecting value"),
            (b"\xff\xfe{}", "codec can't decode byte 0xff"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["missing", "invalid json", "not utf-8", "deep nesting"],
    )
    def test_unreadable_config_exit_code(self, tmp_path, capsys, monkeypatch, content, message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read config: ") and message in err
        assert not (tmp_path / "vsmhl_out").exists()

    @pytest.mark.parametrize("override", [[], ["--output-dir", "out"]], ids=repr)
    @pytest.mark.parametrize("spec", [[1, 2], "convergence", 5, None], ids=repr)
    def test_non_object_config_exit_code(self, tmp_path, capsys, monkeypatch, spec, override):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), *override]) == 2
        assert capsys.readouterr().err == f"config error: config must be a JSON object, got {spec!r}\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "vsmhl_out").exists()

    @pytest.mark.parametrize(
        "section, value",
        [
            ("params", [1, 2]), ("params", "eta"), ("params", None),
            ("grid", "nx"), ("grid", [30.0, 64, 32]), ("grid", 5),
        ],
        ids=repr,
    )
    def test_non_object_section_exit_code(self, tmp_path, capsys, monkeypatch, section, value):
        calls = []
        monkeypatch.setitem(exp._RUNNERS, "pde_check", lambda cfg, threads: calls.append(cfg))
        spec = {
            "experiment": "pde_check",
            "params": {"eta": 2.0, "n_particles": 1, "horizon": 1.0},
            "law": {"type": "point_mass", "x0": 1.0},
            "grid": {"x_max": 30.0, "nx": 64, "nt": 32},
        } | {section: value}
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {section} must be a JSON object, got {value!r}\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("nx, nt", [(150, 100), (64, 32)])
    def test_assert_failure_exit_code(self, tmp_path, nx, nt):
        cfg = self.write_cfg(
            tmp_path,
            {
                "experiment": "pde_check",
                "params": {"eta": 2.0, "n_particles": 1, "horizon": 1.0},
                "law": {"type": "point_mass", "x0": 1.0},
                "grid": {"x_max": 30.0, "nx": nx, "nt": nt},
                "seed": 1,
            },
        )
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--output-dir", out, "--assert"]) == 3
        assert main(["run", "--config", cfg, "--output-dir", out]) == 0

    CONVERGENCE_SPEC = {
        "experiment": "convergence",
        "params": {"eta": 2.0, "n_particles": 16, "horizon": 1.0},
        "law": {"type": "point_mass", "x0": 1.0},
        "dt": 0.02,
        "n_values": [16],
        "replications": 2,
        "seed": 1,
    }

    def test_seed_from_config(self, tmp_path):
        for seed, name in ((1, "a"), (2, "b")):
            cfg = self.write_cfg(tmp_path, self.CONVERGENCE_SPEC | {"seed": seed})
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "convergence.csv").read_bytes()
        b = (tmp_path / "b" / "convergence.csv").read_bytes()
        assert a != b
        sidecar = json.loads((tmp_path / "b" / "convergence_summary.json").read_text())
        assert sidecar["seed"] == 2

    def test_outputs_do_not_depend_on_the_output_dir(self, tmp_path):
        cfg = self.write_cfg(tmp_path, self.CONVERGENCE_SPEC)
        for name in ("a", "nested/b"):
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / name)]) == 0
        for file in ("convergence.csv", "convergence_summary.json"):
            assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "nested" / "b" / file).read_bytes()

    def test_seeded_config_fuzz(self, tmp_path, capsys):
        # every config fuzz_spec draws exits 0, or 2 with a config error and
        # no output directory; the seed was fixed before the first run
        rng = np.random.default_rng(20261021)
        broken, refusals = [], Counter()
        for i in range(100):
            spec = fuzz_spec(rng)
            out = tmp_path / str(i)
            args = ["run", "--config", self.write_cfg(tmp_path, spec), "--output-dir", str(out)]
            try:
                with leaves_no_worker():
                    code = main([*args, "--threads", "2" if i % 5 == 4 else "1"])
            except Exception as exc:
                code = repr(exc)
            err = capsys.readouterr().err
            if code == 2 and err.startswith("config error: ") and not out.exists():
                refusals[spec["experiment"] + ": " + re.sub(r"(?<![\w.])-?\d[\w.+-]*", "#", err.splitlines()[0])] += 1
            elif code != 0:
                broken.append((i, code, err, spec))
        assert broken == [], f"refusals by cause: {dict(refusals)}"
