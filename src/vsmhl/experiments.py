"""Named, reproducible experiments wiring the other modules together.

Each experiment takes one JSON-serializable config, fans replications out
over a worker pool keyed by (N, replication) so results never depend on
scheduling, and emits a CSV table plus a JSON sidecar holding the resolved
config, package version, seed and a pass/fail summary.  The replications of
one N run in chunks, each chunk simulated as one (R, N) state; every
replication keeps its own random stream, so the rows do not depend on how
the replications are chunked.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.stats import gamma as gamma_dist, kstest

from . import __version__
from .errors import ConfigurationError, ValidationError
from .limit import LimitLaw, cdf, density, density_grid, sample, time_change
from .measures import (
    Measure1D,
    MeasurePath,
    empirical,
    ranked_vs_limit,
    sup_distance,
)
from .model import (
    DiscreteAtoms,
    GammaLaw,
    InitialLaw,
    ModelParams,
    PointMass,
    UniformLaw,
    law_from_dict,
    law_to_dict,
    law_violations,
    moments,
    reject_unknown_keys,
    split_rng,
)
# simulate_system is not called here; perfbench/tracing.py wraps this name
from .particles import ParticlePaths, simulate_replications, simulate_system, step_count  # noqa: F401
from .pde import (
    SolverGrid,
    mollified_start_law,
    solve,
    test_function_bank,
    weak_residual,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "EXPERIMENT_KINDS",
    "run_experiment",
    "run_convergence",
    "run_pde_check",
    "run_sampler_check",
    "run_moment_check",
    "run_rank_check",
    "write_results",
]

EXPERIMENT_KINDS = ("convergence", "pde_check", "sampler_check", "moment_check", "rank_check")
SNAPSHOT_COUNT = 9  # measure snapshots per path, evenly spaced over [0, T]
SAMPLER_N = 100_000
KS_CRITICAL_1PCT = 1.63  # numerator of the 1% asymptotic critical value
PDE_L1_TOL = 1e-2
PDE_MASS_TOL = 1e-6
RESIDUAL_TOL_ANALYTIC = 1e-4
RESIDUAL_TOL_PDE = 5e-3
# largest J(T) / (b0 - a0) for a UniformLaw start: the difference quotient in
# limit.density loses about 1e-16 of this ratio, 1e-6 relative at the bound
UNIFORM_SPREAD_MAX = 1e10
MOMENT_Z_FIRST = 3.0
MOMENT_Z_SECOND = 4.0
RANK_KEEP = (0.1, 0.9)  # central band of ranks summarized by rank_check
# t = 0 grid of a gamma or uniform law; it stays at 4096 when pde_check's t > 0 grids use 6000
LAW_GRID_NODES = 4096
# largest R * N state simulated as one chunk (at least one replication per
# chunk); chosen by an in-process sweep over N and R recorded in CHANGES.md
STATE_BUDGET = 2**14


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: ModelParams
    law: InitialLaw
    dt: float = 1e-3
    n_values: tuple[int, ...] = ()
    replications: int = 1
    seed: int = 0
    grid: SolverGrid | None = None
    output_dir: str | None = None
    metric: str = "wasserstein1"

    def violations(self) -> list[str]:
        out = []
        if self.experiment not in EXPERIMENT_KINDS:
            out.append(f"unknown experiment {self.experiment!r}")
        model_bad = self.params.violations() + law_violations(self.law)
        out += model_bad
        if (
            not model_bad
            and isinstance(self.law, UniformLaw)
            and self.experiment != "moment_check"  # the only one that never reads the limit law
        ):
            ll = LimitLaw(self.params.eta, self.law)
            spread = time_change(ll, self.params.horizon) / (self.law.b - self.law.a)
            if spread > UNIFORM_SPREAD_MAX:
                out.append(
                    f"uniform law too narrow for the horizon: J(T)/(b - a) = {spread:.3e} "
                    f"exceeds {UNIFORM_SPREAD_MAX:.0e} (1e-6 relative density error)"
                )
        if not 0 < self.dt <= self.params.horizon:
            out.append("dt must lie in (0, horizon]")
        if self.replications < 1:
            out.append("replications must be at least 1")
        if not 0 <= self.seed < 2**64:
            out.append("seed must be a 64-bit unsigned integer")
        if self.metric not in ("levy", "wasserstein1"):
            out.append(f"unknown metric {self.metric!r}")
        if self.experiment in ("convergence", "rank_check"):
            if len(self.n_values) == 0:
                out.append(f"{self.experiment} needs a nonempty n_values list")
            elif any(n < 1 for n in self.n_values) or any(
                b <= a for a, b in zip(self.n_values, self.n_values[1:])
            ):
                out.append("n_values must be strictly increasing positive integers")
        if self.experiment == "pde_check" and self.grid is None:
            out.append("pde_check needs a grid")
        return out

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "params": {
                "eta": self.params.eta,
                "n_particles": self.params.n_particles,
                "horizon": self.params.horizon,
            },
            "law": law_to_dict(self.law),
            "dt": self.dt,
            "n_values": list(self.n_values),
            "replications": self.replications,
            "seed": self.seed,
            "metric": self.metric,
        }
        if self.grid is not None:
            out["grid"] = {"x_max": self.grid.x_max, "nx": self.grid.nx, "nt": self.grid.nt}
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentConfig":
        try:
            reject_unknown_keys(spec, [f.name for f in fields(cls)], "config")
            reject_unknown_keys(spec["params"], [f.name for f in fields(ModelParams)], "params")
            params = ModelParams(
                eta=float(spec["params"]["eta"]),
                n_particles=int(spec["params"]["n_particles"]),
                horizon=float(spec["params"]["horizon"]),
            )
            law = law_from_dict(spec["law"])
            grid = None
            if spec.get("grid") is not None:
                g = spec["grid"]
                reject_unknown_keys(g, [f.name for f in fields(SolverGrid)], "grid")
                grid = SolverGrid(x_max=float(g["x_max"]), nx=int(g["nx"]), nt=int(g["nt"]))
            return cls(
                experiment=str(spec["experiment"]),
                params=params,
                law=law,
                dt=float(spec.get("dt", 1e-3)),
                n_values=tuple(int(n) for n in spec.get("n_values", ())),
                replications=int(spec.get("replications", 1)),
                seed=int(spec.get("seed", 0)),
                grid=grid,
                output_dir=spec.get("output_dir"),
                metric=str(spec.get("metric", "wasserstein1")),
            )
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment config: {exc}") from None


@dataclass
class ExperimentResult:
    experiment: str
    columns: list[str]
    rows: list[tuple]
    summary: dict
    passed: bool


class ExperimentFailure(RuntimeError):
    """A replication failed mid-run; carries the rows completed so far and the
    failing replication's stream key, (N, replication) or (replication,)."""

    def __init__(self, cause: BaseException, partial_rows: list[tuple], failed_task: tuple):
        super().__init__(str(cause))
        self.cause = cause
        self.partial_rows = partial_rows
        self.failed_task = failed_task


def _require_valid(cfg: ExperimentConfig, kind: str) -> None:
    bad = cfg.violations()
    if bad:
        raise ConfigurationError("; ".join(bad))
    if cfg.experiment != kind:
        raise ConfigurationError(f"config is for {cfg.experiment!r}, not {kind!r}")


def _map_tasks(fn, argtuples: list[tuple], threads: int):
    # under the fork start method the pool starts all its workers at once, so
    # never ask for more than there are tasks
    workers = min(threads, len(argtuples))
    if workers <= 1:
        for args in argtuples:
            yield fn(*args)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*argtuples))


def _chunks(keys: list[tuple], n: int, threads: int) -> list[list[tuple]]:
    """Split one N's stream keys, in order, into near-equal chunks of at most
    max(1, STATE_BUDGET // n) keys, and into at least `threads` chunks while
    there are keys enough, so a small experiment still loads every worker."""
    count = min(len(keys), max(threads, -(-len(keys) // max(1, STATE_BUDGET // n))))
    bounds = [len(keys) * i // count for i in range(count + 1)]
    return [keys[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_chunk(task, cfg: ExperimentConfig, n: int, keys: list[tuple]) -> tuple[list, BaseException | None]:
    """task(cfg, n, keys)'s rows, and the error that stopped them (None if none).

    After an error the keys are rerun one at a time, so the rows before the
    failing key, that key and its error are those of an unbatched run (and
    every row, if no key fails on its own).
    """
    try:
        return task(cfg, n, keys), None
    except Exception as exc:
        if len(keys) == 1:
            return [], exc
    rows: list = []
    for key in keys:
        done, exc = _run_chunk(task, cfg, n, [key])
        rows += done
        if exc is not None:
            return rows, exc
    return rows, None


def _collect(task, cfg: ExperimentConfig, groups: list[tuple[int, list[tuple]]], threads: int) -> list:
    """Run task(cfg, n, keys), one row per stream key, over the chunks of every
    (n, keys) group; return the rows in key order.  A failure raises
    ExperimentFailure with the rows before the first failing key."""
    chunks = [(task, cfg, n, part) for n, keys in groups for part in _chunks(keys, n, threads)]
    rows: list = []
    results = _map_tasks(_run_chunk, chunks, threads)
    try:
        # serial runs and pool.map both yield in chunk order
        for *_, keys in chunks:
            try:
                done, exc = next(results)
            except Exception as broken:  # the pool itself failed
                done, exc = [], broken
            rows += done
            if exc is not None:
                raise ExperimentFailure(exc, rows, keys[len(done)]) from exc
    finally:
        results.close()
    return rows


def _analytic_times(horizon: float) -> np.ndarray:
    """Time nodes for analytic measure paths: geometric near 0 (where the
    density sharpens into the initial law), uniform after, with horizon/2 and
    horizon as exact nodes."""
    early = np.geomspace(1e-4 * horizon, 0.1 * horizon, 25)
    mid = np.linspace(0.1 * horizon, 0.5 * horizon, 33)[1:]
    late = np.linspace(0.5 * horizon, horizon, 41)[1:]
    return np.concatenate([[0.0], early, mid, late])


def _law_measure(law: InitialLaw) -> Measure1D:
    """The initial law itself as a comparable measure (time-zero snapshot)."""
    if isinstance(law, PointMass):
        return Measure1D.from_atoms([law.x0], [1.0])
    if isinstance(law, DiscreteAtoms):
        return Measure1D.from_atoms(law.locations(), law.weights())
    if isinstance(law, GammaLaw):
        hi = float(gamma_dist.ppf(1.0 - 1e-12, law.shape, scale=law.scale))
        x = np.linspace(0.0, hi, LAW_GRID_NODES)
        return Measure1D.from_grid(x, gamma_dist.pdf(x, law.shape, scale=law.scale))
    x = np.linspace(law.a, law.b, LAW_GRID_NODES)
    return Measure1D.from_grid(x, np.full(LAW_GRID_NODES, 1.0 / (law.b - law.a)))


@lru_cache(maxsize=8)
def _analytic_path(ll: LimitLaw, times: tuple[float, ...], n_nodes: int = 4096) -> MeasurePath:
    measures = []
    for t in times:
        if t == 0.0:
            measures.append(_law_measure(ll.law))
        else:
            measures.append(Measure1D.from_grid(*density_grid(ll, t, n_nodes)))
    return MeasurePath(np.array(times), tuple(measures))


def _snapshot_indices(n_steps: int) -> np.ndarray:
    idx = np.round(np.linspace(0, n_steps, SNAPSHOT_COUNT)).astype(int)
    return np.unique(idx)


def _simulate(cfg: ExperimentConfig, n: int, nodes, keys: list[tuple]) -> list[ParticlePaths]:
    """The n-particle system of cfg kept at the given step nodes, one
    replication per stream key, replication i drawn from split_rng(cfg.seed, *keys[i])."""
    params = ModelParams(cfg.params.eta, n, cfg.params.horizon)
    rngs = [split_rng(cfg.seed, *key) for key in keys]
    return simulate_replications(params, cfg.law, cfg.dt, rngs, nodes)


def _over_n_values(cfg: ExperimentConfig, kind: str, task, threads: int) -> tuple[list, dict, bool]:
    """Run task(cfg, n, keys) over every N's (n, rep) keys; return its (n, rep, value)
    rows, their median per N keyed by str(N), and whether the medians strictly fall."""
    _require_valid(cfg, kind)
    groups = [(n, [(n, rep) for rep in range(cfg.replications)]) for n in cfg.n_values]
    rows = _collect(task, cfg, groups, threads)
    medians = [float(np.median([v for rn, _, v in rows if rn == n])) for n in cfg.n_values]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    return rows, dict(zip(map(str, cfg.n_values), medians)), decreasing


def _convergence_task(cfg: ExperimentConfig, n: int, keys: list[tuple]) -> list[tuple[int, int, float]]:
    nodes = _snapshot_indices(step_count(cfg.params.horizon, cfg.dt))
    ll = LimitLaw(cfg.params.eta, cfg.law)
    rows = []
    for (_, rep), paths in zip(keys, _simulate(cfg, n, nodes, keys)):
        analytic = _analytic_path(ll, tuple(float(t) for t in paths.time_grid))
        emp = MeasurePath(paths.time_grid, tuple(empirical(col) for col in paths.positions.T))
        rows.append((n, rep, sup_distance(emp, analytic, cfg.metric)))
    return rows


def run_convergence(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    rows, medians, passed = _over_n_values(cfg, "convergence", _convergence_task, threads)
    return ExperimentResult(
        experiment="convergence",
        columns=["N", "replication", "metric", "value"],
        rows=[(n, rep, cfg.metric, v) for n, rep, v in rows],
        summary={"medians": medians},
        passed=passed,
    )


def run_pde_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "pde_check")
    grid = cfg.grid
    traj = solve(cfg.params, cfg.law, grid)
    ll = LimitLaw(cfg.params.eta, cfg.law)
    moll = mollified_start_law(cfg.law, grid)
    ll_moll = LimitLaw(cfg.params.eta, moll)
    centers = grid.centers()
    dx = grid.dx()
    t_indices = [grid.nt // 2, grid.nt]
    rows: list[tuple] = []
    l1_values = {}
    for k in t_indices:
        t = float(traj.times[k])
        for tag, lref in (("l1_vs_exact", ll), ("l1_vs_mollified", ll_moll)):
            l1 = float(np.abs(traj.values[k] - density(lref, t, centers)).sum() * dx)
            rows.append(("l1", t, tag, l1))
            l1_values[(tag, k)] = l1
    drift = float(np.abs(traj.mass() - 1.0).max())
    rows.append(("mass", float(traj.times[-1]), "max_drift", drift))

    fracs = (0.5, 1.0)
    bank = test_function_bank()
    t_analytic = [frac * cfg.params.horizon for frac in fracs]
    t_pde = [float(traj.times[int(round(frac * grid.nt))]) for frac in fracs]
    analytic = _analytic_path(ll, tuple(_analytic_times(cfg.params.horizon)), 6000)
    r_analytic = weak_residual(analytic, bank, cfg.params.eta, ll.m_lambda, t_analytic)
    r_pde = weak_residual(traj.measure_path(), bank, cfg.params.eta, ll.m_lambda, t_pde)
    residuals_ok = True
    for i, g in enumerate(bank):
        for j in range(len(fracs)):
            r_a, r_p = float(r_analytic[i, j]), float(r_pde[i, j])
            rows.append(("residual_analytic", t_analytic[j], g.name, r_a))
            rows.append(("residual_pde", t_pde[j], g.name, r_p))
            residuals_ok &= abs(r_a) <= RESIDUAL_TOL_ANALYTIC and abs(r_p) <= RESIDUAL_TOL_PDE
    final_l1 = l1_values[("l1_vs_exact", grid.nt)]
    passed = final_l1 <= PDE_L1_TOL and drift <= PDE_MASS_TOL and residuals_ok
    return ExperimentResult(
        experiment="pde_check",
        columns=["check", "t", "detail", "value"],
        rows=rows,
        summary={
            "l1_final": final_l1,
            "mass_drift": drift,
            "residuals_ok": residuals_ok,
        },
        passed=passed,
    )


def run_sampler_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "sampler_check")
    ll = LimitLaw(cfg.params.eta, cfg.law)
    crit = KS_CRITICAL_1PCT / math.sqrt(SAMPLER_N)
    rows = []
    all_ok = True
    for j, t in enumerate((0.5 * cfg.params.horizon, cfg.params.horizon)):
        draws = sample(ll, t, SAMPLER_N, split_rng(cfg.seed, j))
        ks = float(kstest(draws, lambda y: cdf(ll, t, y)).statistic)
        ok = ks < crit
        all_ok &= ok
        rows.append((t, SAMPLER_N, ks, crit, int(ok)))
    return ExperimentResult(
        experiment="sampler_check",
        columns=["t", "n_samples", "ks_statistic", "critical_1pct", "passed"],
        rows=rows,
        summary={"critical_1pct": crit},
        passed=bool(all_ok),
    )


def _moment_task(cfg: ExperimentConfig, n: int, keys: list[tuple]) -> list[tuple[float, float]]:
    n_steps = step_count(cfg.params.horizon, cfg.dt)
    nodes = np.unique([0, n_steps // 2, n_steps])  # with one step the middle is step 0
    return [(float(p.totals[-2]), float(p.totals[-1])) for p in _simulate(cfg, n, nodes, keys)]


def run_moment_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "moment_check")
    n = cfg.params.n_particles
    m1, m2 = moments(cfg.law)
    es0 = n * m1
    es0_sq = n * m2 + n * (n - 1) * m1 * m1
    keys = [(rep,) for rep in range(cfg.replications)]
    pairs = _collect(_moment_task, cfg, [(n, keys)], threads)
    totals = np.array(pairs)  # (R, 2): columns mid, final
    n_steps = step_count(cfg.params.horizon, cfg.dt)
    t_mid = (n_steps // 2) * (cfg.params.horizon / n_steps)
    rows = []
    all_ok = True
    for col, t in ((0, t_mid), (1, cfg.params.horizon)):
        s = totals[:, col]
        for moment, data, target, z_tol in (
            (1, s, es0 * math.exp(0.5 * cfg.params.eta * t), MOMENT_Z_FIRST),
            (2, s * s, es0_sq * math.exp((cfg.params.eta + 1.0 / n) * t), MOMENT_Z_SECOND),
        ):
            est = float(np.mean(data))
            se = float(np.std(data, ddof=1) / math.sqrt(len(data)))
            z = (est - target) / se if se > 0 else math.inf
            ok = abs(z) <= z_tol
            all_ok &= ok
            rows.append((t, moment, est, target, se, z, int(ok)))
    return ExperimentResult(
        experiment="moment_check",
        columns=["t", "moment", "estimate", "target", "std_error", "z", "passed"],
        rows=rows,
        summary={"replications": cfg.replications},
        passed=bool(all_ok),
    )


def _rank_task(cfg: ExperimentConfig, n: int, keys: list[tuple]) -> list[tuple[int, int, float]]:
    ll = LimitLaw(cfg.params.eta, cfg.law)
    lo = max(int(math.ceil(RANK_KEEP[0] * n)), 1)
    hi = max(int(math.floor(RANK_KEEP[1] * n)), lo)
    nodes = [0, step_count(cfg.params.horizon, cfg.dt)]
    rows = []
    for (_, rep), paths in zip(keys, _simulate(cfg, n, nodes, keys)):
        table = ranked_vs_limit(paths.positions[:, -1], ll, cfg.params.horizon)
        rows.append((n, rep, float(np.mean(table[lo - 1 : hi, 3]))))
    return rows


def run_rank_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    rows, medians, passed = _over_n_values(cfg, "rank_check", _rank_task, threads)
    return ExperimentResult(
        experiment="rank_check",
        columns=["N", "replication", "mean_gap"],
        rows=rows,
        summary={"medians": medians},
        passed=passed,
    )


_RUNNERS = {
    "convergence": run_convergence,
    "pde_check": run_pde_check,
    "sampler_check": run_sampler_check,
    "moment_check": run_moment_check,
    "rank_check": run_rank_check,
}


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip text, numpy scalars included
    return str(v)


def write_results(result: ExperimentResult, cfg: ExperimentConfig, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{result.experiment}.csv"
    lines = [",".join(result.columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in result.rows]
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "schema_version": 1,
        "package_version": __version__,
        "experiment": result.experiment,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "summary": result.summary,
        "passed": result.passed,
    }
    json_path = out / f"{result.experiment}_summary.json"
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return {"csv": csv_path, "summary": json_path}


def run_experiment(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentResult:
    """Validate, run and (when out_dir is given) persist one experiment.

    On a mid-run failure a manifest with the completed rows is written before
    the original error propagates.
    """
    bad = cfg.violations()
    if bad:
        raise ConfigurationError("; ".join(bad))
    runner = _RUNNERS[cfg.experiment]
    try:
        result = runner(cfg, threads=threads)
    except ExperimentFailure as failure:
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            manifest = {
                "experiment": cfg.experiment,
                "error": repr(failure.cause),
                "completed_rows": [list(r) for r in failure.partial_rows],
                "failed_task": list(failure.failed_task),
            }
            (out / "failure_manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
        raise failure.cause
    if out_dir is not None:
        write_results(result, cfg, out_dir)
    return result
