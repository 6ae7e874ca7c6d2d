"""Named, reproducible experiments wiring the other modules together.

Each experiment takes one JSON-serializable config, fans replications out
over a worker pool keyed by (N, replication) so results never depend on
scheduling, and emits a CSV table plus a JSON sidecar holding the resolved
config, package version, seed and a pass/fail summary.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.stats import gamma as gamma_dist

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
from .particles import simulate_system, step_count
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
            ll = LimitLaw.from_law(self.params.eta, self.law)
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
    failing task's key, (N, replication) or (replication,)."""

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


def _collect(fn, argtuples: list[tuple], threads: int) -> list:
    rows: list = []
    try:
        for row in _map_tasks(fn, argtuples, threads):
            rows.append(row)
    except Exception as exc:
        # serial runs and pool.map both yield in task order, so the task after
        # the last completed row is the one that failed
        raise ExperimentFailure(exc, rows, argtuples[len(rows)][1:]) from exc
    return rows


def _analytic_times(horizon: float) -> np.ndarray:
    """Time nodes for analytic measure paths: geometric near 0 (where the
    density sharpens into the initial law), uniform after, with horizon/2 and
    horizon as exact nodes."""
    early = np.geomspace(1e-4 * horizon, 0.1 * horizon, 25)
    mid = np.linspace(0.1 * horizon, 0.5 * horizon, 33)[1:]
    late = np.linspace(0.5 * horizon, horizon, 41)[1:]
    return np.concatenate([[0.0], early, mid, late])


def _law_measure(law: InitialLaw, n_nodes: int = 4096) -> Measure1D:
    """The initial law itself as a comparable measure (time-zero snapshot)."""
    if isinstance(law, PointMass):
        return Measure1D.from_atoms([law.x0], [1.0])
    if isinstance(law, DiscreteAtoms):
        return Measure1D.from_atoms(law.locations(), law.weights())
    if isinstance(law, GammaLaw):
        hi = float(gamma_dist.ppf(1.0 - 1e-12, law.shape, scale=law.scale))
        x = np.linspace(0.0, hi, n_nodes)
        return Measure1D.from_grid(x, gamma_dist.pdf(x, law.shape, scale=law.scale))
    x = np.linspace(law.a, law.b, n_nodes)
    return Measure1D.from_grid(x, np.full(n_nodes, 1.0 / (law.b - law.a)))


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


def _convergence_task(cfg: ExperimentConfig, n: int, rep: int) -> tuple[int, int, float]:
    params = ModelParams(cfg.params.eta, n, cfg.params.horizon)
    nodes = _snapshot_indices(step_count(cfg.params.horizon, cfg.dt))
    paths = simulate_system(params, cfg.law, cfg.dt, split_rng(cfg.seed, n, rep), nodes)
    times = tuple(float(t) for t in paths.time_grid)
    ll = LimitLaw.from_law(cfg.params.eta, cfg.law)
    analytic = _analytic_path(ll, times)
    emp = MeasurePath(paths.time_grid, tuple(empirical(col) for col in paths.positions.T))
    return n, rep, sup_distance(emp, analytic, cfg.metric)


def _strictly_decreasing(vals: list[float]) -> bool:
    return all(b < a for a, b in zip(vals, vals[1:]))


def run_convergence(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "convergence")
    tasks = [(cfg, n, rep) for n in cfg.n_values for rep in range(cfg.replications)]
    rows = _collect(_convergence_task, tasks, threads)
    medians = {
        n: float(np.median([v for rn, _, v in rows if rn == n])) for n in cfg.n_values
    }
    med_list = [medians[n] for n in cfg.n_values]
    passed = _strictly_decreasing(med_list)
    return ExperimentResult(
        experiment="convergence",
        columns=["N", "replication", "metric", "value"],
        rows=[(n, rep, cfg.metric, v) for n, rep, v in rows],
        summary={"medians": {str(n): medians[n] for n in cfg.n_values}},
        passed=passed,
    )


def run_pde_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "pde_check")
    grid = cfg.grid
    traj = solve(cfg.params, cfg.law, grid)
    ll = LimitLaw.from_law(cfg.params.eta, cfg.law)
    moll = mollified_start_law(cfg.law, grid)
    ll_moll = LimitLaw.from_law(cfg.params.eta, moll)
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
    ll = LimitLaw.from_law(cfg.params.eta, cfg.law)
    crit = KS_CRITICAL_1PCT / math.sqrt(SAMPLER_N)
    rows = []
    all_ok = True
    for j, t in enumerate((0.5 * cfg.params.horizon, cfg.params.horizon)):
        draws = np.sort(sample(ll, t, SAMPLER_N, split_rng(cfg.seed, j)))
        f = cdf(ll, t, draws)
        i = np.arange(1, SAMPLER_N + 1)
        ks = max(float(np.max(i / SAMPLER_N - f)), float(np.max(f - (i - 1) / SAMPLER_N)))
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


def _moment_task(cfg: ExperimentConfig, rep: int) -> tuple[float, float]:
    n_steps = step_count(cfg.params.horizon, cfg.dt)
    nodes = np.unique([0, n_steps // 2, n_steps])  # with one step the middle is step 0
    paths = simulate_system(cfg.params, cfg.law, cfg.dt, split_rng(cfg.seed, rep), nodes)
    return float(paths.totals[-2]), float(paths.totals[-1])


def run_moment_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "moment_check")
    n = cfg.params.n_particles
    m1, m2 = moments(cfg.law)
    es0 = n * m1
    es0_sq = n * m2 + n * (n - 1) * m1 * m1
    tasks = [(cfg, rep) for rep in range(cfg.replications)]
    pairs = _collect(_moment_task, tasks, threads)
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


def _rank_task(cfg: ExperimentConfig, n: int, rep: int) -> tuple[int, int, float]:
    params = ModelParams(cfg.params.eta, n, cfg.params.horizon)
    nodes = [0, step_count(cfg.params.horizon, cfg.dt)]
    paths = simulate_system(params, cfg.law, cfg.dt, split_rng(cfg.seed, n, rep), nodes)
    ll = LimitLaw.from_law(cfg.params.eta, cfg.law)
    table = ranked_vs_limit(paths.positions[:, -1], ll, cfg.params.horizon)
    lo = max(int(math.ceil(RANK_KEEP[0] * n)), 1)
    hi = max(int(math.floor(RANK_KEEP[1] * n)), lo)
    gaps = table[lo - 1 : hi, 3]
    return n, rep, float(np.mean(gaps))


def run_rank_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    _require_valid(cfg, "rank_check")
    tasks = [(cfg, n, rep) for n in cfg.n_values for rep in range(cfg.replications)]
    rows = _collect(_rank_task, tasks, threads)
    medians = {
        n: float(np.median([v for rn, _, v in rows if rn == n])) for n in cfg.n_values
    }
    passed = _strictly_decreasing([medians[n] for n in cfg.n_values])
    return ExperimentResult(
        experiment="rank_check",
        columns=["N", "replication", "mean_gap"],
        rows=rows,
        summary={"medians": {str(n): medians[n] for n in cfg.n_values}},
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
