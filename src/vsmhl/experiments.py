"""Named, reproducible experiments wiring the other modules together.

Each experiment takes one JSON-serializable config, fans replications out
over a worker pool keyed by (N, replication) so results never depend on
scheduling, and emits a CSV table plus a JSON sidecar holding the resolved
config, package version, seed and a pass/fail summary.  The config says what
to compute and run_experiment's out_dir says where the files go, so one
config writes the same bytes into any directory.  The replications of
one N run in chunks, each chunk simulated as one (R, N) state; every
replication keeps its own random stream, so the rows do not depend on how
the replications are chunked.  pde_check has no replications: at two threads or
more it runs its solver side in one forked worker beside its analytic side.

An ExperimentConfig checks itself when it is built, after its params, law
and grid have checked themselves, and raises ConfigurationError listing
every violation it finds.  A config bad in several of these objects reports
the first one built (params, law, grid, then the config itself).  A config
runs through run_experiment alone, which dispatches on cfg.experiment.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import NU_MAX
from .errors import ConfigurationError, ValidationError
from .limit import GRID_NODES, LimitLaw, cdf, density, density_grid, sample, time_change
from .measures import Measure1D, MeasurePath, _sorted_unique, empirical, ranked_vs_limit, sup_distance
from .model import (
    DiscreteAtoms,
    GammaLaw,
    InitialLaw,
    ModelParams,
    UniformLaw,
    law_from_dict,
    law_to_dict,
    moments,
    reject_unknown_keys,
    split_rng,
)
from .model import _floats, _is_integer
# simulate_system is not called here; perfbench/tracing.py wraps this name
from .particles import (  # noqa: F401
    float_range_violations,
    simulate_replications,
    simulate_system,
    step_count,
)
from .pde import (
    DensityTrajectory,
    SolverGrid,
    _gtsv,
    mollified_start_law,
    quadrature_path,
    solve,
    test_function_bank,
    truncation_violations,
    weak_residual,
)
from .special import gamma_range_violations

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "EXPERIMENT_KINDS",
    "run_experiment",
    "write_results",
]

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
# the experiments that step particles by dt; the others never read it
_STEPPED = ("convergence", "rank_check", "moment_check")
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
    metric: str = "wasserstein1"

    def __post_init__(self):
        out = []
        if self.experiment not in EXPERIMENT_KINDS:
            out.append(f"unknown experiment {self.experiment!r}")
        bad_dt = _floats(self, "dt")
        out += bad_dt
        if not bad_dt and self.experiment in _STEPPED and not 0 < self.dt <= self.params.horizon:
            out.append("dt must lie in (0, horizon]")
        if not _is_integer(self.replications):
            out.append(f"replications must be an integer, got {self.replications!r}")
        elif self.replications < 1:
            out.append("replications must be at least 1")
        elif self.experiment == "moment_check" and self.replications < 2:
            out.append("moment_check needs at least 2 replications: a standard error needs two")
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            out.append(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.metric not in ("levy", "wasserstein1"):
            out.append(f"unknown metric {self.metric!r}")
        ns = self.n_values
        n_max = self.params.n_particles  # the run's largest N, unless n_values sets it
        if not (isinstance(ns, (list, tuple)) and all(_is_integer(n) for n in ns)):
            out.append(f"n_values must be integers, got {list(ns) if isinstance(ns, tuple) else ns!r}")
        else:
            object.__setattr__(self, "n_values", tuple(ns))
            if self.experiment in ("convergence", "rank_check"):
                if len(ns) == 0:
                    out.append(f"{self.experiment} needs a nonempty n_values list")
                elif ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
                    out.append("n_values must be strictly increasing positive integers")
                else:
                    n_max = ns[-1]
        if self.experiment == "pde_check" and self.grid is None:
            out.append("pde_check needs a grid")
        too_large = float_range_violations(replace(self.params, n_particles=n_max), self.law)
        out += too_large
        # moment_check is the only experiment that never reads the limit law
        if not too_large and self.experiment != "moment_check":
            out += self._limit_law_violations()
        if out:
            raise ConfigurationError(*out)

    def _limit_law_violations(self) -> list[str]:
        # import, before any work or fork, each lazily loaded module the run
        # reads and no other: an atomic law's kernel, log-sum-exp and
        # mollifier and a gamma law's special functions are vsmhl's own, and
        # the solver's dgtsv is numpy's OpenBLAS's, so they need no scipy
        # subpackage
        pde_check = self.experiment == "pde_check"
        if pde_check:
            _gtsv()  # or scipy.linalg's, imported, on a numpy that lacks it
        if isinstance(self.law, UniformLaw):
            import scipy.stats  # noqa: F401  (ncx2)
        elif not pde_check:  # the experiments that draw
            import numpy.random  # noqa: F401  (split_rng's generators)

        out = []
        eta = self.params.eta
        if isinstance(self.law, GammaLaw):
            out += gamma_range_violations(self.law.shape, eta)
        # pde_check reads the Bessel kernel for every law, through the solver's
        # mollified start (an atomic law)
        kernel = self.experiment == "pde_check" or isinstance(self.law, DiscreteAtoms)
        if kernel and eta - 1.0 > NU_MAX:
            out.append(
                f"eta = {eta} exceeds {NU_MAX + 1:g}: the limit law's Bessel kernel has order "
                f"eta - 1, verified up to {NU_MAX:g}"
            )
        if isinstance(self.law, UniformLaw):
            spread = time_change(self.limit_law, self.params.horizon) / (self.law.b - self.law.a)
            if spread > UNIFORM_SPREAD_MAX:
                out.append(
                    f"uniform law too narrow for the horizon: J(T)/(b - a) = {spread:.3e} "
                    f"exceeds {UNIFORM_SPREAD_MAX:.0e} (1e-6 relative density error)"
                )
        return out

    @cached_property
    def limit_law(self) -> LimitLaw:
        return LimitLaw(self.params.eta, self.law)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "params": asdict(self.params),
            "law": law_to_dict(self.law),
            "dt": self.dt,
            "n_values": list(self.n_values),
            "replications": self.replications,
            "seed": self.seed,
            "metric": self.metric,
        }
        if self.grid is not None:
            out["grid"] = asdict(self.grid)
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentConfig":
        """The config a JSON object describes.  A spec or section that is not
        an object, unknown keys and a missing key raise ValidationError; every
        value is checked by the object it builds."""

        def section(key: str, kind) -> list:
            """The fields of kind, in order, read from the JSON object spec[key]."""
            reject_unknown_keys(spec[key], [f.name for f in fields(kind)], key)
            return [spec[key][f.name] for f in fields(kind)]

        reject_unknown_keys(spec, [f.name for f in fields(cls)], "config")
        try:
            params = ModelParams(*section("params", ModelParams))
            law = law_from_dict(spec["law"])
            grid = None if spec.get("grid") is None else SolverGrid(*section("grid", SolverGrid))
            rest = {k: v for k, v in spec.items() if k not in ("experiment", "params", "law", "grid")}
            return cls(spec["experiment"], params, law, grid=grid, **rest)
        except KeyError as exc:
            raise ValidationError(f"malformed experiment config: {exc}") from None


@dataclass
class ExperimentResult:
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


def _law_measure(law: InitialLaw) -> Measure1D:
    """The initial law itself as a comparable measure (time-zero snapshot)."""
    if isinstance(law, DiscreteAtoms):
        return Measure1D.from_atoms(law.locations(), law.weights())
    if isinstance(law, GammaLaw):
        # the node CDF is law.cdf's, not a trapezoid of the pdf, which is
        # infinite at 0 for a shape below 1
        x = np.linspace(0.0, law.ppf(1.0 - 1e-12), GRID_NODES)
        return Measure1D(Measure1D.GRID, x, law.cdf(x) / law.cdf(x[-1]))
    x = np.linspace(law.a, law.b, GRID_NODES)
    return Measure1D.from_grid(x, np.full(GRID_NODES, 1.0 / (law.b - law.a)))


@lru_cache(maxsize=8)
def _analytic_path(cfg: ExperimentConfig) -> MeasurePath:
    n_steps = step_count(cfg.params.horizon, cfg.dt)
    times = np.linspace(0.0, cfg.params.horizon, n_steps + 1)[_snapshot_indices(n_steps)]
    measures = []
    for t in times.tolist():
        if t == 0.0:
            measures.append(_law_measure(cfg.law))
        else:
            measures.append(Measure1D.from_grid(*density_grid(cfg.limit_law, t)))
    return MeasurePath(times, tuple(measures))


def _snapshot_indices(n_steps: int) -> np.ndarray:
    """SNAPSHOT_COUNT steps evenly spaced over [0, n_steps], rounded, with the
    repeats of a short run dropped."""
    return _sorted_unique(np.round(np.linspace(0, n_steps, SNAPSHOT_COUNT)).astype(int))


def _median(values: list[float]) -> float:
    """np.median of a nonempty list, equal to it bit for bit (NaN if any value
    is NaN), without the numpy.ma lookup np.median makes."""
    v = np.sort(values)  # NaN sorts last
    if np.isnan(v[-1]):
        return math.nan
    mid = len(v) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


def _simulate(cfg: ExperimentConfig, n: int, nodes, keys: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The n-particle system of cfg kept at the given step nodes, one
    replication per stream key, replication i drawn from split_rng(cfg.seed, *keys[i]):
    the kept times and the (len(keys), len(nodes), n) kept states."""
    params = ModelParams(cfg.params.eta, n, cfg.params.horizon)
    rngs = [split_rng(cfg.seed, *key) for key in keys]
    return simulate_replications(params, cfg.law, cfg.dt, rngs, nodes)


def _over_n_values(cfg: ExperimentConfig, task, threads: int) -> tuple[list, dict, bool]:
    """Run task(cfg, n, keys) over every N's (n, rep) keys; return its (n, rep, value)
    rows, their median per N keyed by str(N), and whether the medians strictly fall."""
    groups = [(n, [(n, rep) for rep in range(cfg.replications)]) for n in cfg.n_values]
    rows = _collect(task, cfg, groups, threads)
    medians = [_median([v for rn, _, v in rows if rn == n]) for n in cfg.n_values]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    return rows, dict(zip(map(str, cfg.n_values), medians)), decreasing


def _convergence_task(cfg: ExperimentConfig, n: int, keys: list[tuple]) -> list[tuple[int, int, float]]:
    nodes = _snapshot_indices(step_count(cfg.params.horizon, cfg.dt))
    times, states = _simulate(cfg, n, nodes, keys)
    analytic = _analytic_path(cfg)
    rows = []
    for (_, rep), snapshots in zip(keys, states):
        emp = MeasurePath(times, tuple(empirical(y) for y in snapshots))
        rows.append((n, rep, sup_distance(emp, analytic, cfg.metric)))
    return rows


def _run_convergence(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    rows, medians, passed = _over_n_values(cfg, _convergence_task, threads)
    return ExperimentResult(
        columns=["N", "replication", "metric", "value"],
        rows=[(n, rep, cfg.metric, v) for n, rep, v in rows],
        summary={"medians": medians},
        passed=passed,
    )


def _solver_side(cfg: ExperimentConfig) -> tuple[DensityTrajectory, np.ndarray]:
    """pde_check's solver side: the solve, and the weak residuals of its path."""
    traj = solve(cfg.params, cfg.law, cfg.grid)
    return traj, weak_residual(traj.measure_path(), test_function_bank(), cfg.params.eta)


def _run_pde_check(cfg: ExperimentConfig, threads: int, solver, analytic) -> ExperimentResult:
    """The solver's path against the limit law's, each computed on its own.

    run_experiment hands over the analytic path it built for its mass check,
    and solver, which returns the solver side (_solver_side): the forked
    worker's result, or the solve itself, run here.  This process first
    computes the rest of the analytic side, the exact and the mollified
    law's densities at the solver's kept level times (SolverGrid.level_time)
    and the analytic path's weak residuals; then it calls solver and
    compares.  The rows do not depend on where the solver side ran."""
    grid = cfg.grid
    ll_moll = LimitLaw(cfg.params.eta, mollified_start_law(cfg.law, grid))
    centers = grid.centers()
    t_pde = [grid.level_time(k, cfg.params.horizon) for k in grid.ends()]
    references = (("l1_vs_exact", cfg.limit_law), ("l1_vs_mollified", ll_moll))
    refs = [[(tag, density(lref, t, centers)) for tag, lref in references] for t in t_pde]
    bank = test_function_bank()
    r_analytic = weak_residual(analytic, bank, cfg.params.eta)
    traj, r_pde = solver()

    dx = grid.dx()
    rows: list[tuple] = []
    l1 = {}
    for t, m, at_t in zip(t_pde, traj.masses[1:], refs):
        for tag, ref in at_t:
            l1[tag] = float(np.abs(m / dx - ref).sum() * dx)
            rows.append(("l1", t, tag, l1[tag]))
    final_l1 = l1["l1_vs_exact"]  # at the last level
    drift = traj.max_drift
    rows.append(("mass", t_pde[-1], "max_drift", drift))

    residuals_ok = True
    for i, g in enumerate(bank):
        for j, (t_a, t_p) in enumerate(zip(analytic.ends, traj.times[1:])):
            r_a, r_p = float(r_analytic[i, j]), float(r_pde[i, j])
            rows.append(("residual_analytic", float(t_a), g.name, r_a))
            rows.append(("residual_pde", float(t_p), g.name, r_p))
            residuals_ok &= abs(r_a) <= RESIDUAL_TOL_ANALYTIC and abs(r_p) <= RESIDUAL_TOL_PDE
    passed = final_l1 <= PDE_L1_TOL and drift <= PDE_MASS_TOL and residuals_ok
    return ExperimentResult(
        columns=["check", "t", "detail", "value"],
        rows=rows,
        summary={
            "l1_final": final_l1,
            "mass_drift": drift,
            "residuals_ok": residuals_ok,
        },
        passed=passed,
    )


# the times, as fractions of the horizon, at which a run reads the limit
# law's CDF: sampler_check's KS distances and rank_check's quantiles
_CDF_FRACTIONS = {"sampler_check": (0.5, 1.0), "rank_check": (1.0,)}


def _cdf_times(cfg: ExperimentConfig) -> tuple[float, ...]:
    return tuple(f * cfg.params.horizon for f in _CDF_FRACTIONS.get(cfg.experiment, ()))


def _ks_statistic(draws: np.ndarray, cdf_of) -> float:
    """The one-sample Kolmogorov-Smirnov distance of the draws from a CDF,
    scipy.stats.kstest(draws, cdf_of).statistic without loading scipy.stats."""
    x = np.sort(draws)
    f = cdf_of(x)
    n = len(x)
    return float(np.maximum(np.max(np.arange(1.0, n + 1) / n - f), np.max(f - np.arange(0.0, n) / n)))


def _run_sampler_check(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    crit = KS_CRITICAL_1PCT / math.sqrt(SAMPLER_N)
    rows = []
    all_ok = True
    for j, t in enumerate(_cdf_times(cfg)):
        draws = sample(cfg.limit_law, t, SAMPLER_N, split_rng(cfg.seed, j))
        ks = _ks_statistic(draws, lambda y: cdf(cfg.limit_law, t, y))
        ok = ks < crit
        all_ok &= ok
        rows.append((t, SAMPLER_N, ks, crit, int(ok)))
    return ExperimentResult(
        columns=["t", "n_samples", "ks_statistic", "critical_1pct", "passed"],
        rows=rows,
        summary={"critical_1pct": crit},
        passed=bool(all_ok),
    )


def _moment_task(cfg: ExperimentConfig, n: int, keys: list[tuple]) -> list[tuple[float, float, float]]:
    n_steps = step_count(cfg.params.horizon, cfg.dt)
    # with one step the middle is step 0
    times, states = _simulate(cfg, n, [n_steps // 2, n_steps], keys)
    middle, end = states.sum(axis=-1).T
    return [(float(times[0]), float(a), float(b)) for a, b in zip(middle, end)]


def _run_moment_check(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    n = cfg.params.n_particles
    m1, m2 = moments(cfg.law)
    es0 = n * m1
    es0_sq = n * m2 + n * (n - 1) * m1 * m1
    keys = [(rep,) for rep in range(cfg.replications)]
    import numpy.random  # noqa: F401  (split_rng's generators: once here, not in each forked worker)

    # (R, 3): the middle time of the kept grid, the totals there and at T
    totals = np.array(_collect(_moment_task, cfg, [(n, keys)], threads))
    rows = []
    all_ok = True
    for col, t in ((1, float(totals[0, 0])), (2, cfg.params.horizon)):
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
        columns=["t", "moment", "estimate", "target", "std_error", "z", "passed"],
        rows=rows,
        summary={"replications": cfg.replications},
        passed=bool(all_ok),
    )


def _rank_task(cfg: ExperimentConfig, n: int, keys: list[tuple]) -> list[tuple[int, int, float]]:
    lo = max(int(math.ceil(RANK_KEEP[0] * n)), 1)
    hi = max(int(math.floor(RANK_KEEP[1] * n)), lo)
    _, states = _simulate(cfg, n, [step_count(cfg.params.horizon, cfg.dt)], keys)
    (t,) = _cdf_times(cfg)
    rows = []
    for (_, rep), (final,) in zip(keys, states):
        table = ranked_vs_limit(final, cfg.limit_law, t)
        rows.append((n, rep, float(np.mean(table[lo - 1 : hi, 3]))))
    return rows


def _run_rank_check(cfg: ExperimentConfig, threads: int) -> ExperimentResult:
    rows, medians, passed = _over_n_values(cfg, _rank_task, threads)
    return ExperimentResult(
        columns=["N", "replication", "mean_gap"],
        rows=rows,
        summary={"medians": medians},
        passed=passed,
    )


_RUNNERS = {
    "convergence": _run_convergence,
    "pde_check": _run_pde_check,
    "sampler_check": _run_sampler_check,
    "moment_check": _run_moment_check,
    "rank_check": _run_rank_check,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip text, numpy scalars included
    return str(v)


def write_results(result: ExperimentResult, cfg: ExperimentConfig, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{cfg.experiment}.csv"
    with csv_path.open("w", newline="") as fh:
        # a cell that holds a comma (pde_check's test-function names) is quoted
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(result.columns)
        writer.writerows([_format_cell(v) for v in row] for row in result.rows)
    sidecar = {
        "schema_version": 1,
        "package_version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "summary": result.summary,
        "passed": result.passed,
    }
    json_path = out / f"{cfg.experiment}_summary.json"
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return {"csv": csv_path, "summary": json_path}


def run_experiment(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentResult:
    """Run and (when out_dir is given) persist one experiment.

    Before any work, ConfigurationError refuses a threads that is not an
    integer of at least 1, a pde_check grid too short for its law
    (pde.truncation_violations) and a limit law whose mass misses 1 where
    the run reads it: in pde_check's analytic path (pde.quadrature_path),
    which the run is handed, or in convergence's (Measure1D.from_grid) or
    the CDF of sampler_check and rank_check, which the run reads from a cache.
    Only then is out_dir created, so an OSError for a directory that cannot
    be made also comes before any work.  On a mid-run failure a manifest
    with the completed rows is written before the original error propagates.

    One piece of work may start before out_dir is made: at threads >= 2,
    pde_check forks one worker right after the grid's tail check, and the
    worker runs the solver side (the solve and its weak residuals) while
    this process builds the analytic path, which the mass check reads, and
    the rest of the analytic side; at threads 1 the solver side runs after
    the analytic side, in this process.  A refusal or an OSError after the fork
    waits for the worker's solve to end and shuts the worker down before it
    propagates; a failure in the worker propagates from here with its type
    and message.  No worker, and no thread of its pool, outlives the call.
    """
    if not (_is_integer(threads) and threads >= 1):
        raise ConfigurationError(f"threads must be an integer of at least 1, got {threads!r}")
    runner = _RUNNERS[cfg.experiment]
    with ExitStack() as workers:
        if cfg.experiment == "pde_check":
            bad = truncation_violations(cfg.params, cfg.law, cfg.grid)
            if bad:
                raise ConfigurationError(*bad)
            if threads > 1:
                pool = workers.enter_context(ProcessPoolExecutor(max_workers=1))
                solver = pool.submit(_solver_side, cfg).result
            else:
                solver = partial(_solver_side, cfg)
            analytic = quadrature_path(cfg.limit_law, cfg.params.horizon)
            runner = partial(_run_pde_check, solver=solver, analytic=analytic)
        if cfg.experiment == "convergence":
            _analytic_path(cfg)
        for t in _cdf_times(cfg):
            cdf(cfg.limit_law, t, 0.0)
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        try:
            result = runner(cfg, threads=threads)
        except ExperimentFailure as failure:
            if out_dir is not None:
                manifest = {
                    "experiment": cfg.experiment,
                    "error": repr(failure.cause),
                    "completed_rows": [list(r) for r in failure.partial_rows],
                    "failed_task": list(failure.failed_task),
                }
                (Path(out_dir) / "failure_manifest.json").write_text(
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n"
                )
            raise failure.cause
    if out_dir is not None:
        write_results(result, cfg, out_dir)
    return result
