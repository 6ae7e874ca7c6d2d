"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; tolerances are fixed here and mirror the package's documented
thresholds.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import vsmhl.experiments as exp
from vsmhl import (
    ExperimentConfig,
    GammaLaw,
    LimitLaw,
    Measure1D,
    ModelParams,
    PointMass,
    SolverGrid,
    cdf,
    density,
    levy,
    mean,
    run_experiment,
    sample,
    solve,
    split_rng,
    wasserstein1,
    weak_residual,
)
from vsmhl import test_function_bank as function_bank

SEED = 20250809

ETAS = (1.5, 2.0, 3.0)
LAWS = (PointMass(1.0), GammaLaw(2.0, 0.5))
TIMES = (0.5, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def matrix_cells():
    return [(eta, law, t) for eta in ETAS for law in LAWS for t in TIMES]


@pytest.fixture(scope="module")
def density_integrals():
    """Normalization and first-moment integrals of the density, per cell.

    Integrated in the substituted variable u = sqrt(y) (the density can have
    a power cusp at 0), on [0, sqrt(y_cut)] with y_cut set by the Markov
    bound mean / y_cut < 1e-10.
    """
    out = {}
    for eta, law, t in matrix_cells():
        ll = LimitLaw(eta, law)
        mu = mean(ll, t)
        u_cut = math.sqrt(mu * 1e10)
        pts = list(np.linspace(0.0, math.sqrt(mu + 60.0), 10))
        kwargs = dict(points=pts, limit=300, epsabs=1e-12, epsrel=1e-12)
        norm = quad(lambda u: density(ll, t, u * u) * 2 * u, 0.0, u_cut, **kwargs)[0]
        first = quad(lambda u: u * u * density(ll, t, u * u) * 2 * u, 0.0, u_cut, **kwargs)[0]
        out[(eta, law, t)] = (norm, first, mu)
    return out


def test_criterion_1_mean_identity(density_integrals):
    worst = max(abs(first - mu) / mu for _, first, mu in density_integrals.values())
    report(1, worst <= 1e-6, f"max relative mean error {worst:.2e} (tol 1e-6)")


def test_criterion_2_normalization(density_integrals):
    worst = max(abs(norm - 1.0) for norm, _, _ in density_integrals.values())
    report(2, worst <= 1e-8, f"max |mass - 1| {worst:.2e} (tol 1e-8)")


def test_criterion_3_sampler_vs_cdf():
    n = 10**5
    crit = 1.63 / math.sqrt(n)
    worst = 0.0
    for idx, (eta, law, t) in enumerate(matrix_cells()):
        ll = LimitLaw(eta, law)
        draws = np.sort(sample(ll, t, n, split_rng(SEED, 3, idx)))
        f = cdf(ll, t, draws)
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
        worst = max(worst, ks)
    report(3, worst < crit, f"max KS {worst:.4f} over 12 cells (1% critical {crit:.4f})")


@pytest.fixture(scope="module")
def pde_runs():
    params = ModelParams(2.0, 1, 1.0)
    law = PointMass(1.0)
    coarse = SolverGrid(30.0, 1200, 800)
    fine = SolverGrid(30.0, 2400, 1600)
    ll = LimitLaw(2.0, law)
    out = {}
    for tag, grid in (("coarse", coarse), ("fine", fine)):
        traj = solve(params, law, grid)
        l1 = float(np.abs(traj.values[-1] - density(ll, 1.0, grid.centers())).sum() * grid.dx())
        out[tag] = (traj, l1)
    return out


def test_criterion_4_pde_vs_analytic(pde_runs):
    traj, l1 = pde_runs["coarse"]
    _, l1_fine = pde_runs["fine"]
    drift = float(np.abs(traj.mass() - 1.0).max())
    ratio = l1 / l1_fine
    ok = l1 <= 1e-2 and drift <= 1e-6 and ratio >= 1.5
    report(4, ok, f"L1 {l1:.3e} (tol 1e-2), mass drift {drift:.1e} (tol 1e-6), refinement ratio {ratio:.2f} (>= 1.5)")


def test_criterion_5_weak_residuals(pde_runs):
    law = PointMass(1.0)
    ll = LimitLaw(2.0, law)
    analytic = exp._analytic_path(ll, tuple(exp._analytic_times(1.0)), 6000)
    traj, _ = pde_runs["coarse"]
    pde_path = traj.measure_path()
    worst_analytic = float(np.abs(weak_residual(analytic, function_bank(), 2.0, 1.0, TIMES)).max())
    worst_pde = float(np.abs(weak_residual(pde_path, function_bank(), 2.0, 1.0, TIMES)).max())
    ok = worst_analytic <= 1e-4 and worst_pde <= 5e-3
    report(5, ok, f"analytic residual {worst_analytic:.2e} (tol 1e-4), pde residual {worst_pde:.2e} (tol 5e-3)")


def convergence_cfg() -> ExperimentConfig:
    return ExperimentConfig(
        experiment="convergence",
        params=ModelParams(2.0, 64, 1.0),
        law=PointMass(1.0),
        dt=1e-3,
        n_values=(64, 256, 1024),
        replications=20,
        seed=SEED,
        metric="wasserstein1",
    )


@pytest.fixture(scope="module")
def convergence_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv_a")
    result = run_experiment(convergence_cfg(), out_dir=out, threads=1)
    return out, result


def test_criterion_6_particle_convergence(convergence_run):
    _, result = convergence_run
    med = {int(k): v for k, v in result.summary["medians"].items()}
    decreasing = med[64] > med[256] > med[1024]
    ratio = med[1024] / med[64]
    ok = decreasing and ratio < 0.6
    report(6, ok, f"medians {med[64]:.4f} > {med[256]:.4f} > {med[1024]:.4f}, N=1024/N=64 ratio {ratio:.2f} (< 0.6)")


def test_criterion_7_moment_identities():
    cfg = ExperimentConfig(
        experiment="moment_check",
        params=ModelParams(2.0, 256, 1.0),
        law=PointMass(1.0),
        dt=1e-3,
        replications=200,
        seed=SEED,
    )
    result = run_experiment(cfg, threads=1)
    z_first = max(abs(row[5]) for row in result.rows if row[1] == 1)
    z_second = max(abs(row[5]) for row in result.rows if row[1] == 2)
    ok = z_first <= 3.0 and z_second <= 4.0
    report(7, ok, f"first-moment |z| {z_first:.2f} (tol 3), second-moment |z| {z_second:.2f} (tol 4)")


def test_criterion_8_gbm_strong_error():
    eta, reps = 2.0, 10**4
    n_fine = 2**10
    rng = split_rng(SEED, 8)
    increments = rng.standard_normal((n_fine, reps)) * math.sqrt(1.0 / n_fine)
    exact = np.exp((eta / 2 - 0.5) + increments.sum(axis=0))
    errors = {}
    for level in range(6, 11):
        n = 2**level
        agg = increments.reshape(n, n_fine // n, reps).sum(axis=1)
        y = np.ones(reps)
        h = 1.0 / n
        for k in range(n):
            y = np.maximum(y + 0.5 * eta * y * h + y * agg[k], 0.0)
        errors[level] = float(np.abs(y - exact).mean())
    ratios = [errors[lv] / errors[lv + 1] for lv in range(6, 10)]
    ok = all(1.2 <= r <= 3.0 for r in ratios)
    report(8, ok, f"halving ratios {[round(r, 2) for r in ratios]} (band [1.2, 3])")


def test_criterion_9_metric_sanity():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(1000):
        ms = []
        for _ in range(3):
            k = int(rng.integers(1, 12))
            ms.append(Measure1D.from_atoms(rng.uniform(0, 5, k), rng.dirichlet(np.ones(k))))
        a, b, c = ms
        for dist in (wasserstein1, levy):
            dab = dist(a, b)
            ok &= dab >= 0
            ok &= abs(dab - dist(b, a)) <= 1e-12
            ok &= dist(a, a) <= 1e-12
            ok &= dab <= dist(a, c) + dist(c, b) + 1e-12
        if not ok:
            break
    d_half = levy(Measure1D.from_atoms([0.0], [1.0]), Measure1D.from_atoms([0.5], [1.0]))
    ok_half = d_half == 0.5
    report(9, bool(ok and ok_half), f"axioms on 1000 triples: {bool(ok)}, levy(d0, d_half) = {d_half!r} (exactly 0.5)")


def test_criterion_10_determinism(convergence_run, tmp_path_factory):
    dir_a, _ = convergence_run
    dir_b = tmp_path_factory.mktemp("conv_b")
    dir_c = tmp_path_factory.mktemp("conv_c")
    run_experiment(convergence_cfg(), out_dir=dir_b, threads=1)
    run_experiment(convergence_cfg(), out_dir=dir_c, threads=4)
    names = ["convergence.csv", "convergence_summary.json"]
    same_serial = all((dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names)
    same_parallel = all((dir_a / n).read_bytes() == (dir_c / n).read_bytes() for n in names)
    ok = same_serial and same_parallel
    report(10, ok, f"serial rerun identical: {same_serial}, parallel pool identical: {same_parallel}")
