"""Golden digests: the sha256 of each pinned experiment's CSV.

Each particle config is small and seeded, and at its largest N the particle
engine draws its noise in several blocks, the last one partial.  The
``pde_check`` config is the solver grid 30/1200/800 with a point-mass start;
its CSV holds the L1 errors, the mass drift and every weak residual.  The
``sampler_check`` config draws 100k exact limit samples from a gamma start
at two times and records their Kolmogorov-Smirnov statistics.  A
refactor that keeps the RNG streams and the arithmetic must keep every
digest; a change that means to move them re-pins the digest and says why in
CHANGES.md.
"""

import hashlib

import pytest

from vsmhl import (
    ExperimentConfig,
    GammaLaw,
    ModelParams,
    PointMass,
    SolverGrid,
    run_experiment,
)

GOLDEN = {
    "convergence_point_w1": (
        dict(
            experiment="convergence", params=ModelParams(2.0, 16, 1.0), law=PointMass(1.0),
            dt=0.01, n_values=(16, 64, 4096), replications=2, seed=101, metric="wasserstein1",
        ),
        "58430b5c8b90de0c6905fa2836bf1487f2f5eb99ad2592c4f6bfe5ac24e8bc30",
    ),
    "convergence_gamma_levy": (
        dict(
            experiment="convergence", params=ModelParams(2.0, 16, 1.0), law=GammaLaw(2.0, 0.5),
            dt=0.01, n_values=(16, 64, 4096), replications=2, seed=102, metric="levy",
        ),
        "8c5c1725490855039ef198acf65cb165239069c2c9e0bf5c91442ec25c7fb912",
    ),
    "moment_check": (
        dict(
            experiment="moment_check", params=ModelParams(2.0, 4096, 1.0), law=PointMass(1.0),
            dt=0.0099, replications=6, seed=103,
        ),
        "16d30497b4c33b2dbaa0f10ba6b2b0d49a360ee0e7a5433c70f00b66639bdd73",
    ),
    "rank_check": (
        dict(
            experiment="rank_check", params=ModelParams(2.0, 16, 1.0), law=GammaLaw(2.0, 0.5),
            dt=0.01, n_values=(64, 8192), replications=2, seed=104,
        ),
        "6f5809ec5486a0aae584ccffe7eb299780fad89fb7bf03f3b043520ed038d2eb",
    ),
    "pde_check": (
        dict(
            experiment="pde_check", params=ModelParams(2.0, 64, 1.0), law=PointMass(1.0),
            grid=SolverGrid(30.0, 1200, 800),
        ),
        "8c8b1ddf1c023123f30bfe6d587da368c0523e92823823355df6fd220d67bf7b",
    ),
    "sampler_check": (
        dict(
            experiment="sampler_check", params=ModelParams(2.0, 16, 1.0), law=GammaLaw(2.0, 0.5),
            seed=105,
        ),
        "40d4d5eb08952098489773f1e5266770dbadeee50135101f6d3c5355511f71f5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest_pinned(name, tmp_path):
    spec, digest = GOLDEN[name]
    cfg = ExperimentConfig(**spec)
    run_experiment(cfg, out_dir=tmp_path, threads=1)
    csv = (tmp_path / f"{cfg.experiment}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == digest
