"""Golden digests: the sha256 of each pinned experiment's CSV.

Each particle config is small and seeded, and at its largest N the particle
engine draws its noise in several blocks, the last one partial.  The
``pde_check`` configs are the solver grid 30/1200/800 with a point-mass start,
and three more starts whose limit kernels take other paths: a gamma law (a
580-atom mollified start and the Kummer-function density), a uniform law
(``ncx2``) and two atoms (the log-sum-exp over atoms); each CSV holds the L1
errors, the mass drift and every weak residual.  The
``sampler_check`` config draws 100k exact limit samples from a gamma start
at two times and records their Kolmogorov-Smirnov statistics.  A
refactor that keeps the RNG streams and the arithmetic must keep every
digest; a change that means to move them re-pins the digest and says why in
CHANGES.md.
"""

import hashlib

import pytest

from vsmhl import (
    DiscreteAtoms,
    ExperimentConfig,
    GammaLaw,
    ModelParams,
    PointMass,
    SolverGrid,
    UniformLaw,
    run_experiment,
)

GOLDEN = {
    "convergence_point_w1": (
        dict(
            experiment="convergence", params=ModelParams(2.0, 16, 1.0), law=PointMass(1.0),
            dt=0.01, n_values=(16, 64, 4096), replications=2, seed=101, metric="wasserstein1",
        ),
        "4b560c9dbc3f2369996fbedbcdcf482daf035e7fa7cc99b4d6aac6085db5d075",
    ),
    "convergence_gamma_levy": (
        dict(
            experiment="convergence", params=ModelParams(2.0, 16, 1.0), law=GammaLaw(2.0, 0.5),
            dt=0.01, n_values=(16, 64, 4096), replications=2, seed=102, metric="levy",
        ),
        "2a5f829a0a1086063856fc6e827321499d7e9f174a2272446d3fecd5d44b0e31",
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
        "eaee5fc1118dedc25ee1955916cc08d84494ede2d2eeed024e98976cb77dc46f",
    ),
    "pde_check": (
        dict(
            experiment="pde_check", params=ModelParams(2.0, 64, 1.0), law=PointMass(1.0),
            grid=SolverGrid(30.0, 1200, 800),
        ),
        "28e10bec94f7e960fea9a3089a1e44ca1e1f5880fde5b1e87d641d39cd1c332a",
    ),
    "pde_check_gamma": (
        dict(
            experiment="pde_check", params=ModelParams(2.0, 64, 1.0), law=GammaLaw(2.0, 0.5),
            grid=SolverGrid(40.0, 1200, 800),
        ),
        "dc40f331d8c79f3b74cd9ee72806b15832997604ba3c05fec7b7d3213e1c8b47",
    ),
    "pde_check_uniform": (
        dict(
            experiment="pde_check", params=ModelParams(2.0, 64, 1.0), law=UniformLaw(0.5, 1.5),
            grid=SolverGrid(40.0, 1200, 800),
        ),
        "6d3e5e807bdbdcbb1bb2995262934a311fb86761ddc61b920e286f08d53d8476",
    ),
    "pde_check_atoms": (
        dict(
            experiment="pde_check", params=ModelParams(2.0, 64, 1.0),
            law=DiscreteAtoms(((0.5, 0.3), (2.0, 0.7))), grid=SolverGrid(40.0, 1600, 800),
        ),
        "965b4285ff500889e77a4b69f1ed9c18eeaf2af87c44564117ae77fd8a66a180",
    ),
    "sampler_check": (
        dict(
            experiment="sampler_check", params=ModelParams(2.0, 16, 1.0), law=GammaLaw(2.0, 0.5),
            seed=105,
        ),
        "4ef4e77ab1fe3bfd1855bbab1e776689d8ea878ee7c2307308b69c1052532f18",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest_pinned(name, tmp_path):
    spec, digest = GOLDEN[name]
    cfg = ExperimentConfig(**spec)
    run_experiment(cfg, out_dir=tmp_path, threads=1)
    csv = (tmp_path / f"{cfg.experiment}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == digest
