"""The benchmark's own correctness check at full size, in process.

perfbench/run.py compares every process's summary with perfbench/reference.json;
perfbench/test_smoke.py runs that only at the tiny sizes and seed 0.  Here the
pde_point and conv_gamma_levy configs run at full size, at seed 0 and at the
held-out seed 10, through the benchmark's own summary_subset and compare.
"""

import json
import sys
from pathlib import Path

import pytest

from vsmhl import ExperimentConfig, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import REFERENCE, compare, summary_subset  # noqa: E402
from workloads import make_config, pool_index  # noqa: E402


@pytest.mark.parametrize("seed", [0, 10])
@pytest.mark.parametrize("workload", ["pde_point", "conv_gamma_levy"])
def test_full_size_summary_matches_reference(tmp_path, workload, seed):
    cfg = ExperimentConfig.from_dict(make_config(workload, seed))
    # the benchmark runs each process under --assert
    assert run_experiment(cfg, out_dir=tmp_path, threads=1).passed
    want = json.loads(REFERENCE.read_text())["workloads"][workload]["full"][str(pool_index(seed))]
    assert compare(summary_subset(cfg.experiment, tmp_path), want) == []
