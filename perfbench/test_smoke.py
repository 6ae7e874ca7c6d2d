"""Self-test of the benchmark: a smoke-size run of every workload.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about 80 s, most of it in the gamma limit tables.  It is not part
of the tier-1 suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import TOLERANCES, WORK, compare  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert "fail_frac 0/" in proc.stdout
    assert "env: " in proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(v for k, v in metrics.items()
                         if k.endswith("self_s"))
        assert self_times == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        assert "dominant layer" in proc.stdout
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["conv_gamma_levy", "moments_bigN"])
def test_tolerance_catches_a_changed_rng_stream(workload):
    entries = REFERENCE["workloads"][workload]["full"]
    for a, b in itertools.combinations(range(POOL_SIZE), 2):
        assert compare(entries[str(a)], entries[str(b)]), (workload, a, b)


def test_tolerance_catches_a_broken_solver():
    ref = REFERENCE["workloads"]["pde_point"]["full"]["0"]
    l1_tol = TOLERANCES["l1_final"][1]
    assert compare(dict(ref, l1_final=ref["l1_final"] * (1 + 2 * l1_tol)), ref)
    assert compare(dict(ref, mass_drift=1e-9), ref)
    assert not compare(dict(ref), ref)


def test_fails_without_the_program():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "pde_point", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
