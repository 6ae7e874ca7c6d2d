"""vsmhl benchmark: closed-loop runs of named experiments in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One client runs one experiment process at a time
(``vsmhl run`` with ``--threads 1`` then ``--threads 2``) until the time is
up; every process starts fresh, because a CLI user pays for the cached
analytic paths and CDF tables on every run.  ``--trace 1`` adds a third,
traced ``--threads 1`` process per cycle and reports per-layer metrics
instead of end-to-end ones; spans from forked pool workers would be lost, so
the traced process never uses the pool.

Every process is checked: exit code 0 under ``--assert`` (the experiment's
own pass criterion), a summary that matches the recorded reference within
TOLERANCES, and CSV and summary bytes identical to the run's first process.
A failed process counts once in ``failed`` and is never retried.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import HELD_OUT_SEED, WORKLOADS, make_config, pool_index

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
RUN_LIMIT_S = 170.0  # every run must end within 180 s

# Reference comparison, as (absolute, relative) tolerance per summary field.
# They admit what ROADMAP allows to change: an exact Levy metric may differ
# from the bisection by up to LEVY_TOL = 1e-4, and an exact gamma limit law
# may differ from the quadrature by 1e-10 relative, which moves W1 and Levy
# distances, l1_final and moments by far less than these bounds.  They catch
# a changed RNG stream (per-N medians move by ~1e-3 or more between seeds,
# z-scores by O(1)) and a broken solver (l1_final moves by more than 1e-6
# relative; mass_drift is roundoff, ~1e-14, against 1e-12 here).
TOLERANCES = {
    "medians": (1e-4, 1e-8),
    "l1_final": (0.0, 1e-6),
    "mass_drift": (1e-12, 0.0),
    "z": (1e-6, 0.0),
}

# Layer -> the self-time metrics it owns.  bessel is called only from limit,
# so it counts toward limit when naming the dominant layer.
LAYERS = {
    "particles": ("particles.euler.self_s", "particles.simulate.self_s"),
    "model": ("model.sample_initial.self_s",),
    "limit": ("limit.table.self_s", "limit.density.self_s", "limit.cdf.self_s",
              "bessel.log_i.self_s"),
    "measures": ("measures.sup_distance.self_s", "measures.empirical.self_s",
                 "measures.from_grid.self_s"),
    "pde": ("pde.solve.self_s", "pde.weak_residual.self_s", "pde.measure_path.self_s"),
    "experiments": ("experiments.self_s", "experiments.write_results.self_s"),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_2t": "s", "peak_rss_mb": "MB"}


def environment(record: dict) -> dict:
    """Machine record; numpy and scipy versions as a child process imported them."""
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": record.get("numpy", "unknown"),
        "scipy": record.get("scipy", "unknown"),
        "nproc": os.cpu_count(),
        "l2": caches.get("L2 cache", "unknown"),
        "l3": caches.get("L3 cache", "unknown"),
        "note": "ROADMAP baseline numbers were taken on Python 3.10",
    }


def summary_subset(experiment: str, out_dir: Path) -> dict:
    """The summary fields compared with the reference."""
    summary = json.loads((out_dir / f"{experiment}_summary.json").read_text())["summary"]
    if experiment == "convergence":
        return {"medians": summary["medians"]}
    if experiment == "pde_check":
        return {k: summary[k] for k in ("l1_final", "mass_drift", "residuals_ok")}
    with open(out_dir / f"{experiment}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"z": [float(r["z"]) for r in rows]}


def _flatten(key: str, value) -> dict:
    if isinstance(value, dict):
        return {f"{key}[{k}]": v for k, v in value.items()}
    if isinstance(value, list):
        return {f"{key}[{i}]": v for i, v in enumerate(value)}
    return {key: value}


def compare(got: dict, want: dict) -> list[str]:
    """Fields of got outside TOLERANCES of the reference; untoleranced ones must be equal."""
    errors = []
    for key, ref in want.items():
        a_tol, r_tol = TOLERANCES.get(key, (0.0, 0.0))
        values, refs = _flatten(key, got.get(key)), _flatten(key, ref)
        if values.keys() != refs.keys():
            errors.append(f"{key}: {got.get(key)!r} does not match the reference's shape")
            continue
        for label, r in refs.items():
            v = values[label]
            if v is None or abs(v - r) > a_tol + r_tol * abs(r):
                errors.append(f"{label}: {v!r} vs reference {r!r}")
    return errors


def run_child(config: Path, out_dir: Path, threads: int, trace: bool, timeout: float) -> dict:
    """Start one fresh process and wait for it; kill its group on timeout."""
    spans_path = out_dir.parent / f"{out_dir.name}-spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(out_dir.parent)
    args = [str(config), str(out_dir), str(threads), "1" if trace else "0", str(spans_path)]
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0:
        record["error"] = f"vsmhl run exited {proc.returncode} (3: pass criterion failed)"
    elif not record["vsmhl_file"].startswith(str(SRC)):
        record["error"] = f"imported vsmhl from {record['vsmhl_file']}, not {SRC}"
    if trace and "error" not in record:
        record["spans"] = json.loads(spans_path.read_text())
    return record


def layer_metrics(spans: list) -> dict:
    """Per-layer self times and counts from one traced process."""
    agg = defaultdict(lambda: {"calls": 0, "total": 0.0, "child": 0.0, "work": Counter()})
    for name, start, end, parent, work in spans:
        agg[name]["calls"] += 1
        agg[name]["total"] += end - start
        agg[name]["work"].update(work or {})
        if parent >= 0:
            agg[spans[parent][0]]["child"] += end - start

    def self_s(name):
        return agg[name]["total"] - agg[name]["child"]

    def calls(name):
        return agg[name]["calls"]

    def work(name, key):
        return agg[name]["work"][key]

    def ratio(num, den):
        return num / den if den else 0.0

    particles_s = self_s("particles.euler") + self_s("particles.simulate")
    return {
        "particles.euler.self_s": self_s("particles.euler"),
        "particles.simulate.self_s": self_s("particles.simulate"),
        "particles.calls": calls("particles.simulate"),
        "particles.steps_per_s": ratio(work("particles.simulate", "particle_steps"), particles_s),
        "particles.path_bytes": work("particles.simulate", "path_bytes"),
        "model.sample_initial.self_s": self_s("model.sample_initial"),
        "bessel.log_i.calls": calls("bessel.log_i"),
        "bessel.log_i.points": work("bessel.log_i", "points"),
        "bessel.log_i.self_s": self_s("bessel.log_i"),
        "limit.density_grid.calls": calls("limit.density_grid"),
        "limit.table.self_s": self_s("limit.density_grid"),
        "limit.density.self_s": self_s("limit.density"),
        "limit.density.points": work("limit.density", "points"),
        "limit.cdf.self_s": self_s("limit.cdf"),
        "measures.sup_distance.self_s": self_s("measures.sup_distance"),
        "measures.pairs": work("measures.sup_distance", "pairs"),
        "measures.s_per_pair": ratio(
            self_s("measures.sup_distance"), work("measures.sup_distance", "pairs")
        ),
        "measures.empirical.self_s": self_s("measures.empirical"),
        "measures.from_grid.calls": calls("measures.from_grid"),
        "measures.from_grid.self_s": self_s("measures.from_grid"),
        "pde.solve.self_s": self_s("pde.solve"),
        "pde.s_per_step": ratio(self_s("pde.solve"), work("pde.solve", "steps")),
        "pde.weak_residual.calls": calls("pde.weak_residual"),
        "pde.weak_residual.self_s": self_s("pde.weak_residual"),
        "pde.weak_residual.s_per_call": ratio(
            self_s("pde.weak_residual"), calls("pde.weak_residual")
        ),
        "pde.measure_path.self_s": self_s("pde.measure_path"),
        "experiments.self_s": self_s("experiments.run"),
        "experiments.write_results.self_s": self_s("experiments.write_results"),
        "trace.wall_s": agg["experiments.run"]["total"],
    }


def _unit(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    return "count"


PER_LAYER_UNITS = {name: _unit(name) for name in layer_metrics([])}
PER_LAYER_UNITS["experiments.scaling_eff_2t"] = "ratio"
PER_LAYER_UNITS["trace.overhead_s"] = "s"


def describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    return (
        f"median of {len(values)} (min {min(values):.4g}, max {max(values):.4g}; "
        "fewer than 11 samples, so no tail percentile)"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's smoke size")
    return parser.parse_args(argv)


def check_outputs(experiment: str, out_dir: Path, want: dict, first: list | None):
    """Errors in one process's outputs, and the outputs' bytes."""
    try:
        errors = compare(summary_subset(experiment, out_dir), want)
        data = [(p.name, p.read_bytes()) for p in sorted(out_dir.iterdir())]
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"], None
    if not errors and first is not None and data != first:
        errors = ["outputs differ from this run's first process"]
    return errors, data


def measure(args, spec: dict, want: dict, run_dir: Path) -> dict:
    """Run cycles of fresh processes until --seconds is up; collect samples."""
    config = run_dir / "config.json"
    config.write_text(json.dumps(spec))
    out_dir = run_dir / "out"  # one path for every process: the summary records it
    plan = [("wall_s", 1, False), ("wall_s_2t", 2, False)]
    if args.trace:
        plan.append(("traced", 1, True))
    run = {"setup_s": [], "wall_s": [], "wall_s_2t": [], "peak_rss_mb": [], "traced": [],
           "spans": [], "attempted": 0, "failed": 0, "cycles": 0, "versions": {}}
    first = None
    while True:
        cycle_start = time.monotonic()
        for kind, threads, traced in plan:
            timeout = max(RUN_LIMIT_S - (time.monotonic() - args.started), 5.0)
            rec = run_child(config, out_dir, threads, traced, timeout)
            run["attempted"] += 1
            if "numpy" in rec:
                run["versions"] = rec
            errors = [rec["error"]] if "error" in rec else []
            if not errors:
                errors, data = check_outputs(spec["experiment"], out_dir, want, first)
                first = first or (None if errors else data)
            shutil.rmtree(out_dir, ignore_errors=True)
            if errors:
                run["failed"] += 1
                print(f"FAILED {kind} process {run['attempted']}: {'; '.join(errors)}")
            elif traced:
                run["traced"].append(rec["wall_s"])
                run["spans"].append(rec["spans"])
            else:
                run["setup_s"].append(rec["setup_s"])
                run[kind].append(rec["wall_s"])
                if threads == 1:
                    run["peak_rss_mb"].append(rec["peak_rss_mb"])
        run["cycles"] += 1
        now = time.monotonic()
        if now + (now - cycle_start) > args.started + args.seconds:
            return run


def layer_report(run: dict, med: dict, workload: str) -> dict:
    """Per-layer metrics (medians over traced processes); prints the layer split."""
    per_sample = [layer_metrics(spans) for spans in run["spans"]]
    if not per_sample:
        return {}
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_sample), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items() if name in per_sample[0]
    }
    if "wall_s" in med and "wall_s_2t" in med:
        metrics["experiments.scaling_eff_2t"] = {
            "value": med["wall_s"] / (2.0 * med["wall_s_2t"]), "unit": "ratio"}
        metrics["trace.overhead_s"] = {"value": med["traced"] - med["wall_s"], "unit": "s"}
    layers = {k: sum(metrics[n]["value"] for n in names) for k, names in LAYERS.items()}
    total = sum(layers.values())
    print("traced at --threads 1 (spans in forked pool workers would be lost); "
          f"{len(per_sample)} traced process(es)")
    print(f"  self times sum to {total:.4f} s of traced wall "
          f"{metrics['trace.wall_s']['value']:.4f} s")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  layer {layer:<12} {value:.4f} s ({100 * value / total:.1f}%)")
    top = max(layers, key=layers.get)
    expected = WORKLOADS[workload]["layers"]
    verdict = "as expected" if top in expected else "MISMATCH"
    print(f"  dominant layer {top}; expected one of {list(expected)}: {verdict}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    args.started = time.monotonic()
    if not (SRC / "vsmhl" / "__init__.py").is_file():
        print(f"no vsmhl source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    spec = make_config(args.workload, args.seed, args.size)
    want = reference["workloads"][args.workload][args.size].get(str(pool_index(args.seed)))
    if want is None:
        print(f"no reference summary for seed {args.seed}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = measure(args, spec, want, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run["spans"]:
        (WORK / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(run["spans"][-1])
        )

    held = " (held-out seed)" if pool_index(args.seed) == HELD_OUT_SEED else ""
    print(f"workload {args.workload} size {args.size} seed {args.seed}{held} -> "
          f"experiment seed {spec['seed']}; {run['cycles']} cycles in "
          f"{time.monotonic() - args.started:.1f} s")
    print("env: " + json.dumps(environment(run["versions"]), sort_keys=True))
    attempted, failed = run["attempted"], run["failed"]
    print(f"fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.4g}")

    med = {k: statistics.median(run[k]) for k in (*END_TO_END_UNITS, "traced") if run[k]}
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<12} {med.get(name, float('nan')):.6g} {unit:<3} {describe(run[name])}")
        if name in med:
            metrics[name] = {"value": med[name], "unit": unit}
    if args.trace:
        metrics = layer_report(run, med, args.workload)
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
