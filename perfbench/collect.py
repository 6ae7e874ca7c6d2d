"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 0-9 [--workload NAME ...] [--traced-seed 0]
                                 [--out perfbench/BENCH_baseline.json]

Each (workload, seed) is one ``run.py`` invocation with BENCHMARK.json's
``run_seconds``.  For every end-to-end metric it prints the median of the
per-run values and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, beside a third of
the metric's bound, which a steady benchmark stays under.  ``--traced-seed``
adds one ``--trace 1`` run per workload for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: its result line and its environment record."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr, file=sys.stderr)
    env = next(json.loads(x[5:]) for x in lines if x.startswith("env: "))
    return json.loads(lines[-1]), env


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    report = {"env": None, "run_seconds": SPEC["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result, report["env"] = run_once(workload, seed, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": values,
            }
            print(f"  {workload} {m['name']}: median {median:.4f} {m['unit']}, spread "
                  f"{spread:.3f} (bound/3 {m['bound'] / 3:.3f}) {'ok' if ok else 'WIDE'}")
        if args.traced_seed is not None:
            traced, _ = run_once(workload, args.traced_seed, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        print(f"  {workload} fail_frac {entry['failed']}/{entry['attempted']}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
