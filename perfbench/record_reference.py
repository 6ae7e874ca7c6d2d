"""Record the reference summaries that run.py checks every process against.

    python3 perfbench/record_reference.py [--size full|tiny] [--workload NAME]

Runs each (workload, pool seed) once at ``--threads 1`` from the current
checkout and stores the compared summary fields in reference.json.  The
checked-in file was recorded from the seed commit of the benchmark; record
again only in a change that alters the workloads, never to absorb a change in
the program's outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import REFERENCE, WORK, run_child, summary_subset
from workloads import POOL_SIZE, WORKLOADS, make_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    run_dir = WORK / "record"
    for workload in args.workload or sorted(WORKLOADS):
        for size in args.size or ("full", "tiny"):
            entries = {}
            for index in range(POOL_SIZE):
                spec = make_config(workload, index, size)
                shutil.rmtree(run_dir, ignore_errors=True)
                run_dir.mkdir(parents=True)
                config = run_dir / "config.json"
                config.write_text(json.dumps(spec))
                rec = run_child(config, run_dir / "out", 1, False, 600.0)
                if "error" in rec:
                    print(f"{workload} {size} seed {index}: {rec['error']}", file=sys.stderr)
                    return 1
                entries[str(index)] = summary_subset(spec["experiment"], run_dir / "out")
                print(f"{workload} {size} seed {index}: {rec['wall_s']:.2f} s", flush=True)
            reference["workloads"].setdefault(workload, {})[size] = entries
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
