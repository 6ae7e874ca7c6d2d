"""One fresh-process run of ``vsmhl run``, timed from process start.

Usage: child.py SPAWN_TIME CONFIG OUT_DIR THREADS TRACE SPANS_PATH

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, the vsmhl import and config parsing and validation, as a
CLI user waits for them.  The CLI's own ``main`` runs the experiment; the
call into ``run_experiment`` marks the end of set-up, and its return marks
the CSV and ``_summary.json`` as written.  The last stdout line is a JSON
record of the timings and exit code.
"""

import json
import resource
import sys
import time

spawn, config, out_dir, threads, trace, spans_path = sys.argv[1:7]

from vsmhl import cli  # noqa: E402  (timed as part of set-up)

marks = {}
run_experiment = cli.run_experiment
tracer = None
if trace == "1":
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    run_experiment = tracer.wrap("experiments.run", run_experiment)


def timed_run(cfg, out_dir=None, threads=1):
    marks["validated"] = time.monotonic()
    try:
        return run_experiment(cfg, out_dir=out_dir, threads=threads)
    finally:
        marks["written"] = time.monotonic()


cli.run_experiment = timed_run
code = cli.main(
    ["run", "--config", config, "--output-dir", out_dir, "--threads", threads, "--assert"]
)
if tracer is not None:
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
record = {
    "exit": code,
    "vsmhl_file": cli.__file__,
    "numpy": sys.modules["numpy"].__version__,
    "scipy": sys.modules["scipy"].__version__,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}
if "written" in marks:
    record["setup_s"] = marks["validated"] - float(spawn)
    record["wall_s"] = marks["written"] - marks["validated"]
print(json.dumps(record))
sys.exit(code)
