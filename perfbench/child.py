"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<json job>'``, started by run.py with
``PYTHONPATH=src`` and every BLAS/OpenMP pool pinned to one thread.  The
job holds the experiment config, the mode (``setup``, ``run`` or ``trace``),
the output directory and ``t_spawn``, the parent's ``time.perf_counter()``
just before it started this process.  On Linux that clock is the
system-wide CLOCK_MONOTONIC, so ``setup_s`` spans interpreter start-up,
``import ergolab`` and config validation, up to the call to ``harness.run``.

Prints one JSON object on stdout.  Timing stops before the output gate
runs, so checking never counts as work.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def main(job):
    from ergolab import harness

    config = harness.ExperimentConfig()
    for key, value in job["config"].items():
        config.set_key(key, str(value))
    config.validate()
    setup_s = time.perf_counter() - job["t_spawn"]
    if job["mode"] == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if job["mode"] == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    try:
        start = time.perf_counter()
        report = harness.run(config)
        paths = harness.persist(config, report, job["out_dir"])
        run_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import gate
    import numpy

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "certified_fraction": gate.certified_fraction(report),
        "failures": gate.check(config, report),
        "digests": {kind: _sha256(paths[kind]) for kind in ("csv", "plot")},
        "threads": len(os.listdir("/proc/self/task")),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(job["layer_metrics"])
        result["parent_table"] = tracer.parent_table()
    return result


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    try:
        out = main(job)
    except Exception:  # reported to the parent, which counts a failed run
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
