#!/usr/bin/env python3
"""The ergolab benchmark: one workload per invocation, outputs checked.

    python3 perfbench/run.py --workload attack-binary [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run it from the repository root.  Every repetition is a real experiment
(``harness.run`` plus ``harness.persist``) in a fresh single-threaded child
process (child.py), started one at a time.

``--trace 0`` starts a few set-up-only children, then repeats the workload
until the next repetition would end past ``--seconds`` (at least once) and
reports the end-to-end metrics of BENCHMARK.json as medians.
``--trace 1`` runs the workload once untraced and twice traced, reports
the per-layer metrics as medians of the traced runs, and fails the run if
any count differs between the two.  ``--smoke`` runs tiny configs of every
workload in both modes and checks that every metric is emitted.

The last line of stdout is the JSON result; the lines before it give each
metric with its unit, the machine facts and, when tracing, the heaviest
(parent, function) pairs.  A repetition fails when it raises, breaks a
theorem predicate (gate.py), starts an extra thread or, at the workload's
default seed, writes a CSV or plot.dat whose digest differs from
reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170      # one invocation, children included
SETUP_PROBES = 8        # set-up-only children per --trace 0 run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


class Children:
    """Starts child.py one at a time, inside the invocation's time limit."""

    def __init__(self, work_dir: Path, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})

    def run(self, config, mode, layer_metrics=()):
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S}s reached")
        job = {"config": config, "mode": mode, "layer_metrics": layer_metrics,
               "out_dir": tempfile.mkdtemp(dir=self.work_dir),
               "t_spawn": time.perf_counter()}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise BenchError(f"time limit of {TIME_LIMIT_S}s reached") from None
        finally:
            shutil.rmtree(job["out_dir"], ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        if mode == "setup" and "error" in result:
            raise BenchError(f"set-up failed: {result['error']}")
        return result


def failures_of(rep, reference):
    """Why a repetition counts as failed; empty when it passed."""
    if "error" in rep:
        return [rep["error"].strip().splitlines()[-1]]
    out = list(rep["failures"])
    if rep["threads"] != 1:
        out.append(f"child ran {rep['threads']} threads")
    for kind, digest in (reference or {}).items():
        if rep["digests"][kind] != digest:
            out.append(f"{kind} digest {rep['digests'][kind][:12]} differs "
                       f"from the reference {digest[:12]}")
    return out


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def bench_untraced(children, config, seconds, reference,
                   probes=SETUP_PROBES):
    def probe():
        return children.run(config, "setup")["setup_s"]

    # half the set-up probes go after the repetitions, so that they sample
    # the machine over the whole run rather than over its first second
    start = time.perf_counter()
    setups = [probe() for _ in range(probes // 2)]
    reps = []
    while True:
        began = time.perf_counter()
        reps.append(children.run(config, "run"))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    setups += [probe() for _ in range(probes - probes // 2)]
    failed = {i: failures_of(rep, reference) for i, rep in enumerate(reps)}
    good = [rep for rep in reps if "error" not in rep]
    if not good:
        return reps, failed, None
    setups += [rep["setup_s"] for rep in good]
    metrics = {"run_s": median_of(good, "run_s"),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": median_of(good, "peak_rss_mb"),
               "certified_fraction": median_of(good, "certified_fraction")}
    return reps, failed, metrics


def bench_traced(children, config, layer_specs, reference):
    names = [m["name"] for m in layer_specs if m["name"] != "trace.overhead_s"]
    reps = [children.run(config, "run")]
    reps += [children.run(config, "trace", names) for _ in range(2)]
    failed = {i: failures_of(rep, reference) for i, rep in enumerate(reps)}
    if any("error" in rep for rep in reps):
        return reps, failed, None
    untraced, traced = reps[0], reps[1:]
    for spec in layer_specs:
        values = {rep["layers"].get(spec["name"]) for rep in traced}
        if spec["unit"] == "count" and len(values) != 1:
            failed[2].append(f"{spec['name']} differs between traced runs: "
                             f"{sorted(values)}")
    metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
               for name in names}
    metrics["trace.overhead_s"] = median_of(traced, "run_s") - untraced["run_s"]
    return reps, failed, metrics


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts():
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "git_sha": git_sha(),
            "loadavg_start": list(os.getloadavg())}


def print_metrics(metrics, specs):
    for spec in specs:
        print(f"{spec['name']:<44} {metrics[spec['name']]:>16.6g} "
              f"{spec['unit']:<6} ({spec['better']} is better)")


def run_workload(args, bench, children, facts):
    default = WORKLOADS[args.workload]
    config = dict(default, seed=args.seed if args.seed is not None
                  else default["seed"])
    references = json.loads((HERE / "reference.json").read_text())
    reference = references.get(args.workload) \
        if config["seed"] == default["seed"] else None
    if args.trace:
        specs = bench["per_layer"]
        reps, failed, metrics = bench_traced(children, config, specs,
                                             reference)
    else:
        specs = bench["end_to_end"]
        reps, failed, metrics = bench_untraced(children, config, args.seconds,
                                               reference)
    facts["numpy"] = next((rep["numpy"] for rep in reps if "numpy" in rep),
                          "unknown")
    print("# machine " + json.dumps(facts))
    print(f"# workload {args.workload} trace {args.trace} "
          f"config {json.dumps(config)}")
    print(f"# repetitions {len(reps)}, digests "
          f"{json.dumps(reps[0].get('digests'))}, checked "
          f"{'against reference.json' if reference else 'against nothing'}")
    print("# run_s per repetition: " + " ".join(
        f"{rep['run_s']:.3f}" for rep in reps if "run_s" in rep))
    for i, why in failed.items():
        for line in why:
            print(f"# repetition {i} FAILED: {line}")
    if metrics is None:
        raise BenchError("a repetition crashed before producing metrics")
    n_failed = sum(1 for why in failed.values() if why)
    print_metrics(metrics, specs)
    print(f"{'error_rate':<44} {n_failed / len(reps):>16.6g} ratio  "
          f"(lower is better; {n_failed} of {len(reps)} runs failed)")
    if args.trace:
        print("# heaviest (parent -> function) pairs by self time, "
              "first traced run:")
        for line in reps[1]["parent_table"]:
            print("#   " + line)
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(reps),
        "failed": n_failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]],
                                   "unit": spec["unit"]} for spec in specs},
    }))
    return 0


def run_smoke(bench, children, facts):
    references = json.loads((HERE / "reference.json").read_text())
    print("# machine " + json.dumps(facts))
    problems = []
    for name, config in SMOKE.items():
        reference = references.get("smoke/" + name)
        reps, failed, e2e = bench_untraced(children, config, 0, reference,
                                           probes=1)
        _, failed_t, layers = bench_traced(children, config, bench["per_layer"],
                                           reference)
        why = [w for f in (failed, failed_t) for ws in f.values() for w in ws]
        for metrics, specs in ((e2e, bench["end_to_end"]),
                               (layers, bench["per_layer"])):
            missing = [s["name"] for s in specs if s["name"] not in
                       (metrics or {})]
            if missing:
                why.append(f"{len(missing)} metrics missing, from "
                           f"{missing[0]}")
        print(f"smoke {name}: {'ok' if not why else 'FAILED'}, digests "
              f"{json.dumps(reps[0].get('digests'))}")
        for metrics, specs in ((e2e, bench["end_to_end"]),
                               (layers, bench["per_layer"])):
            if metrics is not None:
                print_metrics(metrics, specs)
        problems += [f"{name}: {w}" for w in why]
    for line in problems:
        print("# " + line)
    return 1 if problems else 0


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs of every workload, both modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "ergolab" / "__init__.py").is_file():
        print(f"no ergolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = machine_facts()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=base))
    children = Children(work_dir, time.perf_counter() + TIME_LIMIT_S)
    try:
        if args.smoke:
            return run_smoke(bench, children, facts)
        return run_workload(args, bench, children, facts)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another invocation is still using it


if __name__ == "__main__":
    sys.exit(main())
