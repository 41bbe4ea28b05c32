#!/usr/bin/env python3
"""gcobench benchmark.

    python3 benchmarks/run.py --workload sweep_steps --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; gcobench is imported from its `src/`.
Each workload is closed loop with one caller: a single worker process runs
the same deterministic pass again and again, with no added threads and BLAS
pinned to one thread in the worker's own environment. Times are those of
the best pass, the one least disturbed by other load. Set-up is timed by
starting workers that only build their inputs, before and after the
measuring one.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it has the per-layer
metrics of a traced run. Lines before it name every metric of the workload
with its unit, and the machine the numbers come from.

Correctness: every pass's outputs must be finite, bitwise equal to the
run's first pass, and, for a seed that has one, within 1e-12 relative of
the reference recorded from the seed code in reference.json. Each workload
also runs checks that need no reference (see workloads.py). `failed` counts
every operation that raised or failed one of these.

--record-reference runs one pass and stores its outputs in --reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep_steps", "oracle_records", "bimodal_train", "mass_probe")
# Set-up only workers, half before and half after the measuring one, so
# that the median spans the run rather than one moment of a drifting machine.
SETUP_SAMPLES = 8
TIME_LIMIT = 170           # seconds for the whole run, --seconds included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("pass_s", "s"),
              ("peak_rss_mb", "MB"))
# Names printed for ops_per_s, by the workload's operation, and every name
# printed for an untraced run ("n/a" where the workload has no such value).
RATE_NAMES = {"steps": "steps_per_s", "records": "records_per_s",
              "draws": "draws_per_s"}
REPORTED = (("setup_s", "s"), ("steps_per_s", "1/s"), ("records_per_s", "1/s"),
            ("gradcheck_s", "s"), ("draws_per_s", "1/s"), ("pass_s", "s"),
            ("peak_rss_mb", "MB"), ("fail_ratio", "ratio"))


class WorkerError(RuntimeError):
    pass


def _timeout(signum, frame):
    raise WorkerError("worker timed out")


def run_worker(argv, deadline: float):
    """Start a worker; return (seconds until it printed READY, the rest of
    its standard output). The worker is killed at the deadline (a
    time.monotonic value) and always waited for."""
    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(max(1, int(deadline - time.monotonic())))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        signal.alarm(0)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(argv[:4])} exited {code}")
    return ready, rest


def machine_facts() -> dict:
    import numpy
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": numpy.__version__,
             "blas_threads_env": {k: "1" for k in BLAS_ENV}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            def read(name):
                with open(os.path.join(cache_dir, entry, name)) as fh:
                    return fh.read().strip()
            if entry.startswith("index") and read("type") != "Instruction":
                facts[f"L{read('level')}"] = read("size")
    except OSError:
        pass
    return facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gcobench", "__init__.py")):
        print(f"error: no gcobench sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale, "--reference", args.reference,
              "--workdir", workdir]
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.record_reference:
            run_worker(["--mode", "record", *common], deadline)
            print(f"recorded {args.workload} seed {args.seed} "
                  f"({args.scale}) in {args.reference}")
            return 0
        setup = ["--mode", "setup", *common]
        setups = [run_worker(setup, deadline)[0]
                  for _ in range(SETUP_SAMPLES // 2)]
        trace_out = ""
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            trace_out = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        _, rest = run_worker(
            ["--mode", "measure", "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--trace-out", trace_out, *common],
            deadline)
        result = json.loads(rest.strip().splitlines()[-1])
        setups += [run_worker(setup, deadline)[0]
                   for _ in range(SETUP_SAMPLES // 2)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    worker_metrics = result["metrics"]
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}: {result['passes']} timed passes, "
          f"reference {'checked' if result['reference'] else 'absent'}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    if "sizes" in result:
        print("sizes " + json.dumps(result["sizes"], sort_keys=True))
    if not args.trace:
        others = worker_metrics.pop("ops_per_s_passes")
        print(f"ops_per_s over {result['passes']} passes: best "
              f"{worker_metrics['ops_per_s']} "
              + " ".join(f"{k} {v}" for k, v in others.items()))
    fail_ratio = result["failed"] / result["attempted"]
    if args.trace:
        metrics = worker_metrics
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    else:
        values = dict(worker_metrics, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        shown = dict(values, fail_ratio=fail_ratio)
        shown[RATE_NAMES[result["op"]]] = shown.pop("ops_per_s")
        for name, unit in REPORTED:
            print(f"{name} {shown.get(name, 'n/a')} {unit}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
