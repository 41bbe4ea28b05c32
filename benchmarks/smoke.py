#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 benchmarks/smoke.py

For every workload it records a tiny reference and then checks that:

- an untraced run names every metric with its unit and passes the gate;
- two traced runs report every span and count, and the counts repeat
  exactly;
- a run against a deliberately corrupted reference reports failures.

Last, it checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, REPORTED, WORKLOADS  # noqa: E402
from tracer import COUNTS, SPANS  # noqa: E402


def bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    if check and proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(node):
    """Scale the first float found in node by (1 + 1e-9); True if one was."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float) and value != 0.0:
            node[key] = value * (1.0 + 1e-9)
            return True
        if isinstance(value, (dict, list)) and corrupt(value):
            return True
    return False


def main() -> int:
    tmp = tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT)
    try:
        ref = os.path.join(tmp, "reference.json")
        bad = os.path.join(tmp, "corrupted.json")
        tiny = ["--seed", "0", "--seconds", "0.5", "--scale", "tiny"]
        for w in WORKLOADS:
            bench("--workload", w, *tiny, "--reference", ref,
                  "--record-reference")

            proc = bench("--workload", w, *tiny, "--reference", ref)
            shown = {line.split()[0]: line.split()[-1]
                     for line in proc.stdout.splitlines()[:-1] if line}
            for name, unit in REPORTED:
                assert shown.get(name) == unit, f"{w}: {name} not shown in {unit}"
            res = result_of(proc)
            assert res["correct"] and res["failed"] == 0, f"{w}: {res}"
            assert sorted(res["metrics"]) == sorted(n for n, _ in END_TO_END)
            assert all(m["value"] > 0 for m in res["metrics"].values()), res

            traced = [result_of(bench("--workload", w, *tiny, "--reference",
                                      ref, "--trace", "1"))
                      for _ in range(2)]
            names = [f"{s}.{k}" for s in SPANS for k in ("calls", "self_ms")]
            names += [*COUNTS, "trace.overhead_ratio"]
            for res in traced:
                assert res["correct"], f"{w} traced: {res['failed']} failed"
                assert sorted(res["metrics"]) == sorted(names), w
            for name in names:
                if name.endswith("self_ms") or name.startswith("trace."):
                    continue
                a, b = (r["metrics"][name]["value"] for r in traced)
                assert a == b, f"{w}: {name} differs across runs: {a} vs {b}"
            if w == "bimodal_train":
                per_step = traced[0]["metrics"]["bimodal.encode_calls_per_step"]
                assert per_step["value"] == 4.0, per_step

            with open(ref, encoding="ascii") as fh:
                data = json.load(fh)
            assert corrupt(data["tiny"][w]["0"]), w
            with open(bad, "w", encoding="ascii") as fh:
                json.dump(data, fh)
            res = result_of(bench("--workload", w, *tiny, "--reference", bad))
            assert not res["correct"] and res["failed"] > 0, f"{w}: {res}"
            print(f"{w}: ok")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                     "1", cwd=bare, check=False)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
        print("bare directory: fails without a result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
