"""One benchmark worker process; started by run.py, never by hand.

It imports gcobench from the checkout's `src/`, builds one workload's
inputs, prints READY (run.py times set-up up to that line), and then, by
mode:

- setup: exits;
- measure: runs timed passes (alternating untraced and traced ones under
  --trace 1) for --seconds, gates every pass's outputs, and prints one
  JSON result line;
- record: runs one pass and stores its outputs as the reference for this
  workload, scale and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import gcobench
    if not os.path.abspath(gcobench.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gcobench imported from {gcobench.__file__}, "
                          f"not from {SRC}")


def _floats(payload):
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        for item in payload:
            yield from _floats(item)
    elif isinstance(payload, float):
        yield payload


def mismatches(got, want, rel_close, where=""):
    """Paths at which got differs from want: numbers beyond rel_close,
    anything else when unequal."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} vs {sorted(want)}"]
        return [p for k in want
                for p in mismatches(got[k], want[k], rel_close, f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} vs {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in mismatches(g, w, rel_close, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if rel_close(got, want) else [f"{where}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{where}: {got!r} vs {want!r}"]


class Gate:
    """Counts operations checked and failed. A pass's units are checked
    for finite values, against the first pass of the run (bitwise), and
    against the stored reference when there is one (1e-12 relative)."""

    def __init__(self, reference, rel_close):
        self.reference = reference
        self.rel_close = rel_close
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def check_pass(self, outputs):
        if self.first is None:
            self.first = outputs
        for unit, payload in outputs.items():
            bad = [f"non-finite {v}" for v in _floats(payload)
                   if not math.isfinite(v)]
            bad += mismatches(payload, self.first.get(unit),
                              lambda a, b: a == b, "repeat")
            if self.reference is not None:
                bad += mismatches(payload, self.reference.get(unit),
                                  self.rel_close, "reference")
            self.check(unit, not bad, "; ".join(bad[:3]))


def _reference_key(args):
    return [args.scale, args.workload, str(args.seed)]


def _load_reference(args):
    node = None
    if os.path.exists(args.reference):
        with open(args.reference, encoding="ascii") as fh:
            node = json.load(fh)
    for key in _reference_key(args):
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _record(args, workload) -> int:
    outputs, _ = workload.run_pass()
    if any(not math.isfinite(v) for v in _floats(outputs)):
        print("refusing to record non-finite outputs", file=sys.stderr)
        return 1
    data = {}
    if os.path.exists(args.reference):
        with open(args.reference, encoding="ascii") as fh:
            data = json.load(fh)
    node = data
    *parents, leaf = _reference_key(args)
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = outputs
    with open(args.reference, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _measure(args, workload) -> dict:
    import tracer as tracer_mod
    from workloads import rel_close

    gate = Gate(_load_reference(args), rel_close)
    tracer = tracer_mod.Tracer() if args.trace else None
    timings, untraced, traced, summaries, kept = [], [], [], [], []

    def one_pass(trace: bool):
        if trace:
            tracer.install()
        start = time.perf_counter()
        try:
            outputs, times = workload.run_pass()
        finally:
            wall = time.perf_counter() - start
            if trace:
                tracer.uninstall()
        gate.check_pass(outputs)
        if trace:
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                kept.extend((list(tracer.spans), start))
        return outputs, times, wall

    deadline = time.perf_counter() + args.seconds
    try:
        while not timings or time.perf_counter() < deadline:
            if tracer is None:
                outputs, times, wall = one_pass(False)
                timings.append(dict(times, wall=wall))
            else:
                untraced.append(one_pass(False)[2])
                outputs, times, wall = one_pass(True)
                traced.append(wall)
                timings.append(times)
    except Exception as exc:                  # the gate counts it
        traceback.print_exc()
        gate.check("pass", False, f"{type(exc).__name__}: {exc}")
        if not timings:
            raise
    try:
        for name, ok, detail in workload.final_checks(outputs):
            gate.check(name, ok, detail)
    except Exception as exc:
        traceback.print_exc()
        gate.check("final checks", False, f"{type(exc).__name__}: {exc}")
    if tracer is not None:
        for s in summaries[1:]:
            same = (s["calls"] == summaries[0]["calls"]
                    and s["counts"] == summaries[0]["counts"])
            gate.check("trace counts repeat", same)
        metrics = tracer_mod.per_layer(summaries, untraced, traced)
        if args.trace_out:
            tracer_mod.write_spans(args.trace_out, *kept)
    else:
        # Times are the best pass: other load on the machine slows passes
        # at random, and the best pass is the least disturbed.
        # Also shown: the median pass and the slowest pass with at least
        # ten slower ones beyond it, labelled by its time percentile.
        rates = sorted(t["ops"] / t["op_wall"] for t in timings)
        tail = min(10, len(rates) - 1)
        metrics = {
            "ops_per_s": rates[-1],
            "ops_per_s_passes": {
                "median": statistics.median(rates),
                f"p{100 * (len(rates) - tail) // len(rates)}": rates[tail],
                "worst": rates[0]},
            "pass_s": min(t["wall"] for t in timings),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if "gradcheck_s" in timings[0]:
            metrics["gradcheck_s"] = min(t["gradcheck_s"] for t in timings)
    result = {"attempted": gate.attempted, "failed": gate.failed,
              "passes": len(timings), "op": workload.op, "metrics": metrics,
              "reference": gate.reference is not None}
    if hasattr(workload, "footprint"):
        result["sizes"] = workload.footprint()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "record"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale,
                                                  args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "record":
        return _record(args, workload)
    result = _measure(args, workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
