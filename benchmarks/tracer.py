"""Span tracer for the traced benchmark run.

It wraps the public functions of each gcobench module from outside the
package: every module-level binding of a traced function, in every gcobench
module, is rebound to a wrapper while a traced pass runs, and sampler
methods are rebound on their classes. Spans (name, parent, start, end) are
kept in memory; self time and counts are computed from them after the pass,
and one pass's spans are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import numpy as np

# The traced layer boundaries, as "<module>.<function>" or
# "<module>.<Class>.<method>".
SPANS = (
    "cli.main",
    "harness.train", "harness.sweep_batch_size", "harness.emit_metrics",
    "harness.gradcheck",
    "embed_core.MinibatchSampler.next_batch",
    "embed_core.IndexSampler.next_indices",
    "embed_core.sample_minibatch", "embed_core.batch_views",
    "encoder.encode_batch", "encoder.backward_batch",
    "encoder.flatten_params", "encoder.unflatten_params",
    "objective.oracle_F", "objective.oracle_value",
    "objective.aug_consistency_eps_mean", "objective.g_minibatch",
    "objective.g_exact",
    "optimizers.simclr_step", "optimizers.sogclr_step",
    "optimizers.simclr_estimator", "optimizers.sogclr_estimator",
    "bimodal.twoway_step", "bimodal.twoway_update_u",
    "bimodal.twoway_estimator", "bimodal.twoway_oracle_F",
)
COUNTS = ("encoder.encode_batch.rows", "objective.oracle_F.s_entries",
          "bimodal.encode_calls_per_step",
          "bimodal.encode_calls_per_step.lagged")


def _rows(args, kwargs):
    shape = np.shape(args[1] if len(args) > 1 else kwargs["X"])
    return shape[0] if len(shape) == 2 else 1


def _s_entries(args, kwargs):
    ds, fam = args[2], args[3]
    return (ds.n * fam.K) ** 2


# Count hooks: span name -> (count name, count of one call from its args).
COUNT_HOOKS = {"encoder.encode_batch": ("encoder.encode_batch.rows", _rows),
               "objective.oracle_F": ("objective.oracle_F.s_entries",
                                      _s_entries)}


class Tracer:
    def __init__(self):
        self.spans = []           # [name index, parent span id, start, end]
        self.counts = dict.fromkeys(v[0] for v in COUNT_HOOKS.values())
        self._stack = []
        self._restore = []

    def _wrap(self, index, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNT_HOOKS.get(SPANS[index])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                counts[hook[0]] += hook[1](args, kwargs)
            span = [index, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self):
        """Start a fresh pass: clear spans and rebind every traced function."""
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0
        modules = [m for name, m in sys.modules.items()
                   if name == "gcobench" or name.startswith("gcobench.")]
        for index, span in enumerate(SPANS):
            mod_name, _, attr = span.partition(".")
            module = importlib.import_module(f"gcobench.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(index, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(index, orig)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._restore.append((m, key, orig))
                    setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-span calls and self seconds, plus the counts, for one pass."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(SPANS)
        self_s = [0.0] * len(SPANS)
        for sid, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        out = {"calls": dict(zip(SPANS, calls)),
               "self_s": dict(zip(SPANS, self_s)),
               "counts": dict(self.counts)}
        ratios = self._encode_calls_per_step()
        out["counts"]["bimodal.encode_calls_per_step"] = ratios[0]
        out["counts"]["bimodal.encode_calls_per_step.lagged"] = ratios[1]
        return out

    def _encode_calls_per_step(self):
        """encode_batch calls made inside twoway_step, per twoway_step call,
        for the first and second top-level `harness.train` that made such
        steps (the bimodal workload trains its fresh cell first)."""
        train = SPANS.index("harness.train")
        step = SPANS.index("bimodal.twoway_step")
        enc = SPANS.index("encoder.encode_batch")
        per_train = {}

        def ancestor(sid, index):
            while sid >= 0 and self.spans[sid][0] != index:
                sid = self.spans[sid][1]
            return sid

        def top_train(sid):
            found = -1
            while sid >= 0:
                if self.spans[sid][0] == train:
                    found = sid
                sid = self.spans[sid][1]
            return found

        for sid, (name, parent, _, _) in enumerate(self.spans):
            if name == step:
                per_train.setdefault(top_train(sid), [0, 0])[1] += 1
            elif name == enc and ancestor(parent, step) >= 0:
                per_train.setdefault(top_train(sid), [0, 0])[0] += 1
        ratios = [e / s for _, (e, s) in sorted(per_train.items())]
        return (ratios + [0.0, 0.0])[:2]


def write_spans(path: str, spans, t0: float) -> None:
    """Write kept spans as JSON lines, times in microseconds from t0."""
    with open(path, "w", encoding="ascii") as fh:
        for sid, (name, parent, start, end) in enumerate(spans):
            fh.write(json.dumps([sid, parent, SPANS[name],
                                 round((start - t0) * 1e6, 3),
                                 round((end - start) * 1e6, 3)]) + "\n")


def per_layer(summaries, untraced_walls, traced_walls) -> dict:
    """Per-layer metrics from the summaries of identical traced passes:
    calls and counts from the first, self time as the median over passes."""
    first = summaries[0]
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = {"value": first["calls"][span], "unit": "count"}
        ms = statistics.median(s["self_s"][span] for s in summaries) * 1e3
        out[f"{span}.self_ms"] = {"value": ms, "unit": "ms"}
    for name in COUNTS:
        unit = "calls/step" if "per_step" in name else "count"
        out[name] = {"value": first["counts"][name], "unit": unit}
    ratio = statistics.median(traced_walls) / statistics.median(untraced_walls)
    out["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return out
