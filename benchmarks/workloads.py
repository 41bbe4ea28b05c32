"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in its constructor
(that is the set-up the benchmark times), then runs the same deterministic
pass as many times as the run allows. A pass returns its outputs, one
JSON-ready payload per unit (a sweep, a training cell, a gradcheck, a draw
series), and its timings. `final_checks` holds the checks that need no
stored reference, so that any seed is gated.

Every call into the package goes through a module attribute
(`harness.train`, `objective.g_minibatch`, ...) so that the traced run,
which rebinds those attributes, sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import replace

import numpy as np

from gcobench import bimodal, cli, embed_core, encoder, harness, objective

# Run sizes. "full" is what the benchmark measures; "tiny" keeps every code
# path but runs in well under a second, for the smoke test.
SCALES = {
    "full": {
        "sweep_steps": dict(n=256, steps=1000, batch_sizes=(4, 16, 64)),
        "oracle_records": dict(cells=((256, 20, "csv"), (1024, 3, "jsonl"))),
        "bimodal_train": dict(n=256, steps=1500, cadence=100,
                              batch_sizes=(16, 64)),
        "mass_probe": dict(draws=((8, 10_000), (32, 2_500))),
    },
    "tiny": {
        "sweep_steps": dict(n=64, steps=10, batch_sizes=(4, 16, 64)),
        "oracle_records": dict(cells=((32, 2, "csv"), (64, 1, "jsonl"))),
        "bimodal_train": dict(n=32, steps=20, cadence=10, batch_sizes=(4, 16)),
        "mass_probe": dict(draws=((8, 60), (32, 20))),
    },
}

# The criterion-5 task of the acceptance gate, minus its seeds and size.
TASK = dict(d_in=4, m_embed=4, clusters=4, aug_k=2, aug_scale=0.5, tau=0.2,
            arch="linear")
TASK_KEYS = {"d_in": "dataset.d_in", "m_embed": "encoder.m",
             "clusters": "dataset.clusters", "aug_k": "aug.k",
             "aug_scale": "aug.scale", "tau": "objective.tau",
             "arch": "encoder.arch"}
SWEEP_ALGOS = (("simclr", dict(eta=0.01)),
               ("sogclr", dict(eta=0.004, gamma=0.1)))
CONFIG_KEYS = {"algo": "optimizer.algo", "eta": "optimizer.eta",
               "gamma": "optimizer.gamma"}
# Standard errors a draw series' mean may sit from the exact mass.
PROBE_SE_LIMIT = 5.0
REL_TOL = 1e-12


def derive(seed: int, tag: int) -> int:
    """An independent 31-bit seed for one input stream of a benchmark seed."""
    state = np.random.SeedSequence([seed, tag]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def record_rows(records):
    return [[r.step, r.objective_value, r.oracle_grad_norm_sq,
             r.u_tracking_mse, r.eps_sq_mean] for r in records]


def objective_config(cfg) -> objective.GlobalObjectiveConfig:
    return objective.GlobalObjectiveConfig(tau=cfg.tau, eps0=cfg.eps0,
                                           version=cfg.version)


def _seeds(seed: int) -> dict:
    return dict(data_seed=derive(seed, 0), aug_seed=derive(seed, 1),
                encoder_seed=derive(seed, 2), train_seed=derive(seed, 3))


def _oracle_matches(name, record, value, grad_sq, eps=None):
    """Check one record against oracle values recomputed from a checkpoint."""
    pairs = [(record.objective_value, value),
             (record.oracle_grad_norm_sq, grad_sq)]
    if eps is not None:
        pairs.append((record.eps_sq_mean, eps))
    ok = all(rel_close(a, b) for a, b in pairs)
    return name, ok, "" if ok else f"record {pairs} vs fresh oracle"


class SweepSteps:
    """`gcobench sweep` through `cli.main`, simclr and sogclr, one seed per
    batch size, with records only at step 0 and at the last step."""

    op = "steps"

    def __init__(self, seed: int, scale: str, workdir: str):
        p = SCALES[scale]["sweep_steps"]
        self.steps, self.sizes = p["steps"], p["batch_sizes"]
        seeds = _seeds(seed)
        self.sweep_seed = derive(seed, 4) % 100_000
        self.workdir = workdir
        self.runs = {}
        for algo, hyper in SWEEP_ALGOS:
            lines = [f"dataset.n = {p['n']}",
                     f"dataset.seed = {seeds['data_seed']}",
                     f"aug.seed = {seeds['aug_seed']}",
                     f"encoder.seed = {seeds['encoder_seed']}",
                     f"optimizer.steps = {self.steps}",
                     f"metrics.cadence = {self.steps}",
                     "sweep.batch_sizes = " + ",".join(map(str, self.sizes)),
                     f"sweep.seeds = {self.sweep_seed}",
                     f"optimizer.algo = {algo}"]
            lines += [f"{TASK_KEYS[k]} = {v}" for k, v in TASK.items()]
            lines += [f"{CONFIG_KEYS[k]} = {v}" for k, v in hyper.items()]
            cfg_path = os.path.join(workdir, f"sweep_{algo}.cfg")
            with open(cfg_path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            self.runs[algo] = (cfg_path, os.path.join(workdir, f"sweep_{algo}.csv"))
        self.config = harness.load_config(self.runs["simclr"][0])
        c = self.config
        self.ds = harness.generate_synthetic(c.n, c.d_in, c.clusters,
                                             c.separation, c.data_seed)
        self.fam = embed_core.make_augmentation_family(c.d_in, c.aug_k,
                                                       c.aug_scale, c.aug_seed)

    def run_pass(self):
        outputs = {}
        start = time.perf_counter()
        for algo, (cfg_path, table) in self.runs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["sweep", cfg_path, f"sweep.path={table}"])
            if rc != 0:
                raise RuntimeError(f"gcobench sweep ({algo}) exited {rc}")
            with open(table, encoding="ascii") as fh:
                rows = list(csv.reader(fh))[1:]
            outputs[algo] = [[int(b), float(mean), float(std)]
                             for b, mean, std in rows]
        wall = time.perf_counter() - start
        ops = len(self.runs) * len(self.sizes) * self.steps
        return outputs, {"ops": ops, "op_wall": wall}

    def final_checks(self, outputs):
        """Retrain the smallest-batch simclr cell on its own and check its
        plateau against the sweep table and its last record against a fresh
        oracle on its checkpoint."""
        b = self.sizes[0]
        ckpt = os.path.join(self.workdir, "sweep_cell.ckpt")
        cell = replace(self.config, batch_size=b, train_seed=self.sweep_seed,
                       encoder_seed=self.config.encoder_seed + self.sweep_seed,
                       checkpoint_path=ckpt)
        records = harness.train(cell)
        plateau = harness.plateau(records)
        ok = rel_close(plateau, outputs["simclr"][0][1])
        checks = [("sweep table matches a lone cell", ok,
                   "" if ok else f"{plateau} vs {outputs['simclr'][0][1]}")]
        params = encoder.load_encoder(ckpt)
        res = objective.oracle_F(params, objective_config(cell),
                                 self.ds, self.fam)
        checks.append(_oracle_matches("sweep cell checkpoint oracle",
                                      records[-1], res.value,
                                      float(res.grad @ res.grad)))
        return checks


class OracleRecords:
    """`harness.train` with a record at every step, at a size whose
    similarity matrix is about one core's L2 and one 16 times larger, plus
    one gradcheck of the criterion-5 task."""

    op = "records"

    def __init__(self, seed: int, scale: str, workdir: str):
        seeds = _seeds(seed)
        self.cells = []
        for n, steps, fmt in SCALES[scale]["oracle_records"]["cells"]:
            base = os.path.join(workdir, f"oracle_{n}")
            cfg = harness.RunConfig(
                n=n, steps=steps, cadence=1, algo="sogclr", eta=0.004,
                gamma=0.1, batch_size=16, metrics_path=f"{base}.{fmt}",
                metrics_format=fmt, checkpoint_path=f"{base}.ckpt",
                **seeds, **TASK)
            ds = harness.generate_synthetic(n, cfg.d_in, cfg.clusters,
                                            cfg.separation, cfg.data_seed)
            self.cells.append((cfg, ds))
        self.fam = embed_core.make_augmentation_family(
            TASK["d_in"], TASK["aug_k"], TASK["aug_scale"], seeds["aug_seed"])
        n0 = self.cells[0][0].n
        self.gradcheck_config = harness.RunConfig(n=n0, batch_size=16,
                                                  **seeds, **TASK)
        self.records = {}

    def footprint(self):
        """n*K and similarity-matrix bytes of each cell."""
        out = {}
        for cfg, _ in self.cells:
            nk = cfg.n * cfg.aug_k
            out[f"n{cfg.n}"] = {"nK": nk, "S_bytes": nk * nk * 8}
        return out

    def run_pass(self):
        outputs = {}
        n_records = 0
        start = time.perf_counter()
        for cfg, _ in self.cells:
            records = harness.train(cfg)
            self.records[cfg.n] = records
            outputs[f"n{cfg.n}"] = record_rows(records)
            n_records += len(records)
        train_wall = time.perf_counter() - start
        report = harness.gradcheck(self.gradcheck_config)
        gradcheck_wall = time.perf_counter() - start - train_wall
        if not report.passed:
            raise RuntimeError("gradcheck failed: " + ", ".join(
                c.name for c in report.checks if not c.passed))
        outputs["gradcheck"] = [[c.name, c.passed] for c in report.checks]
        return outputs, {"ops": n_records, "op_wall": train_wall,
                         "gradcheck_s": gradcheck_wall}

    def final_checks(self, outputs):
        """Metrics files read back exactly; each cell's last record equals
        the oracle and eps diagnostic on its checkpoint."""
        checks = []
        for cfg, ds in self.cells:
            records = self.records[cfg.n]
            back = harness.read_metrics(cfg.metrics_path, cfg.metrics_format)
            ok = back == records
            checks.append((f"n{cfg.n} metrics file round trip", ok, ""))
            params = encoder.load_encoder(cfg.checkpoint_path)
            res = objective.oracle_F(params, objective_config(cfg),
                                     ds, self.fam)
            eps = objective.aug_consistency_eps_mean(params, ds, self.fam)
            checks.append(_oracle_matches(f"n{cfg.n} checkpoint oracle",
                                          records[-1], res.value,
                                          float(res.grad @ res.grad), eps))
        return checks


class BimodalTrain:
    """Two-way training: a linear cell with fresh statistics and a
    one-hidden-layer cell with lagged statistics."""

    op = "steps"

    def __init__(self, seed: int, scale: str, workdir: str):
        p = SCALES[scale]["bimodal_train"]
        seeds = _seeds(seed)
        fresh_b, lagged_b = p["batch_sizes"]
        common = dict(algo="bimodal_sogclr", n=p["n"], tau=0.07,
                      steps=p["steps"], cadence=p["cadence"], **seeds)
        self.cells = {
            "fresh": harness.RunConfig(
                batch_size=fresh_b, u_lag="fresh", arch="linear",
                checkpoint_path=os.path.join(workdir, "bimodal_fresh"),
                **common),
            "lagged": harness.RunConfig(
                batch_size=lagged_b, u_lag="lagged", arch="one_hidden",
                checkpoint_path=os.path.join(workdir, "bimodal_lagged"),
                **common),
        }
        cfg = self.cells["fresh"]
        self.pds = harness.generate_synthetic_pairs(
            cfg.n, cfg.d_in, cfg.d_text, cfg.clusters, cfg.separation,
            cfg.data_seed)
        self.records = {}

    def run_pass(self):
        outputs = {}
        ops = 0
        start = time.perf_counter()
        for name, cfg in self.cells.items():
            records = harness.train(cfg)
            self.records[name] = records
            outputs[name] = record_rows(records)
            ops += cfg.steps
        return outputs, {"ops": ops, "op_wall": time.perf_counter() - start}

    def final_checks(self, outputs):
        checks = []
        for name, cfg in self.cells.items():
            pi = encoder.load_encoder(cfg.checkpoint_path + ".image")
            pt = encoder.load_encoder(cfg.checkpoint_path + ".text")
            res = bimodal.twoway_oracle_F(pi, pt,
                                          objective_config(cfg),
                                          self.pds)
            checks.append(_oracle_matches(f"{name} checkpoint oracle",
                                          self.records[name][-1], res.value,
                                          float(res.grad @ res.grad)))
        return checks


class MassProbe:
    """Criterion-3-style draws of the in-batch mass estimator for anchor
    view (0, 0), with-replacement batches, against one exact target."""

    op = "draws"

    def __init__(self, seed: int, scale: str, workdir: str):
        self.draws = SCALES[scale]["mass_probe"]["draws"]
        d_in = 6
        self.ds = harness.generate_synthetic(16, d_in, 2, 2.0,
                                             derive(seed, 0))
        self.fam = embed_core.make_augmentation_family(d_in, 2, 0.3,
                                                       derive(seed, 1))
        self.params = encoder.init_encoder("linear", d_in, 4, 6,
                                           derive(seed, 2))
        self.cfg = objective.GlobalObjectiveConfig(tau=0.5)
        self.draw_seed = derive(seed, 3)

    def run_pass(self):
        ds, fam, params, cfg = self.ds, self.fam, self.params, self.cfg
        start = time.perf_counter()
        outputs = {"target": objective.g_exact(params, cfg, 0, 0, ds, fam)}
        rng = np.random.default_rng(self.draw_seed)
        total = 0
        for B, count in self.draws:
            values = np.empty(count)
            for j in range(count):
                batch = embed_core.sample_minibatch(ds, fam, B, rng,
                                                    "with_replacement")
                values[j] = objective.g_minibatch(params, cfg, 0, 0, batch,
                                                  ds, fam)
            outputs[f"B{B}"] = {"count": count, "sum": float(values.sum()),
                                "sumsq": float(values @ values),
                                "min": float(values.min())}
            total += count
        return outputs, {"ops": total, "op_wall": time.perf_counter() - start}

    def final_checks(self, outputs):
        """Each series is positive and its mean sits within a few standard
        errors of the exact mass."""
        target = outputs["target"]
        checks = []
        for B, _ in self.draws:
            s = outputs[f"B{B}"]
            k = s["count"]
            mean = s["sum"] / k
            var = max(s["sumsq"] / k - mean * mean, 0.0) * k / (k - 1)
            se = math.sqrt(var / k)
            ok = s["min"] > 0 and abs(mean - target) <= PROBE_SE_LIMIT * se
            checks.append((f"B{B} mean near exact mass", ok,
                           "" if ok else f"mean {mean} target {target} se {se}"))
        return checks


WORKLOADS = {"sweep_steps": SweepSteps, "oracle_records": OracleRecords,
             "bimodal_train": BimodalTrain, "mass_probe": MassProbe}
