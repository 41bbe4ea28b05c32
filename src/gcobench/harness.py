"""Synthetic data, training loops, metrics files, batch-size sweeps, and the
bundled gradient checks.

A run is described by one flat RunConfig. Config files are plain text with
one `key = value` per line, '#' comments, and dotted section keys
(`optimizer.eta = 0.05`). Metrics are emitted as CSV or JSONL with a fixed
column order; floats are serialized with repr so files round-trip exactly and
identical configs yield byte-identical files (wall_clock_ms stays 0.0 unless
timing is enabled).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import time
import warnings
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import bimodal
from .bimodal import (PairedDataset, make_bimodal_state, pair_to_flat,
                      twoway_estimator, twoway_oracle_F, twoway_oracle_value,
                      twoway_step)
from .embed_core import (SAMPLING_MODES, Dataset, MiniBatch, MinibatchSampler,
                         IndexSampler, create_text, make_augmentation_family,
                         sample_minibatch)
from .encoder import (ARCHITECTURES, finite_diff_flat, finite_diff_grad,
                      flatten_params, init_encoder, save_encoder)
from .objective import (ORACLE_GUARD, VERSIONS, GlobalObjectiveConfig,
                        oracle_F, oracle_value)
from .optimizers import (U_LAG_MODES, NumericError, dcl_surrogate,
                         make_simclr_state, make_sogclr_state,
                         simclr_batch_loss, simclr_estimator, simclr_step,
                         sogclr_estimator, sogclr_step, sogclr_update_u)

ALGORITHMS = ("simclr", "simclr_momentum", "sogclr", "sogclr_adam",
              "bimodal_sogclr")
METRICS_FORMATS = ("csv", "jsonl")
DEFAULT_TAU = 0.1
GRADCHECK_GUARD = 200


class ConfigError(ValueError):
    """A run configuration is malformed or internally inconsistent."""


@dataclass
class MetricsRecord:
    """One cadence tick: objective value and oracle gradient norm under the
    configured version, u-tracking error, augmentation-consistency mean, and
    elapsed milliseconds (0.0 when timing is off)."""

    step: int
    objective_value: float
    oracle_grad_norm_sq: float
    u_tracking_mse: float
    eps_sq_mean: float
    wall_clock_ms: float


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def _key(key: str, default):
    """A RunConfig field set by the dotted config key `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, flat. Each field declares the
    dotted key that sets it from a config file or override. tau = None
    picks the per-algorithm default (0.1 unimodal, 0.07 bimodal)."""

    n: int = _key("dataset.n", 32)
    d_in: int = _key("dataset.d_in", 8)
    clusters: int = _key("dataset.clusters", 2)
    separation: float = _key("dataset.separation", 3.0)
    data_seed: int = _key("dataset.seed", 7)
    d_text: int = _key("dataset.d_text", 8)
    aug_k: int = _key("aug.k", 2)
    aug_scale: float = _key("aug.scale", 0.1)
    aug_seed: int = _key("aug.seed", 11)
    arch: str = _key("encoder.arch", "linear")
    d_hidden: int = _key("encoder.d_hidden", 8)
    m_embed: int = _key("encoder.m", 4)
    encoder_seed: int = _key("encoder.seed", 3)
    init_scale: float = _key("encoder.init_scale", 1.0)
    tau: float | None = _key("objective.tau", None)
    eps0: float = _key("objective.eps0", 0.0)
    version: str = _key("objective.version", "v1")
    algo: str = _key("optimizer.algo", "sogclr")
    eta: float = _key("optimizer.eta", 0.3)
    beta: float = _key("optimizer.beta", 0.9)
    gamma: float = _key("optimizer.gamma", 0.8)
    batch_size: int = _key("optimizer.batch_size", 8)
    steps: int = _key("optimizer.steps", 500)
    sampling: str = _key("optimizer.sampling", "epoch_shuffle")
    u_lag: str = _key("optimizer.u_lag", "fresh")
    train_seed: int = _key("optimizer.seed", 5)
    cadence: int = _key("metrics.cadence", 10)
    timing: bool = _key("metrics.timing", False)
    metrics_path: str = _key("metrics.path", "")
    metrics_format: str = _key("metrics.format", "csv")
    checkpoint_path: str = _key("checkpoint.path", "")
    sweep_batch_sizes: tuple[int, ...] = _key("sweep.batch_sizes", (4, 16, 64))
    sweep_seeds: tuple[int, ...] = _key("sweep.seeds", (1, 2, 3))
    sweep_path: str = _key("sweep.path", "")


def _parse_opt_float(raw: str):
    return None if raw.lower() in ("none", "auto") else float(raw)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty integer list")
    return tuple(int(p) for p in parts)


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "float | None": _parse_opt_float,
            "tuple[int, ...]": _parse_int_tuple}

# Dotted config key -> (RunConfig field, parser of its raw text).
KEY_MAP = {f.metadata["key"]: (f.name, _PARSERS[f.type])
           for f in fields(RunConfig)}


def _apply_pairs(config: RunConfig, pairs, where: str) -> RunConfig:
    updates = {}
    for key, raw in pairs:
        if key not in KEY_MAP:
            raise ConfigError(f"unknown config key {key!r} in {where}")
        name, parse = KEY_MAP[key]
        try:
            updates[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key} in {where}: {exc}") from exc
    return replace(config, **updates)


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """Read a flat `key = value` file ( '#' comments, blank lines allowed )."""
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, "
                              f"got {text!r}")
        key, raw = text.split("=", 1)
        pairs.append((key.strip(), raw.strip()))
    return _apply_pairs(base if base is not None else RunConfig(), pairs, path)


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply command-line `KEY=VALUE` strings on top of a config."""
    pairs = []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        pairs.append((key.strip(), raw.strip()))
    return _apply_pairs(config, pairs, "overrides")


def resolved_tau(config: RunConfig) -> float:
    if config.tau is not None:
        return config.tau
    return bimodal.DEFAULT_TAU if config.algo == "bimodal_sogclr" else DEFAULT_TAU


def validate_config(config: RunConfig) -> None:
    """Raise ConfigError on any invalid or inconsistent field."""
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ConfigError(msg)

    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            need(math.isfinite(value), f"{f.metadata['key']} must be finite")
        if f.name.endswith("seed"):
            need(value >= 0, f"{f.metadata['key']} must be >= 0")
    need(config.n >= 2, "dataset.n must be >= 2")
    need(config.d_in >= 1, "dataset.d_in must be >= 1")
    need(config.clusters >= 1, "dataset.clusters must be >= 1")
    need(config.n >= config.clusters, "dataset.n must be >= dataset.clusters")
    need(config.separation >= 0, "dataset.separation must be >= 0")
    need(config.d_text >= 1, "dataset.d_text must be >= 1")
    need(config.aug_k >= 1, "aug.k must be >= 1")
    need(config.aug_scale >= 0, "aug.scale must be >= 0")
    need(config.arch in ARCHITECTURES,
         f"encoder.arch must be one of {ARCHITECTURES}")
    need(config.d_hidden >= 1, "encoder.d_hidden must be >= 1")
    need(config.m_embed >= 2, "encoder.m must be >= 2")
    need(config.init_scale > 0, "encoder.init_scale must be > 0")
    need(config.tau is None or config.tau > 0, "objective.tau must be > 0")
    need(config.eps0 >= 0, "objective.eps0 must be >= 0")
    need(config.version in VERSIONS,
         f"objective.version must be one of {VERSIONS}")
    need(config.algo in ALGORITHMS,
         f"optimizer.algo must be one of {ALGORITHMS}")
    need(config.eta >= 0, "optimizer.eta must be >= 0")
    need(0 < config.beta <= 1, "optimizer.beta must lie in (0, 1]")
    need(0 < config.gamma <= 1, "optimizer.gamma must lie in (0, 1]")
    need(config.batch_size >= 2, "optimizer.batch_size must be >= 2")
    need(config.steps >= 1, "optimizer.steps must be >= 1")
    need(config.sampling in SAMPLING_MODES,
         f"optimizer.sampling must be one of {SAMPLING_MODES}")
    need(config.u_lag in U_LAG_MODES,
         f"optimizer.u_lag must be one of {U_LAG_MODES}")
    need(config.sampling != "epoch_shuffle" or config.batch_size <= config.n,
         "optimizer.batch_size must be <= dataset.n under epoch_shuffle")
    need(config.cadence >= 1, "metrics.cadence must be >= 1")
    need(config.metrics_format in METRICS_FORMATS,
         f"metrics.format must be one of {METRICS_FORMATS}")
    need(len(config.sweep_batch_sizes) >= 1, "sweep.batch_sizes must be nonempty")
    need(all(b >= 2 for b in config.sweep_batch_sizes),
         "sweep.batch_sizes entries must be >= 2")
    need(len(config.sweep_seeds) >= 1, "sweep.seeds must be nonempty")
    need(all(s >= 0 for s in config.sweep_seeds), "sweep.seeds entries must be >= 0")
    _check_oracle_size(config, paired=config.algo == "bimodal_sogclr")


def _check_oracle_size(config: RunConfig, paired: bool) -> None:
    """Raise ConfigError when the exact oracle that records (or checks) a
    unimodal or two-way run would refuse the configured dataset size."""
    if paired and config.n > bimodal.TWOWAY_ORACLE_GUARD:
        raise ConfigError(f"dataset.n must be <= {bimodal.TWOWAY_ORACLE_GUARD} "
                          f"for the two-way oracle, got {config.n}")
    if not paired and config.n * config.aug_k > ORACLE_GUARD:
        raise ConfigError(f"dataset.n * aug.k must be <= {ORACLE_GUARD} for "
                          f"the oracle, got {config.n * config.aug_k}")


def generate_synthetic(n: int, d_in: int, clusters: int, separation: float,
                       seed: int) -> Dataset:
    """Cluster centers on a seeded sphere of radius `separation`, points =
    center + unit-variance noise, labels assigned round robin."""
    if clusters < 1:
        raise ConfigError("clusters must be >= 1")
    if n < clusters:
        raise ConfigError("need at least one point per cluster")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((clusters, d_in))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = separation * raw / norms
    labels = tuple(int(i % clusters) for i in range(n))
    noise = rng.standard_normal((n, d_in))
    points = centers[np.array(labels)] + noise
    return Dataset(points=points, labels=labels)


def generate_synthetic_pairs(n: int, d_in: int, d_text: int, clusters: int,
                             separation: float, seed: int) -> PairedDataset:
    """Image side as generate_synthetic; text side is a fixed seeded linear
    map of the image vector plus small noise, so pairs are genuinely
    related but not identical."""
    ds = generate_synthetic(n, d_in, clusters, separation, seed)
    rng = np.random.default_rng(seed + 1)
    mix = rng.standard_normal((d_text, d_in)) / math.sqrt(d_in)
    text = ds.points @ mix.T + 0.1 * rng.standard_normal((n, d_text))
    return PairedDataset(image=ds.points, text=text,
                         labels=tuple(int(v) for v in ds.labels))


def _objective_config(config: RunConfig) -> GlobalObjectiveConfig:
    return GlobalObjectiveConfig(tau=resolved_tau(config), eps0=config.eps0,
                                 version=config.version)


def plateau(records) -> float:
    """Mean oracle_grad_norm_sq over the final 10% of records (at least one)."""
    if not records:
        raise ValueError("no records to average")
    k = max(1, math.ceil(0.1 * len(records)))
    return float(np.mean([r.oracle_grad_norm_sq for r in records[-k:]]))


def _inputs(config: RunConfig, paired: bool):
    """(dataset, augmentation family, encoder) of a unimodal run, or (pairs,
    image encoder, text encoder) of a bimodal one. Values that pass
    validate_config but not the builders (an augmentation scale whose deltas
    overflow, say) are reported as ConfigError."""
    def encoder(d_in: int, seed_shift: int = 0):
        return init_encoder(config.arch, d_in, config.m_embed, config.d_hidden,
                            config.encoder_seed + seed_shift, config.init_scale)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if paired:
                pairs = generate_synthetic_pairs(
                    config.n, config.d_in, config.d_text, config.clusters,
                    config.separation, config.data_seed)
                return pairs, encoder(config.d_in), encoder(config.d_text, 1)
            ds = generate_synthetic(config.n, config.d_in, config.clusters,
                                    config.separation, config.data_seed)
            fam = make_augmentation_family(config.d_in, config.aug_k,
                                           config.aug_scale, config.aug_seed)
            return ds, fam, encoder(config.d_in)
    except ValueError as exc:
        raise ConfigError(f"cannot build the run's inputs: {exc}") from exc


def _unimodal_task(config: RunConfig):
    """Initial params plus the step, measure and save closures of a simclr
    or sogclr run. measure returns the record's objective_value,
    oracle_grad_norm_sq, u_tracking_mse and eps_sq_mean, in that order."""
    ds, fam, params = _inputs(config, paired=False)
    ocfg = _objective_config(config)
    rng = np.random.default_rng(config.train_seed)
    sampler = MinibatchSampler(ds, fam, config.batch_size, rng, config.sampling)
    d = flatten_params(params).shape[0]
    if config.algo in ("simclr", "simclr_momentum"):
        beta = 1.0 if config.algo == "simclr" else config.beta
        state = make_simclr_state(d, config.eta, beta=beta)
        step_fn = simclr_step
    else:
        rule = "adam_style" if config.algo == "sogclr_adam" else "momentum"
        state = make_sogclr_state(config.n, d, config.eta, gamma=config.gamma,
                                  beta=config.beta, step_rule=rule,
                                  u_lag=config.u_lag)
        step_fn = sogclr_step

    def step(params):
        return step_fn(state, params, ocfg, sampler.next_batch(), ds, fam)

    def measure(params):
        res = oracle_F(params, ocfg, ds, fam)
        umse = (float(np.mean((state.u - res.per_sample_g.mean(axis=1)) ** 2))
                if state.u.size else 0.0)
        return res.value, float(res.grad @ res.grad), umse, res.eps_sq_mean

    return params, step, measure, save_encoder


def _bimodal_task(config: RunConfig):
    """Initial (image, text) params plus the step, measure and save closures
    of a two-way run, as for _unimodal_task."""
    ds, params_i, params_t = _inputs(config, paired=True)
    ocfg = _objective_config(config)
    rng = np.random.default_rng(config.train_seed)
    sampler = IndexSampler(config.n, config.batch_size, rng, config.sampling)
    d = pair_to_flat(params_i, params_t).shape[0]
    state = make_bimodal_state(config.n, d, config.eta, gamma=config.gamma,
                               beta=config.beta, u_lag=config.u_lag)

    def step(params):
        return twoway_step(state, *params, ocfg, sampler.next_indices(), ds)

    def measure(params):
        res = twoway_oracle_F(*params, ocfg, ds)
        umse = 0.5 * (float(np.mean((state.u_image - res.g_image) ** 2))
                      + float(np.mean((state.u_text - res.g_text) ** 2)))
        return res.value, float(res.grad @ res.grad), umse, 0.0

    def save(params, path: str) -> None:
        save_encoder(params[0], path + ".image")
        save_encoder(params[1], path + ".text")

    return (params_i, params_t), step, measure, save


def train(config: RunConfig):
    """Run the configured optimizer and return the metrics records.

    Emits a baseline record at step 0, one per cadence tick, and one at the
    final step; writes metrics and checkpoint files when paths are set."""
    validate_config(config)
    task = _bimodal_task if config.algo == "bimodal_sogclr" else _unimodal_task
    params, step, measure, save = task(config)
    records = []
    start = time.perf_counter()

    def record(t: int, params) -> None:
        values = measure(params)
        for column, value in zip(METRICS_COLUMNS[1:], values):
            if not math.isfinite(value):
                raise NumericError(f"non-finite {column} ({value})")
        ms = (time.perf_counter() - start) * 1000.0 if config.timing else 0.0
        records.append(MetricsRecord(t, *values, ms))

    t = 0
    try:
        record(0, params)
        for t in range(1, config.steps + 1):
            params = step(params)
            if t % config.cadence == 0 or t == config.steps:
                record(t, params)
    except (NumericError, ValueError) as exc:
        # A ValueError here comes from the drawn batch (a slot without
        # negatives) or a collapsed embedding: a numeric failure.
        raise NumericError(f"step {t}: {exc}") from exc

    if config.metrics_path:
        emit_metrics(records, config.metrics_path, config.metrics_format)
    if config.checkpoint_path:
        save(params, config.checkpoint_path)
    return records


@dataclass(frozen=True)
class SweepRow:
    batch_size: int
    plateau_mean: float
    plateau_std: float
    plateaus: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def _outcome(cell: RunConfig):
    """(True, the cell's plateau), or (False, the error it raised)."""
    try:
        return True, plateau(train(cell))
    except Exception as exc:        # reported by the sweep, in cell order
        return False, exc


def _send_outcome(conn, cell: RunConfig) -> None:
    conn.send(_outcome(cell))


def _forked_outcomes(cells, workers: int):
    """Yield each cell's outcome in cell order. The cells run on up to
    `workers` processes at a time, each forked from this one for its cell,
    the largest batches first, so that free processes take the long cells
    early. A fork starts with the caller's numpy error state and warning
    filters. Closing the generator kills the cells still running.

    Each cell sends its outcome on a pipe of its own, so a killed cell holds
    no lock that another needs, and a cell that dies is seen as the end of
    its pipe."""
    import multiprocessing          # on first use: it costs set-up time
    from multiprocessing.connection import wait
    fork = multiprocessing.get_context("fork")
    queue = sorted(range(len(cells)), key=lambda i: -cells[i].batch_size)
    running, done = {}, {}
    try:
        for i in range(len(cells)):
            while i not in done:
                while queue and len(running) < workers:
                    j = queue.pop(0)
                    reader, writer = fork.Pipe(duplex=False)
                    proc = fork.Process(target=_send_outcome,
                                        args=(writer, cells[j]))
                    with warnings.catch_warnings():
                        # Python 3.12+ warns when a process with threads
                        # forks: here OpenBLAS's, unless BLAS is pinned, and
                        # the oracle's tile pool. OpenBLAS resets itself in
                        # the child, and objective drops its pool there.
                        warnings.filterwarnings(
                            "ignore", r"This process \(pid=\d+\) is "
                            "multi-threaded", DeprecationWarning)
                        proc.start()
                    writer.close()
                    running[reader] = j, proc
                for reader in wait(list(running)):
                    j, proc = running.pop(reader)
                    try:
                        done[j] = reader.recv()
                    except EOFError:        # the process died (a kill, say)
                        pass
                    reader.close()
                    proc.join()
                    done.setdefault(j, (False, ChildProcessError(
                        f"sweep cell B={cells[j].batch_size} seed="
                        f"{cells[j].train_seed}: its process exited with "
                        f"code {proc.exitcode}")))
            yield done.pop(i)
    finally:
        for reader, (_, proc) in running.items():
            proc.kill()
            proc.join()
            reader.close()


def sweep_batch_size(config: RunConfig) -> SweepResult:
    """Train one run per (sweep.batch_sizes, sweep.seeds) cell and aggregate
    the plateau gradient norms per batch size. Each seed shifts both the
    sampling stream and the encoder init so cells are independent
    repetitions.

    Cells run side by side, each in a process forked for it, at most one
    per CPU, and in this process when there is one CPU. Their outcomes are
    read in cell order, so the result, the sweep file and the error of the
    first failing cell do not depend on the process count."""
    validate_config(config)
    for b in config.sweep_batch_sizes:
        if config.sampling == "epoch_shuffle" and b > config.n:
            raise ConfigError(f"sweep batch size {b} exceeds dataset.n "
                              f"under epoch_shuffle")
    cells = [replace(config, batch_size=b, train_seed=seed,
                     encoder_seed=config.encoder_seed + seed,
                     metrics_path="", checkpoint_path="", sweep_path="")
             for b in config.sweep_batch_sizes for seed in config.sweep_seeds]
    workers = min(len(cells), len(os.sched_getaffinity(0)))
    outcomes = (_forked_outcomes(cells, workers) if workers > 1
                else (_outcome(cell) for cell in cells))
    plateaus = []
    with contextlib.closing(outcomes):
        for cell, (ok, value) in zip(cells, outcomes):
            if isinstance(value, NumericError):
                raise NumericError(f"sweep cell B={cell.batch_size} "
                                   f"seed={cell.train_seed}: {value}") from value
            if not ok:
                raise value
            plateaus.append(value)
    rows = []
    per_b = len(config.sweep_seeds)
    for j, b in enumerate(config.sweep_batch_sizes):
        values = plateaus[j * per_b:(j + 1) * per_b]
        arr = np.array(values)
        std = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
        rows.append(SweepRow(batch_size=int(b), plateau_mean=float(arr.mean()),
                             plateau_std=std, plateaus=tuple(values)))
    result = SweepResult(rows=tuple(rows))
    if config.sweep_path:
        save_sweep(result, config.sweep_path)
    return result


def save_sweep(result: SweepResult, path: str) -> None:
    try:
        with create_text(path, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["batch_size", "plateau_mean", "plateau_std"])
            for row in result.rows:
                writer.writerow([row.batch_size, repr(row.plateau_mean),
                                 repr(row.plateau_std)])
    except OSError as exc:
        raise OSError(f"cannot write sweep results to {path}: {exc}") from exc


@dataclass(frozen=True)
class GradcheckResult:
    name: str
    rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.tol


@dataclass(frozen=True)
class GradcheckReport:
    checks: tuple[GradcheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-30)
    return float(np.linalg.norm(a - b)) / scale


FD_TOL = 1e-5
EXACT_TOL = 1e-8


def _fd_check(name: str, analytic: np.ndarray, differences, f,
              at) -> GradcheckResult:
    """analytic against differences(f, at), the central differences of
    finite_diff_grad or finite_diff_flat. A non-finite value of f (exp(sim /
    tau) overflows at a tiny tau) is a numeric failure, not a failed check."""
    try:
        fd = differences(f, at)
    except ValueError as exc:
        raise NumericError(f"{name}: {exc}") from exc
    return GradcheckResult(name=name, rel_err=_rel_err(analytic, fd),
                           tol=FD_TOL)


def gradcheck(config: RunConfig) -> GradcheckReport:
    """Check every analytic gradient on the configured (small) instance.

    Finite-difference comparisons run at tolerance 1e-5, estimator-vs-
    estimator identities at 1e-8. Guards against instances with more than
    200 encoder parameters, where central differencing gets slow and noisy.
    """
    validate_config(config)
    # validate_config checked the oracle of the run's own objective; gradcheck
    # runs both, so it checks the other one too.
    _check_oracle_size(config, paired=config.algo != "bimodal_sogclr")
    tau = config.tau if config.tau is not None else DEFAULT_TAU
    tau_bi = config.tau if config.tau is not None else bimodal.DEFAULT_TAU

    ds, fam, params = _inputs(config, paired=False)
    pds, _, params_ti = _inputs(config, paired=True)
    d_uni = flatten_params(params).shape[0]
    d_pair = d_uni + flatten_params(params_ti).shape[0]
    if max(d_uni, d_pair) > GRADCHECK_GUARD:
        raise ConfigError(f"gradcheck instance has {max(d_uni, d_pair)} "
                          f"parameters, guard is {GRADCHECK_GUARD}")

    checks = []

    # Exact oracles against central differences, both versions.
    for version in VERSIONS:
        cfg_v = GlobalObjectiveConfig(tau=tau, eps0=config.eps0, version=version)
        res = oracle_F(params, cfg_v, ds, fam)
        checks.append(_fd_check(f"oracle_{version}_grad", res.grad,
                                finite_diff_grad,
                                lambda p: oracle_value(p, cfg_v, ds, fam),
                                params))

    # Two-way oracle against central differences over both encoders jointly.
    cfg_bi = GlobalObjectiveConfig(tau=tau_bi, eps0=config.eps0)
    res_bi = twoway_oracle_F(params, params_ti, cfg_bi, pds)
    w0 = bimodal.pair_to_flat(params, params_ti)

    def bi_value(vec: np.ndarray) -> float:
        pi, pt = bimodal.flat_to_pair(params, params_ti, vec)
        return twoway_oracle_value(pi, pt, cfg_bi, pds)

    checks.append(_fd_check("twoway_oracle_grad", res_bi.grad,
                            finite_diff_flat, bi_value, w0))

    # In-batch estimator against differences of its own batch loss.
    cfg_u = GlobalObjectiveConfig(tau=tau, eps0=config.eps0,
                                  version=config.version)
    rng = np.random.default_rng(config.train_seed)
    batch = sample_minibatch(ds, fam, min(config.batch_size, config.n), rng,
                             "epoch_shuffle")
    est = simclr_estimator(params, cfg_u, batch, ds, fam)
    checks.append(_fd_check(
        "simclr_estimator_vs_loss", est, finite_diff_grad,
        lambda p: simclr_batch_loss(p, cfg_u, batch, ds, fam), params))

    # Frozen-weight surrogate against the moving-average estimator.
    state = make_sogclr_state(config.n, d_uni, eta=config.eta,
                              gamma=config.gamma, beta=config.beta)
    sogclr_update_u(state, params, cfg_u, batch, ds, fam)
    report = sogclr_estimator(state, params, cfg_u, batch, ds, fam)
    _, eval_fn = dcl_surrogate(state, params, cfg_u, batch, ds, fam)
    checks.append(_fd_check("dcl_surrogate_vs_sogclr", report.estimator,
                            finite_diff_grad, eval_fn, params))

    # Full-batch single-view moving-average estimator against the exact
    # version-2 oracle gradient (an algebraic identity, so 1e-8).
    fam1 = make_augmentation_family(config.d_in, 1, config.aug_scale,
                                    config.aug_seed)
    full = MiniBatch(indices=np.arange(config.n),
                     aug_a=np.zeros(config.n, dtype=int),
                     aug_b=np.zeros(config.n, dtype=int))
    cfg_v2 = GlobalObjectiveConfig(tau=tau, eps0=0.0, version="v2")
    state1 = make_sogclr_state(config.n, d_uni, eta=config.eta, gamma=1.0)
    m_full = sogclr_estimator(state1, params, cfg_v2, full, ds, fam1).estimator
    oracle_full = oracle_F(params, cfg_v2, ds, fam1).grad
    checks.append(GradcheckResult(name="sogclr_vs_oracle_v2",
                                  rel_err=_rel_err(m_full, oracle_full),
                                  tol=EXACT_TOL))

    # Two-way estimator with statistics planted at their exact values.
    state_bi = make_bimodal_state(config.n, d_pair, eta=config.eta)
    state_bi.u[:] = res_bi.g_image, res_bi.g_text
    est_bi = twoway_estimator(state_bi, params, params_ti, cfg_bi,
                              np.arange(config.n), pds)
    checks.append(GradcheckResult(name="twoway_planted_u",
                                  rel_err=_rel_err(est_bi, res_bi.grad),
                                  tol=EXACT_TOL))

    return GradcheckReport(checks=tuple(checks))


def emit_metrics(records, path: str, fmt: str = "csv") -> None:
    """Write records in the documented column order; floats via repr so the
    file round-trips exactly."""
    if fmt not in METRICS_FORMATS:
        raise ConfigError(f"metrics format must be one of {METRICS_FORMATS}")
    rows = [astuple(r) for r in records]
    try:
        with create_text(path, newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(METRICS_COLUMNS)
                writer.writerows([step, *map(repr, values)]
                                 for step, *values in rows)
            else:
                for row in rows:
                    fh.write(json.dumps(dict(zip(METRICS_COLUMNS, row))) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def read_metrics(path: str, fmt: str = "csv"):
    """Parse a metrics file written by emit_metrics."""
    if fmt not in METRICS_FORMATS:
        raise ConfigError(f"metrics format must be one of {METRICS_FORMATS}")
    records = []
    with open(path, "r", encoding="ascii") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(METRICS_COLUMNS):
                raise ValueError(f"unexpected metrics header in {path}: {header}")
            rows = reader
        else:
            rows = ([json.loads(line)[col] for col in METRICS_COLUMNS]
                    for line in fh if line.strip())
        for step, *values in rows:
            records.append(MetricsRecord(int(step), *map(float, values)))
    return records
