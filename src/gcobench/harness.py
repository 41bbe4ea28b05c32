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
                         IndexSampler, check_setting, make_augmentation_family,
                         sample_minibatch, write_text)
from .encoder import (ARCHITECTURES, finite_diff_flat, finite_diff_grad,
                      init_encoder, save_encoder)
from .objective import (ORACLE_GUARD, TILE_GUARD, VERSIONS,
                        GlobalObjectiveConfig, _oracle_values, oracle_F)
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


def _key(key: str, default, rule=None):
    """A RunConfig field set by the dotted config key `key`, whose values
    meet `rule` (see embed_core.check_setting; None for free text)."""
    return field(default=default, metadata={"key": key, "rule": rule})


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, flat. Each field declares the
    dotted key that sets it from a config file or override, and the rule
    its values meet. tau = None picks the per-algorithm default (0.1
    unimodal, 0.07 bimodal)."""

    n: int = _key("dataset.n", 32, "int >= 2")
    d_in: int = _key("dataset.d_in", 8, "int >= 1")
    clusters: int = _key("dataset.clusters", 2, "int >= 1")
    separation: float = _key("dataset.separation", 3.0, ">= 0")
    data_seed: int = _key("dataset.seed", 7, "int >= 0")
    d_text: int = _key("dataset.d_text", 8, "int >= 1")
    aug_k: int = _key("aug.k", 2, "int >= 1")
    aug_scale: float = _key("aug.scale", 0.1, ">= 0")
    aug_seed: int = _key("aug.seed", 11, "int >= 0")
    arch: str = _key("encoder.arch", "linear", ARCHITECTURES)
    d_hidden: int = _key("encoder.d_hidden", 8, "int >= 1")
    m_embed: int = _key("encoder.m", 4, "int >= 2")
    encoder_seed: int = _key("encoder.seed", 3, "int >= 0")
    init_scale: float = _key("encoder.init_scale", 1.0, "> 0")
    tau: float | None = _key("objective.tau", None, "> 0")
    eps0: float = _key("objective.eps0", 0.0, ">= 0")
    version: str = _key("objective.version", "v1", VERSIONS)
    algo: str = _key("optimizer.algo", "sogclr", ALGORITHMS)
    eta: float = _key("optimizer.eta", 0.3, ">= 0")
    beta: float = _key("optimizer.beta", 0.9, "(0, 1]")
    gamma: float = _key("optimizer.gamma", 0.8, "(0, 1]")
    batch_size: int = _key("optimizer.batch_size", 8, "int >= 2")
    steps: int = _key("optimizer.steps", 500, "int >= 1")
    sampling: str = _key("optimizer.sampling", "epoch_shuffle", SAMPLING_MODES)
    u_lag: str = _key("optimizer.u_lag", "fresh", U_LAG_MODES)
    train_seed: int = _key("optimizer.seed", 5, "int >= 0")
    cadence: int = _key("metrics.cadence", 10, "int >= 1")
    timing: bool = _key("metrics.timing", False)
    metrics_path: str = _key("metrics.path", "")
    metrics_format: str = _key("metrics.format", "csv", METRICS_FORMATS)
    checkpoint_path: str = _key("checkpoint.path", "")
    sweep_batch_sizes: tuple[int, ...] = _key("sweep.batch_sizes", (4, 16, 64),
                                              "int >= 2")
    sweep_seeds: tuple[int, ...] = _key("sweep.seeds", (1, 2, 3), "int >= 0")
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
    return tuple(int(p) for p in raw.split(","))


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


def load_config(path: str) -> RunConfig:
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
    return _apply_pairs(RunConfig(), pairs, path)


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
    """Raise ConfigError on the first field, in declaration order, that
    breaks its rule (each entry of a tuple field, which must be nonempty
    with distinct entries), then on inconsistent fields or a dataset too
    large for the exact oracle of config.algo's objective."""
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ConfigError(msg)

    for f in fields(config):
        key, rule = f.metadata["key"], f.metadata["rule"]
        values = getattr(config, f.name)
        if rule is None or values is None:      # free text, or tau = auto
            continue
        if isinstance(values, tuple):
            need(values != (), f"{key} must be nonempty")
            need(len(set(values)) == len(values),
                 f"{key} entries must be distinct, got {values}")
            key += " entries"
        else:
            values = (values,)
        try:
            for value in values:
                check_setting(key, value, rule)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    need(config.n >= config.clusters, "dataset.n must be >= dataset.clusters")
    if config.algo == "bimodal_sogclr":
        need(config.n <= bimodal.TWOWAY_ORACLE_GUARD,
             f"dataset.n must be <= {bimodal.TWOWAY_ORACLE_GUARD} for the "
             f"two-way oracle, got {config.n}")
    else:
        need(config.n * config.aug_k <= ORACLE_GUARD,
             f"dataset.n * aug.k must be <= {ORACLE_GUARD} for the oracle, "
             f"got {config.n * config.aug_k}")
        madds = config.aug_k * config.n * config.aug_k * config.m_embed
        need(madds < TILE_GUARD,
             f"aug.k * dataset.n * aug.k * encoder.m must be < {TILE_GUARD} "
             f"for the oracle's tiles, got {madds}")
    need(config.sampling != "epoch_shuffle" or config.batch_size <= config.n,
         f"batch size {config.batch_size} exceeds dataset.n = {config.n} "
         f"under epoch_shuffle")


def generate_synthetic(n: int, d_in: int, clusters: int, separation: float,
                       seed: int) -> Dataset:
    """Cluster centers on a seeded sphere of radius `separation`, points =
    center + unit-variance noise, point i in cluster i mod clusters."""
    if clusters < 1:
        raise ConfigError("clusters must be >= 1")
    if n < clusters:
        raise ConfigError("need at least one point per cluster")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((clusters, d_in))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = separation * raw / norms
    noise = rng.standard_normal((n, d_in))
    return Dataset(points=centers[np.arange(n) % clusters] + noise)


def generate_synthetic_pairs(n: int, d_in: int, d_text: int, clusters: int,
                             separation: float, seed: int) -> PairedDataset:
    """Image side as generate_synthetic; text side is a fixed seeded linear
    map of the image vector plus small noise, so pairs are genuinely
    related but not identical."""
    ds = generate_synthetic(n, d_in, clusters, separation, seed)
    rng = np.random.default_rng(seed + 1)
    mix = rng.standard_normal((d_text, d_in)) / math.sqrt(d_in)
    text = ds.points @ mix.T + 0.1 * rng.standard_normal((n, d_text))
    return PairedDataset(image=ds.points, text=text)


def _objective_config(config: RunConfig) -> GlobalObjectiveConfig:
    return GlobalObjectiveConfig(tau=resolved_tau(config), eps0=config.eps0,
                                 version=config.version)


def plateau(records) -> float:
    """Mean oracle_grad_norm_sq over the final 10% of records (at least one)."""
    if not records:
        raise ValueError("no records to average")
    k = max(1, math.ceil(0.1 * len(records)))
    return float(np.mean([r.oracle_grad_norm_sq for r in records[-k:]]))


def _inputs(config: RunConfig):
    """(dataset, augmentation family, encoder) of a unimodal run, or (pairs,
    image encoder, text encoder) of a bimodal one, as config.algo says.
    Values that pass validate_config but not the builders (an augmentation
    scale whose deltas overflow, say) are reported as ConfigError."""
    def encoder(d_in: int, seed_shift: int = 0):
        return init_encoder(config.arch, d_in, config.m_embed, config.d_hidden,
                            config.encoder_seed + seed_shift, config.init_scale)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if config.algo == "bimodal_sogclr":
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
    ds, fam, params = _inputs(config)
    ocfg = _objective_config(config)
    rng = np.random.default_rng(config.train_seed)
    sampler = MinibatchSampler(ds, fam, config.batch_size, rng, config.sampling)
    d = params.d
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
    ds, params_i, params_t = _inputs(config)
    ocfg = _objective_config(config)
    rng = np.random.default_rng(config.train_seed)
    sampler = IndexSampler(config.n, config.batch_size, rng, config.sampling)
    d = params_i.d + params_t.d
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
    """The cell's plateau, or the error it raised."""
    try:
        return plateau(train(cell))
    except Exception as exc:        # reported by the sweep, in cell order
        return exc


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
    its pipe; its outcome is then a ChildProcessError."""
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
                    done.setdefault(j, ChildProcessError(
                        f"its process exited with code {proc.exitcode}"))
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
    validate_config(replace(config, batch_size=max(config.sweep_batch_sizes,
                                                   default=config.batch_size)))
    cells = [replace(config, batch_size=b, train_seed=seed,
                     encoder_seed=config.encoder_seed + seed,
                     metrics_path="", checkpoint_path="", sweep_path="")
             for b in config.sweep_batch_sizes for seed in config.sweep_seeds]
    workers = min(len(cells), len(os.sched_getaffinity(0)))
    outcomes = (_forked_outcomes(cells, workers) if workers > 1
                else (_outcome(cell) for cell in cells))
    plateaus = []
    with contextlib.closing(outcomes):
        for cell, value in zip(cells, outcomes):
            if isinstance(value, (NumericError, ChildProcessError)):
                raise type(value)(f"sweep cell B={cell.batch_size} "
                                  f"seed={cell.train_seed}: {value}") from value
            if isinstance(value, Exception):
                raise value
            plateaus.append(value)
    table = np.array(plateaus).reshape(len(config.sweep_batch_sizes),
                                       len(config.sweep_seeds))
    rows = []
    for b, arr in zip(config.sweep_batch_sizes, table):
        std = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
        rows.append(SweepRow(batch_size=int(b), plateau_mean=float(arr.mean()),
                             plateau_std=std, plateaus=tuple(arr.tolist())))
    result = SweepResult(rows=tuple(rows))
    if config.sweep_path:
        save_sweep(result, config.sweep_path)
    return result


def save_sweep(result: SweepResult, path: str) -> None:
    lines = ["batch_size,plateau_mean,plateau_std"]
    lines += [f"{row.batch_size},{row.plateau_mean!r},{row.plateau_std!r}"
              for row in result.rows]
    write_text(path, "".join(line + "\n" for line in lines), "sweep results")


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


def _differences(name: str, differences, f, at) -> np.ndarray:
    """differences(f, at), the central differences of finite_diff_grad or
    finite_diff_flat. A non-finite value of f (exp(sim / tau) overflows at a
    tiny tau) is a numeric failure of check name, not a failed check."""
    try:
        return differences(f, at)
    except ValueError as exc:
        raise NumericError(f"{name}: {exc}") from exc


def gradcheck(config: RunConfig) -> GradcheckReport:
    """Check every analytic gradient on the configured (small) instance.

    Each check is one row, (name, computed, reference, tolerance): finite
    differences at 1e-5, estimator-vs-estimator identities at 1e-8. Guards
    against instances with more than 200 encoder parameters, where central
    differencing gets slow and noisy, and against a unimodal encoder whose
    output layer reads one input. Validates the run, at a batch of at most
    dataset.n, under both objectives.
    """
    run = replace(config, batch_size=min(config.batch_size, config.n))
    validate_config(run)
    bimodal_run = run.algo == "bimodal_sogclr"
    other = replace(run, algo="sogclr" if bimodal_run else "bimodal_sogclr")
    validate_config(other)          # gradcheck runs both objectives' oracles
    uni, bi = (other, run) if bimodal_run else (run, other)
    # With one input to the unimodal output layer, every embedding is +/-
    # one vector and every exact gradient 0: each rel_err compares noise.
    key, width = (("dataset.d_in", run.d_in) if run.arch == "linear"
                  else ("encoder.d_hidden", run.d_hidden))
    if width < 2:
        raise ConfigError(f"gradcheck needs {key} >= 2 with encoder.arch = "
                          f"{run.arch}: an output layer with one input makes "
                          f"every gradient 0")

    ds, fam, params = _inputs(uni)
    pds, _, params_ti = _inputs(bi)
    d_uni, d_pair = params.d, params.d + params_ti.d
    if d_pair > GRADCHECK_GUARD:
        raise ConfigError(f"gradcheck instance has {d_pair} parameters, "
                          f"guard is {GRADCHECK_GUARD}")

    # Exact oracles against central differences, both versions read off one
    # value pass per difference point. The pass is named for v1: wherever
    # v2's value is non-finite, v1's is too, so the first bad coordinate is
    # v1's.
    cfg_u = _objective_config(uni)
    cfgs = [replace(cfg_u, version=version) for version in VERSIONS]
    grads = [oracle_F(params, cfg_v, ds, fam).grad for cfg_v in cfgs]
    fd = _differences("oracle_v1_grad", finite_diff_grad,
                      lambda p: _oracle_values(p, cfgs, ds, fam), params)
    rows = [(f"oracle_{cfg_v.version}_grad", grad, column, FD_TOL)
            for cfg_v, grad, column in zip(cfgs, grads, fd.T)]

    # Two-way oracle against central differences over both encoders jointly.
    cfg_bi = _objective_config(bi)
    res_bi = twoway_oracle_F(params, params_ti, cfg_bi, pds)

    def bi_value(vec: np.ndarray) -> float:
        pi, pt = bimodal.flat_to_pair(params, params_ti, vec)
        return twoway_oracle_value(pi, pt, cfg_bi, pds)

    rows.append(("twoway_oracle_grad", res_bi.grad, _differences(
        "twoway_oracle_grad", finite_diff_flat, bi_value,
        pair_to_flat(params, params_ti)), FD_TOL))

    # In-batch estimator against differences of its own batch loss.
    rng = np.random.default_rng(run.train_seed)
    batch = sample_minibatch(ds, fam, run.batch_size, rng, "epoch_shuffle")
    est = simclr_estimator(params, cfg_u, batch, ds, fam)
    rows.append(("simclr_estimator_vs_loss", est, _differences(
        "simclr_estimator_vs_loss", finite_diff_grad,
        lambda p: simclr_batch_loss(p, cfg_u, batch, ds, fam), params),
        FD_TOL))

    # Frozen-weight surrogate against the moving-average estimator.
    state = make_sogclr_state(run.n, d_uni, eta=run.eta, gamma=run.gamma,
                              beta=run.beta)
    sogclr_update_u(state, params, cfg_u, batch, ds, fam)
    m = sogclr_estimator(state, params, cfg_u, batch, ds, fam).estimator
    _, eval_fn = dcl_surrogate(state, params, cfg_u, batch, ds, fam)
    rows.append(("dcl_surrogate_vs_sogclr", m, _differences(
        "dcl_surrogate_vs_sogclr", finite_diff_grad, eval_fn, params), FD_TOL))

    # Full-batch single-view moving-average estimator against the exact
    # version-2 oracle gradient (an algebraic identity, so 1e-8).
    fam1 = make_augmentation_family(run.d_in, 1, run.aug_scale, run.aug_seed)
    full = MiniBatch(indices=np.arange(run.n),
                     aug_a=np.zeros(run.n, dtype=int),
                     aug_b=np.zeros(run.n, dtype=int))
    cfg_v2 = replace(cfg_u, eps0=0.0, version="v2")
    state1 = make_sogclr_state(run.n, d_uni, eta=run.eta, gamma=1.0)
    rows.append(("sogclr_vs_oracle_v2", sogclr_estimator(
        state1, params, cfg_v2, full, ds, fam1).estimator,
        oracle_F(params, cfg_v2, ds, fam1).grad, EXACT_TOL))

    # Two-way estimator with statistics planted at their exact values.
    state_bi = make_bimodal_state(run.n, d_pair, eta=run.eta)
    state_bi.u[:] = res_bi.g_image, res_bi.g_text
    rows.append(("twoway_planted_u", twoway_estimator(
        state_bi, params, params_ti, cfg_bi, np.arange(run.n), pds),
        res_bi.grad, EXACT_TOL))

    return GradcheckReport(checks=tuple(
        GradcheckResult(name, _rel_err(computed, reference), tol)
        for name, computed, reference, tol in rows))


def _metrics_text(records, fmt: str) -> str:
    """The text of a metrics file: a CSV header and rows, or one JSON object
    a line, in the documented column order, floats via repr."""
    rows = [astuple(r) for r in records]
    if fmt == "csv":
        lines = [",".join(METRICS_COLUMNS)]
        lines += [",".join([str(step), *map(repr, values)])
                  for step, *values in rows]
    else:
        lines = [json.dumps(dict(zip(METRICS_COLUMNS, row))) for row in rows]
    return "".join(line + "\n" for line in lines)


def emit_metrics(records, path: str, fmt: str = "csv") -> None:
    """Write records as _metrics_text; the file round-trips exactly."""
    if fmt not in METRICS_FORMATS:
        raise ConfigError(f"metrics format must be one of {METRICS_FORMATS}")
    write_text(path, _metrics_text(records, fmt), "metrics")


def read_metrics(path: str, fmt: str = "csv"):
    """Parse a metrics file written by emit_metrics. Any other text is a
    ValueError naming the path: a non-finite value, or a file that is not
    _metrics_text of the records it parses to."""
    if fmt not in METRICS_FORMATS:
        raise ConfigError(f"metrics format must be one of {METRICS_FORMATS}")
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            text = fh.read()
        lines = text.splitlines()
        if fmt == "csv":
            rows = [line.split(",") for line in lines[1:]]
        else:
            rows = [list(dict(json.loads(line)).values()) for line in lines]
        records = [MetricsRecord(int(step), *map(float, values))
                   for step, *values in rows]
        if not all(math.isfinite(v) for r in records for v in astuple(r)):
            raise ValueError("a non-finite value")
        if text != _metrics_text(records, fmt):
            raise ValueError("not the text emit_metrics writes for its records")
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"bad metrics file {path}: {exc!r}") from exc
    return records
