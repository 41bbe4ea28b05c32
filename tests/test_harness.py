"""Config handling, synthetic data, training loops, metrics files, sweeps,
and the bundled gradient checks."""

import math
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from gcobench import (ConfigError, MetricsRecord, NumericError, RunConfig,
                      apply_overrides, emit_metrics, generate_synthetic,
                      generate_synthetic_pairs, gradcheck, load_config,
                      load_encoder, plateau, read_metrics, sweep_batch_size,
                      train, validate_config)
from gcobench import encoder as encoder_module
from gcobench import bimodal, harness
from gcobench.embed_core import SAMPLING_MODES
from dataclasses import fields, replace


SMALL = RunConfig(n=8, d_in=4, steps=12, batch_size=4, cadence=4, eta=0.1)


def test_resolved_tau_defaults():
    assert harness.resolved_tau(RunConfig()) == harness.DEFAULT_TAU
    assert harness.resolved_tau(RunConfig(algo="bimodal_sogclr")) == bimodal.DEFAULT_TAU
    assert harness.resolved_tau(RunConfig(tau=0.33)) == 0.33


def test_load_config_parses_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "dataset.n = 16\n"
        "optimizer.eta = 0.25   # trailing comment\n"
        "objective.tau = auto\n"
        "\n"
        "metrics.timing = true\n"
        "sweep.batch_sizes = 2, 4\n")
    config = load_config(str(cfg_file))
    assert config.n == 16
    assert config.eta == 0.25
    assert config.tau is None
    assert config.timing is True
    assert config.sweep_batch_sizes == (2, 4)


def test_load_config_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset.n 16\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("dataset.size = 16\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("dataset.n = sixteen\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_apply_overrides():
    config = apply_overrides(RunConfig(), ["optimizer.eta=0.5",
                                           "dataset.n=12"])
    assert config.eta == 0.5 and config.n == 12
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["optimizer.eta"])
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["optimizer.learning_rate=0.5"])


KEY_TABLE = [
    ("dataset.n", "12", "n", 12),
    ("dataset.d_in", "5", "d_in", 5),
    ("dataset.clusters", "3", "clusters", 3),
    ("dataset.separation", "2.5", "separation", 2.5),
    ("dataset.seed", "17", "data_seed", 17),
    ("dataset.d_text", "6", "d_text", 6),
    ("aug.k", "3", "aug_k", 3),
    ("aug.scale", "0.25", "aug_scale", 0.25),
    ("aug.seed", "21", "aug_seed", 21),
    ("encoder.arch", "one_hidden", "arch", "one_hidden"),
    ("encoder.d_hidden", "9", "d_hidden", 9),
    ("encoder.m", "5", "m_embed", 5),
    ("encoder.seed", "13", "encoder_seed", 13),
    ("encoder.init_scale", "0.5", "init_scale", 0.5),
    ("objective.tau", "auto", "tau", None),
    ("objective.eps0", "0.125", "eps0", 0.125),
    ("objective.version", "v2", "version", "v2"),
    ("optimizer.algo", "simclr", "algo", "simclr"),
    ("optimizer.eta", "0.05", "eta", 0.05),
    ("optimizer.beta", "0.75", "beta", 0.75),
    ("optimizer.gamma", "0.6", "gamma", 0.6),
    ("optimizer.batch_size", "6", "batch_size", 6),
    ("optimizer.steps", "40", "steps", 40),
    ("optimizer.sampling", "with_replacement", "sampling", "with_replacement"),
    ("optimizer.u_lag", "lagged", "u_lag", "lagged"),
    ("optimizer.seed", "19", "train_seed", 19),
    ("metrics.cadence", "7", "cadence", 7),
    ("metrics.timing", "on", "timing", True),
    ("metrics.path", "m.jsonl", "metrics_path", "m.jsonl"),
    ("metrics.format", "jsonl", "metrics_format", "jsonl"),
    ("checkpoint.path", "c.npz", "checkpoint_path", "c.npz"),
    ("sweep.batch_sizes", "2,8", "sweep_batch_sizes", (2, 8)),
    ("sweep.seeds", "4,5", "sweep_seeds", (4, 5)),
    ("sweep.path", "s.csv", "sweep_path", "s.csv"),
]


def test_every_config_key_sets_its_field():
    assert sorted(harness.KEY_MAP) == sorted(key for key, *_ in KEY_TABLE)
    assert len(KEY_TABLE) == len(fields(RunConfig)) == 34
    base = RunConfig(tau=0.3)
    for key, raw, name, value in KEY_TABLE:
        config = apply_overrides(base, [f"{key}={raw}"])
        assert getattr(config, name) == value, key
        assert type(getattr(config, name)) is type(value), key
        assert replace(config, **{name: getattr(base, name)}) == base, key


@pytest.mark.parametrize("bad", [
    dict(n=1),
    dict(clusters=0),
    dict(n=4, clusters=5),
    dict(aug_k=0),
    dict(arch="resnet"),
    dict(m_embed=1),
    dict(tau=0.0),
    dict(eps0=-1.0),
    dict(version="v3"),
    dict(algo="sgd"),
    dict(eta=-0.1),
    dict(beta=0.0),
    dict(gamma=1.5),
    dict(batch_size=1),
    dict(steps=0),
    dict(sampling="shuffled"),
    dict(u_lag="stale"),
    dict(batch_size=64, n=32),
    dict(cadence=0),
    dict(metrics_format="parquet"),
    dict(sweep_batch_sizes=()),
    dict(sweep_seeds=()),
    dict(data_seed=-1),
    dict(aug_seed=-1),
    dict(encoder_seed=-1),
    dict(train_seed=-1),
    dict(sweep_seeds=(1, -1)),
])
def test_validate_config_rejects(bad):
    """The error names the dotted key of a field the case sets."""
    keys = {f.name: f.metadata["key"] for f in fields(RunConfig)}
    match = "|".join(re.escape(keys[name]) for name in bad)
    with pytest.raises(ConfigError, match=match):
        validate_config(replace(RunConfig(), **bad))


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)
                                  if f.type in ("float", "float | None")])
def test_validate_config_rejects_non_finite_floats(name):
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="must be finite"):
            validate_config(replace(RunConfig(), **{name: value}))


def test_validate_config_accepts_defaults():
    validate_config(RunConfig())
    validate_config(RunConfig(batch_size=64, n=32,
                              sampling="with_replacement"))


def test_generate_synthetic_shapes_labels_determinism():
    ds = generate_synthetic(10, 3, 4, 2.0, seed=5)
    assert ds.points.shape == (10, 3)
    np.testing.assert_array_equal(ds.labels, [i % 4 for i in range(10)])
    again = generate_synthetic(10, 3, 4, 2.0, seed=5)
    np.testing.assert_array_equal(ds.points, again.points)
    other = generate_synthetic(10, 3, 4, 2.0, seed=6)
    assert not np.array_equal(ds.points, other.points)
    with pytest.raises(ConfigError):
        generate_synthetic(2, 3, 4, 2.0, seed=5)


def test_generate_synthetic_pairs_shapes():
    pds = generate_synthetic_pairs(8, 4, 6, 2, 3.0, seed=2)
    assert pds.image.shape == (8, 4)
    assert pds.text.shape == (8, 6)
    assert pds.labels == tuple(i % 2 for i in range(8))


def test_plateau_takes_final_tenth():
    recs = [MetricsRecord(step=i, objective_value=0.0,
                          oracle_grad_norm_sq=float(i), u_tracking_mse=0.0,
                          eps_sq_mean=0.0, wall_clock_ms=0.0)
            for i in range(25)]
    # ceil(2.5) = 3 trailing records: 22, 23, 24.
    assert plateau(recs) == pytest.approx(23.0)
    assert plateau(recs[:1]) == 0.0
    with pytest.raises(ValueError):
        plateau([])


@pytest.mark.parametrize("steps,cadence,expected_steps", [
    (10, 3, [0, 3, 6, 9, 10]),
    (10, 5, [0, 5, 10]),
    (1, 1, [0, 1]),
    (7, 10, [0, 7]),
])
def test_train_record_schedule(steps, cadence, expected_steps):
    recs = train(replace(SMALL, steps=steps, cadence=cadence))
    assert [r.step for r in recs] == expected_steps


def test_train_zero_eta_keeps_objective_constant():
    recs = train(replace(SMALL, eta=0.0, steps=20))
    values = {r.objective_value for r in recs}
    assert len(values) == 1
    grads = {r.oracle_grad_norm_sq for r in recs}
    assert len(grads) == 1


def test_train_standard_task_converges():
    recs = train(RunConfig())
    assert recs[-1].oracle_grad_norm_sq < 0.1 * recs[0].oracle_grad_norm_sq


@pytest.mark.parametrize("algo", ["simclr", "simclr_momentum"])
def test_train_simclr_reports_zero_u_mse(algo):
    recs = train(replace(SMALL, algo=algo))
    assert all(r.u_tracking_mse == 0.0 for r in recs)


def test_train_sogclr_u_tracking_improves():
    recs = train(replace(SMALL, steps=200, cadence=50))
    assert recs[0].u_tracking_mse > 0.0
    assert recs[-1].u_tracking_mse < recs[0].u_tracking_mse


def test_train_cadence_invariance():
    coarse = {r.step: r for r in train(replace(SMALL, steps=20, cadence=10))}
    fine = {r.step: r for r in train(replace(SMALL, steps=20, cadence=5))}
    for step in coarse:
        assert step in fine
        assert coarse[step].objective_value == fine[step].objective_value
        assert (coarse[step].oracle_grad_norm_sq
                == fine[step].oracle_grad_norm_sq)
        assert coarse[step].u_tracking_mse == fine[step].u_tracking_mse


def test_train_wall_clock_zero_without_timing():
    recs = train(SMALL)
    assert all(r.wall_clock_ms == 0.0 for r in recs)
    timed = train(replace(SMALL, timing=True, steps=4))
    assert timed[-1].wall_clock_ms > 0.0


def test_train_bimodal_smoke():
    recs = train(replace(SMALL, algo="bimodal_sogclr", steps=40, cadence=10))
    assert [r.step for r in recs][:2] == [0, 10]
    assert all(r.eps_sq_mean == 0.0 for r in recs)
    assert recs[-1].oracle_grad_norm_sq < recs[0].oracle_grad_norm_sq


def test_train_writes_metrics_and_checkpoint(tmp_path):
    metrics = tmp_path / "m.csv"
    ckpt = tmp_path / "enc.txt"
    train(replace(SMALL, metrics_path=str(metrics),
                  checkpoint_path=str(ckpt)))
    back = read_metrics(str(metrics))
    assert [r.step for r in back] == [0, 4, 8, 12]
    params = load_encoder(str(ckpt))
    assert params.d_in == SMALL.d_in and params.m == SMALL.m_embed


def test_train_bimodal_writes_two_checkpoints(tmp_path):
    ckpt = tmp_path / "pair.txt"
    train(replace(SMALL, algo="bimodal_sogclr", steps=5, cadence=5,
                  checkpoint_path=str(ckpt)))
    image = load_encoder(str(ckpt) + ".image")
    text = load_encoder(str(ckpt) + ".text")
    assert image.d_in == SMALL.d_in
    assert text.d_in == SMALL.d_text


def test_identical_configs_yield_identical_metrics_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    train(replace(SMALL, metrics_path=str(a)))
    train(replace(SMALL, metrics_path=str(b)))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_metrics_roundtrip(fmt, tmp_path):
    recs = [MetricsRecord(step=3, objective_value=-0.123456789012345,
                          oracle_grad_norm_sq=1e-7, u_tracking_mse=2.5,
                          eps_sq_mean=0.001, wall_clock_ms=0.0)]
    path = str(tmp_path / ("m." + fmt))
    emit_metrics(recs, path, fmt)
    back = read_metrics(path, fmt)
    assert len(back) == 1
    assert back[0] == recs[0]


def test_metrics_rewrite_replaces_the_file(tmp_path):
    recs = [MetricsRecord(step=t, objective_value=-0.5, oracle_grad_norm_sq=1.0,
                          u_tracking_mse=0.0, eps_sq_mean=0.0,
                          wall_clock_ms=0.0) for t in range(3)]
    path = str(tmp_path / "m.csv")
    emit_metrics(recs, path)
    emit_metrics(recs[:1], path)
    assert read_metrics(path) == recs[:1]


def test_train_rejects_a_non_finite_record_before_writing(tmp_path):
    # At tau = 0.002 the u targets are about e^(1/tau), so their squared
    # tracking error overflows already at step 0.
    metrics = tmp_path / "m.csv"
    config = replace(SMALL, tau=0.002, metrics_path=str(metrics))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError,
                           match="step 0: non-finite u_tracking_mse"):
            train(config)
    assert not metrics.exists()


def test_metrics_empty_and_errors(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_metrics([], path, "csv")
    assert read_metrics(path, "csv") == []
    jl = str(tmp_path / "empty.jsonl")
    emit_metrics([], jl, "jsonl")
    assert read_metrics(jl, "jsonl") == []
    with pytest.raises(ConfigError):
        emit_metrics([], path, "tsv")
    with pytest.raises(OSError):
        emit_metrics([], str(tmp_path / "missing" / "m.csv"), "csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("step,foo\n1,2\n")
    with pytest.raises(ValueError):
        read_metrics(str(bad), "csv")


def test_sweep_batch_size_aggregates(tmp_path):
    config = replace(SMALL, sweep_batch_sizes=(2, 4), sweep_seeds=(1, 2),
                     sweep_path=str(tmp_path / "sweep.csv"))
    result = sweep_batch_size(config)
    assert [row.batch_size for row in result.rows] == [2, 4]
    for row in result.rows:
        assert len(row.plateaus) == 2
        assert row.plateau_mean == pytest.approx(float(np.mean(row.plateaus)))
        assert row.plateau_std >= 0.0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines()[0] == "batch_size,plateau_mean,plateau_std"
    assert len(text.splitlines()) == 3


def cpus(monkeypatch, count: int) -> None:
    """Make the machine look like it has `count` CPUs, so a sweep runs on
    that many processes (or in this one for a single CPU)."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.mark.parametrize("algo", ["simclr", "sogclr"])
@pytest.mark.parametrize("sampling", SAMPLING_MODES)
def test_sweep_does_not_depend_on_the_worker_count(algo, sampling, tmp_path,
                                                   monkeypatch):
    config = replace(SMALL, n=12, steps=8, algo=algo, sampling=sampling,
                     sweep_batch_sizes=(4, 6, 8), sweep_seeds=(1, 2))
    results, files = [], []
    for workers in (1, 2, 4):
        cpus(monkeypatch, workers)
        path = tmp_path / f"sweep-{workers}.csv"
        results.append(sweep_batch_size(replace(config, sweep_path=str(path))))
        files.append(path.read_bytes())
        assert multiprocessing.active_children() == []
    assert results[1] == results[0] and results[2] == results[0]
    assert files[1] == files[0] and files[2] == files[0]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sweep_reports_the_first_failing_cell_in_cell_order(workers,
                                                           monkeypatch):
    """B=4 fails at once and B=2 later, so with several workers the later
    cell in cell order fails first; B=3 would run for a minute unless the
    error stops it."""
    def train(cell):
        time.sleep({2: 0.5, 3: 60.0, 4: 0.0}[cell.batch_size])
        raise NumericError(f"cell {cell.batch_size} failed")

    cpus(monkeypatch, workers)
    monkeypatch.setattr(harness, "train", train)
    start = time.monotonic()
    with pytest.raises(NumericError, match=r"^sweep cell B=2 seed=1: cell 2 failed$"):
        sweep_batch_size(replace(SMALL, sweep_batch_sizes=(2, 3, 4),
                                 sweep_seeds=(1,)))
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def test_sweep_stops_when_a_cell_process_dies(monkeypatch):
    """B=2's process dies; B=4's would run for a minute unless stopped."""
    def train(cell):
        if cell.batch_size == 2:
            os._exit(3)
        time.sleep(60.0)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "train", train)
    start = time.monotonic()
    with pytest.raises(ChildProcessError, match=r"^sweep cell B=2 seed=1: its "
                       r"process exited with code 3$"):
        sweep_batch_size(replace(SMALL, sweep_batch_sizes=(2, 4),
                                 sweep_seeds=(1,)))
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def test_sweep_batch_size_rejects_oversized_batches():
    with pytest.raises(ConfigError):
        sweep_batch_size(replace(SMALL, sweep_batch_sizes=(2, 64)))


GRADCHECK_NAMES = ("oracle_v1_grad", "oracle_v2_grad", "twoway_oracle_grad",
                   "simclr_estimator_vs_loss", "dcl_surrogate_vs_sogclr",
                   "sogclr_vs_oracle_v2", "twoway_planted_u")


def test_gradcheck_passes_on_small_instance():
    report = gradcheck(RunConfig(n=6, d_in=5, batch_size=4, m_embed=4,
                                 d_text=4))
    assert tuple(c.name for c in report.checks) == GRADCHECK_NAMES
    assert report.passed
    for check in report.checks:
        assert check.rel_err <= check.tol


def test_gradcheck_guard_rejects_large_encoders():
    with pytest.raises(ConfigError):
        gradcheck(RunConfig(n=8, d_in=64, m_embed=8))


def test_gradcheck_detects_broken_backward(monkeypatch):
    original = encoder_module.backward_batch
    monkeypatch.setattr(encoder_module, "backward_batch",
                        lambda p, c, cot: -original(p, c, cot))
    report = gradcheck(RunConfig(n=5, d_in=4, batch_size=4, m_embed=3,
                                 d_text=3))
    assert not report.passed
    failures = {c.name for c in report.checks if not c.passed}
    assert "oracle_v1_grad" in failures
    assert "simclr_estimator_vs_loss" in failures
