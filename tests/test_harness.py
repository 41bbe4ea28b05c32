"""Config handling, synthetic data, training loops, metrics files, sweeps,
and the bundled gradient checks."""

import math
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from gcobench import (ConfigError, GlobalObjectiveConfig, MetricsRecord,
                      NumericError, RunConfig, apply_overrides, emit_metrics,
                      finite_diff_grad, generate_synthetic,
                      generate_synthetic_pairs, gradcheck, load_config,
                      load_encoder, oracle_value, plateau, read_metrics,
                      sweep_batch_size, train, validate_config)
from gcobench import encoder as encoder_module
from gcobench import bimodal, harness
from gcobench.embed_core import SAMPLING_MODES
from gcobench.harness import METRICS_COLUMNS
from gcobench.objective import VERSIONS
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
    # An empty list entry is refused, not dropped.
    with pytest.raises(ConfigError, match="^bad value for sweep.batch_sizes "
                       "in overrides: invalid literal for int"):
        apply_overrides(RunConfig(), ["sweep.batch_sizes=4,,16"])
    assert apply_overrides(RunConfig(), ["metrics.timing=off"]).timing is False
    with pytest.raises(ConfigError, match="^bad value for metrics.timing in "
                       "overrides: not a boolean: 'maybe'$"):
        apply_overrides(RunConfig(), ["metrics.timing=maybe"])


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
    dict(n=5001, aug_k=2),                      # the unimodal oracle's guard
    dict(n=1001, algo="bimodal_sogclr"),        # the two-way oracle's guard
    dict(n=714, aug_k=14),                      # K * n*K * m >= 2^19
    dict(n=256, aug_k=32, m_embed=2),           # K * n*K * m == 2^19
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


def rule_cases(rule, is_float: bool):
    """(values just outside rule, boundary values that meet it) for a rule
    as embed_core.check_setting reads it. An int field's rule bounds an int,
    so the boundary as a float, and True, break it too."""
    if isinstance(rule, tuple):
        return ["x"], list(rule)
    bad = [math.nan, math.inf, -math.inf] if is_float else []
    if rule == "(0, 1]":
        return bad + [0.0, math.nextafter(1.0, 2.0)], [5e-324, 1.0]
    *kind, op, low = rule.split()
    assert kind == ([] if is_float else ["int"]), rule
    low = float(low) if is_float else int(low)
    above = math.nextafter(low, math.inf) if is_float else low + 1
    below = math.nextafter(low, -math.inf) if is_float else low - 1
    bad, good = (bad + [below], [low]) if op == ">=" else (bad + [low], [above])
    return bad + ([] if is_float else [float(good[0]), True]), good


def test_every_field_rule_refuses_just_outside_and_accepts_the_boundary():
    """Read off each RunConfig field's declared rule: a value just outside it
    is a ConfigError that starts with the field's key, and the boundary value
    passes. Only the bool and the paths are free, so a new key cannot skip
    validation."""
    base = RunConfig(batch_size=2)          # so that dataset.n = 2 passes
    for f in fields(RunConfig):
        key, rule = f.metadata["key"], f.metadata["rule"]
        if rule is None:
            assert f.type == "bool" or key.endswith(".path"), key
            continue
        bad, good = rule_cases(rule, "float" in f.type)
        if f.type.startswith("tuple"):
            bad, good = [()] + [(v,) for v in bad], [(v,) for v in good]
        for value in bad:
            with pytest.raises(ConfigError, match=f"^{re.escape(key)} "):
                validate_config(replace(base, **{f.name: value}))
        for value in good:
            validate_config(replace(base, **{f.name: value}))


def test_validate_config_accepts_defaults():
    validate_config(RunConfig())
    validate_config(RunConfig(batch_size=64, n=32,
                              sampling="with_replacement"))
    # Just below the oracle's tile bound, K * n*K * m < 2^19.
    validate_config(RunConfig(n=714, aug_k=13))
    validate_config(RunConfig(n=255, aug_k=32, m_embed=2))


def assert_round_robin(points, clusters):
    """Point i lies in cluster i mod clusters. At separation 1e4 points of
    one cluster lie within 100 of each other and those of two lie farther
    apart."""
    near = np.linalg.norm(points[:, None] - points[None], axis=-1) < 100
    i = np.arange(points.shape[0]) % clusters
    np.testing.assert_array_equal(near, i[:, None] == i[None])


def test_generate_synthetic_shapes_labels_determinism():
    ds = generate_synthetic(10, 3, 4, 2.0, seed=5)
    assert ds.points.shape == (10, 3)
    assert_round_robin(generate_synthetic(10, 3, 4, 1e4, seed=5).points, 4)
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
    assert_round_robin(generate_synthetic_pairs(8, 4, 6, 2, 1e4,
                                                seed=2).image, 2)


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
                          eps_sq_mean=0.001, wall_clock_ms=0.0),
            MetricsRecord(10, -0.0, 1e300, 5e-324, 1e16, 123.456)]
    path = str(tmp_path / ("m." + fmt))
    emit_metrics(recs, path, fmt)
    assert read_metrics(path, fmt) == recs


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
    for text in (b"step,foo\n1,2\n", b"st\xe9p\n"):     # header, not ASCII
        bad.write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            read_metrics(str(bad), "csv")
    recs = [MetricsRecord(0, *[0.5] * (len(fields(MetricsRecord)) - 1))]
    emit_metrics(recs, path, "csv")
    with open(path, "a") as fh:                 # a ragged row
        fh.write("1,0.5\n")
    with pytest.raises(ValueError, match=re.escape(path)):
        read_metrics(path, "csv")
    emit_metrics(recs, jl, "jsonl")
    with open(jl, "a") as fh:                   # a row without its columns
        fh.write('{"step": 1}\n')
    with pytest.raises(ValueError, match=re.escape(jl)):
        read_metrics(jl, "jsonl")
    # What emit_metrics never writes: train stops on a non-finite record.
    header = ",".join(METRICS_COLUMNS) + "\n"
    for row in ("0,nan,0.0,0.0,0.0,0.0", "0,0.0,inf,0.0,0.0,0.0",
                "0,0.0,0.0,-inf,0.0,0.0", "0,nan,inf,-inf,0.0,0.0"):
        bad.write_text(header + row + "\n")
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            read_metrics(str(bad), "csv")
    def write_jsonl_row(**raw):
        row = {col: "0.0" for col in METRICS_COLUMNS} | {"step": "1"} | raw
        with open(jl, "w") as fh:
            fh.write("{" + ", ".join(f'"{col}": {text}'
                                     for col, text in row.items()) + "}\n")

    write_jsonl_row()
    assert read_metrics(jl, "jsonl") == [MetricsRecord(1, *[0.0] * 5)]
    # JSON that int and float would read as a step of 1, a value of 1.0 or
    # a non-finite value.
    for key, raw in (("objective_value", "1e400"), ("u_tracking_mse", "NaN"),
                     ("eps_sq_mean", "-Infinity"), ("step", "1.7"),
                     ("step", "true"), ("wall_clock_ms", "true"),
                     ("objective_value", '"0.5"')):
        write_jsonl_row(**{key: raw})
        with pytest.raises(ValueError, match=re.escape(jl)):
            read_metrics(jl, "jsonl")


def test_read_metrics_refuses_what_emit_metrics_never_writes(tmp_path):
    """int and float read 1_0 as 10, 1_0.5 as 10.5 and ' 2.0' as 2.0, and
    json keeps the last of a repeated key."""
    csv_path = tmp_path / "m.csv"
    header = ",".join(METRICS_COLUMNS) + "\n"
    canonical = "1,0.5,2.0,0.0,1e-07,0.0"
    csv_path.write_text(header + canonical + "\n")
    assert read_metrics(str(csv_path)) == [
        MetricsRecord(1, 0.5, 2.0, 0.0, 1e-07, 0.0)]
    for row in ("1_0,0.5,2.0,0.0,1e-07,0.0", "1,1_0.5,2.0,0.0,1e-07,0.0",
                "1,0.5, 2.0,0.0,1e-07,0.0", "1,0.5,2.0,0.0,1e-7,0.0",
                "+1,0.5,2.0,0.0,1e-07,0.0", "1,0.50,2.0,0.0,1e-07,0.0"):
        csv_path.write_text(header + row + "\n")
        with pytest.raises(ValueError, match=re.escape(str(csv_path))):
            read_metrics(str(csv_path))
    jl = tmp_path / "m.jsonl"
    row = ", ".join(f'"{col}": 0.0' for col in METRICS_COLUMNS[1:])
    for line in ('{"step": 1, ' + row + ', "extra": 0.0}',
                 '{"step": 1, "step": 2, ' + row + '}',
                 '{"step": 1, ' + row + ', "step": 1}',
                 '[["step", 1]]'):
        jl.write_text(line + "\n")
        with pytest.raises(ValueError, match=re.escape(str(jl))):
            read_metrics(str(jl), "jsonl")
    # json reads 1e-7, 2 and 0.50 as 1e-07, 2.0 and 0.5, which is how
    # emit_metrics writes them; float cannot take an integer past its range.
    canonical = '{"step": 1, ' + row.replace("0.0", "1e-07", 1) + "}\n"
    jl.write_text(canonical)
    assert read_metrics(str(jl), "jsonl")[0].objective_value == 1e-07
    for value in ("1e-7", "2", "0.50", "1" + "0" * 400):
        jl.write_text(canonical.replace("1e-07", value))
        with pytest.raises(ValueError, match=re.escape(str(jl))):
            read_metrics(str(jl), "jsonl")


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
    for line, row in zip(text.splitlines()[1:], result.rows):
        assert line == (f"{row.batch_size},{row.plateau_mean!r},"
                        f"{row.plateau_std!r}")


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


def test_sweep_batch_size_rejects_oversized_batches(monkeypatch):
    """The sweep validates its largest cell before any cell starts, in a
    process of its own or in this one."""
    def start(*args):
        raise AssertionError("a sweep cell started")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "_forked_outcomes", start)
    monkeypatch.setattr(harness, "_outcome", start)
    with pytest.raises(ConfigError, match=r"^batch size 64 exceeds dataset\.n "
                       r"= 8 under epoch_shuffle$"):
        sweep_batch_size(replace(SMALL, sweep_batch_sizes=(2, 64, 4)))


def test_sweep_batch_size_rejects_an_empty_batch_list():
    with pytest.raises(ConfigError, match="^sweep.batch_sizes must be "
                       "nonempty$"):
        sweep_batch_size(replace(SMALL, sweep_batch_sizes=()))


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


def test_gradcheck_passes_where_only_masked_masses_overflow():
    """At tau = 1.4e-3 the in-batch kernel's masked self masses overflow,
    and its member masses do not."""
    with np.errstate(over="ignore"):
        assert gradcheck(RunConfig(n=4, batch_size=4, tau=1.4e-3)).passed


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


def _off(array):
    return array * (1 + 1e-3)


ROW_INPUTS = {
    "oracle_F": (lambda r: replace(r, grad=_off(r.grad)),
                 {"oracle_v1_grad", "oracle_v2_grad", "sogclr_vs_oracle_v2"}),
    "twoway_oracle_F": (lambda r: replace(r, grad=_off(r.grad)),
                        {"twoway_oracle_grad", "twoway_planted_u"}),
    "simclr_estimator": (_off, {"simclr_estimator_vs_loss"}),
    "sogclr_estimator": (lambda r: replace(r, estimator=_off(r.estimator)),
                         {"dcl_surrogate_vs_sogclr", "sogclr_vs_oracle_v2"}),
    "dcl_surrogate": (lambda out: (out[0], lambda p: _off(out[1](p))),
                      {"dcl_surrogate_vs_sogclr"}),
    "twoway_estimator": (_off, {"twoway_planted_u"}),
}


@pytest.mark.parametrize("producer", ROW_INPUTS)
def test_gradcheck_rows_fail_where_their_inputs_are_wrong(monkeypatch,
                                                          producer):
    """An output of one producer 1e-3 off fails exactly the rows that read
    it, so each row compares what its name says."""
    wrong, failing = ROW_INPUTS[producer]
    original = getattr(harness, producer)
    monkeypatch.setattr(harness, producer,
                        lambda *args: wrong(original(*args)))
    report = gradcheck(RunConfig(n=5, d_in=4, batch_size=4, m_embed=3,
                                 d_text=3))
    assert tuple(c.name for c in report.checks) == GRADCHECK_NAMES
    assert {c.name for c in report.checks if not c.passed} == failing


def tiny_run(**changes):
    """A gradcheck instance at n <= 8 with make_instance's sizes."""
    return replace(RunConfig(n=4, d_in=4, m_embed=3, d_hidden=6, d_text=3,
                             separation=2.0, aug_scale=0.4, batch_size=4,
                             data_seed=0, aug_seed=1, encoder_seed=2),
                   **changes)


def sweep_error(run):
    """The line that one finite_diff_grad(oracle_value) sweep per version,
    v1's then v2's, raises first, or None."""
    ds, fam, params = harness._inputs(run)
    for version in VERSIONS:
        cfg = GlobalObjectiveConfig(tau=run.tau, eps0=run.eps0,
                                    version=version)
        try:
            finite_diff_grad(lambda p: oracle_value(p, cfg, ds, fam), params)
        except ValueError as exc:
            return f"oracle_{version}_grad: {exc}"
    return None


def gradcheck_error(run):
    try:
        gradcheck(run)
    except NumericError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("tau", [1e-4, 9.2653e-4, 1.3e-3, 1.4e-3])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("eps0", [0.0, 0.5])
@pytest.mark.parametrize("arch", ["linear", "one_hidden"])
def test_gradcheck_fails_where_a_sweep_per_version_would(arch, eps0, K, tau):
    """gradcheck's one shared sweep of both versions raises the line of a
    sweep per version, where exp(sim / tau) overflows or underflows. At
    9.2653e-4 the one_hidden sweeps with K >= 2 first fail at coordinate 6."""
    run = tiny_run(arch=arch, eps0=eps0, aug_k=K, tau=tau)
    with np.errstate(all="ignore"):
        want, got = sweep_error(run), gradcheck_error(run)
    if want is None:        # a later check may still fail on its own
        assert got is None or not got.startswith("oracle_")
    else:
        assert got == want


def test_gradcheck_names_v1_where_only_v1_is_non_finite():
    """One view's mass underflows to 0, so v1 takes log 0 at every point,
    while v2's sample mean keeps the other view's positive mass."""
    run = tiny_run(n=2, m_embed=2, arch="linear", aug_k=2, aug_scale=1.0,
                   data_seed=9, aug_seed=10, encoder_seed=11, tau=1.3e-3,
                   batch_size=2)
    ds, fam, params = harness._inputs(run)
    cfg_v2 = GlobalObjectiveConfig(tau=run.tau, version="v2")
    with np.errstate(all="ignore"):
        finite_diff_grad(lambda p: oracle_value(p, cfg_v2, ds, fam), params)
        line = "oracle_v1_grad: non-finite function value at coordinate 0"
        assert sweep_error(run) == line
        assert gradcheck_error(run) == line
