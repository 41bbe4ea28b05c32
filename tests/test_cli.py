"""Command line entry points, exit codes, and the installed module runner."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gcobench
from gcobench import read_metrics
from gcobench.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO,
                          EXIT_NUMERIC, EXIT_OK, build_parser, main)


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_train_with_config_file_and_overrides(tmp_path, capsys):
    """A config file whose path holds '=' is still read as a file."""
    for name in ("run.cfg", "lr=0.1.cfg"):
        cfg = tmp_path / name
        cfg.write_text("dataset.n = 8\noptimizer.steps = 10\n"
                       "optimizer.batch_size = 4\nmetrics.cadence = 5\n")
        metrics = str(tmp_path / "m.csv")
        code = main(["train", str(cfg), f"metrics.path={metrics}"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle_grad_norm_sq" in out
        assert [r.step for r in read_metrics(metrics)] == [0, 5, 10]


def test_train_defaults_without_config_file(capsys):
    code = main(["train", "dataset.n=6", "optimizer.steps=4",
                 "optimizer.batch_size=3", "metrics.cadence=2"])
    assert code == EXIT_OK
    assert "steps 0..4" in capsys.readouterr().out


def test_bimodal_train_subcommand(capsys):
    code = main(["bimodal-train", "dataset.n=6", "optimizer.steps=4",
                 "optimizer.batch_size=3", "metrics.cadence=2"])
    assert code == EXIT_OK
    assert "steps 0..4" in capsys.readouterr().out


def test_sweep_subcommand(tmp_path, capsys):
    """The second run's default optimizer.batch_size exceeds dataset.n, and
    the third's is below 2; the sweep reads only its own batch sizes."""
    path = str(tmp_path / "sweep.csv")
    for argv in (["dataset.n=8", "optimizer.steps=6", f"sweep.path={path}"],
                 ["dataset.n=4", "optimizer.steps=5"],
                 ["dataset.n=4", "optimizer.steps=5",
                  "optimizer.batch_size=1"]):
        code = main(["sweep", "sweep.batch_sizes=2,4", "sweep.seeds=1", *argv])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "B=2:" in out and "B=4:" in out
    assert (tmp_path / "sweep.csv").exists()


def test_gradcheck_subcommand(capsys):
    """The second run's default optimizer.batch_size exceeds dataset.n;
    gradcheck draws at most dataset.n slots."""
    for argv in (["dataset.n=5", "dataset.d_in=4", "optimizer.batch_size=4",
                  "encoder.m=3", "dataset.d_text=3"],
                 ["dataset.n=4"]):
        code = main(["gradcheck", *argv])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "all gradient checks passed" in out


def test_gradcheck_failure_exits_with_check_code(monkeypatch, capsys):
    """At a zero tolerance every finite-difference row fails; the two
    identity rows still pass."""
    monkeypatch.setattr(gcobench.harness, "FD_TOL", 0.0)
    assert main(["gradcheck"]) == EXIT_CHECK_FAILED
    *rows, last = capsys.readouterr().out.splitlines()
    statuses = sorted(row.split()[-1] for row in rows)
    assert statuses == ["FAIL"] * 5 + ["PASS"] * 2
    assert last == "gradient checks FAILED"


def test_unknown_key_exits_with_config_code(capsys):
    """A first positional with '=' that names no file is an override."""
    for key in ("optimizer.learning_rate", "foo"):
        assert main(["train", f"{key}=1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown config key '{key}' in overrides\n")


def test_inconsistent_config_exits_with_config_code(capsys):
    assert main(["train", "optimizer.batch_size=64"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_numeric_blowup_exits_with_numeric_code(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "optimizer.algo=simclr", "objective.tau=0.0001",
                     "optimizer.eta=50", "optimizer.steps=20",
                     "dataset.n=8", "optimizer.batch_size=4"])
    assert code == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


def test_overflowing_embedding_norm_exits_with_numeric_code(capsys):
    # The weights stay finite but the embedding norm overflows to inf,
    # which would otherwise divide every embedding down to zero.
    code = main(["train", "optimizer.eta=1e300", "optimizer.steps=3",
                 "dataset.n=8", "optimizer.batch_size=4"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("numeric error") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["train", "objective.tau=inf"],
    ["bimodal-train", "objective.tau=inf"],
    ["train", "objective.eps0=inf"],
    ["train", "encoder.init_scale=inf"],
    ["train", "dataset.separation=inf"],
    ["train", "aug.scale=1e308"],
    ["gradcheck", "aug.scale=1e308"],
    # 10^15 doubles exceed the address space, so numpy fails at once.
    ["train", "dataset.d_in=1000000000000000"],
    ["bimodal-train", "dataset.d_text=1000000000000000"],
    ["train", "encoder.m=1000000000000000"],
    ["gradcheck", "dataset.d_in=1000000000000000"],
], ids=lambda argv: " ".join(argv))
@pytest.mark.filterwarnings("error")
def test_non_finite_inputs_exit_with_config_code(argv, capsys):
    code = main(argv + ["dataset.n=8", "optimizer.batch_size=4",
                        "optimizer.steps=3"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error") and err.count("\n") == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("override, code, line", [
    ("objective.tau=0.002", EXIT_NUMERIC, "numeric error: sweep cell B=2 "
     "seed=1: step 0: non-finite u_tracking_mse (inf)\n"),
    ("aug.scale=1e308", EXIT_CONFIG, "config error: cannot build the run's "
     "inputs: deltas must be finite\n"),
    # Up to numpy's own message, which the line ends with.
    ("dataset.d_in=1000000000000000", EXIT_CONFIG, "config error: the "
     "configured sizes need more memory than there is: Unable to allocate "),
], ids=["numeric", "config", "memory"])
@pytest.mark.filterwarnings("error")
def test_sweep_cell_failures_print_one_line(override, code, line, workers,
                                            monkeypatch, capfd):
    """The cells fail in the sweep's processes. capfd, unlike capsys, also
    sees what those write to the standard streams. A whole expected line
    ends in its newline, so the checks below pin it exactly."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(workers)))
    assert main(["sweep", override, "dataset.n=8", "optimizer.steps=3",
                 "sweep.batch_sizes=2,4", "sweep.seeds=1"]) == code
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith(line) and err.endswith("\n")
    assert err.count("\n") == 1


def test_missing_config_file_exits_with_io_code(capsys):
    assert main(["train", "does-not-exist.cfg"]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_metrics_path_exits_with_io_code(tmp_path, capsys):
    bad = str(tmp_path / "missing" / "m.csv")
    code = main(["train", "dataset.n=6", "optimizer.steps=2",
                 "optimizer.batch_size=3", f"metrics.path={bad}"])
    assert code == EXIT_IO


def test_metrics_path_that_is_a_directory_exits_with_io_code(tmp_path,
                                                            capsys):
    code = main(["train", "dataset.n=6", "optimizer.steps=2",
                 "optimizer.batch_size=3", f"metrics.path={tmp_path}"])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error")


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root may write a read-only file")
def test_read_only_metrics_file_exits_with_io_code(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("old\n")
    path.chmod(0o444)
    code = main(["train", "dataset.n=6", "optimizer.steps=2",
                 "optimizer.batch_size=3", f"metrics.path={path}"])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error")
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("argv", [
    ["train", "dataset.n=6000"],
    ["train", "dataset.n=3400", "aug.k=3"],
    ["sweep", "dataset.n=6000"],
    ["bimodal-train", "dataset.n=2000"],
    ["gradcheck", "dataset.n=6000"],
    ["gradcheck", "dataset.n=2000"],
    ["gradcheck", "optimizer.algo=bimodal_sogclr", "dataset.n=1000", "aug.k=11"],
], ids=lambda argv: " ".join(argv))
def test_oversized_oracle_exits_with_config_code(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "oracle" in err


@pytest.mark.parametrize("argv", [
    ["train", "objective.tau=0.002"],
    ["train", "objective.tau=1e-300"],
    ["bimodal-train", "objective.tau=1e-300"],
], ids=lambda argv: " ".join(argv))
@pytest.mark.filterwarnings("error")
def test_non_finite_records_exit_with_numeric_code(argv, tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    code = main(argv + ["dataset.n=8", "optimizer.batch_size=4",
                        "optimizer.steps=3", f"metrics.path={metrics}"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: step 0: non-finite")
    assert err.count("\n") == 1
    assert not metrics.exists()


@pytest.mark.parametrize("argv, code, prefix", [
    (["train", "dataset.n=2", "dataset.clusters=1",
      "optimizer.sampling=with_replacement", "optimizer.batch_size=2",
      "optimizer.steps=20"], EXIT_NUMERIC, "numeric error: step "),
    (["sweep", "dataset.n=3", "dataset.clusters=1",
      "optimizer.sampling=with_replacement", "sweep.batch_sizes=2",
      "optimizer.steps=50"], EXIT_NUMERIC,
     "numeric error: sweep cell B=2 seed=1: step 1: batch slot 0 has no "
     "negatives"),
    (["train", "CONFIG"], EXIT_CONFIG, "config error: CONFIG"),
    (["gradcheck", "objective.tau=1e-4"], EXIT_NUMERIC,
     "numeric error: oracle_v1_grad: non-finite function value at "
     "coordinate 0\n"),
    (["train", "encoder.init_scale=1e-200"], EXIT_NUMERIC,
     "numeric error: step 0: pre-normalization output collapsed (row 0, "
     "norm 0.000e+00)"),
    (["train", "optimizer.steps=2", "checkpoint.path=MISSING"], EXIT_IO,
     "i/o error: cannot write checkpoint to MISSING: "),
    (["bimodal-train", "optimizer.steps=2", "checkpoint.path=MISSING"],
     EXIT_IO, "i/o error: cannot write checkpoint to MISSING.image: "),
    (["sweep", "sweep.batch_sizes=4", "sweep.seeds=1", "optimizer.steps=2",
      "sweep.path=MISSING"], EXIT_IO,
     "i/o error: cannot write sweep results to MISSING: "),
    (["train", "optimizer.steps=2", "metrics.path=MISSING"], EXIT_IO,
     "i/o error: cannot write metrics to MISSING: "),
    (["train", "optimizer.batch_size=64"], EXIT_CONFIG, "config error: batch "
     "size 64 exceeds dataset.n = 32 under epoch_shuffle\n"),
    (["sweep", "sweep.batch_sizes=4,64,16"], EXIT_CONFIG, "config error: "
     "batch size 64 exceeds dataset.n = 32 under epoch_shuffle\n"),
    (["train", "dataset.n=714", "aug.k=14"], EXIT_CONFIG, "config error: "
     "aug.k * dataset.n * aug.k * encoder.m must be < 524288 for the "
     "oracle's tiles, got 559776\n"),
], ids=["batch-without-negatives", "sweep-batch-without-negatives",
        "config-not-utf8", "gradcheck-non-finite-differences",
        "step-0-collapsed-embedding", "checkpoint-not-writable",
        "bimodal-checkpoint-not-writable", "sweep-not-writable",
        "metrics-not-writable", "batch-exceeds-dataset",
        "sweep-batch-exceeds-dataset", "oracle-tile-past-blas-bound"])
def test_run_failures_print_one_line(argv, code, prefix, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfeoptimizer.steps = 3\n")
    missing = str(tmp_path / "missing" / "x")

    def fill(text):
        return text.replace("CONFIG", str(cfg)).replace("MISSING", missing)

    assert main([fill(a) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(fill(prefix))


def test_parser_lists_all_subcommands():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {"train", "sweep", "gradcheck",
                                "bimodal-train"}


def test_module_runner_smoke():
    # The child interpreter gets the package's parent directory on its path,
    # so this also runs from a checkout without an install.
    src = os.path.dirname(os.path.dirname(gcobench.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gcobench.cli", "gradcheck", "dataset.n=4",
         "dataset.d_in=3", "optimizer.batch_size=3", "encoder.m=3",
         "dataset.d_text=3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "all gradient checks passed" in proc.stdout
