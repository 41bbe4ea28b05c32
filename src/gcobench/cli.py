"""Command line front end.

Every subcommand takes an optional config file (flat `key = value` lines,
'#' comments, dotted keys) followed by any number of KEY=VALUE overrides:

    gcobench train run.cfg optimizer.eta=0.05 metrics.path=out.csv
    gcobench gradcheck
    gcobench sweep run.cfg sweep.path=sweep.csv
    gcobench gen --out data.csv dataset.n=64
    gcobench bimodal-train run.cfg optimizer.steps=300

Exit codes: 0 success, 1 gradient check failed, 2 bad configuration,
3 numeric failure during a run, 4 file I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .bimodal import save_paired
from .embed_core import DegenerateInputError, save_dataset
from .encoder import DegenerateEmbeddingError
from .harness import ConfigError, RunConfig
from .optimizers import NumericError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcobench",
        description="Desk-scale contrastive objectives, optimizers, and "
                    "their exact oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", nargs="?", default=None,
                        help="config file path (defaults apply when omitted)")
        sp.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="config overrides, e.g. optimizer.eta=0.05")
        return sp

    gen = add("gen", "generate a synthetic dataset and write it to a file")
    gen.add_argument("--out", required=True, help="output dataset path")
    add("train", "run one training loop and report first/last gradient norms")
    add("sweep", "train across batch sizes and seeds, report plateaus")
    add("gradcheck", "compare every analytic gradient against its oracle")
    add("bimodal-train", "run the two-way paired training loop")
    return parser


def _load(args) -> RunConfig:
    config = RunConfig()
    overrides = list(args.overrides)
    if args.config is not None:
        if "=" in args.config:
            # No config file given; the first positional is already an override.
            overrides.insert(0, args.config)
        else:
            config = harness.load_config(args.config, base=config)
    return harness.apply_overrides(config, overrides)


def _cmd_gen(args) -> int:
    config = _load(args)
    # Only the dataset fields matter here; optimizer settings are unused.
    if config.n < 2:
        raise ConfigError("dataset.n must be >= 2")
    if config.d_in < 1 or config.d_text < 1:
        raise ConfigError("dataset dimensions must be >= 1")
    if not 0 <= config.separation < math.inf:
        raise ConfigError("dataset.separation must be finite and >= 0")
    if config.algo == "bimodal_sogclr":
        ds = harness.generate_synthetic_pairs(config.n, config.d_in,
                                              config.d_text, config.clusters,
                                              config.separation,
                                              config.data_seed)
        save_paired(ds, args.out)
        print(f"wrote {ds.n} pairs to {args.out}")
    else:
        ds = harness.generate_synthetic(config.n, config.d_in, config.clusters,
                                        config.separation, config.data_seed)
        save_dataset(ds, args.out)
        print(f"wrote {ds.n} points to {args.out}")
    return EXIT_OK


def _print_run(records) -> None:
    first, last = records[0], records[-1]
    print(f"steps {first.step}..{last.step}: objective "
          f"{first.objective_value:.6f} -> {last.objective_value:.6f}, "
          f"oracle_grad_norm_sq {first.oracle_grad_norm_sq:.6g} -> "
          f"{last.oracle_grad_norm_sq:.6g}")


def _cmd_train(args, force_bimodal: bool = False) -> int:
    config = _load(args)
    if force_bimodal:
        config = replace(config, algo="bimodal_sogclr")
    records = harness.train(config)
    _print_run(records)
    if config.metrics_path:
        print(f"metrics written to {config.metrics_path}")
    if config.checkpoint_path:
        print(f"checkpoint written to {config.checkpoint_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args)
    result = harness.sweep_batch_size(config)
    for row in result.rows:
        print(f"B={row.batch_size}: plateau {row.plateau_mean:.6g} "
              f"+/- {row.plateau_std:.6g} over {len(row.plateaus)} seeds")
    if config.sweep_path:
        print(f"sweep table written to {config.sweep_path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config = _load(args)
    report = harness.gradcheck(config)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: rel_err={check.rel_err:.3e} "
              f"tol={check.tol:.0e} {status}")
    if report.passed:
        print("all gradient checks passed")
        return EXIT_OK
    print("gradient checks FAILED")
    return EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A non-finite estimator, parameter vector, norm or record raises and
        # is reported on one line below; numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            if args.command == "gen":
                return _cmd_gen(args)
            if args.command == "train":
                return _cmd_train(args)
            if args.command == "bimodal-train":
                return _cmd_train(args, force_bimodal=True)
            if args.command == "sweep":
                return _cmd_sweep(args)
            return _cmd_gradcheck(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, DegenerateInputError, DegenerateEmbeddingError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
