"""Command-line front end: one subcommand per experiment.

Flags override values from an optional ``--config`` file (flat
``key = value`` lines, same keys as the flags); both come from the field
table in :mod:`ergolab.harness`.  Exit status: 0 pass, 1 the headline
statistic missed the configured threshold, 2 config error (any malformed
flag or file value), 3 experiment failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, ErgolabError
from .harness import (EXPERIMENT, EXPERIMENTS, FIELDS, FLAGS, ExperimentConfig,
                      persist, run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="forecasting-limits experiments on exact dynamical systems")
    sub = parser.add_subparsers(dest=EXPERIMENT.attr, required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None,
                       help="flat key = value config file; flags override")
        for field in FLAGS:
            p.add_argument(f"--{field.key}", dest=field.attr, help=field.help)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    for field in FIELDS:
        value = getattr(args, field.attr)
        if value is not None:
            config.set_key(field.key, value)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgolabError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 3

    print(f"experiment: {config.experiment}")
    print(json.dumps(report.summary, indent=2, default=str))
    if config.out:
        paths = persist(config, report, config.out)
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
    if config.threshold is not None:
        ok = report.passed(config.threshold)
        rel = ">=" if report.stat_direction == "ge" else "<="
        print(f"threshold check: {report.stat!r} {rel} {config.threshold!r}"
              f" -> {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
