"""Command-line surface: gen-data, extract, train, eval, prune, inspect-weights.

Every command reads one config (``--config``, else the MULTIRES_CONFIG env
var, else built-in defaults), honors a global ``--seed`` override, prints the
effective seeds, and exits nonzero with a one-line diagnostic on failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ENV_CONFIG_VAR, AppConfig, ConfigError, default_config, load_config, with_seed
from .corpus import SPLITS
from .parallel import ForkedProcessError
from .pipeline import (
    PipelineError,
    prune_report_path,
    run_eval,
    run_extract,
    run_gen_data,
    run_prune,
    run_train,
    weight_report,
)
from .trainer import TrainingDivergedError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multires",
        description="Multi-resolution log-STFT anti-spoofing pipeline.",
    )
    parser.add_argument("--config", help=f"config file path (default: ${ENV_CONFIG_VAR}, else built-ins)")
    parser.add_argument("--seed", type=int, help="override both corpus and training seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="synthesize the bona fide / spoof corpus")

    p = sub.add_parser("extract", help="extract aligned feature caches")
    p.add_argument("--split", choices=SPLITS + ("all",), default="all")

    sub.add_parser("train", help="train on cached features, retain the best dev epoch")

    p = sub.add_parser("eval", help="score a split with a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--split", choices=SPLITS, default="eval")

    p = sub.add_parser("prune", help="gap-prune resolutions by mean weight and retrain")
    p.add_argument("checkpoint")

    p = sub.add_parser("inspect-weights", help="report mean learned per-resolution weights")
    p.add_argument("checkpoint")
    return parser


def _load(args: argparse.Namespace) -> AppConfig:
    path = args.config or os.environ.get(ENV_CONFIG_VAR)
    config = load_config(path) if path else default_config()
    if args.seed is not None:
        config = with_seed(config, args.seed)
    return config


def _echo(line: str) -> None:
    print(line, flush=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        _echo(f"effective_seed corpus={config.corpus.seed} train={config.train.seed}")
        if args.command == "gen-data":
            protocols = run_gen_data(config)
            for split in SPLITS:
                _echo(f"wrote {protocols[split]}")
        elif args.command == "extract":
            splits = SPLITS if args.split == "all" else (args.split,)
            for split, path in run_extract(config, splits).items():
                _echo(f"wrote {path}")
        elif args.command == "train":
            result, ckpt = run_train(config, progress=_echo)
            _echo(f"retained_epoch\t{result.best_epoch}")
            _echo(f"wrote {ckpt}")
        elif args.command == "eval":
            report = run_eval(config, args.checkpoint, args.split)
            _echo(report.summary)
        elif args.command == "prune":
            result, retrain, refined = run_prune(config, args.checkpoint, progress=_echo)
            retained = ", ".join(str(r) for r in result.retained)
            _echo(f"retained resolutions: {retained}")
            _echo(f"wrote {prune_report_path(config)}")
            _echo(f"wrote {refined}")
        elif args.command == "inspect-weights":
            sys.stdout.write(weight_report(config, args.checkpoint))
        return 0
    except (
        ConfigError, PipelineError, TrainingDivergedError, ForkedProcessError, OSError, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation; a bare MemoryError names nothing
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
