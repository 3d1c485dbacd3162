"""Command-line entry point: ``fedlora-dp <mode> --config <path> [--seed N] [--out DIR]``.

The command names the mode; a ``mode`` line in the config file that names
another is a config error.  Seed precedence, lowest first: config file,
FEDLORA_DP_SEED environment variable, --seed flag; from any of them, a seed
outside [0, 2**64) is a config error.  Exit codes: 0 success, 1 validation
error, 2 runtime, numeric or out-of-memory failure, 3 verify-suite failure.
"""

import argparse
import os
import sys
from dataclasses import replace

from .config import MODES, ConfigError, RunConfig, check_seed, parse_config
from .runner import cmd_mia, cmd_report, cmd_run, cmd_sweep, cmd_verify
from .simulation import NumericError

ENV_SEED = "FEDLORA_DP_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlora-dp",
        description="Differentially private federated low-rank adapter simulator",
    )
    parser.add_argument("mode", choices=MODES, help="what to run")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="override the output directory")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    config = parse_config(args.config, args.mode) if args.config else RunConfig(mode=args.mode)
    seed = config.seed
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
        check_seed(seed, ENV_SEED)
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        seed = args.seed
    return replace(config, seed=seed)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if config.mode == "run":
            return cmd_run(config, args.out)
        if config.mode == "verify":
            return cmd_verify(config, args.out)
        if config.mode in ("sweep_epsilon", "sweep_clip", "sweep_rank", "sweep_size"):
            return cmd_sweep(config, args.out)
        if config.mode == "mia":
            return cmd_mia(config, args.out)
        if config.mode == "report":
            return cmd_report(config, args.out)
        raise AssertionError(f"unhandled mode {config.mode}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
