"""Flat ``key = value`` run configuration: parsing, validation, snapshots.

The format is line-based: blank lines and ``#`` comments are ignored, every
other line must be ``key = value``.  Unknown keys and out-of-range values are
errors that carry the offending line number.  ``snapshot()`` serialises a
config canonically so that re-parsing reproduces an equal value.

A config is checked once, where it enters: ``parse_text`` checks every key's
type and range and the conditions between keys, against the mode that will
run.  The command line names that mode; a file whose ``mode`` line names
another is an error.  ``RunConfig`` is then the one record of a run's
settings.  The round loop (``simulation``), the attack (``attacks``) and the
runner read it directly and check none of its values again.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_text", "check_seed", "sweep_label",
           "MODES", "STRATEGIES"]

MODES = ("run", "verify", "sweep_epsilon", "sweep_clip", "sweep_rank", "sweep_size", "mia", "report")
PRIVATE_MODES = ("sweep_epsilon", "sweep_clip")  # every point of these sweeps runs with DP
STRATEGIES = ("fedavg", "fedprox", "scaffold", "fedavgm", "fedadagrad", "fedyogi", "fedadam")
CLIP_MODES = ("calibrated", "absolute")


class ConfigError(ValueError):
    """Configuration problem, annotated with the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the command-line runner, with federation-scale defaults."""

    experiment_name: str = "run"
    output_dir: str = "runs"
    mode: str = "run"
    seed: int = 0

    rounds: int = 200
    clients: int = 20
    sampled_per_round: int = 2
    local_epochs: int = 10
    batch_size: int = 16
    lr_start: float = 5e-5
    lr_end: float = 1e-6
    strategy: str = "fedavg"

    dp_enabled: bool = False
    epsilon: float = 25.0
    epsilon_b: float = 0.0  # 0 means "use epsilon"
    epsilon_a: float = 0.0
    delta: float = 1e-5
    clip_mode: str = "calibrated"
    clip_value: float = 0.1
    clip_quantile: float = 0.9
    calibration_rounds: int = 3

    rank: int = 32
    lora_scale: float = 64.0
    prox_mu: float = 0.01
    server_lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3
    momentum: float = 0.9

    task_m: int = 16
    task_n: int = 8
    task_rank: int = 4
    samples_per_client: int = 50
    sigma_obs: float = 0.0
    heterogeneity: float = 0.0

    verify_fast: bool = False

    sweep_epsilons: tuple[float, ...] = (5.0, 10.0, 15.0, 25.0)
    sweep_clips: tuple[float, ...] = (0.1, 1.0)
    sweep_ranks: tuple[int, ...] = (8, 16, 32, 64, 128)
    sweep_sizes: tuple[tuple[int, int], ...] = ((32, 32), (40, 40))
    noise_draws: int = 100_000
    noise_sigma_beta: float = 1.0
    noise_sigma_alpha: float = 1.0
    sweep_norm_b: float = 1.0
    sweep_norm_a: float = 1.0

    mia_trials: int = 10_000
    mia_epsilon: float = 1.0
    mia_rank: int = 4
    mia_epochs: int = 5
    mia_batch_size: int = 4
    mia_lr: float = 0.002  # at 0.01 the probe training diverges on about 4% of seeds
    mia_dataset_size: int = 8
    mia_input_scale: float = 10.0

    def resolved_epsilon_b(self) -> float:
        return self.epsilon_b if self.epsilon_b > 0 else self.epsilon

    def resolved_epsilon_a(self) -> float:
        return self.epsilon_a if self.epsilon_a > 0 else self.epsilon

    def snapshot(self) -> str:
        """Canonical key = value text re-parsing to an equal config."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{m}x{n}" for m, n in value)
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _parse_bool(raw: str, key: str, line: int) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be a boolean (true/false), got {raw!r}", line)


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}", line) from None


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line)
    return value


def _split_list(raw: str, key: str, line: int) -> list[str]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} must be a non-empty comma-separated list", line)
    return parts


def _parse_float_list(raw: str, key: str, line: int) -> tuple[float, ...]:
    return tuple(_parse_float(p, key, line) for p in _split_list(raw, key, line))


def _parse_int_list(raw: str, key: str, line: int) -> tuple[int, ...]:
    return tuple(_parse_int(p, key, line) for p in _split_list(raw, key, line))


def _parse_size_list(raw: str, key: str, line: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    for p in _split_list(raw, key, line):
        if "x" not in p:
            raise ConfigError(f"{key} entries must look like MxN, got {p!r}", line)
        left, _, right = p.partition("x")
        pairs.append((_parse_int(left, key, line), _parse_int(right, key, line)))
    return tuple(pairs)


_PARSERS = {
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_float,
    str: lambda raw, key, line: raw,
}

_LIST_PARSERS = {
    "sweep_epsilons": _parse_float_list,
    "sweep_clips": _parse_float_list,
    "sweep_ranks": _parse_int_list,
    "sweep_sizes": _parse_size_list,
}


def _positive(name):
    def check(cfg_value, line):
        if not cfg_value > 0:
            raise ConfigError(f"{name} must be > 0, got {cfg_value}", line)
    return check


def _at_least(name, low):
    def check(cfg_value, line):
        if cfg_value < low:
            raise ConfigError(f"{name} must be >= {low}, got {cfg_value}", line)
    return check


def _in_unit_interval(name, open_ends=False):
    def check(cfg_value, line):
        if open_ends:
            if not 0 < cfg_value < 1:
                raise ConfigError(f"{name} must lie strictly in (0, 1), got {cfg_value}", line)
        elif not 0 <= cfg_value <= 1:
            raise ConfigError(f"{name} must lie in [0, 1], got {cfg_value}", line)
    return check


def check_seed(value: int, name: str, line: int | None = None) -> None:
    """A seed is a 64-bit unsigned integer, the range a random stream is keyed by."""
    if not 0 <= value < 2**64:
        raise ConfigError(f"{name} must lie in [0, 2**64), got {value}", line)


def sweep_label(value: float) -> str:
    """A sweep point's run-directory suffix: ``value`` to 6 significant digits, path-safe."""
    return f"{value:g}".replace(".", "p").replace("-", "m")


def _choice(name, options):
    def check(cfg_value, line):
        if cfg_value not in options:
            raise ConfigError(f"{name} must be one of {options}, got {cfg_value!r}", line)
    return check


_VALIDATORS = {
    "mode": _choice("mode", MODES),
    "strategy": _choice("strategy", STRATEGIES),
    "clip_mode": _choice("clip_mode", CLIP_MODES),
    "seed": lambda value, line: check_seed(value, "seed", line),
    "rounds": _at_least("rounds", 0),
    "clients": _positive("clients"),
    "sampled_per_round": _positive("sampled_per_round"),
    "local_epochs": _at_least("local_epochs", 0),
    "batch_size": _positive("batch_size"),
    "lr_start": _positive("lr_start"),
    "lr_end": _positive("lr_end"),
    "epsilon": _positive("epsilon"),
    "epsilon_b": _at_least("epsilon_b", 0),
    "epsilon_a": _at_least("epsilon_a", 0),
    "delta": _in_unit_interval("delta", open_ends=True),
    "clip_value": _positive("clip_value"),
    "clip_quantile": _in_unit_interval("clip_quantile"),
    "calibration_rounds": _positive("calibration_rounds"),
    "rank": _positive("rank"),
    "lora_scale": _positive("lora_scale"),
    "prox_mu": _at_least("prox_mu", 0),
    "server_lr": _positive("server_lr"),
    "beta1": _in_unit_interval("beta1"),
    "beta2": _in_unit_interval("beta2"),
    "tau": _positive("tau"),
    "momentum": _in_unit_interval("momentum"),
    "task_m": _positive("task_m"),
    "task_n": _positive("task_n"),
    "task_rank": _positive("task_rank"),
    "samples_per_client": _positive("samples_per_client"),
    "sigma_obs": _at_least("sigma_obs", 0),
    "heterogeneity": _in_unit_interval("heterogeneity"),
    "noise_draws": _at_least("noise_draws", 2),  # a variance needs two draws
    "noise_sigma_beta": _at_least("noise_sigma_beta", 0),
    "noise_sigma_alpha": _at_least("noise_sigma_alpha", 0),
    "sweep_norm_b": _at_least("sweep_norm_b", 0),
    "sweep_norm_a": _at_least("sweep_norm_a", 0),
    "mia_trials": _at_least("mia_trials", 100),  # run_game's floor
    "mia_epsilon": _positive("mia_epsilon"),
    "mia_rank": _positive("mia_rank"),
    "mia_epochs": _positive("mia_epochs"),  # an untrained B is 0, which no clip fits
    "mia_batch_size": _positive("mia_batch_size"),
    "mia_lr": _positive("mia_lr"),
    "mia_dataset_size": _positive("mia_dataset_size"),
    "mia_input_scale": _positive("mia_input_scale"),
}


def parse_text(text: str, mode: str | None = None) -> RunConfig:
    """Parse config text; unknown keys, malformed lines and bad values are errors.

    ``mode``, when given, is the mode that will run, and the config is
    checked against it: a ``mode`` line naming another mode is an error.
    """
    field_types = {f.name: f.type for f in fields(RunConfig)}
    known = set(field_types)
    values: dict[str, object] = {}
    lines_seen: dict[str, int] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (already set on line {lines_seen[key]})", lineno)
        if not raw_value:
            raise ConfigError(f"{key} has no value", lineno)
        if key in _LIST_PARSERS:
            values[key] = _LIST_PARSERS[key](raw_value, key, lineno)
        else:
            default = getattr(RunConfig, key)
            parser = _PARSERS[type(default)]
            values[key] = parser(raw_value, key, lineno)
        lines_seen[key] = lineno

    if mode is not None:
        if values.get("mode", mode) != mode:
            raise ConfigError(f"mode is {values['mode']!r}, but the command runs {mode!r}",
                              lines_seen["mode"])
        values["mode"] = mode
    config = RunConfig(**values)
    _validate(config, lines_seen)
    return config


def _validate(config: RunConfig, lines_seen: dict[str, int]) -> None:
    for key, validator in _VALIDATORS.items():
        validator(getattr(config, key), lines_seen.get(key))
    # The run directory is output_dir / experiment_name; a nested name is a sweep point's.
    name = Path(config.experiment_name)
    if name.is_absolute() or ".." in name.parts:
        raise ConfigError(f"experiment_name must be a relative path without '..', got "
                          f"{config.experiment_name!r}", lines_seen.get("experiment_name"))
    line = lines_seen.get("sampled_per_round", lines_seen.get("clients"))
    if config.sampled_per_round > config.clients:
        raise ConfigError(
            f"sampled_per_round ({config.sampled_per_round}) cannot exceed clients ({config.clients})",
            line,
        )
    if config.lr_end > config.lr_start:
        raise ConfigError(
            f"lr_end ({config.lr_end}) cannot exceed lr_start ({config.lr_start})",
            lines_seen.get("lr_end", lines_seen.get("lr_start")),
        )
    if config.task_rank > min(config.task_m, config.task_n):
        raise ConfigError(
            f"task_rank ({config.task_rank}) cannot exceed min(task_m, task_n)",
            lines_seen.get("task_rank"),
        )
    for key in ("sweep_epsilons", "sweep_clips"):
        labels: dict[str, float] = {}
        for v in getattr(config, key):
            if not v > 0:
                raise ConfigError(f"{key} entries must be > 0, got {v}", lines_seen.get(key))
            label = sweep_label(v)
            if label in labels:
                raise ConfigError(f"{key} entries {labels[label]!r} and {v!r} share the run"
                                  f" directory label {label!r}", lines_seen.get(key))
            labels[label] = v
    ranks = config.sweep_ranks
    if list(ranks) != sorted(ranks) or any(r < 1 for r in ranks):
        raise ConfigError(f"sweep_ranks must be positive and ascending, got {list(ranks)}",
                          lines_seen.get("sweep_ranks"))
    for m, n in config.sweep_sizes:
        if m < 1 or n < 1:
            raise ConfigError(f"sweep_sizes entries must be positive, got {m}x{n}",
                              lines_seen.get("sweep_sizes"))
    # SCAFFOLD's control variates are each client's dense m x n gradient, which
    # the factor mechanism cannot release, so a private run would send them un-noised.
    if config.strategy == "scaffold" and (config.dp_enabled or config.mode in PRIVATE_MODES):
        raise ConfigError(
            "strategy scaffold cannot run with DP: its control variates are un-noised dense "
            "gradients",
            lines_seen.get("strategy"),
        )


def parse_config(path: str | Path, mode: str | None = None) -> RunConfig:
    """Parse a config file for ``mode`` (``parse_text``); a missing or undecodable file is an error."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode {path}: {exc}") from None
    return parse_text(text, mode=mode)
