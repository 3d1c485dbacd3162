"""Flat ``key = value`` run configuration: parsing, validation, snapshots.

The format is line-based: blank lines and ``#`` comments are ignored, every
other line must be ``key = value``.  Unknown keys and out-of-range values are
errors that carry the offending line number.  ``snapshot()`` serialises a
config canonically so that re-parsing reproduces an equal value.

A config is checked once, when it is made, however it is built: by
``parse_text``, ``RunConfig(...)`` or ``dataclasses.replace``.  ``RunConfig``
checks each key's value in declaration order, then the conditions between
keys.  ``parse_text`` reads each value as its key's type and passes each
key's line, so that an error names it.  It parses against the mode that will
run: the command line names that mode, a file whose ``mode`` line names
another is an error, and a command given no file parses the empty text, so
the defaults are checked the same way.  A run sweep is checked point by
point, each point (``sweep_runs``) made, and so checked, as the ``run`` it
is.  ``RunConfig`` is then the one record of a run's settings.  The round
loop (``simulation``), the attack (``attacks``) and the runner read it
directly and check none of its values again.  Downstream there remain only
each type's own invariant (``PrivacyBudget``, ``MechanismParams`` for the
clips and sigmas of a release, ``NoiseModel``, ``RngStream``) and the entry
floors of ``attacks.run_game`` (100 trials) and
``noise_stats.noise_product_stats`` (2 draws).

Each sweep mode is declared once, in a sweep table: ``_RUN_SWEEPS`` makes its
points ``run`` configs (``sweep_runs``), ``_NOISE_SWEEPS`` factor shapes
(``noise_sweep``).  ``MODES`` and ``SWEEP_MODES`` are built from the two tables.
"""

import math
from dataclasses import InitVar, dataclass, field, fields, replace
from pathlib import Path

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_text", "check_seed", "sweep_runs",
           "noise_sweep", "MODES", "SWEEP_MODES", "STRATEGIES"]

STRATEGIES = ("fedavg", "fedprox", "fedavgm", "fedadagrad", "fedyogi", "fedadam")
CLIP_MODES = ("calibrated", "absolute")


class ConfigError(ValueError):
    """Configuration problem, annotated with the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


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


def _parse_floats(raw: str, key: str, line: int) -> tuple[float, ...]:
    return tuple(_parse_float(p, key, line) for p in _split_list(raw, key, line))


def _parse_ints(raw: str, key: str, line: int) -> tuple[int, ...]:
    return tuple(_parse_int(p, key, line) for p in _split_list(raw, key, line))


def _parse_sizes(raw: str, key: str, line: int) -> tuple[tuple[int, int], ...]:
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


def _positive(value, name, line):
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value}", line)


def _at_least(low):
    def check(value, name, line):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}", line)
    return check


def _in_unit_interval(open_ends=False):
    def check(value, name, line):
        if open_ends:
            if not 0 < value < 1:
                raise ConfigError(f"{name} must lie strictly in (0, 1), got {value}", line)
        elif not 0 <= value <= 1:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}", line)
    return check


def _choice(options):
    def check(value, name, line):
        if value not in options:
            raise ConfigError(f"{name} must be one of {options}, got {value!r}", line)
    return check


def check_seed(value: int, name: str, line: int | None = None) -> None:
    """A seed is a 64-bit unsigned integer, the range a random stream is keyed by."""
    if not 0 <= value < 2**64:
        raise ConfigError(f"{name} must lie in [0, 2**64), got {value}", line)


def _sweep_label(value: float) -> str:
    """A sweep point's run-directory suffix: ``value`` to 6 significant digits, path-safe."""
    return f"{value:g}".replace(".", "p").replace("-", "m")


# Each run sweep's sweep.csv key, point-directory prefix, RunConfig field of
# its values, and the settings of its point at value v.  Only sweep_epsilon
# overrides the per-factor budgets; sweep_clip keeps the config's, and each of
# its points is an absolute threshold at which sigma is recalibrated.
_RUN_SWEEPS = {
    "sweep_epsilon": ("epsilon", "eps", "sweep_epsilons",
                      lambda v: {"epsilon": v, "epsilon_b": 0.0, "epsilon_a": 0.0}),
    "sweep_clip": ("clip", "clip", "sweep_clips",
                   lambda v: {"clip_mode": "absolute", "clip_value": v}),
}

# Each noise sweep's noise_stats.csv key and its points' (label, m, n, r).
_NOISE_SWEEPS = {
    "sweep_rank": ("rank", lambda c: [(str(r), c.task_m, c.task_n, r) for r in c.sweep_ranks]),
    "sweep_size": ("size", lambda c: [(f"{m}x{n}", m, n, c.rank) for m, n in c.sweep_sizes]),
}

SWEEP_MODES = (*_RUN_SWEEPS, *_NOISE_SWEEPS)
MODES = ("run", "verify", *SWEEP_MODES, "mia", "report")


def _relative_path(value, name, line):
    # The run directory is output_dir / experiment_name; a nested name is a sweep point's.
    path = Path(value)
    if path.is_absolute() or ".." in path.parts:
        raise ConfigError(f"{name} must be a relative path without '..', got {value!r}", line)


def _sweep_points(values, name, line):
    """Positive points, no two of which share a run directory (``_sweep_label``)."""
    labels: dict[str, float] = {}
    for v in values:
        if not v > 0:
            raise ConfigError(f"{name} entries must be > 0, got {v}", line)
        label = _sweep_label(v)
        if label in labels:
            raise ConfigError(f"{name} entries {labels[label]!r} and {v!r} share the run"
                              f" directory label {label!r}", line)
        labels[label] = v


def _ascending_ranks(values, name, line):
    if list(values) != sorted(values) or any(r < 1 for r in values):
        raise ConfigError(f"{name} must be positive and ascending, got {list(values)}", line)


def _positive_sizes(values, name, line):
    for m, n in values:
        if m < 1 or n < 1:
            raise ConfigError(f"{name} entries must be positive, got {m}x{n}", line)


def _key(default, check=None, parse=None):
    """A key's field: default, check(value, key, line) and a list key's parse(raw, key, line)."""
    return field(default=default, metadata={"check": check, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the command-line runner, with federation-scale defaults and range checks."""

    experiment_name: str = _key("run", _relative_path)
    output_dir: str = "runs"
    mode: str = _key("run", _choice(MODES))
    seed: int = _key(0, check_seed)

    rounds: int = _key(200, _at_least(0))
    clients: int = _key(20, _positive)
    sampled_per_round: int = _key(2, _positive)
    local_epochs: int = _key(10, _at_least(0))
    batch_size: int = _key(16, _positive)
    lr_start: float = _key(5e-5, _positive)
    lr_end: float = _key(1e-6, _positive)
    strategy: str = _key("fedavg", _choice(STRATEGIES))

    dp_enabled: bool = False
    epsilon: float = _key(25.0, _positive)
    epsilon_b: float = _key(0.0, _at_least(0))  # 0 means "use epsilon"
    epsilon_a: float = _key(0.0, _at_least(0))
    delta: float = _key(1e-5, _in_unit_interval(open_ends=True))
    clip_mode: str = _key("calibrated", _choice(CLIP_MODES))
    clip_value: float = _key(0.1, _positive)
    clip_quantile: float = _key(0.9, _in_unit_interval())
    calibration_rounds: int = _key(3, _positive)

    rank: int = _key(32, _positive)
    lora_scale: float = _key(64.0, _positive)
    prox_mu: float = _key(0.01, _at_least(0))
    server_lr: float = _key(0.1, _positive)
    beta1: float = _key(0.9, _in_unit_interval())
    beta2: float = _key(0.99, _in_unit_interval())
    tau: float = _key(1e-3, _positive)
    momentum: float = _key(0.9, _in_unit_interval())

    task_m: int = _key(16, _positive)
    task_n: int = _key(8, _positive)
    task_rank: int = _key(4, _positive)
    samples_per_client: int = _key(50, _positive)
    sigma_obs: float = _key(0.0, _at_least(0))
    heterogeneity: float = _key(0.0, _in_unit_interval())

    verify_fast: bool = False

    sweep_epsilons: tuple[float, ...] = _key((5.0, 10.0, 15.0, 25.0), _sweep_points, _parse_floats)
    sweep_clips: tuple[float, ...] = _key((0.1, 1.0), _sweep_points, _parse_floats)
    sweep_ranks: tuple[int, ...] = _key((8, 16, 32, 64, 128), _ascending_ranks, _parse_ints)
    sweep_sizes: tuple[tuple[int, int], ...] = _key(((32, 32), (40, 40)), _positive_sizes, _parse_sizes)
    noise_draws: int = _key(100_000, _at_least(2))  # a variance needs two draws
    noise_sigma_beta: float = _key(1.0, _at_least(0))
    noise_sigma_alpha: float = _key(1.0, _at_least(0))
    sweep_norm_b: float = _key(1.0, _at_least(0))
    sweep_norm_a: float = _key(1.0, _at_least(0))

    mia_trials: int = _key(10_000, _at_least(100))  # run_game's floor
    mia_epsilon: float = _key(1.0, _positive)
    mia_rank: int = _key(4, _positive)
    mia_epochs: int = _key(5, _positive)  # an untrained B is 0, which no clip fits
    mia_batch_size: int = _key(4, _positive)
    mia_lr: float = _key(0.002, _positive)  # at 0.01 the probe training diverges on about 4% of seeds
    mia_dataset_size: int = _key(8, _positive)
    mia_input_scale: float = _key(10.0, _positive)

    # Each key's source line, which parse_text passes so that an error names it; not a field.
    lines: InitVar[dict[str, int] | None] = None

    def __post_init__(self, lines: dict[str, int] | None) -> None:
        _validate(self, lines or {})

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


def sweep_runs(config: RunConfig,
               lines: dict[str, int] | None = None) -> list[tuple[str, float, RunConfig]]:
    """Each run-sweep point's ``sweep.csv`` key and value, and the ``run`` it is, with DP.

    Each point checks itself as it is made; an error names its key's line in ``lines``.
    """
    if config.mode not in _RUN_SWEEPS:
        return []
    key, prefix, values, settings = _RUN_SWEEPS[config.mode]
    return [(key, v, replace(config, **settings(v), mode="run", dp_enabled=True, lines=lines,
                             experiment_name=f"{config.experiment_name}/{prefix}_{_sweep_label(v)}"))
            for v in getattr(config, values)]


def noise_sweep(config: RunConfig) -> tuple[str, list[tuple[str, int, int, int]]] | None:
    """A noise sweep's ``noise_stats.csv`` key and (label, m, n, r) points; None in other modes."""
    if config.mode not in _NOISE_SWEEPS:
        return None
    key, points = _NOISE_SWEEPS[config.mode]
    return key, points(config)


def parse_text(text: str, mode: str | None = None) -> RunConfig:
    """Parse config text; unknown keys, malformed lines and bad values are errors.

    ``mode``, when given, is the mode that will run, and the config is
    checked against it: a ``mode`` line naming another mode is an error.
    """
    known = {f.name: f for f in fields(RunConfig)}
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
        f = known[key]
        parser = f.metadata.get("parse") or _PARSERS[type(f.default)]
        values[key] = parser(raw_value, key, lineno)
        lines_seen[key] = lineno

    if mode is not None:
        if values.get("mode", mode) != mode:
            raise ConfigError(f"mode is {values['mode']!r}, but the command runs {mode!r}",
                              lines_seen["mode"])
        values["mode"] = mode
    return RunConfig(**values, lines=lines_seen)


def _validate(config: RunConfig, lines_seen: dict[str, int]) -> None:
    """Each key's own check in declaration order, then the conditions between keys,
    which a run sweep meets at each of its points, each made, and so checked, as a ``run``."""
    for f in fields(config):
        check = f.metadata.get("check")
        if check is not None:
            check(getattr(config, f.name), f.name, lines_seen.get(f.name))
    if config.mode in _RUN_SWEEPS:
        sweep_runs(config, lines_seen)
        return
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
    # The clip dry run plays the run's own first calibration_rounds rounds.  Past
    # the run's last round, cosine_lr wraps back to lr_start, and the clips would
    # take norms from rounds the run never plays.
    dry_run = config.mode == "run" and config.dp_enabled and config.clip_mode == "calibrated"
    if dry_run and config.calibration_rounds > config.rounds:
        raise ConfigError(
            f"calibration_rounds ({config.calibration_rounds}) cannot exceed rounds "
            f"({config.rounds}) when the clips are calibrated",
            lines_seen.get("calibration_rounds", lines_seen.get("rounds")),
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
