"""The benchmark's workloads: CLI mode, config keys, work count and output checks.

Every workload is one ``fedlora-dp <mode>`` invocation in a fresh process.
Its config file sets only keys that ``RunConfig`` has; the seed reaches the
program only through ``--seed``.  No workload sets ``max_workers`` or uses
SCAFFOLD.
"""

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

MIA_TAGS = ("sigma_0", "sigma_calibrated", "sigma_10x")
VARIANCE_REL_TOL = 0.03  # |MC - exact| / exact, the tolerance verify uses
MEAN_SE_TOL = 5.0  # |mean_diff| <= 5 SE, as verify uses


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    config: dict[str, object]
    why: str
    work_name: str  # what work_per_s counts on this workload
    main_loop: str  # function whose first call ends set-up

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def run_config(self):
        """The ``RunConfig`` the CLI parses from this workload's config file."""
        from fedlora_dp.config import parse_text  # late: run.py first checks that src/ exists

        return parse_text(self.config_text())

    def work(self) -> int:
        """Work units of one job, counted from the config."""
        cfg = self.run_config()
        if self.mode == "run":
            batch = min(cfg.batch_size, cfg.samples_per_client)
            batches = math.ceil(cfg.samples_per_client / batch)
            return cfg.rounds * cfg.sampled_per_round * cfg.local_epochs * batches
        if self.mode == "sweep_rank":
            return len(cfg.sweep_ranks) * cfg.noise_draws
        return len(MIA_TAGS) * cfg.mia_trials

    def output_files(self, run_dir: Path) -> list[Path]:
        """The byte-stable outputs whose sha256 is the run's digest."""
        if self.mode == "run":
            return [run_dir / "metrics.csv"]
        if self.mode == "sweep_rank":
            return [run_dir / "noise_stats.csv"]
        return [run_dir / f"{kind}_{tag}.csv" for tag in MIA_TAGS for kind in ("trials", "roc")]

    def digest(self, run_dir: Path) -> str:
        h = hashlib.sha256()
        for path in self.output_files(run_dir):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def check(self, run_dir: Path) -> list[str]:
        """Problems found in a job's outputs; empty when they are correct."""
        missing = [p.name for p in self.output_files(run_dir) if not p.is_file()]
        if missing:
            return [f"missing outputs: {missing}"]
        cfg = self.run_config()
        if self.mode == "run":
            return _check_run(run_dir, cfg)
        if self.mode == "sweep_rank":
            return _check_sweep(run_dir, cfg)
        return _check_mia(run_dir, cfg)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _non_finite(rows: list[dict[str, str]], columns: list[str], path: Path) -> list[str]:
    bad = [f"{path.name} row {i} {c} = {row[c]!r}"
           for i, row in enumerate(rows) for c in columns if not math.isfinite(float(row[c]))]
    return bad[:3]


def _check_run(run_dir: Path, cfg) -> list[str]:
    path = run_dir / "metrics.csv"
    rows = _rows(path)
    problems = []
    if [int(r["round"]) for r in rows] != list(range(cfg.rounds)):
        problems.append(f"metrics.csv has {len(rows)} rows, expected one per round ({cfg.rounds})")
    numeric = ["epsilon", "clip", "mean_loss", "global_delta_norm", "expectation_diff",
               "total_variance", "wall_ms"]
    problems += _non_finite(rows, numeric, path)
    for line in (run_dir / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        if key.endswith("_loss") and not math.isfinite(float(value)):
            problems.append(f"summary.txt {key} = {value}")
    return problems


def _check_sweep(run_dir: Path, cfg) -> list[str]:
    path = run_dir / "noise_stats.csv"
    rows = _rows(path)
    problems = []
    if [int(r["sweep_value"]) for r in rows] != list(cfg.sweep_ranks):
        problems.append(f"noise_stats.csv ranks {[r['sweep_value'] for r in rows]}, "
                        f"expected {list(cfg.sweep_ranks)}")
    problems += _non_finite(rows, ["mean_diff", "std_error", "mc_variance", "exact_variance",
                                   "paper_bound"], path)
    if problems:
        return problems
    for r in rows:
        mc, exact = float(r["mc_variance"]), float(r["exact_variance"])
        mean, se = float(r["mean_diff"]), float(r["std_error"])
        if not abs(mc - exact) <= VARIANCE_REL_TOL * exact:
            problems.append(f"rank {r['sweep_value']}: MC variance {mc} vs exact {exact}")
        if not abs(mean) <= MEAN_SE_TOL * se:
            problems.append(f"rank {r['sweep_value']}: |mean_diff| {abs(mean)} above 5 SE {5 * se}")
    return problems


def _check_mia(run_dir: Path, cfg) -> list[str]:
    problems = []
    for tag in MIA_TAGS:
        trials_path = run_dir / f"trials_{tag}.csv"
        trials = _rows(trials_path)
        if len(trials) != cfg.mia_trials:
            problems.append(f"{trials_path.name} has {len(trials)} rows, expected {cfg.mia_trials}")
        if any(t["true_bit"] not in ("0", "1") for t in trials):
            problems.append(f"{trials_path.name} has a true_bit other than 0 or 1")
        problems += _non_finite(trials, ["score"], trials_path)

        roc_path = run_dir / f"roc_{tag}.csv"
        roc = _rows(roc_path)
        problems += _non_finite(roc, ["fpr", "tpr"], roc_path)
        problems += _non_finite(roc[1:], ["threshold"], roc_path)  # row 0 is the +inf threshold
        ends = [(float(r["fpr"]), float(r["tpr"])) for r in (roc[0], roc[-1])] if roc else []
        if ends != [(0.0, 0.0), (1.0, 1.0)]:
            problems.append(f"{roc_path.name} runs {ends}, not from (0,0) to (1,1)")

    accuracy = {}
    for line in (run_dir / "summary.txt").read_text().splitlines():
        tag, _, rest = line.partition(": accuracy ")
        accuracy[tag] = float(rest.split(",")[0]) if rest else math.nan
    if accuracy.get("sigma_0") != 1.0:
        problems.append(f"accuracy at sigma_0 is {accuracy.get('sigma_0')}, expected exactly 1")
    problems += [f"summary.txt {tag} accuracy {a}"
                 for tag, a in accuracy.items() if not math.isfinite(a)]
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fl_small",
            mode="run",
            config={"dp_enabled": "true"},
            why="default 16x8 rank-32 DP fedavg run with calibrated clip: bound by per-call "
                "overhead, so fixed cost added per call shows here",
            work_name="train_steps_per_s",
            main_loop="simulation.run_round",
        ),
        Workload(
            name="fl_dense",
            mode="run",
            config={"task_m": 1024, "task_n": 1024, "task_rank": 8, "rank": 16, "lora_scale": 16,
                    "dp_enabled": "true", "strategy": "fedadam", "clip_mode": "absolute",
                    "clip_value": 1.0, "local_epochs": 1, "rounds": 40},
            why="DP fedadam at m = n = 1024: BLAS-bound local training and server step on the "
                "same layers as fl_small",
            work_name="train_steps_per_s",
            main_loop="simulation.run_round",
        ),
        Workload(
            name="noise_sweep",
            mode="sweep_rank",
            config={"noise_draws": 10000},
            why="Monte Carlo noisy-product sweep over ranks 8-128: RNG-bound, no training, so the "
                "control for every simulation change",
            work_name="mc_draws_per_s",
            main_loop="noise_stats.noise_product_stats",
        ),
        Workload(
            name="mia_game",
            mode="mia",
            # At the default mia_lr = 0.01 the probe training behind the game diverges
            # (NumericError, exit 2) on about 4% of seeds, 9 and 207 among them.
            config={"mia_trials": 3000, "mia_lr": 0.002},
            why="distinguishing game at 3 noise levels: the only workload for attacks; many "
                "small generators instead of a few large ones",
            work_name="game_trials_per_s",
            main_loop="attacks.run_game",
        ),
    )
}
