"""Command line: every mode on a tiny config, exit codes, byte-stable reruns, seed precedence."""

import csv
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fedlora_dp
from fedlora_dp import cli, noise_stats, runner, simulation
from fedlora_dp.adapters import init_adapter
from fedlora_dp.config import STRATEGIES, RunConfig, parse_text
from fedlora_dp.linalg import RngStream, frobenius_norm
from fedlora_dp.privacy import PrivacyBudget, calibrate_sigma
from fedlora_dp.simulation import local_train

TINY = """\
experiment_name = tiny
rounds = 4
clients = 3
sampled_per_round = 2
local_epochs = 2
batch_size = 4
lr_start = 0.05
lr_end = 0.01
rank = 2
lora_scale = 2
task_m = 6
task_n = 4
task_rank = 2
samples_per_client = 10
dp_enabled = true
clip_mode = absolute
clip_value = 1.0
"""


def write_config(tmp_path, text=TINY, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(mode, config, out, *extra):
    return cli.main([mode, "--config", config, "--out", str(out), *extra])


def snapshot_seed(run_dir):
    for line in (run_dir / "config.snapshot").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "seed":
            return int(value)
    raise AssertionError("config.snapshot has no seed line")


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)


class TestRun:
    def test_writes_one_row_per_round(self, tmp_path):
        assert run_cli("run", write_config(tmp_path), tmp_path / "out") == 0
        lines = (tmp_path / "out" / "tiny" / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("round,strategy,dp_enabled,")
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2", "3"]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", config, tmp_path / "first") == 0
        assert run_cli("run", config, tmp_path / "second") == 0
        first = (tmp_path / "first" / "tiny" / "metrics.csv").read_bytes()
        second = (tmp_path / "second" / "tiny" / "metrics.csv").read_bytes()
        assert first == second

    def test_diverging_run_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY.replace("lr_start = 0.05", "lr_start = 1e6"))
        assert run_cli("run", config, tmp_path / "out") == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setattr(noise_stats, "rank_sweep", refuse)
        assert run_cli("sweep_rank", write_config(tmp_path), tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.11 PiB for an array\n"


class TestConfigErrors:
    # Then three values no mode can run: an untrained B, too few trials or draws.  The last
    # two are sweep points that would share one run directory (labels keep 6 digits).
    @pytest.mark.parametrize("bad_line", ["rounds 4", "no_such_key = 1", "rounds = four",
                                          "rounds = -1", "max_workers = 2", "mia_epochs = 0",
                                          "mia_trials = 99", "noise_draws = 1",
                                          "sweep_clips = 0.1234561,0.1234562",
                                          "sweep_epsilons = 5,5"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, bad_line):
        config = write_config(tmp_path, TINY.replace("rounds = 4", bad_line))
        assert run_cli("run", config, tmp_path / "out") == 1
        assert "config error: line 2:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["{tmp}/abs", "../up", "a/../../up"])
    def test_experiment_name_outside_the_output_dir_exits_1(self, tmp_path, capsys, name):
        name = name.format(tmp=tmp_path)
        config = write_config(tmp_path, TINY.replace("experiment_name = tiny",
                                                     f"experiment_name = {name}"))
        assert run_cli("run", config, tmp_path / "out" / "deep") == 1
        assert "line 1: experiment_name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_missing_config_exits_1(self, tmp_path):
        assert run_cli("run", str(tmp_path / "absent.cfg"), tmp_path / "out") == 1

    def test_undecodable_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"rounds = \xff\n")
        assert run_cli("run", str(path), tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot decode {path}: ")

    @pytest.mark.parametrize("mode,dp", [
        ("run", "true"),  # private by config
        ("sweep_clip", "false"),  # private by the command's mode, which parse_text is given
        ("sweep_epsilon", "false"),
    ])
    def test_scaffold_with_dp_exits_1_before_training(self, tmp_path, monkeypatch, capsys,
                                                      mode, dp):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was rejected")

        monkeypatch.setattr(runner, "run_experiment", no_training)
        config = write_config(tmp_path, TINY.replace("dp_enabled = true", f"dp_enabled = {dp}")
                              + "strategy = scaffold\n")
        assert run_cli(mode, config, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "config error: " in err and "scaffold cannot run with DP" in err
        assert "line 18:" in err
        assert not (tmp_path / "out").exists()

    def test_scaffold_without_dp_runs(self, tmp_path):
        config = write_config(tmp_path, TINY.replace("dp_enabled = true", "dp_enabled = false")
                              + "strategy = scaffold\n")
        assert run_cli("run", config, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "tiny" / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[1:3] for row in rows[1:]] == [["scaffold", "false"]] * 4

    @pytest.mark.parametrize("file_mode,mode,extra", [
        # checked against sweep_clip, this file would fail the SCAFFOLD check
        ("sweep_clip", "run", "dp_enabled = false\nstrategy = scaffold\n"),
        ("run", "sweep_rank", ""),
    ])
    def test_file_mode_other_than_command_exits_1(self, tmp_path, capsys, file_mode, mode,
                                                  extra):
        config = write_config(tmp_path, TINY.replace("dp_enabled = true\n", "")
                              + f"mode = {file_mode}\n" + extra)
        assert run_cli(mode, config, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == (f"config error: line 17: mode is {file_mode!r}, "
                       f"but the command runs {mode!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [TINY, TINY + "mode = run\n"])
    def test_file_mode_absent_or_equal_to_command_runs(self, tmp_path, text):
        assert run_cli("run", write_config(tmp_path, text), tmp_path / "out") == 0
        snapshot = (tmp_path / "out" / "tiny" / "config.snapshot").read_text()
        assert "\nmode = run\n" in snapshot

    @pytest.mark.parametrize("mode,bad_line", [
        ("run", "task_rank = 5"),  # above min(task_m, task_n) = 4
        ("run", "task_n = 0"),
        ("run", "clients = 0"),
        ("run", "samples_per_client = 0"),
        ("run", "sigma_obs = -0.1"),
        ("run", "heterogeneity = 1.5"),
        ("mia", "task_rank = 5"),
        ("mia", "mia_dataset_size = 0"),
        ("mia", "sigma_obs = -0.1"),
    ])
    def test_task_keys_rejected_before_the_task_is_built(self, tmp_path, monkeypatch, capsys,
                                                          mode, bad_line):
        # generate_task checks none of its arguments: parse_text is the only check
        def no_task(*args, **kwargs):
            raise AssertionError("built a task from a config that should be rejected")

        monkeypatch.setattr(runner, "generate_task", no_task)
        key = bad_line.split(" = ")[0]
        lines = [line for line in TINY.splitlines() if not line.startswith(key + " ")]
        config = write_config(tmp_path, "\n".join(lines + [bad_line]) + "\n")
        assert run_cli(mode, config, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {len(lines) + 1}: {key} ")


    @pytest.mark.parametrize("source", ["file", "env", "flag"])
    def test_seed_of_2_to_the_64_exits_1(self, tmp_path, monkeypatch, capsys, source):
        seed = 2**64
        text = TINY + (f"seed = {seed}\n" if source == "file" else "")
        if source == "env":
            monkeypatch.setenv(cli.ENV_SEED, str(seed))
        extra = ("--seed", str(seed)) if source == "flag" else ()
        assert run_cli("run", write_config(tmp_path, text), tmp_path / "out", *extra) == 1
        name = {"file": "line 18: seed", "env": cli.ENV_SEED, "flag": "--seed"}[source]
        assert capsys.readouterr().err == (
            f"config error: {name} must lie in [0, 2**64), got {seed}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["file", "env", "flag"])
    def test_largest_seed_runs(self, tmp_path, monkeypatch, source):
        seed = 2**64 - 1
        text = TINY + (f"seed = {seed}\n" if source == "file" else "")
        if source == "env":
            monkeypatch.setenv(cli.ENV_SEED, str(seed))
        extra = ("--seed", str(seed)) if source == "flag" else ()
        assert run_cli("run", write_config(tmp_path, text), tmp_path / "out", *extra) == 0
        assert snapshot_seed(tmp_path / "out" / "tiny") == seed


class TestSeedPrecedence:
    def test_config_then_env_then_flag(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, TINY + "seed = 3\n")
        assert run_cli("run", config, tmp_path / "config") == 0
        assert snapshot_seed(tmp_path / "config" / "tiny") == 3

        monkeypatch.setenv(cli.ENV_SEED, "5")
        assert run_cli("run", config, tmp_path / "env") == 0
        assert snapshot_seed(tmp_path / "env" / "tiny") == 5

        assert run_cli("run", config, tmp_path / "flag", "--seed", "7") == 0
        assert snapshot_seed(tmp_path / "flag" / "tiny") == 7

    def test_seed_changes_the_metrics(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", config, tmp_path / "a", "--seed", "1") == 0
        assert run_cli("run", config, tmp_path / "b", "--seed", "2") == 0
        assert ((tmp_path / "a" / "tiny" / "metrics.csv").read_bytes()
                != (tmp_path / "b" / "tiny" / "metrics.csv").read_bytes())


class TestMia:
    @pytest.mark.parametrize("seed", [9, 207])
    def test_default_mia_lr_trains_without_divergence(self, tmp_path, seed):
        # At mia_lr = 0.01 the probe training diverged on these seeds (exit 2).
        config = write_config(tmp_path, "experiment_name = mia\nmia_trials = 200\n")
        assert run_cli("mia", config, tmp_path / "out", "--seed", str(seed)) == 0
        trials = (tmp_path / "out" / "mia" / "trials_sigma_calibrated.csv").read_text()
        assert len(trials.splitlines()) == 1 + 200


# check: a change to noise_product_stats's result (stats, b factor) that check alone catches
TAMPERED_NOISE_STATS = {
    "unbiasedness": lambda stats, b: replace(
        stats, mean_diff=stats.mean_diff + math.copysign(6 * stats.std_error, stats.mean_diff)),
    "variance_oracle": lambda stats, b: replace(stats, total_variance=1.05 * stats.total_variance),
    # no oracle instance reaches rank 128: their ranks are at most 6
    "rank_linearity": lambda stats, b: replace(
        stats, total_variance=stats.total_variance * (1.5 if b.shape[1] == 128 else 1.0)),
}


class TestVerify:
    def test_fast_verify_passes_the_four_oracles(self, tmp_path):
        config = write_config(tmp_path, TINY + "verify_fast = true\n")
        assert run_cli("verify", config, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "tiny" / "verify_report.csv").read_text().splitlines()
        # Exact at seed 0: a change to what a check prints or to its random draws shows here.
        assert rows == [
            "check,passed,detail",
            'unbiasedness,true,"worst |mean|/5SE ratio 0.272"',
            'variance_oracle,true,"worst MC rel err 0.0133"',
            'rank_linearity,true,"MC doubling ratios 1.967-1.996"',
            'dp_bound,true,"trained pair violation 0.0023, worst-case violation 0.0132,'
            ' tolerance 0.0335"',
        ]

    def test_quartered_noise_fails_dp_bound_with_exit_3(self, tmp_path):
        config = replace(parse_text(TINY + "verify_fast = true\n"), mode="verify")
        assert runner.cmd_verify(config, str(tmp_path / "out"), sigma_scale=0.25) == 3
        rows = (tmp_path / "out" / "tiny" / "verify_report.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows if ",false," in row] == ["dp_bound"]

    @pytest.mark.parametrize("check", sorted(TAMPERED_NOISE_STATS))
    def test_each_noise_oracle_fails_alone_with_exit_3(self, tmp_path, monkeypatch, check):
        original = noise_stats.noise_product_stats

        def tampered(b, a, model, n_draws, rng):
            return TAMPERED_NOISE_STATS[check](original(b, a, model, n_draws, rng), b)

        monkeypatch.setattr(noise_stats, "noise_product_stats", tampered)
        config = replace(parse_text(TINY + "verify_fast = true\n"), mode="verify")
        assert runner.cmd_verify(config, str(tmp_path / "out")) == 3
        rows = (tmp_path / "out" / "tiny" / "verify_report.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows if ",false," in row] == [check]


SWEEPS = {
    "sweep_epsilon": ("sweep_epsilons = 5,25\n", ["5", "25"]),
    "sweep_clip": ("sweep_clips = 0.1,1\n", ["0.10000000000000001", "1"]),
}


class TestSweeps:
    @pytest.mark.parametrize("mode", sorted(SWEEPS))
    def test_one_row_per_point_and_byte_stable(self, tmp_path, mode):
        extra, values = SWEEPS[mode]
        config = write_config(tmp_path, TINY + extra)
        assert run_cli(mode, config, tmp_path / "first") == 0
        assert run_cli(mode, config, tmp_path / "second") == 0
        first = (tmp_path / "first" / "tiny" / "sweep.csv").read_bytes()
        assert first == (tmp_path / "second" / "tiny" / "sweep.csv").read_bytes()
        rows = first.decode().splitlines()
        assert rows[0] == "sweep_key,sweep_value,final_loss,final_mean_train_loss"
        assert [row.split(",")[1] for row in rows[1:]] == values

    def test_sweep_clip_keeps_the_per_factor_budgets(self, tmp_path):
        # sigma is calibrated at epsilon_b = 5 and epsilon_a = 2, so every output
        # reports those budgets, not the fallback epsilon = 25.
        text = TINY.replace("rounds = 4", "rounds = 3") + (
            "epsilon = 25\nepsilon_b = 5\nepsilon_a = 2\nsweep_clips = 0.5\n")
        assert run_cli("sweep_clip", write_config(tmp_path, text), tmp_path / "out") == 0
        point = tmp_path / "out" / "tiny" / "clip_0p5"
        rows = (point / "metrics.csv").read_text().splitlines()
        assert {row.split(",")[3] for row in rows[1:]} == {"5"}
        summary = (point / "summary.txt").read_text().splitlines()
        assert "naive_composed_epsilon: 21" in summary  # 3 rounds * (5 + 2)
        for factor, eps in (("b", 5.0), ("a", 2.0)):
            sigma = calibrate_sigma(0.5, PrivacyBudget(eps, 1e-5))
            assert f"sigma_{factor}: {runner.fmt(sigma)}" in summary
        snapshot = (point / "config.snapshot").read_text().splitlines()
        assert {"epsilon = 25", "epsilon_b = 5", "epsilon_a = 2"} <= set(snapshot)

    @pytest.mark.parametrize("mode", sorted(SWEEPS))
    def test_each_point_reruns_from_its_snapshot(self, tmp_path, mode):
        # calibrated clips: a clip point must rerun at its own threshold, not the sweep's quantile
        text = TINY.replace("clip_mode = absolute", "clip_mode = calibrated") + SWEEPS[mode][0]
        assert run_cli(mode, write_config(tmp_path, text), tmp_path / "sweep") == 0
        snapshots = sorted((tmp_path / "sweep" / "tiny").glob("*/config.snapshot"))
        assert len(snapshots) == len(SWEEPS[mode][1])
        for snapshot in snapshots:
            assert run_cli("run", str(snapshot), tmp_path / "rerun") == 0
            rerun = tmp_path / "rerun" / "tiny" / snapshot.parent.name / "metrics.csv"
            assert rerun.read_bytes() == (snapshot.parent / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("mode,calls", [("sweep_clip", 0), ("sweep_epsilon", 1)])
    def test_calibration_dry_run_only_where_its_clips_are_used(self, tmp_path, monkeypatch,
                                                               mode, calls):
        seen = []
        resolve = runner.resolve_clips

        def counting_resolve(*args):
            seen.append(args)
            return resolve(*args)

        monkeypatch.setattr(runner, "resolve_clips", counting_resolve)
        text = TINY.replace("clip_mode = absolute", "clip_mode = calibrated") + SWEEPS[mode][0]
        assert run_cli(mode, write_config(tmp_path, text), tmp_path / "out") == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("mode,extra,values", [
        ("sweep_rank", "sweep_ranks = 1,2,4\n", ["1", "2", "4"]),
        ("sweep_size", "sweep_sizes = 3x2,4x4\n", ["3x2", "4x4"]),
    ])
    def test_noise_sweep_one_row_per_point(self, tmp_path, mode, extra, values):
        config = write_config(tmp_path, TINY + "noise_draws = 200\n" + extra)
        assert run_cli(mode, config, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "tiny" / "noise_stats.csv").read_text().splitlines()
        assert rows[0] == runner.NOISE_HEADER
        assert [row.split(",")[1] for row in rows[1:]] == values


class TestReport:
    def test_report_over_finished_run(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", config, tmp_path / "out") == 0
        assert run_cli("report", config, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "tiny" / "report" / "loss_vs_round.csv").read_text().splitlines()
        assert rows[0] == "run,round,strategy,dp_enabled,mean_loss"
        assert [row.split(",")[1] for row in rows[1:]] == ["0", "1", "2", "3"]

    def test_report_over_mia_run_copies_each_roc(self, tmp_path):
        config = write_config(tmp_path, TINY + "mia_trials = 200\n")
        assert run_cli("mia", config, tmp_path / "out") == 0
        assert run_cli("report", config, tmp_path / "out") == 0
        run_dir = tmp_path / "out" / "tiny"
        copies = sorted((run_dir / "report").glob("roc_sigma_*.csv"))
        assert [c.name for c in copies] == [
            "roc_sigma_0.csv", "roc_sigma_10x.csv", "roc_sigma_calibrated.csv"]
        for copy in copies:
            assert copy.read_bytes() == (run_dir / copy.name).read_bytes()

    def test_report_over_verify_run_copies_its_table(self, tmp_path):
        config = write_config(tmp_path, TINY + "verify_fast = true\n")
        assert run_cli("verify", config, tmp_path / "out") == 0
        run_dir = tmp_path / "out" / "tiny"
        assert parse_text((run_dir / "config.snapshot").read_text()).mode == "verify"
        assert run_cli("report", config, tmp_path / "out") == 0
        report = run_dir / "report"
        assert ((report / "verify_report.csv").read_bytes()
                == (run_dir / "verify_report.csv").read_bytes())
        assert (report / "summary.txt").read_text() == "verify checks: 4/4 passed\n"

    def test_report_reads_nested_mia_and_verify_runs(self, tmp_path):
        for mode, sub, extra in (("mia", "mia", "mia_trials = 200\n"),
                                 ("verify", "ver", "verify_fast = true\n")):
            text = TINY.replace("experiment_name = tiny", f"experiment_name = study/{sub}")
            config = write_config(tmp_path, text + extra, name=f"{sub}.cfg")
            assert run_cli(mode, config, tmp_path / "out") == 0
        # a report of the mia run alone leaves study/mia/report/, which is not a run
        assert run_cli("report", str(tmp_path / "mia.cfg"), tmp_path / "out") == 0
        study = write_config(tmp_path, "experiment_name = study\n", name="study.cfg")
        study_dir = tmp_path / "out" / "study"
        reports = []
        for _ in range(2):
            assert run_cli("report", study, tmp_path / "out") == 0
            reports.append({path.relative_to(study_dir / "report"): path.read_bytes()
                            for path in sorted((study_dir / "report").rglob("*"))
                            if path.is_file()})
        assert reports[0] == reports[1]
        tables = [Path("mia/roc_sigma_0.csv"), Path("mia/roc_sigma_10x.csv"),
                  Path("mia/roc_sigma_calibrated.csv"), Path("ver/verify_report.csv")]
        assert sorted(reports[0]) == sorted(tables + [Path("summary.txt")])
        for table in tables:
            assert reports[0][table] == (study_dir / table).read_bytes()
        assert reports[0][Path("summary.txt")].decode().splitlines() == [
            *(f"roc points copied: {table}" for table in tables[:3]),
            "ver: verify checks: 4/4 passed"]

    def test_report_compares_a_dp_run_with_a_plain_run(self, tmp_path):
        finals = {}
        for sub, dp in (("dp", "true"), ("plain", "false")):
            text = TINY.replace("experiment_name = tiny", f"experiment_name = study/{sub}")
            config = write_config(tmp_path, text.replace("dp_enabled = true", f"dp_enabled = {dp}"),
                                  name=f"{sub}.cfg")
            assert run_cli("run", config, tmp_path / "out") == 0
            metrics = (tmp_path / "out" / "study" / sub / "metrics.csv").read_text()
            finals[sub] = metrics.splitlines()[-1].split(",")[5]
        study = write_config(tmp_path, "experiment_name = study\n", name="study.cfg")
        assert run_cli("report", study, tmp_path / "out") == 0
        summary = (tmp_path / "out" / "study" / "report" / "summary.txt").read_text()
        assert summary.splitlines() == [
            f"dp: strategy fedavg, dp true, final mean_loss {finals['dp']}",
            f"plain: strategy fedavg, dp false, final mean_loss {finals['plain']}",
            f"dp_minus_plain: {runner.fmt(float(finals['dp']) - float(finals['plain']))}"]
        assert float(finals["dp"]) != float(finals["plain"])

    def test_noise_summary_holds_every_sweep(self, tmp_path):
        # Two noise sweeps under one directory: the table keeps both, each row led by its run.
        for mode, sub, extra in (("sweep_rank", "rank", "sweep_ranks = 1,2,4\n"),
                                 ("sweep_size", "size", "sweep_sizes = 3x2,4x4\n")):
            text = TINY.replace("experiment_name = tiny", f"experiment_name = study/{sub}")
            config = write_config(tmp_path, text + "noise_draws = 200\n" + extra)
            assert run_cli(mode, config, tmp_path / "out") == 0
        study = write_config(tmp_path, "experiment_name = study\n", name="study.cfg")
        assert run_cli("report", study, tmp_path / "out") == 0
        report = tmp_path / "out" / "study" / "report"
        rows = (report / "noise_summary.csv").read_text().splitlines()
        assert rows[0] == "run,sweep_value,expectation,variance"
        assert [tuple(row.split(",")[:2]) for row in rows[1:]] == [
            ("rank", "1"), ("rank", "2"), ("rank", "4"), ("size", "3x2"), ("size", "4x4")]
        assert (report / "summary.txt").read_text().splitlines() == [
            "noise sweep points: 3", "noise sweep points: 2"]

    def test_run_labels_holding_a_comma_or_quote_are_quoted(self, tmp_path):
        names = ["a,b", 'q"t']
        for i, name in enumerate(names):
            text = TINY.replace("experiment_name = tiny", f"experiment_name = grid/{name}")
            assert run_cli("run", write_config(tmp_path, text, name=f"{i}.cfg"),
                           tmp_path / "out") == 0
        text = TINY.replace("experiment_name = tiny", "experiment_name = grid/r,1")
        config = write_config(tmp_path, text + "noise_draws = 200\nsweep_ranks = 1,2\n",
                              name="rank.cfg")
        assert run_cli("sweep_rank", config, tmp_path / "out") == 0
        grid = write_config(tmp_path, "experiment_name = grid\n", name="grid.cfg")
        assert run_cli("report", grid, tmp_path / "out") == 0
        report = tmp_path / "out" / "grid" / "report"
        for table, header, runs in (
                ("loss_vs_round.csv", "run,round,strategy,dp_enabled,mean_loss", names),
                ("noise_summary.csv", "run,sweep_value,expectation,variance", ["r,1"])):
            with (report / table).open(newline="") as f:
                assert {len(row) for row in csv.reader(f)} == {len(header.split(","))}
            rows = runner._read_csv(report / table, header)
            assert sorted({row["run"] for row in rows}) == runs

    def test_missing_run_directory_exits_1(self, tmp_path, capsys):
        assert run_cli("report", write_config(tmp_path), tmp_path / "absent") == 1
        assert "run directory not found" in capsys.readouterr().err


class TestSnapshot:
    @pytest.mark.parametrize("config", [
        RunConfig(),
        RunConfig(sweep_epsilons=(0.5, 3.25), sweep_clips=(0.01,), sweep_ranks=(2, 3, 7),
                  sweep_sizes=((3, 5), (8, 2))),
        RunConfig(experiment_name="study/eps_5", dp_enabled=True),  # a sweep point's
    ])
    def test_round_trip(self, config):
        assert parse_text(config.snapshot()) == config


class TestResolveClips:
    def test_dry_run_trains_each_client_against_the_broadcast_delta(self):
        text = TINY.replace("clip_mode = absolute", "clip_mode = calibrated").replace(
            "clients = 3", "clients = 2")
        config = parse_text(text + "calibration_rounds = 1\n")
        root = RngStream(config.seed)
        task = runner.build_task(config, root)
        lowest = runner.resolve_clips(replace(config, clip_quantile=0.0), task, root)
        highest = runner.resolve_clips(replace(config, clip_quantile=1.0), task, root)

        # Reference: each sampled client trains alone from the zero delta of round 0,
        # its factor pair and shuffle drawn from draw kinds 1 and 2 of the calibration stream.
        stream = root.child(runner._STREAM_CALIBRATE)
        norms = []
        for k in range(task.n_clients):
            b, a = init_adapter(task.m, task.n, config.rank, stream.child(0, k, 1))
            x, y = task.x[k], task.y[k]
            res = local_train([k], x[None], b[None], a[None],
                              config.lora_scale / config.rank, (x @ task.base.w.T - y)[None],
                              [stream.child(0, k, 2)], epochs=config.local_epochs,
                              batch_size=config.batch_size, lr=config.lr_start)
            norms.append((frobenius_norm(res.b[0]), frobenius_norm(res.a[0])))
        b_norms, a_norms = zip(*norms)
        assert lowest == (min(b_norms), min(a_norms))
        assert highest == (max(b_norms), max(a_norms))

    def test_dry_run_keeps_the_run_learning_rate_schedule(self, monkeypatch):
        # The dry run plays the run's own first rounds, so the cosine schedule spans
        # the run's 200 rounds, not the dry run's 3.
        seen = []
        cosine_lr = simulation.cosine_lr

        def recording(lr_start, lr_end, round_index, rounds):
            seen.append((round_index, rounds))
            return cosine_lr(lr_start, lr_end, round_index, rounds)

        monkeypatch.setattr(simulation, "cosine_lr", recording)
        text = TINY.replace("clip_mode = absolute", "clip_mode = calibrated")
        config = parse_text(text.replace("rounds = 4", "rounds = 200"))
        root = RngStream(config.seed)
        runner.resolve_clips(config, runner.build_task(config, root), root)
        assert config.calibration_rounds == 3
        assert seen == [(0, 200), (1, 200), (2, 200)]


MIA_FILES = [f"{kind}_{tag}.csv" for tag in ("sigma_0", "sigma_calibrated", "sigma_10x")
             for kind in ("trials", "roc")]
# name: (mode, config text, byte-stable outputs under the run directory).
# "dp_scaled" folds three clients at LoRA scale 5 / 2, where the order of the
# weight's operations shows in the last bits.  "dp_rank1" pins the order of
# expectation_diff's sums at rank 1, where numpy sums a lone 40 x 1 factor
# pairwise but the stack of three row by row; at rank 2 or more both run row
# by row.  The mia game spans two blocks of
# trials, each rank of the rank sweep three Monte Carlo chunks, and the 40x50
# point of the size sweep three.  The two model sweeps pin each point's metrics.
GOLDEN_RUNS = {
    "dp": ("run", TINY, ["metrics.csv"]),
    "dp_scaled": ("run", TINY.replace("lora_scale = 2", "lora_scale = 5").replace(
        "sampled_per_round = 2", "sampled_per_round = 3"), ["metrics.csv"]),
    "dp_rank1": ("run", TINY.replace("\nrank = 2\n", "\nrank = 1\n").replace(
        "sampled_per_round = 2", "sampled_per_round = 3").replace("task_m = 6", "task_m = 40"),
        ["metrics.csv"]),
    **{strategy: ("run", TINY.replace("dp_enabled = true", "dp_enabled = false")
                  + f"strategy = {strategy}\n", ["metrics.csv"]) for strategy in STRATEGIES},
    "mia": ("mia", TINY + "mia_trials = 3000\n", MIA_FILES),
    "mia_summary": ("mia", TINY + "mia_trials = 3000\n", ["summary.txt"]),
    "sweep_rank": ("sweep_rank", TINY + "noise_draws = 45000\nsweep_ranks = 1,2,4\n",
                   ["noise_stats.csv"]),
    "sweep_size": ("sweep_size", TINY + "noise_draws = 600\nsweep_sizes = 3x2,40x50\n",
                   ["noise_stats.csv"]),
    "sweep_clip": ("sweep_clip", TINY + "sweep_clips = 0.1,1\n",
                   ["sweep.csv", "clip_0p1/metrics.csv", "clip_1/metrics.csv"]),
    "sweep_epsilon": ("sweep_epsilon", TINY + "sweep_epsilons = 5,25\n",
                      ["sweep.csv", "eps_5/metrics.csv", "eps_25/metrics.csv"]),
}
# Golden runs whose ``report`` outputs are pinned too, under "report_<name>".
REPORTED_RUNS = ("dp", "sweep_clip")
REPORT_FILES = ["report/loss_vs_round.csv", "report/summary.txt"]
# Runs at 40 x 2048, where the server step walks three row blocks (16 + 16 + 8
# rows), without DP; at TINY's learning rate they diverge.
WIDE = (TINY.replace("task_m = 6", "task_m = 40").replace("task_n = 4", "task_n = 2048")
        .replace("lr_start = 0.05", "lr_start = 0.0005").replace("lr_end = 0.01", "lr_end = 0.0001")
        .replace("dp_enabled = true", "dp_enabled = false"))
# Runs at 1024 x 1024 and rank 32: one client per group, so the two groups'
# base residuals and the 32 row blocks of the server step run on worker
# threads wherever the process may use two CPUs or more.
CONCURRENT = (WIDE.replace("task_m = 40", "task_m = 1024").replace("task_n = 2048", "task_n = 1024")
              .replace("\nrank = 2\n", "\nrank = 32\n")
              .replace("samples_per_client = 10", "samples_per_client = 64")
              .replace("batch_size = 4", "batch_size = 16"))
SUBPROCESS_RUNS = {
    **{f"wide_{strategy}": WIDE + f"strategy = {strategy}\n" for strategy in ("fedavg", "fedadam")},
    **{f"concurrent_{strategy}": CONCURRENT + f"strategy = {strategy}\n"
       for strategy in ("fedadam", "fedyogi")},
}
GOLDEN_DIGESTS = {
    "dp": "b10a309e8fc4abeb66e925850a42e306b33b8a9abb2311e91a020b9ad8c492b0",
    "dp_scaled": "abd768ebf2cafc5e49a1a8990781cd9088f59eafc19f4ec91321367c50480876",
    "dp_rank1": "a2aa0b5e11ed785a7638fba8a15948a40bfd35dcee99dc4b68de2d5dddcb923a",
    "fedavg": "04891b5351d681df6acfc95060474bd402131a2be75cd31f770a19bcb9dde99d",
    "fedprox": "f0cd23b137de93950236d45588ed29a9425dec70afa11f8ba55139725c9f6d32",
    "scaffold": "05a75d0e134e9871e788c02ebcf3c0593d26e0398459433944e95ae459c42c61",
    "fedavgm": "6c1aaa3b6fe641bcf6c9dc3e6880a4b4d656c7563a3e9276f32369eb57e43fb9",
    "fedadagrad": "00728a088c4ea764c50866b6f58c117a9326b31336adacedcf95e82c557f06e6",
    "fedyogi": "d6b1a362e3c9863f7b44afc7d0d720ecb9283ec33e1c2c1ca7e1e50952532e6a",
    "fedadam": "125c4c6807a878457ade722d197d53cb60faa17fb7325ce178054a391d3b51ef",
    "mia": "4a1c5a2e7e5da6cec12fb6f31835b55a680a1075221ffa70296c52ecf2434b92",
    "mia_summary": "9be19acfa09adbf017bbbb1943140f5777739fdd0c7a29e55c50d3ca03ffa933",
    "sweep_rank": "7aa7c8b547360f3e959267f1d077652db801383c4a4086b6bfef68e7cf140e5d",
    "sweep_size": "da167b60bdc16b1de12ccb9685c969ddbd3b20d836c61899a80c4832d6b20761",
    "sweep_clip": "f77828245ec7b1ee828781409f1d9ba436e95d1dc3198a1162401844de818387",
    "sweep_epsilon": "af0898cd692feeb1fb4af07e4b1b4db9907cbb0ca0e4e4a285f482d57662d0b3",
    "report_dp": "1e58e4c3fdafd8c519cec47f6c81244bc34615d8231a20c12120ef62a0ad8390",
    "report_sweep_clip": "edc630cc6b6828d44945dd1de9c413dec3815d5e4a47d6d96ea5a87ca1492b56",
    "wide_fedavg": "a8de6207018d12b895cd1555bbb7c60bd938590794604dd496e61c20511b9e5f",
    "wide_fedadam": "0ec7682d5784282a438062dbe516feda9785da16f67617e803e252aaf8dc7508",
    "concurrent_fedadam": "9ba345280f76534851c931b438d40f7811d1f8b4fb9cf3129b0a1c1348e09dc3",
    "concurrent_fedyogi": "5a1b6a55dbcf958d31c66e1bb108a889406aab7c15cf0afc1f824e207de35bc4",
}


def digest_of(run_dir, files):
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.encode() + b"\0" + (run_dir / f).read_bytes())
    return digest.hexdigest()


class TestGoldenDigests:
    """sha256 of the byte-stable outputs of tiny runs: private runs at rank 2 and 1, every
    strategy without DP, the membership-inference game and its summary, a rank
    sweep, a size sweep, a clip sweep and an epsilon sweep; of ``report`` over
    the private run and the clip sweep; of fedavg and fedadam over several row
    blocks; and of fedadam and fedyogi at a shape whose rounds run on worker
    threads.

    A refactor must leave every digest as it is.  A change to a random stream
    or to the order of floating-point operations changes them; such a change
    must update the digests here, and CHANGES.md must say so.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_outputs_match_digest(self, tmp_path, name):
        mode, text, files = GOLDEN_RUNS[name]
        assert run_cli(mode, write_config(tmp_path, text), tmp_path / "out") == 0
        assert digest_of(tmp_path / "out" / "tiny", files) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name", REPORTED_RUNS)
    def test_report_matches_digest(self, tmp_path, name):
        mode, text, _ = GOLDEN_RUNS[name]
        config = write_config(tmp_path, text)
        assert run_cli(mode, config, tmp_path / "out") == 0
        assert run_cli("report", config, tmp_path / "out") == 0
        digest = digest_of(tmp_path / "out" / "tiny", REPORT_FILES)
        assert digest == GOLDEN_DIGESTS[f"report_{name}"]

    @pytest.mark.parametrize("name", sorted(SUBPROCESS_RUNS))
    def test_multi_block_run_matches_digest(self, tmp_path, name):
        """A run over several row blocks, in its own process on one BLAS thread.

        Its ``global_delta_norm`` is a BLAS dot product over 81,920 entries or
        more, which OpenBLAS splits across threads, so its last bits depend on
        the BLAS thread count; perfbench pins its jobs to one thread the same
        way.  The ``concurrent_*`` digests were recorded from code that ran
        every round on one thread, so they pin that the worker threads change
        no byte.
        """
        src = str(Path(fedlora_dp.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        config = write_config(tmp_path, SUBPROCESS_RUNS[name])
        subprocess.run([sys.executable, "-m", "fedlora_dp.cli", "run", "--config", config,
                        "--out", str(tmp_path / "out")], env=env, check=True, timeout=120)
        metrics = (tmp_path / "out" / "tiny" / "metrics.csv").read_bytes()
        digest = hashlib.sha256(b"metrics.csv\0" + metrics).hexdigest()
        assert digest == GOLDEN_DIGESTS[name]
