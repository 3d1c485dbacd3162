"""Command line: exit codes, metrics output, byte-stable reruns, seed precedence."""

import pytest

from fedlora_dp import cli

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


class TestConfigErrors:
    @pytest.mark.parametrize("bad_line", ["rounds 4", "no_such_key = 1", "rounds = four",
                                          "rounds = -1"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, bad_line):
        config = write_config(tmp_path, TINY.replace("rounds = 4", bad_line))
        assert run_cli("run", config, tmp_path / "out") == 1
        assert "config error: line 2:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert run_cli("run", str(tmp_path / "absent.cfg"), tmp_path / "out") == 1


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
