"""Config keys: every checked key rejects a bad value on the line that set it."""

import pickle
from dataclasses import fields, replace

import pytest

from fedlora_dp import config as config_module
from fedlora_dp.config import ConfigError, RunConfig, noise_sweep, parse_text, sweep_runs

# One value per checked key that parses as the key's type but fails its check.
BAD_VALUES = {
    "experiment_name": "../up",
    "mode": "nope",
    "seed": "-1",
    "rounds": "-1",
    "clients": "0",
    "sampled_per_round": "0",
    "local_epochs": "-1",
    "batch_size": "0",
    "lr_start": "0",
    "lr_end": "-1e-6",
    "strategy": "sgd",
    "epsilon": "0",
    "epsilon_b": "-1",
    "epsilon_a": "-1",
    "delta": "1",
    "clip_mode": "sometimes",
    "clip_value": "0",
    "clip_quantile": "1.5",
    "calibration_rounds": "0",
    "rank": "0",
    "lora_scale": "0",
    "prox_mu": "-0.01",
    "server_lr": "0",
    "beta1": "1.5",
    "beta2": "-0.1",
    "tau": "0",
    "momentum": "2",
    "task_m": "0",
    "task_n": "0",
    "task_rank": "0",
    "samples_per_client": "0",
    "sigma_obs": "-0.1",
    "heterogeneity": "1.5",
    "sweep_epsilons": "5,-1",
    "sweep_clips": "0",
    "sweep_ranks": "4,2",
    "sweep_sizes": "32x0",
    "noise_draws": "1",
    "noise_sigma_beta": "-1",
    "noise_sigma_alpha": "-1",
    "sweep_norm_b": "-1",
    "sweep_norm_a": "-1",
    "mia_trials": "99",
    "mia_epsilon": "0",
    "mia_rank": "0",
    "mia_epochs": "0",
    "mia_batch_size": "0",
    "mia_lr": "0",
    "mia_dataset_size": "0",
    "mia_input_scale": "0",
}


@pytest.mark.parametrize("key,value", BAD_VALUES.items())
def test_bad_value_is_rejected_with_its_key_and_line(key, value):
    with pytest.raises(ConfigError) as info:
        parse_text(f"output_dir = out\n{key} = {value}\n")
    assert str(info.value).startswith(f"line 2: {key} ")
    assert info.value.line == 2


def test_every_checked_key_has_a_bad_value():
    """A key declared without a check would accept any value; the table names every check."""
    checked = {f.name for f in fields(RunConfig) if f.metadata.get("check") is not None}
    assert checked == set(BAD_VALUES)


@pytest.mark.parametrize("text,first", [
    ("rounds = -1\nexperiment_name = ../up\n", "line 2: experiment_name "),
    # every key's own check comes before the conditions between keys
    ("clients = 1\nsweep_ranks = 4,2\n", "line 2: sweep_ranks "),
])
def test_several_bad_keys_report_the_first_declared(text, first):
    with pytest.raises(ConfigError) as info:
        parse_text(text)
    assert str(info.value).startswith(first)


@pytest.mark.parametrize("make", [
    lambda: RunConfig(strategy="sgd"),
    lambda: replace(parse_text(""), sampled_per_round=99),
    lambda: replace(parse_text("dp_enabled = true\n"), calibration_rounds=300),
    lambda: replace(parse_text("", "sweep_epsilon"), calibration_rounds=300),  # at each point
])
def test_a_config_is_checked_however_it_is_made(make):
    with pytest.raises(ConfigError) as info:
        make()
    assert info.value.line is None


def test_source_lines_are_not_a_setting():
    config = parse_text("rounds = 4\n")
    assert "lines" not in {f.name for f in fields(config)}
    assert "lines" not in config.snapshot()
    with pytest.raises(ConfigError, match="^line 1: unknown key 'lines'$"):
        parse_text("lines = 1\n")


def test_parsed_config_pickles():
    config = parse_text("sweep_ranks = 2,4\nsweep_sizes = 3x2\n")
    assert pickle.loads(pickle.dumps(config)) == config


# The clip dry run plays the first calibration_rounds (default 3) rounds of the
# run, so wherever one happens the run must have that many.
@pytest.mark.parametrize("text", [
    "dp_enabled = true\nrounds = 2\n",
    "mode = sweep_epsilon\nrounds = 2\n",
    "dp_enabled = true\nrounds = 0\n",
])
def test_calibration_rounds_beyond_rounds_rejected_where_a_dry_run_happens(text):
    with pytest.raises(ConfigError) as info:
        parse_text(text)
    assert "calibration_rounds (3) cannot exceed rounds" in str(info.value)


@pytest.mark.parametrize("text", [
    "mode = sweep_clip\nrounds = 2\n",
    "rounds = 2\n",
    "dp_enabled = true\nclip_mode = absolute\nrounds = 2\n",
    "dp_enabled = true\nrounds = 3\n",
])
def test_calibration_rounds_beyond_rounds_accepted_where_none_happens(text):
    parse_text(text)


@pytest.mark.parametrize("mode,key,values", [
    ("sweep_epsilon", "epsilon", (5.0, 10.0, 15.0, 25.0)),
    ("sweep_clip", "clip", (0.1, 1.0)),
])
def test_each_run_sweep_point_is_the_run_its_snapshot_parses_to(mode, key, values):
    config = parse_text(f"mode = {mode}\nclip_mode = calibrated\n")
    points = sweep_runs(config)
    assert [(k, v) for k, v, _ in points] == [(key, v) for v in values]
    for *_, point in points:
        assert parse_text(point.snapshot(), mode="run") == point


@pytest.mark.parametrize("mode,key,points", [
    ("sweep_rank", "rank", [("2", 12, 5, 2), ("7", 12, 5, 7)]),
    ("sweep_size", "size", [("3x9", 3, 9, 4), ("10x2", 10, 2, 4)]),
])
def test_each_noise_sweep_point_is_the_shape_its_table_row_gives(mode, key, points):
    config = parse_text("task_m = 12\ntask_n = 5\nrank = 4\nsweep_ranks = 2,7\n"
                        "sweep_sizes = 3x9,10x2\n", mode=mode)
    assert noise_sweep(config) == (key, points)


def test_only_sweep_modes_have_sweep_points():
    assert config_module.SWEEP_MODES == ("sweep_epsilon", "sweep_clip", "sweep_rank", "sweep_size")
    for mode in config_module.MODES:
        config = parse_text("", mode=mode)
        assert (mode in config_module.SWEEP_MODES) == bool(sweep_runs(config) or noise_sweep(config))


@pytest.mark.parametrize("extra,key", [
    ("calibration_rounds = 5\n", "calibration_rounds"),
])
def test_a_run_sweep_added_to_the_table_meets_every_rule_for_a_run(monkeypatch, extra, key):
    text = f"rounds = 4\n{extra}"
    parse_text(text, mode="sweep_size")  # a noise sweep runs neither DP nor a dry run
    # MODES is fixed at import, so the new row, a clip sweep that keeps calibrated
    # clips, takes the name of a mode that is not a run sweep.
    monkeypatch.setitem(config_module._RUN_SWEEPS, "sweep_size",
                        ("clip", "clip", "sweep_clips", lambda v: {"clip_value": v}))
    with pytest.raises(ConfigError) as info:
        parse_text(text, mode="sweep_size")
    assert str(info.value).startswith(f"line 2: {key} ")
