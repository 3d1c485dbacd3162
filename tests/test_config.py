"""Config keys: every checked key rejects a bad value on the line that set it."""

import pickle
from dataclasses import fields

import pytest

from fedlora_dp.config import ConfigError, RunConfig, parse_text

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


def test_parsed_config_pickles():
    config = parse_text("sweep_ranks = 2,4\nsweep_sizes = 3x2\n")
    assert pickle.loads(pickle.dumps(config)) == config
