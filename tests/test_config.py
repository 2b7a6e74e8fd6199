"""Config-file parsing."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from leojadce import baselines, channel, detection, vbi
from leojadce.config import (ConfigError, ScenarioConfig, apply_axis, load_config,
                             parse_config, parse_sweep)

ROOT = Path(__file__).resolve().parents[1]


def test_parse_config_reads_known_keys():
    cfg = parse_config("K = 40\ndims = 4x4\nalgos = vbi, amp  # comment\n")
    assert (cfg.K, cfg.dims, cfg.algos) == (40, (4, 4), ("vbi", "amp"))


# The fixed scene (README, "Fixed scene"): the link budget, the device
# geometry and transmit power, and the VBI, AMP and detection settings live
# in the modules that use them, so a config naming one, even at its value
# there, names an unknown key.
FIXED_SCENE = ["f_hz = 30e9", "d0_m = 1000e3", "bandwidth_hz = 25e6", "g_over_t_db = 34",
               "three_db_angle_deg = 0.4", "rain_mean_db = -2.6", "rain_std_db = 1.63",
               "rician_factor = 8", "hlos_norm_sq_low = 0.6", "hlos_norm_sq_high = 0.7",
               "v_nlos_low = 0.2", "v_nlos_high = 0.25", "theta_max_deg = 0.4", "xi = 1",
               "eps = 1e-6", "max_iters = 35", "rel_tol = 1e-3", "threshold_ratio = 0.3",
               "amp_max_iters = 50", "amp_damping = 0.5", "amp_tol = 1e-4"]


def test_fixed_scene_values_are_the_module_constants():
    # every FIXED_SCENE entry but xi states the value of a module constant;
    # xi, the transmit power, is 1 because the channels are drawn at unit
    # power, and has no constant
    constants = {
        "f_hz": channel.F_HZ, "d0_m": channel.D0_M, "bandwidth_hz": channel.BANDWIDTH_HZ,
        "g_over_t_db": channel.G_OVER_T_DB, "three_db_angle_deg": channel.THREE_DB_ANGLE_DEG,
        "rain_mean_db": channel.RAIN_MEAN_DB, "rain_std_db": channel.RAIN_STD_DB,
        "rician_factor": channel.RICIAN_FACTOR,
        "hlos_norm_sq_low": channel.HLOS_NORM_SQ_RANGE[0],
        "hlos_norm_sq_high": channel.HLOS_NORM_SQ_RANGE[1],
        "v_nlos_low": channel.V_NLOS_RANGE[0], "v_nlos_high": channel.V_NLOS_RANGE[1],
        "theta_max_deg": channel.THETA_MAX_DEG,
        "eps": vbi.EPS, "max_iters": vbi.MAX_ITERS, "rel_tol": vbi.REL_TOL,
        "threshold_ratio": detection.THRESHOLD_RATIO,
        "amp_max_iters": baselines.AMP_MAX_ITERS, "amp_damping": baselines.AMP_DAMPING,
        "amp_tol": baselines.AMP_TOL,
    }
    entries = dict(line.split(" = ") for line in FIXED_SCENE)
    assert set(entries) - set(constants) == {"xi"}
    assert {key: float(entries[key]) for key in constants} == constants


@pytest.mark.parametrize("text", ["noise_temperature_k = 290", "boltzmann = 1.38e-23",
                                  "dish_diameter_m = 1.2", *FIXED_SCENE, "K = 40\nK = 50"])
def test_parse_config_rejects_unknown_and_duplicate_keys(text):
    # noise_temperature_k is not a key: the link budget's G/T carries the
    # noise temperature; Boltzmann's constant is fixed, and the 3 dB angle
    # alone sets the beam, so neither boltzmann nor dish_diameter_m is a key
    with pytest.raises(ConfigError, match="unknown key|duplicate key"):
        parse_config(text)


@pytest.mark.parametrize("text", ["K 40", "K = 3.5", "snr_db = ten", "dims = axb",
                                  "dims = 20x"])
def test_parse_config_rejects_malformed_values(text):
    # a line without '=', a non-integer int, a non-numeric float, dims that
    # do not parse, and dims with a single factor
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("axis, value", [("snr", "ten"), ("p_a", "x"), ("K", "abc"),
                                         ("M", "abc"), ("L", "abc"), ("d", "abc")])
def test_apply_axis_rejects_malformed_values(axis, value):
    with pytest.raises(ConfigError, match=f"{axis}: .*{value!r}"):
        apply_axis(ScenarioConfig(), axis, value)


@pytest.mark.parametrize("text", ["algos =", "algos = ,"])
def test_parse_config_rejects_empty_algos(text):
    with pytest.raises(ConfigError, match="algos"):
        parse_config(text)


@pytest.mark.parametrize("text", ["algos = somp, somp", "algos = vbi, amp, vbi"])
def test_parse_config_rejects_repeated_algos(text):
    # a repeated name would run one algorithm twice and write two trials.csv
    # rows with one (axis, value, algorithm, trial) key
    with pytest.raises(ConfigError, match="algos repeat"):
        parse_config(text)


@pytest.mark.parametrize("text", ["f_hz = -1", "rain_mean_db = 1", "rain_mean_db = 0",
                                  "eps = 0.5", "rel_tol = 0",
                                  "max_iters = 0", "threshold_ratio = 1.5",
                                  "threshold_ratio = 0", "snr_db = nan", "snr_db = -inf",
                                  "xi = nan", "f_hz = inf", "rician_factor = -1",
                                  "v_nlos_low = 0", "hlos_norm_sq_low = -1",
                                  "theta_max_deg = -1", "theta_max_deg = 91",
                                  "three_db_angle_deg = 0", "three_db_angle_deg = 180",
                                  "three_db_angle_deg = 200",
                                  "three_db_angle_deg = 360", "p_a = 1.5", "p_a = nan",
                                  "K = 0", "trials = 0"])
def test_parse_config_rejects_what_a_trial_would_reject(text):
    # checked when the config loads, not in the first trial: no number but
    # snr_db (inf: noise-free) may be non-finite, and a value of the fixed
    # scene never reaches a trial, because its key is unknown
    key = text.partition("=")[0].strip()
    with pytest.raises(ConfigError, match=key if key in ("snr_db", "p_a", "K", "trials")
                       else "unknown key"):
        parse_config(text)


def test_noise_free_snr_is_valid():
    assert apply_axis(ScenarioConfig(), "snr", "inf").snr_db == math.inf


@pytest.mark.parametrize("text, values", [
    ("snr=10.0,0.50,-0.0", ("10", "0.5", "0")),
    ("L=20x20,400.0", ("20x20", "400")),
])
def test_parse_sweep_canonicalises_numbers(text, values):
    assert parse_sweep(text).values == values


def test_parse_sweep_rejects_two_spellings_of_one_value():
    with pytest.raises(ConfigError, match="repeat"):
        parse_sweep("snr=10.0, 1e1 ")


def test_example_paper_config_loads():
    cfg = load_config(ROOT / "examples" / "paper.cfg")
    assert cfg == ScenarioConfig(K=500, M=8, dims=(20, 20), snr_db=30.0,
                                 algos=("vbi", "somp", "amp"))


def test_readme_config_table_is_exactly_the_config_keys():
    # the docs list no key that the parser rejects, and miss none it reads
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config file", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines()
                   if line.startswith("| `")]
    keys = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
    assert keys == [f.name for f in dataclasses.fields(ScenarioConfig)]
