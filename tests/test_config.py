"""Config-file parsing."""

import pytest

import math

from leojadce.config import ConfigError, ScenarioConfig, apply_axis, parse_config, parse_sweep


def test_parse_config_reads_known_keys():
    cfg = parse_config("K = 40\ndims = 4x4\nalgos = vbi, amp  # comment\n")
    assert (cfg.K, cfg.dims, cfg.algos) == (40, (4, 4), ("vbi", "amp"))


@pytest.mark.parametrize("text", ["noise_temperature_k = 290", "K = 40\nK = 50"])
def test_parse_config_rejects_unknown_and_duplicate_keys(text):
    # noise_temperature_k is not a key: g_over_t_db carries the noise temperature
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
                                  "theta_max_deg = -1"])
def test_parse_config_rejects_what_a_trial_would_reject(text):
    # the link budget, the engine config, the device geometry's ranges and
    # the detection threshold are checked when the config loads, not in
    # the first trial; no number but snr_db (inf: noise-free) may be
    # non-finite
    with pytest.raises(ConfigError):
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
