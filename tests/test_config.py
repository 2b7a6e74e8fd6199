"""Config-file parsing."""

import pytest

from leojadce.config import ConfigError, ScenarioConfig, apply_axis, parse_config


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
