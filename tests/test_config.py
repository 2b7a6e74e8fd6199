"""Config-file parsing."""

import pytest

from leojadce.config import ConfigError, parse_config


def test_parse_config_reads_known_keys():
    cfg = parse_config("K = 40\ndims = 4x4\nalgos = vbi, amp  # comment\n")
    assert (cfg.K, cfg.dims, cfg.algos) == (40, (4, 4), ("vbi", "amp"))


@pytest.mark.parametrize("text", ["noise_temperature_k = 290", "K = 40\nK = 50"])
def test_parse_config_rejects_unknown_and_duplicate_keys(text):
    # noise_temperature_k is not a key: g_over_t_db carries the noise temperature
    with pytest.raises(ConfigError, match="unknown key|duplicate key"):
        parse_config(text)
