"""How the experiment harness feeds and scores the baselines."""

from leojadce.config import ScenarioConfig
from leojadce.harness import run_trial


def test_baselines_scored_against_true_device_states():
    # At 60 dB both baselines recover X; a conjugation slip between the
    # tensor's A X^T matrix form and their A X^H contract shows up as an
    # NMSE near or above 1, and an activity rule that counts every nonzero
    # column as active shows up as a large Pe.
    cfg = ScenarioConfig(K=100, M=4, dims=(10, 10), snr_db=60.0,
                         algos=("somp", "amp"), trials=1)
    records, _ = run_trial(cfg, "snr", "60", 0)
    assert [r.algorithm for r in records] == ["somp", "amp"]
    for r in records:
        assert not r.failed, r.algorithm
        assert r.nmse < 1e-3, (r.algorithm, r.nmse)
        assert r.pe < 0.05, (r.algorithm, r.pe)
