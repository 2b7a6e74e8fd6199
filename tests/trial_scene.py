"""The scene that harness.run_trial draws, for tests that run one
algorithm on it directly."""

from typing import NamedTuple

import numpy as np

from leojadce import harness
from leojadce.channel import draw_channels
from leojadce.config import ScenarioConfig
from leojadce.signals import (assemble_preamble_matrix, gen_preambles,
                              snr_to_noise_variance, synthesize_received)


class Scene(NamedTuple):
    p: tuple[np.ndarray, ...]   # preamble factors
    A: np.ndarray               # L x K preamble matrix
    Y: np.ndarray               # L x M samples
    sigma_n2: float
    X: np.ndarray               # M x K true device states
    alpha: np.ndarray           # true activity


def trial_scene(K, dims, snr_db, seed, trial=0):
    """Trial ``trial`` of the snr axis at value ``snr_db`` and master seed
    ``seed``, M=8 and the default p_a, drawn as harness.run_trial draws it."""
    cfg = ScenarioConfig(K=K, M=8, dims=dims, snr_db=snr_db, master_seed=seed,
                         algos=("vbi",), trials=1)
    rng = harness.trial_rng(cfg.master_seed, "snr", str(cfg.snr_db), trial)
    p = gen_preambles(cfg.dims, cfg.K, rng)
    A = assemble_preamble_matrix(p)
    X, alpha = draw_channels(harness.scenario_geometry(cfg), cfg.p_a, rng)
    sigma_n2 = snr_to_noise_variance(cfg.snr_db)
    return Scene(p, A, synthesize_received(A, X, sigma_n2, rng), sigma_n2, X, alpha)
