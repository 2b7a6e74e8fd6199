"""Scenes for tests that run one algorithm on them directly: the scene
that harness.run_trial draws, and a small one of four active devices."""

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


def trial_scene(K, dims, snr_db, seed, trial=0, p_a=ScenarioConfig.p_a):
    """Trial ``trial`` of the snr axis at value ``snr_db`` and master seed
    ``seed``, M=8 and activity probability ``p_a``, drawn as
    harness.run_trial draws it."""
    cfg = ScenarioConfig(K=K, M=8, p_a=p_a, dims=dims, snr_db=snr_db, master_seed=seed,
                         algos=("vbi",), trials=1)
    rng = harness.trial_rng(cfg.master_seed, "snr", str(cfg.snr_db), trial)
    p = gen_preambles(cfg.dims, cfg.K, rng)
    A = assemble_preamble_matrix(p)
    X, alpha = draw_channels(harness.scenario_geometry(cfg), cfg.p_a, rng)
    sigma_n2 = snr_to_noise_variance(cfg.snr_db)
    return Scene(p, A, synthesize_received(A, X, sigma_n2, rng), sigma_n2, X, alpha)


def four_device_scene(dims, sigma_n2=0.05, scale=1.0, seed=0, K=40, m=4):
    """Four active devices of K with m antennas, drawn from
    ``np.random.default_rng(seed)``; ``scale`` multiplies X, and the noise
    with it, so the SNR stays that of ``sigma_n2``. Returns the preambles,
    the L x m samples and X."""
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((m, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = scale * (rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4)))
    return p, synthesize_received(assemble_preamble_matrix(p), X, sigma_n2 * scale ** 2, rng), X
