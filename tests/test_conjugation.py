"""Conjugation symmetry of every algorithm: run on conj(Y) and conj(A)
(VBI also on the conjugated tensor factors), each returns the conjugate of
its estimate, bit for bit, with the same iteration count and, for SOMP, the
same support."""

import numpy as np
import pytest

from leojadce import baselines, harness, vbi
from leojadce.channel import draw_channels
from leojadce.config import ScenarioConfig
from leojadce.signals import (assemble_preamble_matrix, gen_preambles,
                              snr_to_noise_variance, synthesize_received)


def trial_scene(K, dims, snr_db, seed):
    """Trial 0's preambles, A, samples and noise variance, drawn as
    harness.run_trial draws them."""
    cfg = ScenarioConfig(K=K, M=8, dims=dims, snr_db=snr_db, master_seed=seed,
                         algos=("vbi",), trials=1)
    rng = harness.trial_rng(cfg.master_seed, "snr", str(cfg.snr_db), 0)
    p = gen_preambles(cfg.dims, cfg.K, rng)
    A = assemble_preamble_matrix(p)
    X, _ = draw_channels(harness.scenario_geometry(cfg), cfg.M, cfg.p_a, rng)
    sigma_n2 = snr_to_noise_variance(cfg.snr_db)
    return p, A, synthesize_received(A, X, sigma_n2, rng), sigma_n2


# K=40 at L=16 (Woodbury) and L=64 (block q(X)), and the paper's L=400
SCENES = [(40, (4, 4), 10.0, 3), (40, (8, 8), 30.0, 3), (500, (20, 20), 30.0, 0)]
IDS = ["K40-woodbury", "K40-block", "K500-block"]


@pytest.mark.parametrize("scene", SCENES, ids=IDS)
def test_vbi_returns_the_conjugate_estimate(scene):
    p, A, Y, _ = trial_scene(*scene)
    assert vbi.woodbury_pays(*A.shape) == (scene[1] == (4, 4))
    plain = vbi.run(p, A, Y)
    conj = vbi.run(tuple(a.conj() for a in p), A.conj(), Y.conj())
    assert conj.n_iters == plain.n_iters
    np.testing.assert_array_equal(conj.M_X, plain.M_X.conj())
    np.testing.assert_array_equal(conj.state.c_diag, plain.state.c_diag)


@pytest.mark.parametrize("scene", SCENES, ids=IDS)
def test_somp_returns_the_conjugate_estimate(scene):
    _, A, Y, sigma_n2 = trial_scene(*scene)
    cfg = baselines.SompConfig(
        max_support=baselines.default_max_support(0.1, A.shape[1]),
        residual_tol=baselines.somp_residual_tol(Y, sigma_n2))
    plain = baselines.somp(Y, A, cfg)
    conj = baselines.somp(Y.conj(), A.conj(), cfg)
    assert plain.support and conj.support == plain.support
    np.testing.assert_array_equal(conj.X_hat, plain.X_hat.conj())


@pytest.mark.parametrize("scene", SCENES, ids=IDS)
def test_amp_returns_the_conjugate_estimate(scene):
    _, A, Y, _ = trial_scene(*scene)
    plain = baselines.amp_mmv(Y, A, 0.1)
    conj = baselines.amp_mmv(Y.conj(), A.conj(), 0.1)
    assert not plain.diverged and np.any(plain.X_hat != 0)
    assert (conj.n_iters, conj.diverged) == (plain.n_iters, plain.diverged)
    np.testing.assert_array_equal(conj.X_hat, plain.X_hat.conj())
