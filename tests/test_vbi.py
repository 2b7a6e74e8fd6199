"""The variational engine against dense-inverse formulas, and on a
noise-free scene."""

import dataclasses

import numpy as np
import pytest

from leojadce import vbi
from leojadce.detection import nmse
from leojadce.signals import gen_preambles, synthesize_received
from leojadce.tensors import khatri_rao, unfold_last

K, M = 40, 4
WOODBURY, DIRECT = (4, 4), (8, 8)   # L = 16 < K and L = 64 > K


def scene(dims, sigma_n2, seed=0):
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((M, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = rng.standard_normal((M, 4)) + 1j * rng.standard_normal((M, 4))
    return p, X, synthesize_received(p, X, sigma_n2, rng)


def state_with(p, Y, e_beta, e_v, e_mu_inv):
    s = vbi.init_posterior(p, Y, vbi.EngineConfig())
    return dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v,
                               E_mu_inv=e_mu_inv)


def test_path_choice_covers_both_test_shapes():
    assert vbi.woodbury_pays(16, K)
    assert not vbi.woodbury_pays(64, K)
    # K=500: the benchmark's L=100 and L=400 scenes sit on either side
    assert vbi.woodbury_pays(100, 500)
    assert not vbi.woodbury_pays(400, 500)


@pytest.mark.parametrize("dims", [WOODBURY, DIRECT])
@pytest.mark.parametrize("e_beta, log_e_v", [(3.0, (-2, 4)), (2e6, (2, 6))])
def test_update_qX_matches_dense_inverse(dims, e_beta, log_e_v):
    # At E[beta] = 2e6, E[v] >= 1e2 keeps cond(E[beta] G + D) near 1e4, so
    # the dense inverse itself is good to about 1e-12; with E[v] down to
    # 1e-2 the condition number reaches 3e7, and against a 40-digit
    # reference both the engine and np.linalg.inv are off by about 2e-10.
    p, _, Y = scene(dims, 0.05)
    rng = np.random.default_rng(1)
    e_v = 10.0 ** rng.uniform(*log_e_v, K)
    s = state_with(p, Y, e_beta, e_v, rng.standard_normal(K))
    G = vbi.precompute_gram(p)
    Ty = unfold_last(Y) @ khatri_rao(list(p.factors)).conj()

    C = np.linalg.inv(e_beta * G + np.diag(e_v))
    M_X = (e_beta * Ty + np.ones((M, 1)) * (s.E_mu_inv * e_v)[None, :]) @ C
    y_energy = float(np.vdot(Y.array, Y.array).real)
    F = (y_energy - 2.0 * np.sum(Ty * M_X.conj()).real
         + np.sum(G * (M_X.conj().T @ M_X + M * C).T).real)

    out = vbi.update_qX(s, G, p, Y)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, np.diag(C).real, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(np.trace(G @ C).real, rel=1e-10)
    assert vbi.expected_residual(out, G, p, Y) == pytest.approx(F, rel=1e-10)


@pytest.mark.parametrize("dims, e_beta", [(WOODBURY, 1e3), (DIRECT, 1e-3)])
def test_indefinite_system_is_reported(dims, e_beta):
    # negative E[v] makes either factorized system indefinite
    p, _, Y = scene(dims, 0.05)
    s = state_with(p, Y, e_beta, -np.ones(K), np.zeros(K))
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, vbi.precompute_gram(p), p, Y)


@pytest.mark.parametrize("dims", [WOODBURY, DIRECT])
def test_noise_free_run_keeps_residual_nonnegative_and_recovers(dims):
    p, X, Y = scene(dims, 0.0)
    G = vbi.precompute_gram(p)
    residuals = []
    result = vbi.run(p, Y, vbi.EngineConfig(), on_iteration=lambda it, s: residuals.append(
        vbi.expected_residual(s, G, p, Y)))
    assert len(residuals) == result.n_iters and result.converged
    assert min(residuals) >= 0.0
    assert nmse(result.M_X, X) < 1e-4
    # the posterior keeps no K x K array
    assert all(np.ndim(v) <= 1 or np.shape(v) == (M, K)
               for v in vars(result.state).values())
