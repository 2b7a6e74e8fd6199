"""The variational engine against dense-inverse formulas, on a noise-free
scene, and against its evidence lower bound."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import ztrtri
from scipy.special import digamma, gammaln

from leojadce import vbi
from leojadce.detection import nmse
from leojadce.signals import gen_preambles, synthesize_received
from leojadce.tensors import khatri_rao

K, M = 40, 4
WOODBURY, DIRECT = (4, 4), (8, 8)   # L = 16 < K and L = 64 > K


def scene(dims, sigma_n2, scale=1.0, seed=0):
    """Four active devices of K=40; ``scale`` multiplies X, and the noise
    with it."""
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((M, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = scale * (rng.standard_normal((M, 4)) + 1j * rng.standard_normal((M, 4)))
    return p, X, synthesize_received(p, X, sigma_n2 * scale ** 2, rng)


def operands(p, Y):
    """What vbi.run forms once per call: G (None on the Woodbury path), KR,
    Y_(d+1) KR^*, Y_(d+1) and ||Y||^2."""
    kr = khatri_rao(p)
    G = None if vbi.woodbury_pays(*kr.shape) else vbi.precompute_gram(p)
    return G, kr, Y.T @ kr.conj(), Y.T, float(np.vdot(Y, Y).real)


def state_with(p, Y, e_beta, e_v):
    s = vbi.init_posterior(p, Y, vbi.EngineConfig())
    return dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)


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
    s = state_with(p, Y, e_beta, e_v)
    G = vbi.precompute_gram(p)
    G_path, kr, Ty, Y_mat, y_energy = operands(p, Y)

    C = np.linalg.inv(e_beta * G + np.diag(e_v))
    M_X = e_beta * Ty @ C
    F = (y_energy - 2.0 * np.sum(Ty * M_X.conj()).real
         + np.sum(G * (M_X.conj().T @ M_X + M * C).T).real)

    out = vbi.update_qX(s, G_path, kr, Ty, Y_mat)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, np.diag(C).real, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(np.trace(G @ C).real, rel=1e-10)
    assert vbi.expected_residual(out, kr, Ty, y_energy) == pytest.approx(F, rel=1e-10)


def test_direct_solve_equals_out_of_place_system_bit_for_bit():
    # the system is built in place in Fortran order; the factors, and so
    # M_X and c_diag, must equal those of e_beta G + diag(E[v]) exactly
    p, _, Y = scene(DIRECT, 0.05)
    rng = np.random.default_rng(2)
    e_beta, e_v = 37.0, 10.0 ** rng.uniform(-2, 4, K)
    G = vbi.precompute_gram(p)
    rhs = rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))
    F = cholesky(e_beta * G + np.diag(e_v.astype(complex)), lower=True)
    F_inv, _ = ztrtri(F, lower=1)
    M_X, c_diag = vbi._solve_direct(G, e_beta, e_v, rhs)
    np.testing.assert_array_equal(M_X, cho_solve((F, True), rhs.conj().T).conj().T)
    np.testing.assert_array_equal(c_diag, np.sum(np.abs(F_inv) ** 2, axis=0))


@pytest.mark.parametrize("dims, e_beta", [(WOODBURY, 1e3), (DIRECT, 1e-3)])
def test_indefinite_system_is_reported(dims, e_beta):
    # negative E[v] makes either factorized system indefinite
    p, _, Y = scene(dims, 0.05)
    s = state_with(p, Y, e_beta, -np.ones(K))
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, *operands(p, Y)[:4])


@pytest.mark.parametrize("bad", [0.0, -1e-3])
def test_woodbury_reports_one_non_positive_precision(bad):
    # the Woodbury path scales KR by E[v]^-1/2, so one zero or negative
    # E[v] among positive ones must be reported, not divided by
    p, _, Y = scene(WOODBURY, 0.05)
    e_v = 10.0 ** np.random.default_rng(4).uniform(-2, 4, K)
    e_v[7] = bad
    with np.errstate(divide="ignore"):     # E[v] = 0 is the rate inf
        s = state_with(p, Y, 3.0, e_v)
    assert s.E_v[7] <= 0
    G_path, kr, Ty, Y_mat, _ = operands(p, Y)
    assert G_path is None
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, G_path, kr, Ty, Y_mat)


@pytest.mark.parametrize("dims", [WOODBURY, DIRECT])
def test_noise_free_run_keeps_residual_nonnegative_and_recovers(dims):
    p, X, Y = scene(dims, 0.0)
    _, kr, Ty, _, y_energy = operands(p, Y)
    residuals = []
    result = vbi.run(p, Y, vbi.EngineConfig(), on_iteration=lambda it, s: residuals.append(
        vbi.expected_residual(s, kr, Ty, y_energy)))
    assert len(residuals) == result.n_iters and result.converged
    assert min(residuals) >= 0.0
    assert nmse(result.M_X, X) < 1e-4
    # the posterior keeps no K x K array
    assert all(np.ndim(v) <= 1 or np.shape(v) == (M, K)
               for v in vars(result.state).values())


def gamma_terms(a, b, eps):
    """E_q[log Gamma(x; eps, eps)] + entropy of q = Gamma(shape b, rate a),
    summed, up to a constant."""
    e, e_log = b / a, digamma(b) - np.log(a)
    return np.sum((eps - 1.0) * e_log - eps * e
                  + b - np.log(a) + gammaln(b) + (1.0 - b) * digamma(b))


def elbo(s, log_det_C, kr, Ty, y_energy):
    """ELBO of q(X) q(v) q(beta) up to a constant, for circular complex
    Gaussians; q(X) has M rows that share the column covariance C_X."""
    L = kr.shape[0]
    e_log_beta = digamma(s.b_beta) - np.log(s.a_beta)
    e_log_v = digamma(s.b_v) - np.log(s.a_v)
    x_energy = np.sum(np.abs(s.M_X) ** 2, axis=0) + M * s.c_diag
    return (L * M * e_log_beta - s.E_beta * vbi.expected_residual(s, kr, Ty, y_energy)
            + np.sum(M * e_log_v - s.E_v * x_energy)
            + M * log_det_C
            + gamma_terms(s.a_v, s.b_v, s.eps) + gamma_terms(s.a_beta, s.b_beta, s.eps))


@pytest.mark.parametrize("scene_args", [
    (DIRECT, 0.05, 1.0), (WOODBURY, 0.05, 1.0), (DIRECT, 1e-2, 50.0),
], ids=["direct", "woodbury", "direct-50x"])
def test_elbo_does_not_decrease_under_any_block(scene_args):
    # Bishop, PRML section 10.1: with the active set fixed (no pruning), no
    # block update lowers the ELBO; log det C_X is taken densely from the
    # E[beta] and E[v] that each q(X) update reads. A step that does not
    # lower the ELBO can still land off the block's optimum, so each q(X)
    # mean must also be stationary: M_X (E[beta] G + diag E[v]) = E[beta] Ty
    p, _, Y = scene(*scene_args)
    G_path, kr, Ty, Y_mat, y_energy = operands(p, Y)
    G = vbi.precompute_gram(p)
    blocks = (("qX", lambda s: vbi.update_qX(s, G_path, kr, Ty, Y_mat)),
              ("qv", vbi.update_qv),
              ("qbeta", lambda s: vbi.update_qbeta(s, kr, Ty, y_energy)))
    s = vbi.init_posterior(p, Y, vbi.EngineConfig())
    log_det_C = 0.0                     # the start's C_X is the identity
    bound = elbo(s, log_det_C, kr, Ty, y_energy)
    steps = []
    for _ in range(10):
        sign, log_det_P = np.linalg.slogdet(s.E_beta * G + np.diag(s.E_v))
        assert sign.real > 0
        log_det_C = -log_det_P
        for name, update in blocks:
            s = update(s)
            if name == "qX":
                rhs = s.E_beta * Ty
                gap = rhs - s.M_X @ (s.E_beta * G + np.diag(s.E_v))
                assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(rhs)
            new = elbo(s, log_det_C, kr, Ty, y_energy)
            steps.append((name, (new - bound) / abs(bound)))
            bound = new
    worst = min(steps, key=lambda step: step[1])
    assert worst[1] >= -1e-10, worst
