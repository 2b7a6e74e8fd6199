"""The variational engine against a reference block sweep written from its
definition, on a noise-free scene, against its evidence lower bound, and
on its noise estimate at the short-preamble scene."""

import dataclasses

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from block_reference import dense_gram, reference_sweep
from leojadce import vbi
from leojadce.detection import detect, nmse
from leojadce.tensors import khatri_rao
from trial_scene import four_device_scene, trial_scene

K, M = 40, 4
# L = 16 < K and L = 64 > K
SHORT, LONG = (4, 4), (8, 8)


def operands(p, Y):
    """What vbi.run forms once per call: the Gram blocks, KR, Y_(d+1) and
    ||Y||^2."""
    kr = khatri_rao(p)
    return vbi.precompute_gram(p), kr, Y.T, float(np.vdot(Y, Y).real)


def state_with(p, Y, e_beta, e_v):
    _, kr, _, y_energy = operands(p, Y)
    s = vbi.init_posterior(kr, Y, y_energy)
    return dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)


def assert_kept_residual(s, kr, Y_mat):
    """The state's R equals Y_(d+1) - M_X KR^T formed afresh from KR."""
    R = Y_mat - s.M_X @ kr.T
    assert np.linalg.norm(s.resid - R) <= 1e-12 * np.linalg.norm(R)


@pytest.mark.parametrize("dims", [SHORT, LONG])
@pytest.mark.parametrize("e_beta, log_e_v", [(3.0, (-2, 4)), (2e6, (2, 6))])
def test_update_qX_matches_dense_inverse(dims, e_beta, log_e_v):
    # the oracle is one reference Gauss-Seidel sweep from the start's mean,
    # with the dense inverse np.linalg.inv of each block's system
    p, Y, _ = four_device_scene(dims, 0.05)
    rng = np.random.default_rng(1)
    e_v = 10.0 ** rng.uniform(*log_e_v, K)
    s = state_with(p, Y, e_beta, e_v)
    grams, kr, Y_mat, _ = operands(p, Y)
    M_X, c_diag, tr_GC, _ = reference_sweep(dense_gram(p), kr, Y_mat, e_beta, e_v, s.M_X)
    R = Y_mat - M_X @ kr.T
    F = np.vdot(R, R).real + M * tr_GC

    out = vbi.update_qX(s, grams, kr)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, c_diag, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(tr_GC, rel=1e-10)
    assert_kept_residual(out, kr, Y_mat)
    assert vbi.expected_residual(out) == pytest.approx(F, rel=1e-10)


@pytest.mark.parametrize("dims, e_beta", [(SHORT, 1e3), (LONG, 1e-3)])
def test_indefinite_system_is_reported(dims, e_beta):
    # negative E[v] makes the block systems indefinite: at L=16 each block
    # Gram of 20 devices is singular, and at E[beta] = 1e-3 the -1 dominates
    p, Y, _ = four_device_scene(dims, 0.05)
    s = state_with(p, Y, e_beta, -np.ones(K))
    grams, kr, _, _ = operands(p, Y)
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, grams, kr)


def cholesky_stack(grams, e_beta, e_v):
    """The lower-triangular factors of the block systems
    E[beta] G_BB + diag E[v_B], with 1 on the diagonal of an empty slot, as
    the q(X) sweep forms them."""
    slots = vbi._block_slots(len(e_v))
    v = np.ones(slots.shape)
    v[slots] = e_v
    P = e_beta * grams
    P.reshape(len(P), -1)[:, ::P.shape[1] + 1] += v
    return np.linalg.cholesky(P)


def short_preamble_stack():
    # the K=500, L=100, 10 dB scene at the E[beta] and E[v] its run ends with
    s = trial_scene(500, (10, 10), 10.0, 0)
    state = vbi.run(s.p, s.A, s.Y).state
    return cholesky_stack(vbi.precompute_gram(s.p), state.E_beta, state.E_v)


def padded_stack():
    # K=37 cuts into blocks of 19 and 18 devices, so the last slot of the
    # second block is empty
    s = trial_scene(37, (6, 6), 10.0, 0)
    e_v = 10.0 ** np.random.default_rng(2).uniform(-1, 2, 37)
    return cholesky_stack(vbi.precompute_gram(s.p), 1.0 / s.sigma_n2, e_v)


def spread_stack():
    # E[v] spread over 8 decades on the K=500, L=100 Gram blocks
    s = trial_scene(500, (10, 10), 10.0, 0)
    e_v = 10.0 ** np.random.default_rng(3).uniform(-4, 4, 500)
    return cholesky_stack(vbi.precompute_gram(s.p), 1.0 / s.sigma_n2, e_v)


@pytest.mark.parametrize("stack", [short_preamble_stack, padded_stack, spread_stack],
                         ids=["K500-L100", "K37-padded", "E_v-8-decades"])
def test_lower_inverse_matches_dense_inverse(stack):
    # substitution and LU each invert a triangular F_B with error of order
    # b u kappa_2(F_B) relative (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 8 and 14), so they differ by at most that much per
    # block; these stacks read under 1e-3 of it
    F = stack()
    X, ref = vbi._lower_inverse(F), np.linalg.inv(F)
    b, u = F.shape[-1], np.finfo(float).eps
    err = np.linalg.norm(X - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert np.all(err <= b * u * np.linalg.cond(F)), err
    assert np.array_equal(X, np.tril(X))
    if stack is padded_stack:
        assert F.shape[:2] == (2, 19)
        e = np.eye(19)[-1]
        assert np.array_equal(X[1, -1], e) and np.array_equal(X[1, :, -1], e)


def test_substitution_moves_run_within_tolerance_of_lu_inverse(monkeypatch):
    # the inverse's roundoff moves a K=500, L=100, 10 dB run (50 iterations,
    # no device pruned) by at most 1e-12 relative in M_X, and moves neither
    # its iteration count nor its detected devices
    s = trial_scene(500, (10, 10), 10.0, 0)
    result = vbi.run(s.p, s.A, s.Y)
    monkeypatch.setattr(vbi, "_lower_inverse", np.linalg.inv)
    lu = vbi.run(s.p, s.A, s.Y)
    assert result.n_iters == lu.n_iters
    assert np.array_equal(detect(result.M_X), detect(lu.M_X))
    assert np.linalg.norm(result.M_X - lu.M_X) <= 1e-12 * np.linalg.norm(lu.M_X)


@pytest.mark.parametrize("dims", [SHORT, LONG])
def test_noise_free_run_keeps_residual_nonnegative_and_recovers(dims, monkeypatch):
    p, Y, X = four_device_scene(dims, 0.0)
    kr = khatri_rao(p)
    result = vbi.run(p, kr, Y)
    assert result.converged
    # the state after iteration n is the state of a run capped at n
    residuals = []
    for n in range(1, result.n_iters + 1):
        monkeypatch.setattr(vbi, "MAX_ITERS", n)
        residuals.append(vbi.expected_residual(vbi.run(p, kr, Y).state))
    assert min(residuals) >= 0.0
    assert nmse(result.M_X, X) < 1e-4
    # the posterior keeps no K x K array: besides scalars and vectors, only
    # the M x K mean and the M x L residual
    assert all(np.ndim(v) <= 1 or np.shape(v) in {(M, K), (M, Y.shape[0])}
               for v in vars(result.state).values())


def test_negative_expected_residual_is_reported():
    # F = ||R||^2 + M tr_GC below -1e-8 (1 + ||Y||^2) is a numerical failure;
    # roundoff above that floor is truncated to zero before EPS is added
    p, Y, _ = four_device_scene(SHORT, 0.05)
    _, kr, _, y_energy = operands(p, Y)
    s = vbi.init_posterior(kr, Y, y_energy)
    floor = -1e-8 * (1.0 + y_energy)
    r_energy = np.vdot(s.resid, s.resid).real
    below = dataclasses.replace(s, tr_GC=(2.0 * floor - r_energy) / M)
    with pytest.raises(vbi.EngineError, match="negative expected residual F=-"):
        vbi.update_qbeta(below, y_energy)
    within = dataclasses.replace(s, tr_GC=(0.5 * floor - r_energy) / M)
    assert vbi.expected_residual(within) < 0
    assert vbi.update_qbeta(within, y_energy).a_beta == vbi.EPS


def gamma_terms(a, b, eps):
    """E_q[log Gamma(x; eps, eps)] + entropy of q = Gamma(shape b, rate a),
    summed, up to a constant."""
    e, e_log = b / a, digamma(b) - np.log(a)
    return np.sum((eps - 1.0) * e_log - eps * e
                  + b - np.log(a) + gammaln(b) + (1.0 - b) * digamma(b))


def elbo(s, log_det_C, kr, Y_mat):
    """ELBO of q(X) q(v) q(beta) up to a constant, for circular complex
    Gaussians; q(X) has M rows that share the column covariance C_X. The
    expected residual is formed here from KR, not read from the state."""
    L = kr.shape[0]
    e_log_beta = digamma(s.b_beta) - np.log(s.a_beta)
    e_log_v = digamma(s.b_v) - np.log(s.a_v)
    x_energy = np.sum(np.abs(s.M_X) ** 2, axis=0) + M * s.c_diag
    R = Y_mat - s.M_X @ kr.T
    F = np.vdot(R, R).real + M * s.tr_GC
    return (L * M * e_log_beta - s.E_beta * F
            + np.sum(M * e_log_v - s.E_v * x_energy)
            + M * log_det_C
            + gamma_terms(s.a_v, s.b_v, vbi.EPS) + gamma_terms(s.a_beta, s.b_beta, vbi.EPS))


@pytest.mark.parametrize("scene_args", [
    (LONG, 0.05, 1.0), (SHORT, 0.05, 1.0), (LONG, 1e-2, 50.0),
], ids=["direct", "L16", "direct-50x"])
def test_elbo_does_not_decrease_under_any_block(scene_args):
    # Bishop, PRML section 10.1: with the active set fixed (no pruning), no
    # block update lowers the ELBO. log det C_X is taken from the E[beta]
    # and E[v] that each q(X) update reads, as sum_B log det C_B, since the
    # q(X) family is prod_B q(X_B). A step that does not lower the ELBO can
    # still land off the block's optimum, so each q(X) update must also be
    # exact: M_X, c_diag and tr_GC equal those of a reference Gauss-Seidel
    # sweep
    p, Y, _ = four_device_scene(*scene_args)
    grams, kr, Y_mat, y_energy = operands(p, Y)
    G = dense_gram(p)
    blocks = (("qX", lambda s: vbi.update_qX(s, grams, kr)),
              ("qv", lambda s: vbi.update_qv(s, np.sum(np.abs(s.M_X) ** 2, axis=0))),
              ("qbeta", lambda s: vbi.update_qbeta(s, y_energy)))
    s = vbi.init_posterior(kr, Y, y_energy)
    assert_kept_residual(s, kr, Y_mat)
    log_det_C = 0.0                     # the start's C_X is the identity
    bound = elbo(s, log_det_C, kr, Y_mat)
    steps = []
    for _ in range(10):
        ref_M_X, ref_c_diag, ref_tr_GC, log_det_C = reference_sweep(
            G, kr, Y_mat, s.E_beta, s.E_v, s.M_X)
        for name, update in blocks:
            s = update(s)
            if name == "qX":
                assert (np.linalg.norm(s.M_X - ref_M_X)
                        <= 1e-10 * np.linalg.norm(ref_M_X))
                np.testing.assert_allclose(s.c_diag, ref_c_diag, rtol=1e-10, atol=0)
                assert s.tr_GC == pytest.approx(ref_tr_GC, rel=1e-10)
            assert_kept_residual(s, kr, Y_mat)
            new = elbo(s, log_det_C, kr, Y_mat)
            steps.append((name, (new - bound) / abs(bound)))
            bound = new
    worst = min(steps, key=lambda step: step[1])
    assert worst[1] >= -1e-10, worst


@pytest.mark.parametrize("dims", [(10, 10), (14, 14)], ids=["L100", "L196"])
def test_noise_estimate_is_calibrated_where_devices_outnumber_samples(dims):
    # E[beta] sigma^2 near 1: the run has neither overfit nor underfit the
    # noise; well above 1, it stopped while still fitting noise. At K=500,
    # 10 dB (master seed 0) this read 0.89-0.91 at L=100 and 1.06-1.13 at
    # L=196
    for trial in range(3):
        s = trial_scene(500, dims, 10.0, 0, trial)
        result = vbi.run(s.p, s.A, s.Y)
        assert 0.5 <= result.state.E_beta * s.sigma_n2 <= 2.0, trial
