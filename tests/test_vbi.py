"""The variational engine against dense-inverse formulas (Woodbury path), a
reference block sweep (block path), on a noise-free scene, and against its
evidence lower bound."""

import dataclasses

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from block_reference import dense_gram, reference_sweep
from leojadce import vbi
from leojadce.detection import nmse
from leojadce.signals import gen_preambles, synthesize_received
from leojadce.tensors import khatri_rao

K, M = 40, 4
# L = 16 < K and L = 64 > K; DIRECT, where Woodbury does not pay, takes
# the block q(X) path
WOODBURY, DIRECT = (4, 4), (8, 8)


def scene(dims, sigma_n2, scale=1.0, seed=0):
    """Four active devices of K=40; ``scale`` multiplies X, and the noise
    with it."""
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((M, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = scale * (rng.standard_normal((M, 4)) + 1j * rng.standard_normal((M, 4)))
    return p, X, synthesize_received(khatri_rao(p), X, sigma_n2 * scale ** 2, rng)


def operands(p, Y):
    """What vbi.run forms once per call: the Gram blocks (None on the
    Woodbury path), KR, Y_(d+1) KR^*, Y_(d+1) and ||Y||^2."""
    kr = khatri_rao(p)
    grams = None if vbi.woodbury_pays(*kr.shape) else vbi.precompute_gram(p)
    return grams, kr, Y.T @ kr.conj(), Y.T, float(np.vdot(Y, Y).real)


def state_with(p, Y, e_beta, e_v):
    _, kr, _, _, y_energy = operands(p, Y)
    s = vbi.init_posterior(kr, Y, y_energy)
    return dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)


def assert_kept_residual(s, kr, Y_mat):
    """The state's R equals Y_(d+1) - M_X KR^T formed afresh from KR."""
    R = Y_mat - s.M_X @ kr.T
    assert np.linalg.norm(s.resid - R) <= 1e-12 * np.linalg.norm(R)


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
    # On the block path the oracle is one reference Gauss-Seidel sweep from
    # the start's mean, with np.linalg.inv per block
    p, _, Y = scene(dims, 0.05)
    rng = np.random.default_rng(1)
    e_v = 10.0 ** rng.uniform(*log_e_v, K)
    s = state_with(p, Y, e_beta, e_v)
    G = dense_gram(p)
    grams, kr, Ty, Y_mat, _ = operands(p, Y)

    if grams is None:
        C = np.linalg.inv(e_beta * G + np.diag(e_v))
        M_X, c_diag, tr_GC = e_beta * Ty @ C, np.diag(C).real, np.trace(G @ C).real
    else:
        M_X, c_diag, tr_GC, _ = reference_sweep(G, kr, Y_mat, e_beta, e_v, s.M_X)
    R = Y_mat - M_X @ kr.T
    F = np.vdot(R, R).real + M * tr_GC

    out = vbi.update_qX(s, grams, kr, Y_mat)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, c_diag, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(tr_GC, rel=1e-10)
    assert_kept_residual(out, kr, Y_mat)
    assert vbi.expected_residual(out) == pytest.approx(F, rel=1e-10)


@pytest.mark.parametrize("dims, e_beta", [(WOODBURY, 1e3), (DIRECT, 1e-3)])
def test_indefinite_system_is_reported(dims, e_beta):
    # negative E[v] makes either factorized system indefinite
    p, _, Y = scene(dims, 0.05)
    s = state_with(p, Y, e_beta, -np.ones(K))
    grams, kr, _, Y_mat, _ = operands(p, Y)
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, grams, kr, Y_mat)


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
    grams, kr, _, Y_mat, _ = operands(p, Y)
    assert grams is None
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, grams, kr, Y_mat)


def test_woodbury_reports_an_indefinite_preamble_space_system():
    # every E[v] > 0 passes the precision check, but a small negative
    # E[beta] puts 1 / E[beta] = -1e3 on the diagonal of S, beyond the
    # eigenvalues of Phi D^-1 Phi^H, so its Cholesky factorization fails
    p, _, Y = scene(WOODBURY, 0.05)
    e_v = 10.0 ** np.random.default_rng(4).uniform(-2, 4, K)
    s = state_with(p, Y, -1e-3, e_v)
    assert s.E_beta < 0 and np.all(s.E_v > 0)
    grams, kr, _, Y_mat, _ = operands(p, Y)
    assert grams is None
    with pytest.raises(vbi.EngineError, match="preamble-space system not positive-definite: "
                       ) as excinfo:
        vbi.update_qX(s, grams, kr, Y_mat)
    assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
    assert "E[v]" not in str(excinfo.value)


@pytest.mark.parametrize("dims", [WOODBURY, DIRECT])
def test_noise_free_run_keeps_residual_nonnegative_and_recovers(dims, monkeypatch):
    p, X, Y = scene(dims, 0.0)
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
    p, _, Y = scene(WOODBURY, 0.05)
    _, kr, _, _, y_energy = operands(p, Y)
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
    (DIRECT, 0.05, 1.0), (WOODBURY, 0.05, 1.0), (DIRECT, 1e-2, 50.0),
], ids=["direct", "woodbury", "direct-50x"])
def test_elbo_does_not_decrease_under_any_block(scene_args):
    # Bishop, PRML section 10.1: with the active set fixed (no pruning), no
    # block update lowers the ELBO. log det C_X is taken from the E[beta]
    # and E[v] that each q(X) update reads: densely on the Woodbury path,
    # and as sum_B log det C_B on the block path, whose q(X) family is
    # prod_B q(X_B). A step that does not lower the ELBO can still land off
    # the block's optimum, so each q(X) update must also be exact: on the
    # Woodbury path the mean is stationary,
    # M_X (E[beta] G + diag E[v]) = E[beta] Ty; on the block path M_X,
    # c_diag and tr_GC equal those of a reference Gauss-Seidel sweep
    p, _, Y = scene(*scene_args)
    grams, kr, Ty, Y_mat, y_energy = operands(p, Y)
    G = dense_gram(p)
    blocks = (("qX", lambda s: vbi.update_qX(s, grams, kr, Y_mat)),
              ("qv", vbi.update_qv),
              ("qbeta", lambda s: vbi.update_qbeta(s, y_energy)))
    s = vbi.init_posterior(kr, Y, y_energy)
    assert_kept_residual(s, kr, Y_mat)
    log_det_C = 0.0                     # the start's C_X is the identity
    bound = elbo(s, log_det_C, kr, Y_mat)
    steps = []
    for _ in range(10):
        if grams is None:
            sign, log_det_P = np.linalg.slogdet(s.E_beta * G + np.diag(s.E_v))
            assert sign.real > 0
            log_det_C = -log_det_P
        else:
            ref_M_X, ref_c_diag, ref_tr_GC, log_det_C = reference_sweep(
                G, kr, Y_mat, s.E_beta, s.E_v, s.M_X)
        for name, update in blocks:
            s = update(s)
            if name == "qX" and grams is None:
                rhs = s.E_beta * Ty
                gap = rhs - s.M_X @ (s.E_beta * G + np.diag(s.E_v))
                assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(rhs)
            elif name == "qX":
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
