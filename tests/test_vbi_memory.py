"""The engine at its memory floor: no K x K array on either q(X) path,
q(beta)'s residual from the kept M x L residual, the Gram as its diagonal
blocks, and Y KR^* without a conjugate copy of KR."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from block_reference import blocks, dense_gram, reference_sweep
from leojadce import vbi
from leojadce.signals import gen_preambles, synthesize_received
from leojadce.tensors import khatri_rao

M = 4
# at K=40: L = 16 < K and L = 64 > K, where q(X) takes the block path
WOODBURY, DIRECT = (4, 4), (8, 8)


def scene(dims, K, m=M, sigma_n2=0.05, seed=0):
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((m, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
    return p, synthesize_received(khatri_rao(p), X, sigma_n2, rng)


@pytest.mark.parametrize("dims", [WOODBURY, DIRECT])
@pytest.mark.parametrize("e_beta, log_e_v", [(3.0, (-2, 4)), (2e6, (2, 6))])
def test_kr_fit_term_equals_gram_form(dims, e_beta, log_e_v):
    K = 40
    p, Y = scene(dims, K)
    rng = np.random.default_rng(1)
    G = dense_gram(p)
    kr = khatri_rao(p)
    Y_mat = Y.T
    Ty = Y_mat @ kr.conj()
    y_energy = float(np.vdot(Y, Y).real)
    s = vbi.init_posterior(kr, Y, y_energy, vbi.EngineConfig())
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta,
                            a_v=s.b_v / 10.0 ** rng.uniform(*log_e_v, K))
    grams = None if vbi.woodbury_pays(Y.shape[0], K) else vbi.precompute_gram(p)
    s = vbi.update_qX(s, grams, kr, Y_mat)

    # the Gram form ||Y||^2 - 2 Re Tr(Ty M_X^H) + Re sum((M_X G) o conj(M_X))
    # of ||R||^2, as the oracle of the kept residual's energy
    gram_fit = float(np.sum((s.M_X @ G) * s.M_X.conj()).real)
    assert gram_fit > 0
    gram_r_energy = y_energy - 2.0 * float(np.sum(Ty * s.M_X.conj()).real) + gram_fit
    # with tr_GC = 0 the expected residual is ||R||^2 alone
    kept = vbi.expected_residual(dataclasses.replace(s, tr_GC=0.0))
    assert kept == pytest.approx(gram_r_energy, rel=1e-10)
    assert (vbi.update_qbeta(s, y_energy).a_beta
            == pytest.approx(gram_r_energy + M * s.tr_GC + s.eps, rel=1e-10))


def counting_gram(monkeypatch):
    calls = []
    gram = vbi.precompute_gram

    def counting(p, *args):
        calls.append(p)
        return gram(p, *args)

    monkeypatch.setattr(vbi, "precompute_gram", counting)
    return calls


@pytest.mark.parametrize("dims, grams", [(WOODBURY, 0), (DIRECT, 1)])
def test_run_forms_the_gram_only_on_the_direct_path(monkeypatch, dims, grams):
    calls = counting_gram(monkeypatch)
    p, Y = scene(dims, 40)
    result = vbi.run(p, khatri_rao(p), Y, vbi.EngineConfig(max_iters=5))
    assert result.n_iters >= 1
    assert len(calls) == grams


def test_woodbury_run_peak_memory_below_one_k_by_k_array():
    K = 400
    p, Y = scene(WOODBURY, K)
    assert vbi.woodbury_pays(Y.shape[0], K)
    kr = khatri_rao(p)
    tracemalloc.start()
    try:
        vbi.run(p, kr, Y, vbi.EngineConfig(max_iters=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < K * K * np.dtype(complex).itemsize, peak


def test_block_run_holds_no_k_by_k_array():
    # L=289 > K=400 takes the block path. Once devices are pruned it holds
    # one copy of KR's active columns, at most L x K; besides that, only
    # stacks of K / b blocks of b x b (the Gram blocks, the factor, its
    # inverse and C), the M x L residual and M x K arrays. Eight such
    # stacks are 8 K b entries, half of the K x K Gram that the joint solve
    # holds at this K; the run measured 4.8 stacks besides that copy
    K = 400
    p, Y = scene((17, 17), K)
    L = Y.shape[0]
    assert not vbi.woodbury_pays(L, K)
    kr = khatri_rao(p)
    tracemalloc.start()
    try:
        result = vbi.run(p, kr, Y, vbi.EngineConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trace[-1][3] < K
    assert peak < (L * K + 8 * K * vbi.BLOCK_SIZE) * np.dtype(complex).itemsize, peak


@pytest.mark.parametrize("dims", [(6, 7), (3, 4, 3), (2, 3, 2, 3)])
def test_precompute_gram_bit_equal_to_hadamard_of_factor_grams(dims):
    # each block of the stack is the K x K oracle's diagonal block, bit for
    # bit (K=40: two blocks of 20), and on 13 of the devices the stack is
    # their own oracle. With blocks of 19 and 18 (K=37) the block products
    # and the K x K one tile differently in BLAS and may differ in the last
    # bit. The slots a short block leaves empty are 0
    for K, active, rtol in [(40, None, 0.0), (37, None, 1e-14),
                            (40, [0, 3, 4, 9, 10, 11, 17, 20, 26, 27, 31, 38, 39], 0.0)]:
        p = gen_preambles(dims, K, np.random.default_rng(len(dims)))
        if active is None:
            oracle = dense_gram(p)
            stack = vbi.precompute_gram(p)
        else:
            oracle = dense_gram([a[:, active] for a in p])
            stack = vbi.precompute_gram(p, np.array(active))
        index = blocks(len(oracle))
        assert stack.shape == (len(index), len(index[0]), len(index[0]))
        for G_BB, B in zip(stack, index):
            n = len(B)
            if rtol == 0.0:
                np.testing.assert_array_equal(G_BB[:n, :n], oracle[np.ix_(B, B)])
            else:
                np.testing.assert_allclose(G_BB[:n, :n], oracle[np.ix_(B, B)], rtol=rtol,
                                           atol=rtol * np.abs(oracle).max())
            assert not G_BB[n:].any() and not G_BB[:, n:].any()


@pytest.mark.parametrize("dims", [(4, 4), (10, 10), (3, 3, 3), (2, 3, 2, 3)])
@pytest.mark.parametrize("K", [7, 40, 130])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_y_kr_conj_bit_equal_to_product_with_conjugate_kr(dims, K, m):
    p, Y = scene(dims, K, m=m, seed=K + m)
    kr = khatri_rao(p)
    ref = Y.T @ kr.conj()
    Ty = vbi._y_kr_conj(Y, kr)
    np.testing.assert_array_equal(Ty, ref)
    s = vbi.init_posterior(kr, Y, float(np.vdot(Y, Y).real), vbi.EngineConfig())
    np.testing.assert_array_equal(s.M_X, ref / Y.shape[0])


def lower_solve_on_copies(R, B):
    """The recursion of vbi._solve_lower, out of place: each half of R and
    B is a fresh array, and the halves are stacked at the end."""
    n = len(R)
    if n <= vbi.SOLVE_BASE:
        return np.linalg.inv(R) @ B
    h = n // 2
    top = lower_solve_on_copies(R[:h, :h].copy(), B[:h].copy())
    bottom = B[h:] - R[h:, :h].copy() @ top
    return np.vstack([top, lower_solve_on_copies(R[h:, h:].copy(), bottom)])


def woodbury_on_fresh_copies(kr, e_beta, e_v, Y_mat):
    """The Woodbury solve's kernel sequence on fresh copies: E stacked from
    two scaled copies, S with an added identity, the triangular solves out
    of place on a conjugate copy of KR and on Y_mat^H, and |W|^2 through
    two real temporaries, the oracle of the in-place form."""
    L = kr.shape[0]
    inv_d = 1.0 / e_v
    E = np.vstack([kr.real * np.sqrt(inv_d), kr.imag * np.sqrt(inv_d)])
    P = E @ E.T
    S = (P[:L, :L] + P[L:, L:]) + 1j * (P[:L, L:] - P[L:, :L]) + np.eye(L) / e_beta
    R = np.linalg.cholesky(S)
    W = lower_solve_on_copies(R, kr.conj())
    c_diag = inv_d - np.sum(np.abs(W) ** 2, axis=0) * inv_d ** 2
    V = lower_solve_on_copies(R, Y_mat.conj().T)
    M_X = (V.conj().T @ W) * inv_d
    return M_X, c_diag


def woodbury_gemm_form(kr, e_beta, e_v, Y_mat):
    """The same solve through a full GEMM for S = Phi D^-1 Phi^H and a
    left-side solve W = R^-1 Phi, an independent reference."""
    phi = kr.conj()
    inv_d = 1.0 / e_v
    S = (phi * inv_d) @ kr.T + np.eye(phi.shape[0]) / e_beta
    R = cholesky(S, lower=True, overwrite_a=True, check_finite=False)
    W = solve_triangular(R, phi, lower=True, check_finite=False)
    c_diag = inv_d - np.sum(np.abs(W) ** 2, axis=0) * inv_d ** 2
    V = solve_triangular(R, Y_mat.conj().T, lower=True, check_finite=False)
    M_X = (V.conj().T @ W) * inv_d
    return M_X, c_diag


def woodbury_inputs(L, K, seed):
    rng = np.random.default_rng(seed)
    kr = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
    e_v = 10.0 ** rng.uniform(-2, 4, K)
    e_beta = 10.0 ** rng.uniform(-1, 3)
    Y_mat = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
    return kr, e_beta, e_v, Y_mat


@pytest.mark.parametrize("L, K, seeds", [(16, 40, 5), (100, 500, 3), (64, 130, 5),
                                         (400, 2000, 1)])
def test_woodbury_solve_bit_equal_to_conjugate_kr_form(L, K, seeds):
    for seed in range(seeds):
        args = woodbury_inputs(L, K, seed)
        M_X, c_diag = vbi._solve_woodbury(*args)
        ref_M_X, ref_c_diag = woodbury_on_fresh_copies(*args)
        np.testing.assert_array_equal(M_X, ref_M_X)
        np.testing.assert_array_equal(c_diag, ref_c_diag)
        # the GEMM form sums in another order; over these 14 inputs the
        # largest gaps measured 2.1e-13 (M_X, Frobenius) and 4.1e-13
        # (c_diag, per entry), both at L=64, K=130
        gemm_M_X, gemm_c_diag = woodbury_gemm_form(*args)
        assert np.linalg.norm(M_X - gemm_M_X) <= 1e-12 * np.linalg.norm(gemm_M_X)
        np.testing.assert_allclose(c_diag, gemm_c_diag, rtol=1e-12, atol=0)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_lower_solve_matches_triangular_solve(R, B, rtol):
    X = B.copy()
    vbi._solve_lower(R, X)
    ref = solve_triangular(R, B, lower=True, check_finite=False)
    assert np.linalg.norm(X - ref) <= rtol * np.linalg.norm(ref)
    # and a small residual, backward error near roundoff
    assert np.linalg.norm(R @ X - B) <= 1e-15 * np.linalg.norm(R, 2) * np.linalg.norm(X)


@pytest.mark.parametrize("L", [1, vbi.SOLVE_BASE - 1, vbi.SOLVE_BASE, vbi.SOLVE_BASE + 1,
                               100, 289])
def test_lower_solve_matches_triangular_solve(L):
    # R is the Cholesky factor of a Woodbury-like S = A A^H / 2L + I, with
    # cond(R) about 2.3; at these L the gap measured at most 1.9e-16, the
    # scaled residual at most 1.1e-16. L = 1 and the base itself are
    # solved by one inverse, base + 1 by one split
    rng = np.random.default_rng(L)
    A = crandn(rng, L, 2 * L)
    R = np.linalg.cholesky(A @ A.conj().T / (2 * L) + np.eye(L))
    assert_lower_solve_matches_triangular_solve(R, crandn(rng, L, 500), rtol=1e-14)


@pytest.mark.parametrize("L", [100, 289])
def test_lower_solve_matches_triangular_solve_on_an_ill_conditioned_factor(L):
    # the Cholesky factor of an S whose eigenvalues span 16 decades, so
    # cond(R) is about 1e8. Forward errors of either solve can reach
    # cond(R) eps; the two measured at most 4.7e-15 apart, with scaled
    # residuals of at most 3.1e-22 (this solve) and 1.2e-22 (the
    # substitution)
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(crandn(rng, L, L))
    S = (Q * 10.0 ** np.linspace(0, -16, L)) @ Q.conj().T
    R = np.linalg.cholesky((S + S.conj().T) / 2)
    assert np.linalg.cond(R) > 1e7
    assert_lower_solve_matches_triangular_solve(R, crandn(rng, L, 500), rtol=1e-13)


def test_woodbury_update_qX_matches_dense_inverse_at_benchmark_shape():
    # L=100, K=500: the short-preamble benchmark scene, with E[v] spread
    # over six decades
    K = 500
    p, Y = scene((10, 10), K, m=8)
    assert vbi.woodbury_pays(Y.shape[0], K)
    rng = np.random.default_rng(3)
    e_beta, e_v = 3.0, 10.0 ** rng.uniform(-2, 4, K)
    G = dense_gram(p)
    kr = khatri_rao(p)
    Ty = Y.T @ kr.conj()
    s = vbi.init_posterior(kr, Y, float(np.vdot(Y, Y).real), vbi.EngineConfig())
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)

    C = np.linalg.inv(e_beta * G + np.diag(e_v))
    M_X = e_beta * Ty @ C
    out = vbi.update_qX(s, None, kr, Y.T)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, np.diag(C).real, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(np.trace(G @ C).real, rel=1e-10)


def test_block_update_qX_matches_reference_sweep_at_benchmark_shape():
    # L=400, K=500: the paper-trial benchmark scene, with E[v] spread over
    # six decades; one sweep from the start's mean against the reference
    K = 500
    p, Y = scene((20, 20), K, m=8)
    assert not vbi.woodbury_pays(Y.shape[0], K)
    rng = np.random.default_rng(3)
    e_beta, e_v = 3.0, 10.0 ** rng.uniform(-2, 4, K)
    kr = khatri_rao(p)
    s = vbi.init_posterior(kr, Y, float(np.vdot(Y, Y).real), vbi.EngineConfig())
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)

    M_X, c_diag, tr_GC, _ = reference_sweep(dense_gram(p), kr, Y.T, e_beta, e_v, s.M_X)
    out = vbi.update_qX(s, vbi.precompute_gram(p), kr, Y.T)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, c_diag, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(tr_GC, rel=1e-10)
    resid = Y.T - out.M_X @ kr.T
    assert np.linalg.norm(out.resid - resid) <= 1e-10 * np.linalg.norm(resid)


def test_woodbury_solve_peak_memory_below_seven_quarters_of_an_l_by_k_array():
    # W and the real |W|, or W and the triangular solve's update of its
    # bottom half, are about 1.5 L x K complex arrays; the real 2L x K copy
    # that forms S, and S itself, are freed before W is made: this measured
    # 1.62
    L, K = 144, 1500
    args = woodbury_inputs(L, K, seed=0)
    tracemalloc.start()
    try:
        vbi._solve_woodbury(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * L * K * 16
