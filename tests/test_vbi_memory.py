"""The engine at its memory floor: no K x K array on the Woodbury path,
q(beta)'s fit term from KR, the Gram in one buffer, Y KR^* without a
conjugate copy of KR, and the direct path's column energies in blocks."""

import dataclasses
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import zherk, ztrsm
from scipy.linalg.lapack import ztrtri

from leojadce import vbi
from leojadce.signals import gen_preambles, synthesize_received
from leojadce.tensors import khatri_rao

M = 4
WOODBURY, DIRECT = (4, 4), (8, 8)   # at K=40: L = 16 < K and L = 64 > K


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
    G = vbi.precompute_gram(p)
    kr = khatri_rao(p)
    Y_mat = Y.T
    Ty = Y_mat @ kr.conj()
    y_energy = float(np.vdot(Y, Y).real)
    s = vbi.init_posterior(kr, Ty, y_energy, vbi.EngineConfig())
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta,
                            a_v=s.b_v / 10.0 ** rng.uniform(*log_e_v, K))
    s = vbi.update_qX(s, None if vbi.woodbury_pays(Y.shape[0], K) else G, kr, Ty, Y_mat)

    # the Gram form Re sum((M_X G) o conj(M_X)) of the fit term, as the oracle
    gram_fit = float(np.sum((s.M_X @ G) * s.M_X.conj()).real)
    # with Ty = 0, ||Y||^2 = 0 and tr_GC = 0 the residual is the fit term alone
    bare = dataclasses.replace(s, tr_GC=0.0)
    kr_fit = vbi.expected_residual(bare, kr, np.zeros_like(s.M_X), 0.0)
    assert gram_fit > 0
    assert kr_fit == pytest.approx(gram_fit, rel=1e-12)
    gram_a_beta = (y_energy - 2.0 * float(np.sum(Ty * s.M_X.conj()).real) + gram_fit
                   + M * s.tr_GC + s.eps)
    assert (vbi.update_qbeta(s, kr, Ty, y_energy).a_beta
            == pytest.approx(gram_a_beta, rel=1e-10))


def counting_gram(monkeypatch):
    calls = []
    gram = vbi.precompute_gram

    def counting(p):
        calls.append(p)
        return gram(p)

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


@pytest.mark.parametrize("dims", [(6, 7), (3, 4, 3), (2, 3, 2, 3)])
def test_precompute_gram_bit_equal_to_hadamard_of_factor_grams(dims):
    p = gen_preambles(dims, 40, np.random.default_rng(len(dims)))
    oracle = reduce(np.multiply, [(a.conj().T @ a).conj() for a in p])
    np.testing.assert_array_equal(vbi.precompute_gram(p), oracle)


@pytest.mark.parametrize("dims", [(4, 4), (10, 10), (3, 3, 3), (2, 3, 2, 3)])
@pytest.mark.parametrize("K", [7, 40, 130])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_y_kr_conj_bit_equal_to_product_with_conjugate_kr(dims, K, m):
    p, Y = scene(dims, K, m=m, seed=K + m)
    kr = khatri_rao(p)
    ref = Y.T @ kr.conj()
    Ty = vbi._y_kr_conj(Y, kr)
    np.testing.assert_array_equal(Ty, ref)
    s = vbi.init_posterior(kr, Ty, float(np.vdot(Y, Y).real), vbi.EngineConfig())
    np.testing.assert_array_equal(s.M_X, ref / Y.shape[0])


def test_direct_column_energies_in_blocks_bit_equal_to_whole_inverse():
    # K = 150 spans two full column blocks and a partial one
    K = 150
    rng = np.random.default_rng(5)
    B = rng.standard_normal((200, K)) + 1j * rng.standard_normal((200, K))
    G = B.conj().T @ B
    e_beta, e_v = 0.7, 10.0 ** rng.uniform(-2, 4, K)
    rhs = rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))
    F = cholesky(e_beta * G + np.diag(e_v.astype(complex)), lower=True)
    F_inv, _ = ztrtri(F, lower=1)
    _, c_diag = vbi._solve_direct(G, e_beta, e_v, rhs)
    np.testing.assert_array_equal(c_diag, np.sum(np.abs(F_inv) ** 2, axis=0))


def woodbury_with_conjugate_kr(kr, e_beta, e_v, Y_mat):
    """The Woodbury solve's kernel sequence on fresh copies: B^T =
    (KR D^-1/2)^T from a copy of KR^T, a conjugate copy of KR that ztrsm
    copies again, and |W|^2 through two real temporaries, the oracle of the
    in-place form."""
    inv_d = 1.0 / e_v
    Bt = kr.T.copy() * np.sqrt(inv_d)[:, None]
    S = zherk(1.0, Bt, trans=2, lower=1) + np.eye(kr.shape[0]) / e_beta
    R = cholesky(S, lower=True, check_finite=False)
    Wt = ztrsm(1.0, R, np.conjugate(kr).T, side=1, lower=1, trans_a=1)
    c_diag = inv_d - np.sum(np.abs(Wt) ** 2, axis=1) * inv_d ** 2
    V = solve_triangular(R, Y_mat.conj().T, lower=True, check_finite=False)
    M_X = (Wt @ V.conj()).T * inv_d
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
        ref_M_X, ref_c_diag = woodbury_with_conjugate_kr(*args)
        np.testing.assert_array_equal(M_X, ref_M_X)
        np.testing.assert_array_equal(c_diag, ref_c_diag)
        # the GEMM form sums in another order; over these 14 inputs the
        # largest gaps measured 1.2e-13 (M_X, Frobenius) and 4.4e-13
        # (c_diag, per entry), both at L=64, K=130
        gemm_M_X, gemm_c_diag = woodbury_gemm_form(*args)
        assert np.linalg.norm(M_X - gemm_M_X) <= 1e-12 * np.linalg.norm(gemm_M_X)
        np.testing.assert_allclose(c_diag, gemm_c_diag, rtol=1e-12, atol=0)


def test_woodbury_update_qX_matches_dense_inverse_at_benchmark_shape():
    # L=100, K=500: the short-preamble benchmark scene, with E[v] spread
    # over six decades
    K = 500
    p, Y = scene((10, 10), K, m=8)
    assert vbi.woodbury_pays(Y.shape[0], K)
    rng = np.random.default_rng(3)
    e_beta, e_v = 3.0, 10.0 ** rng.uniform(-2, 4, K)
    G = vbi.precompute_gram(p)
    kr = khatri_rao(p)
    Ty = Y.T @ kr.conj()
    s = vbi.init_posterior(kr, Ty, float(np.vdot(Y, Y).real), vbi.EngineConfig())
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)

    C = np.linalg.inv(e_beta * G + np.diag(e_v))
    M_X = e_beta * Ty @ C
    out = vbi.update_qX(s, None, kr, Ty, Y.T)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, np.diag(C).real, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(np.trace(G @ C).real, rel=1e-10)


def test_woodbury_solve_peak_memory_below_seven_quarters_of_an_l_by_k_array():
    # W^T and the real |W| are about 1.5 L x K complex arrays, and B^T is
    # freed before W^T is made: this measured 1.61. A left-side solve that
    # takes a Fortran-ordered copy of KR measured 1.79
    L, K = 144, 1500
    args = woodbury_inputs(L, K, seed=0)
    tracemalloc.start()
    try:
        vbi._solve_woodbury(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * L * K * 16
