"""The engine at its memory floor: no K x K array, q(beta)'s residual from
the kept M x L residual, the Gram as its diagonal blocks, and Y KR^*
without a conjugate copy of KR."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from block_reference import blocks, dense_gram, reference_sweep
from leojadce import vbi
from leojadce.signals import gen_preambles
from leojadce.tensors import khatri_rao
from trial_scene import four_device_scene

M = 4
# at K=40: L = 16 < K and L = 64 > K
SHORT, LONG = (4, 4), (8, 8)


@pytest.mark.parametrize("dims", [SHORT, LONG])
@pytest.mark.parametrize("e_beta, log_e_v", [(3.0, (-2, 4)), (2e6, (2, 6))])
def test_kr_fit_term_equals_gram_form(dims, e_beta, log_e_v):
    K = 40
    p, Y, _ = four_device_scene(dims, K=K)
    rng = np.random.default_rng(1)
    G = dense_gram(p)
    kr = khatri_rao(p)
    Y_mat = Y.T
    Ty = Y_mat @ kr.conj()
    y_energy = float(np.vdot(Y, Y).real)
    s = vbi.init_posterior(kr, Y, y_energy)
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta,
                            a_v=s.b_v / 10.0 ** rng.uniform(*log_e_v, K))
    s = vbi.update_qX(s, vbi.precompute_gram(p), kr)

    # the Gram form ||Y||^2 - 2 Re Tr(Ty M_X^H) + Re sum((M_X G) o conj(M_X))
    # of ||R||^2, as the oracle of the kept residual's energy
    gram_fit = float(np.sum((s.M_X @ G) * s.M_X.conj()).real)
    assert gram_fit > 0
    gram_r_energy = y_energy - 2.0 * float(np.sum(Ty * s.M_X.conj()).real) + gram_fit
    # with tr_GC = 0 the expected residual is ||R||^2 alone
    kept = vbi.expected_residual(dataclasses.replace(s, tr_GC=0.0))
    assert kept == pytest.approx(gram_r_energy, rel=1e-10)
    assert (vbi.update_qbeta(s, y_energy).a_beta
            == pytest.approx(gram_r_energy + M * s.tr_GC + vbi.EPS, rel=1e-10))


def counting_gram(monkeypatch):
    calls = []
    gram = vbi.precompute_gram

    def counting(p):
        calls.append(p)
        return gram(p)

    monkeypatch.setattr(vbi, "precompute_gram", counting)
    return calls


@pytest.mark.parametrize("dims", [SHORT, LONG])
def test_run_forms_the_gram_once_before_pruning(monkeypatch, dims):
    # the E[v] = 1 start prunes no device at iteration 1
    calls = counting_gram(monkeypatch)
    monkeypatch.setattr(vbi, "MAX_ITERS", 1)
    p, Y, _ = four_device_scene(dims)
    result = vbi.run(p, khatri_rao(p), Y)
    assert result.n_iters == 1
    assert len(calls) == 1


@pytest.mark.parametrize("dims, sigma_n2", [(LONG, 1e-2), (SHORT, 1e-3)])
def test_run_forms_the_gram_again_at_each_pruning_step(monkeypatch, dims, sigma_n2):
    # once for all K devices, and once more for the devices left at the head
    # of each iteration whose n_active fell
    calls = counting_gram(monkeypatch)
    p, Y, _ = four_device_scene(dims, sigma_n2)
    result = vbi.run(p, khatri_rao(p), Y)
    n_active = [p[0].shape[1]] + [row[3] for row in result.trace]
    fell = sum(now < before for before, now in zip(n_active, n_active[1:]))
    assert fell > 0
    assert len(calls) == 1 + fell
    assert [c[0].shape[1] for c in calls] == sorted(set(n_active), reverse=True)


def test_block_run_holds_no_k_by_k_array():
    # L=289, K=400. Once devices are pruned the run holds one copy of KR's
    # active columns, at most L x K; besides that, only stacks of K / b
    # blocks of b x b (the Gram blocks, the factor, its inverse and C), the
    # M x L residual and M x K arrays. Eight such stacks are 8 K b entries,
    # half of the K x K Gram that a joint solve would hold at this K; the
    # run measured 4.8 stacks besides that copy
    K = 400
    p, Y, _ = four_device_scene((17, 17), K=K)
    L = Y.shape[0]
    kr = khatri_rao(p)
    tracemalloc.start()
    try:
        result = vbi.run(p, kr, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trace[-1][3] < K
    assert peak < (L * K + 8 * K * vbi.BLOCK_SIZE) * np.dtype(complex).itemsize, peak


@pytest.mark.parametrize("dims", [(6, 7), (3, 4, 3), (2, 3, 2, 3), (42,)])
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
            stack = vbi.precompute_gram(tuple(a[:, active] for a in p))
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
    p, Y, _ = four_device_scene(dims, K=K, m=m, seed=K + m)
    kr = khatri_rao(p)
    ref = Y.T @ kr.conj()
    Ty = vbi._y_kr_conj(Y, kr)
    np.testing.assert_array_equal(Ty, ref)
    s = vbi.init_posterior(kr, Y, float(np.vdot(Y, Y).real))
    np.testing.assert_array_equal(s.M_X, ref / Y.shape[0])


def test_block_update_qX_matches_reference_sweep_at_benchmark_shape():
    # L=400, K=500: the paper-trial benchmark scene, with E[v] spread over
    # six decades; one sweep from the start's mean against the reference
    K = 500
    p, Y, _ = four_device_scene((20, 20), K=K, m=8)
    rng = np.random.default_rng(3)
    e_beta, e_v = 3.0, 10.0 ** rng.uniform(-2, 4, K)
    kr = khatri_rao(p)
    s = vbi.init_posterior(kr, Y, float(np.vdot(Y, Y).real))
    s = dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v)

    M_X, c_diag, tr_GC, _ = reference_sweep(dense_gram(p), kr, Y.T, e_beta, e_v, s.M_X)
    out = vbi.update_qX(s, vbi.precompute_gram(p), kr)
    assert np.linalg.norm(out.M_X - M_X) <= 1e-10 * np.linalg.norm(M_X)
    np.testing.assert_allclose(out.c_diag, c_diag, rtol=1e-10, atol=0)
    assert out.tr_GC == pytest.approx(tr_GC, rel=1e-10)
    resid = Y.T - out.M_X @ kr.T
    assert np.linalg.norm(out.resid - resid) <= 1e-10 * np.linalg.norm(resid)
