"""Preamble construction and received-signal synthesis, and the one
read-only preamble matrix that synthesis and every algorithm share."""

import math

import numpy as np
import pytest

from leojadce import baselines, vbi
from leojadce.config import DEFAULT_FACTORIZATIONS, ORDER_FACTORIZATIONS_225
from leojadce.signals import (assemble_preamble_matrix, gen_preambles, snr_to_noise_variance,
                              synthesize_received)
from leojadce.tensors import khatri_rao


def test_preamble_columns_unit_norm():
    rng = np.random.default_rng(0)
    p = gen_preambles((4, 5, 3), K=20, rng=rng)
    for a in p:
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)


def test_preambles_deterministic_under_seed():
    p1 = gen_preambles((4, 5), 7, np.random.default_rng(42))
    p2 = gen_preambles((4, 5), 7, np.random.default_rng(42))
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)


def test_preamble_vec_equals_kron_fold():
    rng = np.random.default_rng(1)
    p = gen_preambles((3, 4), 5, rng)
    A1, A2 = p
    for k in range(5):
        x = np.ones((1, 1), dtype=complex)
        Y = synthesize_received(khatri_rao((A1[:, [k]], A2[:, [k]])), x, 0.0, rng)
        np.testing.assert_allclose(Y.reshape(-1), np.kron(A1[:, k], A2[:, k]), atol=1e-14)


def test_preamble_invalid_dims():
    # a single factor (d = 1) is the unstructured preamble; no factor, or
    # one of length 1, is not a preamble
    rng = np.random.default_rng(2)
    assert [a.shape for a in gen_preambles((4,), 3, rng)] == [(4, 3)]
    with pytest.raises(ValueError):
        gen_preambles((), 3, rng)
    with pytest.raises(ValueError):
        gen_preambles((4, 1), 3, rng)
    with pytest.raises(ValueError):
        gen_preambles((4, 4), 0, rng)


def test_assemble_matches_khatri_rao_and_basis_case():
    rng = np.random.default_rng(3)
    p = gen_preambles((3, 4), 6, rng)
    A = assemble_preamble_matrix(p)
    assert A.shape == (12, 6)
    for k in range(6):
        np.testing.assert_allclose(
            A[:, k], np.kron(p[0][:, k], p[1][:, k]),
            atol=1e-14)
    # unit-norm columns: products of unit-norm factors
    np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)
    # synthesis and every algorithm of a trial share A, so none may write it
    assert A.flags.c_contiguous and not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 0.0

    e1 = np.zeros((3, 1), dtype=complex)
    e1[0] = 1.0
    e2 = np.zeros((4, 1), dtype=complex)
    e2[0] = 1.0
    basis = assemble_preamble_matrix((e1, e2))
    expected = np.zeros((12, 1), dtype=complex)
    expected[0] = 1.0
    np.testing.assert_array_equal(basis, expected)


def test_synthesize_zero_noise_zero_state():
    rng = np.random.default_rng(4)
    p = gen_preambles((3, 4), 5, rng)
    Y = synthesize_received(khatri_rao(p), np.zeros((2, 5), dtype=complex), 0.0, rng)
    assert np.linalg.norm(Y) == 0.0


def test_synthesize_noise_free_identity_bit_exact():
    rng = np.random.default_rng(5)
    p = gen_preambles((3, 4), 5, rng)
    X = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    A = assemble_preamble_matrix(p)
    Y = synthesize_received(A, X, 0.0, rng)
    # the transposed samples are the mode-(d+1) unfolding X KR^T
    assert np.array_equal(Y.T, X @ A.T)


def test_synthesize_noise_variance_monte_carlo():
    rng = np.random.default_rng(6)
    p = gen_preambles((10, 10), 3, rng)
    X = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    signal = (X @ khatri_rao(p).T).T
    Y = synthesize_received(khatri_rao(p), X, 1.0, rng)
    noise = Y - signal
    n = noise.size  # 1000 entries
    per_entry = np.abs(noise) ** 2
    assert abs(np.mean(per_entry) - 1.0) < 3.0 / np.sqrt(n)


def test_snr_mapping():
    assert snr_to_noise_variance(0.0) == 1.0
    assert snr_to_noise_variance(10.0) == pytest.approx(0.1)
    assert snr_to_noise_variance(-10.0) == pytest.approx(10.0)


def test_default_factorizations_consistent():
    for L, dims in DEFAULT_FACTORIZATIONS.items():
        assert int(np.prod(dims)) == L
        assert all(l >= 2 for l in dims)
    for d, dims in ORDER_FACTORIZATIONS_225.items():
        assert len(dims) == d
        assert int(np.prod(dims)) == 225


@pytest.mark.parametrize("d", sorted(ORDER_FACTORIZATIONS_225))
def test_synthesize_matches_tensor_shaped_noise_bit_for_bit(d):
    # Drawing the noise as (L, M) takes the same Philox draws, in the same
    # order, as drawing it with the tensor's shape (l_1, ..., l_d, M): the
    # samples equal that construction bit for bit.
    dims = ORDER_FACTORIZATIONS_225[d]
    K, M, sigma_n2 = 30, 4, 0.3
    p = gen_preambles(dims, K, np.random.default_rng(d))
    X = np.random.default_rng(10 + d).standard_normal((M, K)) + 0j
    Y = synthesize_received(khatri_rao(p), X, sigma_n2,
                            np.random.Generator(np.random.Philox(d)))

    rng = np.random.Generator(np.random.Philox(d))
    shape = tuple(dims) + (M,)
    noise = math.sqrt(sigma_n2 / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    expected = (X @ khatri_rao(p).T).T + noise.reshape(225, M)
    assert Y.shape == (225, M) and Y.flags.c_contiguous
    assert np.array_equal(Y, expected)
    assert not Y.flags.writeable
    with pytest.raises(ValueError):
        Y[0, 0] = 0.0


@pytest.mark.parametrize("dims", [(4, 4), (8, 8)], ids=["L16", "direct"])
def test_every_algorithm_reads_the_read_only_preamble_matrix(dims):
    # one read-only A per trial feeds synthesis, VBI at L < K and L > K,
    # SOMP and AMP; VBI gives the same bits as on a writable copy
    K, M = 40, 4
    rng = np.random.default_rng(7)
    p = gen_preambles(dims, K, rng)
    A = assemble_preamble_matrix(p)
    X = np.zeros((M, K), dtype=complex)
    X[:, :4] = rng.standard_normal((M, 4)) + 1j * rng.standard_normal((M, 4))
    Y = synthesize_received(A, X, 1e-3, rng)

    result = vbi.run(p, A, Y)
    np.testing.assert_array_equal(
        result.M_X, vbi.run(p, khatri_rao(p), Y).M_X)
    sres = baselines.somp(Y, A, p, 6, 0.0)
    ares = baselines.amp_mmv(Y, A, 0.1)
    assert result.trace[-1][3] < K and len(sres.support) >= 4 and not ares.diverged
    for x_hat in (result.M_X, sres.X_hat, ares.X_hat):
        assert np.all(np.isfinite(x_hat))
    assert not A.flags.writeable
