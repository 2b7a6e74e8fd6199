"""Multilinear algebra: the Khatri-Rao column order, and the received
samples against Kronecker and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leojadce.signals import gen_preambles, synthesize_received
from leojadce.tensors import khatri_rao


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------- khatri_rao: columnwise Kronecker order

def test_kron_basis_vectors():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    out = khatri_rao([e1, e1])
    assert out.shape == (4, 1)
    np.testing.assert_array_equal(out[:, 0], np.array([1, 0, 0, 0], dtype=complex))


def test_kron_scalar_identity():
    rng = np.random.default_rng(1)
    a = crandn(rng, 5, 3)
    one = np.ones((1, 3))
    np.testing.assert_array_equal(khatri_rao([a, one]), a)
    np.testing.assert_array_equal(khatri_rao([one, a]), a)


def test_kron_index_formula_oracle():
    rng = np.random.default_rng(2)
    a, b = crandn(rng, 2, 2), crandn(rng, 3, 2)
    out = khatri_rao([a, b])
    # scalar products may differ from the vectorized path in the last ulp
    for k in range(2):
        for i in range(2):
            for j in range(3):
                assert abs(out[i * 3 + j, k] - a[i, k] * b[j, k]) < 1e-15


def test_kron_rejects_empty():
    with pytest.raises(ValueError):
        khatri_rao([])


def test_khatri_rao_single_columns_is_kron():
    rng = np.random.default_rng(3)
    a, b = crandn(rng, 3, 1), crandn(rng, 4, 1)
    np.testing.assert_allclose(khatri_rao([a, b])[:, 0], np.kron(a[:, 0], b[:, 0]))


def test_khatri_rao_shape():
    rng = np.random.default_rng(4)
    out = khatri_rao([crandn(rng, 2, 5), crandn(rng, 3, 5)])
    assert out.shape == (6, 5)


def test_khatri_rao_gram_identity():
    # (A kr B)^T (A kr B)^* == (A^T A^*) had (B^T B^*)
    rng = np.random.default_rng(5)
    A, B = crandn(rng, 6, 4), crandn(rng, 5, 4)
    kr = khatri_rao([A, B])
    lhs = kr.T @ kr.conj()
    rhs = (A.T @ A.conj()) * (B.T @ B.conj())
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_khatri_rao_column_count_mismatch():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        khatri_rao([crandn(rng, 2, 3), crandn(rng, 2, 4)])


# ------------------- the received samples in Kruskal (CP) form, noise-free

def received(factors, X):
    """Noise-free L x M received samples KR X^T."""
    return synthesize_received(factors, X, 0.0, np.random.default_rng(0))


def test_kruskal_basis_case():
    e = lambda n: np.eye(n, 1, dtype=complex)  # first basis vector as column
    factors = (e(3), e(4))
    Y = received(factors, e(2))
    expected = np.zeros((12, 2), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(Y, expected)


def test_kruskal_zero_state():
    rng = np.random.default_rng(9)
    factors = (crandn(rng, 3, 2), crandn(rng, 4, 2))
    Y = received(factors, np.zeros((2, 2), dtype=complex))
    assert np.linalg.norm(Y) == 0.0


def test_kruskal_brute_force_oracle():
    rng = np.random.default_rng(10)
    l1, l2, K, M = 3, 4, 2, 2
    A1, A2, X = crandn(rng, l1, K), crandn(rng, l2, K), crandn(rng, M, K)
    Y = received((A1, A2), X)
    expected = np.zeros((l1, l2, M), dtype=complex)
    for i in range(l1):
        for j in range(l2):
            for m in range(M):
                for k in range(K):
                    expected[i, j, m] += A1[i, k] * A2[j, k] * X[m, k]
    np.testing.assert_allclose(Y, expected.reshape(l1 * l2, M), atol=1e-12)


def test_kruskal_dim_mismatch():
    rng = np.random.default_rng(11)
    factors = (crandn(rng, 3, 2), crandn(rng, 4, 2))
    with pytest.raises(ValueError):
        received(factors, crandn(rng, 2, 3))


def test_unfold_rank1_outer_product():
    # the transposed samples are the mode-(d+1) unfolding x (a1 kron a2)^T
    rng = np.random.default_rng(12)
    a1, a2, x = crandn(rng, 3, 1), crandn(rng, 4, 1), crandn(rng, 2, 1)
    Y = received((a1, a2), x)
    expected = x @ np.kron(a1[:, 0], a2[:, 0])[None, :]
    np.testing.assert_allclose(Y.T, expected, atol=1e-14)


def test_unfold_kruskal_identity_pins_ordering():
    rng = np.random.default_rng(14)
    A = [crandn(rng, 3, 4), crandn(rng, 2, 4), crandn(rng, 5, 4)]
    X = crandn(rng, 3, 4)
    lhs = received(tuple(A), X).T
    rhs = X @ khatri_rao(A).T
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------- invariants (property tests)

dims_strategy = st.lists(st.integers(2, 4), min_size=2, max_size=3)


@settings(max_examples=30, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
def test_vec_kron_consistency(dims, seed):
    # flattening the rank-1 samples equals the kron fold of the factor
    # columns and the state column
    rng = np.random.default_rng(seed)
    cols = [crandn(rng, l, 1) for l in dims]
    x = crandn(rng, 2, 1)
    vec = received(tuple(cols), x).reshape(-1)
    expected = cols[0][:, 0]
    for c in cols[1:]:
        expected = np.kron(expected, c[:, 0])
    expected = np.kron(expected, x[:, 0])
    np.testing.assert_allclose(vec, expected, rtol=0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(dims=dims_strategy, K=st.integers(1, 5), M=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_unfolding_identity_random_instances(dims, K, M, seed):
    rng = np.random.default_rng(seed)
    A = [crandn(rng, l, K) for l in dims]
    X = crandn(rng, M, K)
    lhs = received(tuple(A), X).T
    rhs = X @ khatri_rao(A).T
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(dims=dims_strategy, K=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_frobenius_norm_tensor_vs_unfolded(dims, K, seed):
    rng = np.random.default_rng(seed)
    A = [crandn(rng, l, K) for l in dims]
    X = crandn(rng, 3, K)
    t_norm2 = np.linalg.norm(received(tuple(A), X)) ** 2
    m_norm2 = np.linalg.norm(X @ khatri_rao(A).T) ** 2
    np.testing.assert_allclose(t_norm2, m_norm2, rtol=1e-10)


# ---------------------------------------------------------------- types

def test_tensors_are_immutable():
    # every preamble factor is read-only, at tensor orders d = 2, 3 and 4
    rng = np.random.default_rng(15)
    for dims in [(2, 2), (3, 2, 2), (2, 3, 2, 2)]:
        factors = gen_preambles(dims, 2, rng)
        assert len(factors) == len(dims)
        for a in factors:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 5.0
