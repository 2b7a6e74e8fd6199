"""SOMP and AMP baselines on constructed instances, and against the
straightforward forms they replace (an lstsq refit per atom, three
products per AMP iteration)."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from leojadce import baselines
from leojadce.baselines import (AmpResult, SompConfig, SompResult, amp_mmv,
                                default_max_support, somp)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_columns(rng, L, K):
    A = crandn(rng, L, K)
    return A / np.linalg.norm(A, axis=0, keepdims=True)


def residual_norm(Y, A, res):
    """||Y - A X_hat^T||_F: the residual that a SOMP result leaves."""
    return float(np.linalg.norm(Y - A @ res.X_hat.T))


def test_somp_single_active_noise_free():
    rng = np.random.default_rng(0)
    L, K, M = 16, 10, 3
    A = unit_columns(rng, L, K)
    x = crandn(rng, M, 1)
    Y = A[:, [4]] @ x.T
    res = somp(Y, A, SompConfig(max_support=5, residual_tol=1e-10))
    assert res.support == [4]
    np.testing.assert_allclose(res.X_hat[:, 4], x[:, 0], atol=1e-10)
    # the residual tolerance, not a rank-deficient atom, ended the search
    assert residual_norm(Y, A, res) <= 1e-10 * np.linalg.norm(Y)


def test_somp_zero_signal_empty_support():
    rng = np.random.default_rng(1)
    A = unit_columns(rng, 8, 5)
    res = somp(np.zeros((8, 2), dtype=complex), A, SompConfig(max_support=3))
    assert res.support == []
    assert np.count_nonzero(res.X_hat) == 0


def test_somp_orthonormal_dictionary_exact_recovery():
    rng = np.random.default_rng(2)
    L, K, M, s = 20, 12, 4, 5
    Q, _ = np.linalg.qr(crandn(rng, L, K))
    A = Q[:, :K]
    X = np.zeros((M, K), dtype=complex)
    active = rng.choice(K, size=s, replace=False)
    X[:, active] = crandn(rng, M, s)
    Y = A @ X.T
    res = somp(Y, A, SompConfig(max_support=s, residual_tol=0.0))
    assert sorted(res.support) == sorted(active.tolist())
    np.testing.assert_allclose(res.X_hat, X, atol=1e-10)


def test_somp_residual_non_increasing():
    rng = np.random.default_rng(3)
    L, K, M = 24, 40, 3
    A = unit_columns(rng, L, K)
    Y = crandn(rng, L, M)
    support, norms = [], []
    for cap in range(1, 16):
        res = somp(Y, A, SompConfig(max_support=cap, residual_tol=0.0))
        # a larger cap only adds atoms, in the same order
        assert res.support[:-1] == support and len(res.support) == cap
        support = res.support
        norms.append(residual_norm(Y, A, res))
    diffs = np.diff([float(np.linalg.norm(Y))] + norms)
    assert np.all(diffs <= 1e-10)


def test_somp_stops_on_a_linearly_dependent_atom():
    rng = np.random.default_rng(4)
    L, M = 10, 2
    col = crandn(rng, L, 1)
    col /= np.linalg.norm(col)
    A = np.hstack([col, col, unit_columns(rng, L, 2)])  # duplicated atom
    Y = col @ crandn(rng, M, 1).T
    res = somp(Y, A, SompConfig(max_support=3, residual_tol=-1.0))
    # no residual stop: only a rank-deficient atom ends the search below
    # the cap, and the duplicate never joins its twin
    assert 1 <= len(res.support) < 3
    assert not {0, 1} <= set(res.support)


def test_somp_rejects_oversized_support():
    rng = np.random.default_rng(5)
    A = unit_columns(rng, 8, 4)
    with pytest.raises(ValueError):
        somp(np.zeros((8, 2), dtype=complex), A, SompConfig(max_support=5))


def test_default_max_support():
    assert default_max_support(0.1, 500) == 75
    assert default_max_support(0.9, 10) == 10  # capped at K
    assert default_max_support(0.0, 10) == 1


def test_amp_zero_input():
    rng = np.random.default_rng(6)
    A = unit_columns(rng, 10, 6)
    res = amp_mmv(np.zeros((10, 2), dtype=complex), A, 0.2)
    assert np.count_nonzero(res.X_hat) == 0
    assert not res.diverged


def test_amp_one_sparse_recovery(monkeypatch):
    monkeypatch.setattr(baselines, "AMP_MAX_ITERS", 200)
    monkeypatch.setattr(baselines, "AMP_TOL", 1e-6)
    rng = np.random.default_rng(7)
    L, K, M = 32, 8, 4
    A = unit_columns(rng, L, K)
    X = np.zeros((M, K), dtype=complex)
    X[:, 3] = 3.0 * crandn(rng, M)
    Y = A @ X.T
    res = amp_mmv(Y, A, 1.0 / K)
    assert not res.diverged
    energies = np.sum(np.abs(res.X_hat) ** 2, axis=0)
    assert np.argmax(energies) == 3
    assert energies[3] > 10 * np.sort(energies)[-2] if K > 1 else True
    # the energies cannot see a conjugated estimate; the direction can
    x, x_hat = X[:, 3], res.X_hat[:, 3]
    assert np.real(np.vdot(x, x_hat)) / (np.linalg.norm(x) * np.linalg.norm(x_hat)) > 0.99


def test_amp_iterates_bounded_on_random_instance(monkeypatch):
    monkeypatch.setattr(baselines, "AMP_MAX_ITERS", 100)
    rng = np.random.default_rng(8)
    L, K, M = 40, 60, 4
    A = unit_columns(rng, L, K)
    Y = crandn(rng, L, M)
    res = amp_mmv(Y, A, 0.1)
    assert not res.diverged
    assert np.all(np.isfinite(res.X_hat))


def lstsq_somp(Y, A, cfg):
    """SOMP with an SVD least-squares refit of the whole support after each
    atom: the reference for the QR-updating :func:`somp`."""
    L, M = Y.shape
    K = A.shape[1]
    y_norm = float(np.linalg.norm(Y))
    support, coef, R = [], np.zeros((0, M), dtype=complex), Y.copy()
    if y_norm == 0.0:
        return SompResult([], np.zeros((M, K), dtype=complex))
    while len(support) < cfg.max_support:
        if np.linalg.norm(R) / y_norm <= cfg.residual_tol:
            break
        score = np.sum(np.abs(A.conj().T @ R), axis=1)
        score[support] = -1.0
        trial_support = support + [int(np.argmax(score))]
        A_s = A[:, trial_support]
        sol, _, rank, _ = np.linalg.lstsq(A_s, Y, rcond=None)
        if rank < len(trial_support):
            break
        support, coef = trial_support, sol
        R = Y - A_s @ coef
    X_hat = np.zeros((M, K), dtype=complex)
    if support:
        X_hat[:, support] = coef.T
    return SompResult(support, X_hat)


def three_product_amp(Y, A, p_a):
    """AMP with an explicit adjoint copy and a fresh A X product for the
    stop test: the reference that :func:`amp_mmv` must match bit for bit.
    It reads AMP's settings from :mod:`leojadce.baselines` when called."""
    damping = baselines.AMP_DAMPING
    L, M = Y.shape
    K = A.shape[1]
    delta = L / K
    X = np.zeros((K, M), dtype=complex)
    Z = Y.copy()
    y_norm = float(np.linalg.norm(Y))
    A_H = A.conj().T
    diverged, n_done = False, 0
    for it in range(1, baselines.AMP_MAX_ITERS + 1):
        n_done = it
        pseudo = X + A_H @ Z
        tau = np.linalg.norm(Z) / math.sqrt(L * M)
        lam = tau * math.sqrt(2.0 * math.log(max(K / max(p_a * K, 1.0), math.e)))
        row_norms = np.linalg.norm(pseudo, axis=1)
        shrink = np.maximum(1.0 - lam / np.maximum(row_norms, 1e-300), 0.0)
        X_new = pseudo * shrink[:, None]
        onsager = Z * (float(np.mean(shrink > 0)) / delta)
        Z_new = Y - A @ X_new + onsager
        X = damping * X_new + (1.0 - damping) * X
        Z = damping * Z_new + (1.0 - damping) * Z
        if not np.all(np.isfinite(Z)) or np.linalg.norm(Z) > 1e6 * (y_norm + 1.0):
            diverged = True
            break
        if np.linalg.norm(Y - A @ X) <= baselines.AMP_TOL * y_norm:
            break
    X_hat = X.T if not diverged else np.zeros((M, K), dtype=complex)
    return AmpResult(X_hat, n_done, diverged)


def sparse_scene(seed, L, K, M, n_active, noise):
    rng = np.random.default_rng(seed)
    A = unit_columns(rng, L, K)
    X = np.zeros((M, K), dtype=complex)
    X[:, rng.choice(K, n_active, replace=False)] = crandn(rng, M, n_active)
    return A, Y_of(A, X, noise, rng)


def Y_of(A, X, noise, rng):
    return A @ X.T + noise * crandn(rng, A.shape[0], X.shape[0])


def assert_matches_lstsq_somp(Y, A, cfg):
    got, ref = somp(Y, A, cfg), lstsq_somp(Y, A, cfg)
    assert got.support == ref.support
    assert np.linalg.norm(got.X_hat - ref.X_hat) <= 1e-10 * np.linalg.norm(ref.X_hat)
    np.testing.assert_allclose(residual_norm(Y, A, got), residual_norm(Y, A, ref),
                               rtol=1e-10, atol=1e-10 * np.linalg.norm(Y))
    return got


@pytest.mark.parametrize("seed", range(4))
def test_somp_matches_lstsq_refit_at_residual_tolerance(seed):
    # L < K, M > 1, noisy: the discrepancy stop ends the search early
    noise = 0.05
    A, Y = sparse_scene(seed, 32, 80, 4, 6, noise)
    tol = noise * math.sqrt(Y.size) / np.linalg.norm(Y)
    got = assert_matches_lstsq_somp(Y, A, SompConfig(max_support=20, residual_tol=tol))
    assert 1 <= len(got.support) < 20
    assert residual_norm(Y, A, got) <= tol * np.linalg.norm(Y)


@pytest.mark.parametrize("seed", range(4))
def test_somp_matches_lstsq_refit_up_to_support_cap(seed):
    A, Y = sparse_scene(10 + seed, 40, 100, 3, 8, 0.3)
    got = assert_matches_lstsq_somp(Y, A, SompConfig(max_support=25, residual_tol=0.0))
    assert len(got.support) == 25


@pytest.mark.parametrize("seed", range(4))
def test_somp_matches_lstsq_refit_on_near_collinear_atoms(seed):
    # Atoms 2j and 2j+1 differ by about 1e-4 of their norm, and the cap
    # makes SOMP take all of them, so the support matrix has a condition
    # number near 1e4. With a single Gram-Schmidt pass X_hat moves from the
    # lstsq refit by about 5e-9 relative; with two, by about 3e-12.
    rng = np.random.default_rng(20 + seed)
    L, K, M = 48, 12, 4
    A = np.repeat(unit_columns(rng, L, K // 2), 2, axis=1) + 1e-4 * unit_columns(rng, L, K)
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    Y = Y_of(A, crandn(rng, M, K), 1e-4, rng)
    assert_matches_lstsq_somp(Y, A, SompConfig(max_support=K, residual_tol=0.0))


def test_somp_matches_lstsq_refit_on_duplicated_atom():
    # the duplicate is the last atom left, so both forms must reject it
    rng = np.random.default_rng(30)
    L, M = 12, 3
    A = unit_columns(rng, L, 3)
    A[:, 2] = A[:, 0]
    Y = A[:, :2] @ crandn(rng, 2, M) + 1e-3 * crandn(rng, L, M)
    got = assert_matches_lstsq_somp(Y, A, SompConfig(max_support=3, residual_tol=0.0))
    # the search stopped below the cap, on the duplicate of atom 0
    assert sorted(got.support) == [0, 1]


@pytest.mark.parametrize("L, K, M, n_active, noise, max_iters, expect", [
    (48, 100, 3, 5, 0.05, 50, "runs"),   # odd M: (Z^H A)^H rounds unlike A^H Z
    (64, 80, 4, 4, 0.0, 500, "tolerance stop"),
    (30, 150, 8, 15, 0.3, 50, "diverges"),
])
def test_amp_matches_three_product_form_bit_for_bit(L, K, M, n_active, noise,
                                                    max_iters, expect, monkeypatch):
    monkeypatch.setattr(baselines, "AMP_MAX_ITERS", max_iters)
    A, Y = sparse_scene(40, L, K, M, n_active, noise)
    p_a = n_active / K
    got, ref = amp_mmv(Y, A, p_a), three_product_amp(Y, A, p_a)
    np.testing.assert_array_equal(got.X_hat, ref.X_hat)
    assert (got.n_iters, got.diverged) == (ref.n_iters, ref.diverged)
    assert ref.diverged == (expect == "diverges")
    assert (ref.n_iters < max_iters) == (expect != "runs")


@pytest.mark.parametrize("M", [1, 3, 8])
def test_somp_coefficients_match_triangular_solve(M, monkeypatch):
    # SOMP solves R C = Q^H Y with numpy's LU, which makes no row swaps on
    # an upper-triangular R; a triangular solve is the oracle
    np_solve = np.linalg.solve
    seen = []

    def recording_solve(a, b):
        x = np_solve(a, b)
        seen.append((a, b, x))
        return x

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    for s in (1, 2, 5, 17, 40, 80):
        A, Y = sparse_scene(100 * M + s, 96, 120, M, min(s, 30), 0.1)
        somp(Y, A, SompConfig(max_support=s, residual_tol=0.0))
    assert [len(a) for a, _, _ in seen] == [1, 2, 5, 17, 40, 80]
    for R, QhY, coef in seen:
        assert np.array_equal(R, np.triu(R))
        ref = solve_triangular(R, QhY, lower=False)
        assert np.linalg.norm(coef - ref) <= 1e-12 * np.linalg.norm(ref)
