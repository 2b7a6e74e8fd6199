"""SOMP and AMP baselines on constructed instances and on the benchmark's
scenes, and against straightforward forms of the same iterations (an
lstsq refit per atom; SOMP's correlation update formed from A; AMP with an
explicit adjoint)."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from leojadce import baselines
from leojadce.baselines import (AmpResult, SompResult, amp_mmv, default_max_support,
                                somp)
from leojadce.detection import nmse
from trial_scene import trial_scene


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_columns(rng, L, K, mean=0.0):
    """Unit-norm columns of i.i.d. CN(mean, 2) entries."""
    A = crandn(rng, L, K) + mean
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
    res = somp(Y, A, (A,), 5, 1e-10)
    assert res.support == [4]
    np.testing.assert_allclose(res.X_hat[:, 4], x[:, 0], atol=1e-10)
    # the residual tolerance, not a rank-deficient atom, ended the search
    assert residual_norm(Y, A, res) <= 1e-10 * np.linalg.norm(Y)


def test_somp_zero_signal_empty_support():
    rng = np.random.default_rng(1)
    A = unit_columns(rng, 8, 5)
    res = somp(np.zeros((8, 2), dtype=complex), A, (A,), 3, 0.0)
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
    res = somp(Y, A, (A,), s, 0.0)
    assert sorted(res.support) == sorted(active.tolist())
    np.testing.assert_allclose(res.X_hat, X, atol=1e-10)


def test_somp_residual_non_increasing():
    rng = np.random.default_rng(3)
    L, K, M = 24, 40, 3
    A = unit_columns(rng, L, K)
    Y = crandn(rng, L, M)
    support, norms = [], []
    for cap in range(1, 16):
        res = somp(Y, A, (A,), cap, 0.0)
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
    res = assert_somp_matches_direct_form(Y, A, (A,), 3, -1.0)
    # no residual stop: only a rank-deficient atom ends the search below
    # the cap, and the duplicate never joins its twin
    assert 1 <= len(res.support) < 3
    assert not {0, 1} <= set(res.support)


def test_somp_rejects_oversized_support():
    rng = np.random.default_rng(5)
    A = unit_columns(rng, 8, 4)
    with pytest.raises(ValueError):
        somp(np.zeros((8, 2), dtype=complex), A, (A,), 5, 0.0)


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


def lstsq_somp(Y, A, max_support, residual_tol):
    """SOMP with an SVD least-squares refit of the whole support after each
    atom: the reference for the QR-updating :func:`somp`."""
    L, M = Y.shape
    K = A.shape[1]
    y_norm = float(np.linalg.norm(Y))
    support, coef, R = [], np.zeros((0, M), dtype=complex), Y.copy()
    if y_norm == 0.0:
        return SompResult([], np.zeros((M, K), dtype=complex))
    while len(support) < max_support:
        if np.linalg.norm(R) / y_norm <= residual_tol:
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


def direct_somp(Y, A, max_support, residual_tol):
    """The loop of :func:`somp` with the correlation update formed from A,
    as A^T q^* for each new unit column q: the reference that :func:`somp`,
    which forms it from the new atom's Gram column, must match bit for bit."""
    L, M = Y.shape
    K = A.shape[1]
    y_norm = float(np.linalg.norm(Y))
    support, R_res, res_norm = [], Y.copy(), y_norm
    X_hat = np.zeros((M, K), dtype=complex)
    if y_norm == 0.0:
        return SompResult([], X_hat)
    Q_H = np.zeros((max_support, L), dtype=complex)
    R = np.zeros((max_support, max_support), dtype=complex)
    QhY = np.zeros((max_support, M), dtype=complex)
    eps = np.finfo(float).eps
    corr = A.T @ R_res.conj()
    while len(support) < max_support:
        if res_norm / y_norm <= residual_tol:
            break
        score = np.sum(np.abs(corr), axis=1)
        score[support] = -1.0
        k_star = int(np.argmax(score))
        s = len(support)
        w = A[:, k_star].copy()
        for _ in range(2):
            c = Q_H[:s] @ w
            w -= (c.conj() @ Q_H[:s]).conj()
            R[:s, s] += c
        r_ss = float(np.linalg.norm(w))
        if r_ss <= max(L, s + 1) * eps * float(np.linalg.norm(A[:, k_star])):
            break
        R[s, s] = r_ss
        q = w / r_ss
        Q_H[s] = q.conj()
        QhY[s] = Q_H[s] @ R_res
        R_res -= np.outer(q, QhY[s])
        corr -= np.outer(A.T @ Q_H[s], QhY[s].conj())
        support.append(k_star)
        res_norm = float(np.linalg.norm(R_res))
    if support:
        n = len(support)
        X_hat[:, support] = np.linalg.solve(R[:n, :n], QhY[:n]).T
    return SompResult(support, X_hat)


def plain_amp(Y, A, p_a):
    """The iteration of :func:`amp_mmv` with an explicit adjoint A^H, formed
    on every iteration, and ||Z|| taken afresh wherever it is read: the
    reference that :func:`amp_mmv` must match bit for bit. It reads AMP's
    settings from :mod:`leojadce.baselines` when called."""
    damping = baselines.AMP_DAMPING
    L, M = Y.shape
    K = A.shape[1]
    X = np.zeros((K, M), dtype=complex)
    if p_a == 0.0:
        return AmpResult(X.T, 0, False)
    log_odds = math.inf if p_a == 1.0 else math.log(p_a / (1.0 - p_a))
    Z = Y.copy()
    y_norm = float(np.linalg.norm(Y))
    gamma = y_norm ** 2 / (M * p_a * K)
    diverged, n_done = False, 0
    for it in range(1, baselines.AMP_MAX_ITERS + 1):
        n_done = it
        if np.linalg.norm(Z) <= np.finfo(float).eps * y_norm:
            break
        tau2 = float(np.linalg.norm(Z)) ** 2 / (L * M)
        A_H = A.conj().T
        R = X + A_H @ Z
        r2 = np.sum(np.abs(R) ** 2, axis=1)
        g = gamma / (gamma + tau2)
        c = 1.0 / tau2 - 1.0 / (gamma + tau2)
        logit = log_odds + M * math.log(tau2 / (gamma + tau2)) + c * r2
        pi = np.exp(-np.logaddexp(0.0, -logit))
        X_new = (pi * g)[:, None] * R
        onsager = (M * g * float(np.sum(pi))
                   + g * c * float(np.dot(pi * (1.0 - pi), r2))) / (L * M)
        Z_new = Y - A @ X_new + onsager * Z
        if np.sum(pi) > 0.0:
            gamma = ((g * g * float(np.dot(pi, r2)) + M * g * tau2 * float(np.sum(pi)))
                     / (M * float(np.sum(pi))))
        X_prev = X
        X = damping * X_new + (1.0 - damping) * X
        Z = damping * Z_new + (1.0 - damping) * Z
        if (not np.all(np.isfinite(Z)) or np.linalg.norm(Z) > 1e6 * (y_norm + 1.0)
                or np.linalg.norm(X) > 1e3 * (y_norm + 1.0)):
            diverged = True
            break
        if np.linalg.norm(X - X_prev) <= baselines.AMP_TOL * np.linalg.norm(X_prev):
            break
    X_hat = X.T if not diverged else np.zeros((M, K), dtype=complex)
    return AmpResult(X_hat, n_done, diverged)


def sparse_scene(seed, L, K, M, n_active, noise, mean=0.0):
    rng = np.random.default_rng(seed)
    A = unit_columns(rng, L, K, mean)
    X = np.zeros((M, K), dtype=complex)
    X[:, rng.choice(K, n_active, replace=False)] = crandn(rng, M, n_active)
    return A, Y_of(A, X, noise, rng)


def Y_of(A, X, noise, rng):
    return A @ X.T + noise * crandn(rng, A.shape[0], X.shape[0])


def assert_somp_matches_direct_form(Y, A, factors, max_support, residual_tol):
    got = somp(Y, A, factors, max_support, residual_tol)
    ref = direct_somp(Y, A, max_support, residual_tol)
    assert got.support == ref.support
    np.testing.assert_array_equal(got.X_hat, ref.X_hat)
    return got


def assert_matches_lstsq_somp(Y, A, max_support, residual_tol):
    # on a plain dictionary, passed as its one factor
    got = assert_somp_matches_direct_form(Y, A, (A,), max_support, residual_tol)
    ref = lstsq_somp(Y, A, max_support, residual_tol)
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
    got = assert_matches_lstsq_somp(Y, A, 20, tol)
    assert 1 <= len(got.support) < 20
    assert residual_norm(Y, A, got) <= tol * np.linalg.norm(Y)


@pytest.mark.parametrize("seed", range(4))
def test_somp_matches_lstsq_refit_up_to_support_cap(seed):
    A, Y = sparse_scene(10 + seed, 40, 100, 3, 8, 0.3)
    got = assert_matches_lstsq_somp(Y, A, 25, 0.0)
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
    assert_matches_lstsq_somp(Y, A, K, 0.0)


def test_somp_matches_lstsq_refit_on_duplicated_atom():
    # the duplicate is the last atom left, so both forms must reject it
    rng = np.random.default_rng(30)
    L, M = 12, 3
    A = unit_columns(rng, L, 3)
    A[:, 2] = A[:, 0]
    Y = A[:, :2] @ crandn(rng, 2, M) + 1e-3 * crandn(rng, L, M)
    got = assert_matches_lstsq_somp(Y, A, 3, 0.0)
    # the search stopped below the cap, on the duplicate of atom 0
    assert sorted(got.support) == [0, 1]


@pytest.mark.parametrize("scene, settings, expect", [
    # odd M: (Z^H A)^H rounds unlike A^H Z
    ((48, 100, 3, 5, 0.05), {"AMP_MAX_ITERS": 5}, "cap"),
    ((48, 100, 3, 5, 0.05), {}, "tolerance stop"),
    # noise-free, and no tolerance: only ||Z|| at the roundoff of ||Y|| ends it
    ((64, 80, 4, 4, 0.0), {"AMP_TOL": 0.0, "AMP_MAX_ITERS": 500}, "roundoff stop"),
    # a common component in every column, on which AMP is known to fail
    ((30, 150, 8, 15, 0.1, 2.0), {}, "diverges"),
], ids=["cap", "tolerance stop", "roundoff stop", "diverges"])
def test_amp_matches_plain_form_bit_for_bit(scene, settings, expect, monkeypatch):
    for name, value in settings.items():
        monkeypatch.setattr(baselines, name, value)
    A, Y = sparse_scene(40, *scene)
    p_a = scene[3] / scene[1]
    got, ref = amp_mmv(Y, A, p_a), plain_amp(Y, A, p_a)
    np.testing.assert_array_equal(got.X_hat, ref.X_hat)
    assert (got.n_iters, got.diverged) == (ref.n_iters, ref.diverged)
    assert ref.diverged == (expect == "diverges")
    assert (ref.n_iters == baselines.AMP_MAX_ITERS) == (expect == "cap")


def test_amp_first_iterate_is_the_damped_mixture_posterior_mean(monkeypatch):
    # from X = 0 and Z = Y the pseudo-data is R = A^H Y, tau^2 = ||Y||^2 / (L M)
    # and gamma = ||Y||^2 / (M p_a K); each row's posterior mean under the
    # prior (1 - p_a) delta_0 + p_a CN(0, gamma I) follows from the two CN
    # densities of r_k, CN(0, tau^2 I) and CN(0, (gamma + tau^2) I)
    monkeypatch.setattr(baselines, "AMP_MAX_ITERS", 1)
    A, Y = sparse_scene(41, 48, 100, 3, 5, 0.05)
    L, M = Y.shape
    K, p_a = A.shape[1], 0.05
    R = A.conj().T @ Y
    tau2 = np.linalg.norm(Y) ** 2 / (L * M)
    gamma = np.linalg.norm(Y) ** 2 / (M * p_a * K)

    def log_cn(var):
        return -M * np.log(np.pi * var) - np.sum(np.abs(R) ** 2, axis=1) / var

    log_active = np.log(p_a) + log_cn(gamma + tau2)
    log_inactive = np.log(1.0 - p_a) + log_cn(tau2)
    pi = np.exp(log_active - np.logaddexp(log_active, log_inactive))
    assert pi.min() < 1e-3 and pi.max() > 0.999
    mean = (pi * gamma / (gamma + tau2))[:, None] * R
    res = amp_mmv(Y, A, p_a)
    assert res.n_iters == 1
    np.testing.assert_allclose(res.X_hat, baselines.AMP_DAMPING * mean.T, rtol=1e-12)


@pytest.mark.parametrize("p_a", [0.0, 1.0])
def test_amp_takes_every_activity_probability_the_config_accepts(p_a):
    # a RuntimeWarning from log(p_a / (1 - p_a)) or the sigmoid fails the test
    A, Y = sparse_scene(42, 48, 100, 3, 5, 0.05)
    res = amp_mmv(Y, A, p_a)
    assert not res.diverged and np.all(np.isfinite(res.X_hat))
    assert np.any(res.X_hat != 0) == (p_a == 1.0)


def test_amp_stops_on_noise_free_samples(monkeypatch):
    # L < K and no noise: ||Z|| falls to the roundoff of ||Y||, where tau^2
    # would head for 0 and 1 / tau^2 overflow; with no tolerance, that stop
    # alone ends the run before the cap
    monkeypatch.setattr(baselines, "AMP_TOL", 0.0)
    monkeypatch.setattr(baselines, "AMP_MAX_ITERS", 500)
    A, Y = sparse_scene(43, 40, 100, 4, 4, 0.0)
    res = amp_mmv(Y, A, 0.04)
    assert not res.diverged and res.n_iters < 500
    assert np.linalg.norm(Y - A @ res.X_hat.T) <= 1e-12 * np.linalg.norm(Y)


@pytest.mark.parametrize("seed", range(10))
def test_amp_estimates_on_the_short_preamble_scene(seed):
    # K=500, L=100, 10 dB, trial 0: AMP neither diverges nor returns zeros
    s = trial_scene(500, (10, 10), 10.0, seed)
    res = amp_mmv(s.Y, s.A, 0.1)
    assert not res.diverged and np.any(res.X_hat != 0)


def test_amp_converges_on_the_paper_scene():
    # K=500, L=400, 30 dB, trials 0-2 at master seed 23: AMP stops before
    # its cap, at a mean NMSE of at most 0.0142
    nmses = []
    for trial in range(3):
        s = trial_scene(500, (20, 20), 30.0, 23, trial)
        res = amp_mmv(s.Y, s.A, 0.1)
        assert res.n_iters < baselines.AMP_MAX_ITERS
        nmses.append(nmse(res.X_hat, s.X))
    assert np.mean(nmses) <= 0.0142


def test_amp_reports_an_estimate_that_blows_up_as_diverged(monkeypatch):
    # K=500, L=100, 30 dB without damping, master seeds 0-2, trials 0-2: on
    # four runs X blows up to 2.6e4-6.8e4 ||Y|| while ||Z|| stays under its
    # bound, so a guard on ||Z|| alone would return them at the cap, not
    # diverged, with NMSE 7e8-5e9. The other five converge
    monkeypatch.setattr(baselines, "AMP_DAMPING", 1.0)
    blown = []
    for seed in range(3):
        for trial in range(3):
            s = trial_scene(500, (10, 10), 30.0, seed, trial)
            res = amp_mmv(s.Y, s.A, 0.1)
            if res.diverged:
                blown.append((seed, trial))
                assert not np.any(res.X_hat)
            else:
                assert nmse(res.X_hat, s.X) < 0.02
                assert res.n_iters < baselines.AMP_MAX_ITERS
    assert blown == [(0, 2), (1, 0), (1, 2), (2, 2)]


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
        somp(Y, A, (A,), s, 0.0)
    assert [len(a) for a, _, _ in seen] == [1, 2, 5, 17, 40, 80]
    for R, QhY, coef in seen:
        assert np.array_equal(R, np.triu(R))
        ref = solve_triangular(R, QhY, lower=False)
        assert np.linalg.norm(coef - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("K, dims, snr_db, as_one_factor", [
    (500, (20, 20), 0.0, False),
    (500, (20, 20), 30.0, False),
    (500, (20, 20), 30.0, True),
    (500, (400,), 30.0, False),
    (500, (10, 10), 10.0, False),
    (500, (9, 5, 5), 20.0, False),
    (500, (5, 5, 3, 3), 20.0, False),
    (2000, (20, 20), 30.0, False),
], ids=["L400-0dB", "L400-30dB", "L400-30dB-d1", "L400-30dB-dims400", "L100-10dB", "L225-d3",
        "L225-d4", "K2000-L400-30dB"])
def test_somp_matches_direct_form_bit_for_bit_on_trial_scenes(K, dims, snr_db, as_one_factor):
    # the Gram column from the factors (or from A itself, passed as one
    # factor, and on the single-factor scene of dims (400,)) gives the
    # correlation update of the direct form to roundoff, and the same support
    s = trial_scene(K, dims, snr_db, 0)
    got = assert_somp_matches_direct_form(
        s.Y, s.A, (s.A,) if as_one_factor else s.p, default_max_support(0.1, K),
        baselines.somp_residual_tol(s.Y, s.sigma_n2))
    assert got.support


@pytest.mark.parametrize("dims", [(20, 20), (10, 10)], ids=["L400", "L100"])
def test_somp_holds_no_l_by_k_array(dims):
    # K=500, M=8, L=400 and L=100 at 30 dB: besides the max_support
    # (L + K + max_support + M) entries of Q_H, U, R and Q^H Y, the run
    # holds the K x M correlation and estimate, the K x M rank-1 term with
    # numpy's two ufunc buffers (K x M each, up to 8192 entries), and the
    # L x M residual. So 8 K x M and 2 L x M entries cover the rest, and no
    # L x K temporary (a conjugate copy of A, say) fits. The peaks read
    # 98966 and 73304 entries, against bounds of 112125 and 84825
    K, M = 500, 8
    s = trial_scene(K, dims, 30.0, 0)
    L = s.A.shape[0]
    cap = default_max_support(0.1, K)
    tol = baselines.somp_residual_tol(s.Y, s.sigma_n2)
    tracemalloc.start()
    try:
        res = somp(s.Y, s.A, s.p, cap, tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.support) > cap // 2
    bound = cap * (L + K + cap + M) + 8 * K * M + 2 * L * M
    assert peak < bound * np.dtype(complex).itemsize, peak
