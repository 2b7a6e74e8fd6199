"""The variational engine against dense-inverse formulas and a scalar
q(mu) oracle, and on a noise-free scene."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import ztrtri

from leojadce import vbi
from leojadce.detection import nmse
from leojadce.signals import gen_preambles, synthesize_received
from leojadce.specfun import SignedLogValue, hyp1f1, ln_gamma_signed, signed_log_sum
from leojadce.tensors import khatri_rao

K, M = 40, 4
WOODBURY, DIRECT = (4, 4), (8, 8)   # L = 16 < K and L = 64 > K


def scene(dims, sigma_n2, seed=0):
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((M, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = rng.standard_normal((M, 4)) + 1j * rng.standard_normal((M, 4))
    return p, X, synthesize_received(p, X, sigma_n2, rng)


def operands(p, Y):
    """What vbi.run forms once per call: G (None on the Woodbury path), KR,
    Y_(d+1) KR^*, Y_(d+1) and ||Y||^2."""
    kr = khatri_rao(p)
    G = None if vbi.woodbury_pays(*kr.shape) else vbi.precompute_gram(p)
    return G, kr, Y.T @ kr.conj(), Y.T, float(np.vdot(Y, Y).real)


def state_with(p, Y, e_beta, e_v, e_mu_inv):
    s = vbi.init_posterior(p, Y, vbi.EngineConfig())
    return dataclasses.replace(s, a_beta=s.b_beta / e_beta, a_v=s.b_v / e_v,
                               E_mu_inv=e_mu_inv)


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
    s = state_with(p, Y, e_beta, e_v, rng.standard_normal(K))
    G = vbi.precompute_gram(p)
    G_path, kr, Ty, Y_mat, y_energy = operands(p, Y)

    C = np.linalg.inv(e_beta * G + np.diag(e_v))
    M_X = (e_beta * Ty + np.ones((M, 1)) * (s.E_mu_inv * e_v)[None, :]) @ C
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
    s = state_with(p, Y, e_beta, -np.ones(K), np.zeros(K))
    with pytest.raises(vbi.EngineError, match="not positive-definite"):
        vbi.update_qX(s, *operands(p, Y)[:4])


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


def scalar_inverse_mean_moments(o, t, eps):
    """Per-device SignedLogValue evaluation of the q(mu) moments, the
    reference that the array form must match bit for bit."""
    g_m = ln_gamma_signed(-eps / 2.0)
    g_a = ln_gamma_signed((1.0 - eps) / 2.0)
    g_b = ln_gamma_signed(1.0 - eps / 2.0)
    g_c = ln_gamma_signed((3.0 - eps) / 2.0)
    e1 = np.empty_like(o)
    e2 = np.empty_like(o)
    for i, (oi, ti) in enumerate(zip(o, t)):
        x = ti * ti / (4.0 * oi)
        hy_m_half = hyp1f1(-eps / 2.0, 0.5, x)
        hy_a_half = hyp1f1((1.0 - eps) / 2.0, 0.5, x)
        hy_a_three = hyp1f1((1.0 - eps) / 2.0, 1.5, x)
        hy_b_half = hyp1f1(1.0 - eps / 2.0, 0.5, x)
        hy_b_three = hyp1f1(1.0 - eps / 2.0, 1.5, x)
        hy_c_three = hyp1f1((3.0 - eps) / 2.0, 1.5, x)
        sq_o = math.sqrt(oi)
        num1 = signed_log_sum([(g_b * hy_b_three).scaled(ti),
                               (g_a * hy_a_half).scaled(sq_o)])
        den1 = signed_log_sum([(g_m * hy_m_half).scaled(oi),
                               (g_a * hy_a_three).scaled(sq_o * ti)])
        num2 = signed_log_sum([(g_b * hy_b_half).scaled(sq_o),
                               (g_c * hy_c_three).scaled(ti)])
        den2 = signed_log_sum([(g_m * hy_m_half).scaled(oi * sq_o),
                               (g_a * hy_a_three).scaled(oi * ti)])
        e1[i] = (num1 / den1).value()
        e2[i] = (num2 / den2).value()
    return e1, e2


def random_qmu_inputs(n, seed):
    """(o, t) with o in 1e-6..1e8, x = t^2 / (4 o) in 1e-8..30 (the power
    series of 1F1) and every tenth x in 30..100 (its Kummer branch), both
    signs of t, and every seventh t exactly zero."""
    rng = np.random.default_rng(seed)
    o = 10.0 ** rng.uniform(-6, 8, n)
    x = 10.0 ** rng.uniform(-8, math.log10(30.0), n)
    x[::10] = rng.uniform(30.0, 100.0, len(x[::10]))
    t = rng.choice([-1.0, 1.0], n) * np.sqrt(4.0 * o * x)
    t[::7] = 0.0
    return o, t


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_inverse_mean_moments_bit_exact_against_scalar_oracle(eps):
    o, t = random_qmu_inputs(300, seed=int(eps * 1e6))
    assert np.any(t * t / (4.0 * o) > 30.0) and np.any(t < 0) and np.any(t == 0)
    e1, e2 = vbi.inverse_mean_moments(o, t, eps)
    r1, r2 = scalar_inverse_mean_moments(o, t, eps)
    np.testing.assert_array_equal(e1, r1)
    np.testing.assert_array_equal(e2, r2)


def test_array_signed_log_matches_scalar_encoding():
    # numpy's SIMD log can differ from libm by an ulp, most often near 1
    # (the max-shifted sums); the array form must round as math.log does
    rng = np.random.default_rng(4)
    c = np.concatenate([10.0 ** rng.uniform(-300, 300, 5000),
                        1.0 + rng.uniform(-1e-3, 1e-3, 5000), [0.0, -0.0]])
    c *= rng.choice([-1.0, 1.0], c.size)
    log_abs, sign = vbi._signed_log(c)
    ref = [SignedLogValue.from_float(ci) for ci in c.tolist()]
    np.testing.assert_array_equal(log_abs, [r.log_abs for r in ref])
    np.testing.assert_array_equal(sign, [r.sign for r in ref])


def test_inverse_mean_moments_rejects_nonpositive_o():
    with pytest.raises(vbi.EngineError, match="strictly positive"):
        vbi.inverse_mean_moments(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1e-6)


def test_inverse_mean_moments_reports_vanishing_denominator(monkeypatch):
    # Hy(-e/2, 1/2, x) and Hy((1-e)/2, 3/2, x) both zero at device 1 only,
    # so both denominators vanish there
    o, t = np.array([2.0, 3.0, 5.0]), np.array([0.5, 1.5, 2.5])
    x_bad = 1.5 * 1.5 / (4.0 * 3.0)
    stacked = vbi._hyp1f1_stacked

    def zero_at_device_1(pairs, x, extra=()):
        log_abs, sign = stacked(pairs, x, extra)
        for j, pair in enumerate(pairs):
            if pair in ((-0.5e-6, 0.5), ((1.0 - 1e-6) / 2.0, 1.5)):
                at = j * len(x) + np.flatnonzero(x == x_bad)
                log_abs[at], sign[at] = -math.inf, 0.0
        return log_abs, sign

    monkeypatch.setattr(vbi, "_hyp1f1_stacked", zero_at_device_1)
    with pytest.raises(vbi.EngineError, match=r"vanishing moment denominator at o=3.0, t=1.5"):
        vbi.inverse_mean_moments(o, t, 1e-6)
