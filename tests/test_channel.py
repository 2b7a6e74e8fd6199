"""Channel generation against closed-form and Monte-Carlo oracles."""

import math

import mpmath
import numpy as np
import pytest

from leojadce import channel
from leojadce.channel import (BANDWIDTH_HZ, BOLTZMANN, D0_M, F_HZ, G_OVER_T_DB,
                              HALF_POWER_PHI, MAX_PHI, RAIN_MEAN_DB, RAIN_STD_DB,
                              SPEED_OF_LIGHT, THREE_DB_ANGLE_DEG, DeviceGeometry,
                              _bessel_j1_j3, _gain_kernel, antenna_gain,
                              draw_channels, large_scale_gain,
                              rain_lognormal_params, sample_device_geometry,
                              sample_rain_db)


# ---------------------------------------------------------------- large-scale gain

def test_free_space_loss_factor():
    # (c / (4 pi f d0))^2 at 30 GHz, 1000 km
    f, d0 = 30e9, 1000e3
    fpl = (SPEED_OF_LIGHT / (4 * math.pi * f * d0)) ** 2
    assert fpl == pytest.approx(6.3e-19, rel=0.01)
    assert 10 * math.log10(fpl) == pytest.approx(-182.0, abs=0.5)


def test_gain_no_rain_is_exact_budget():
    g0 = large_scale_gain(0.0)
    fpl = (SPEED_OF_LIGHT / (4 * math.pi * F_HZ * D0_M)) ** 2
    budget = 10 ** (G_OVER_T_DB / 10) / (BOLTZMANN * BANDWIDTH_HZ)
    assert g0 == fpl * budget


def test_gain_db_arithmetic():
    g0 = large_scale_gain(0.0)
    g3 = large_scale_gain(-3.01)
    assert g3 / g0 == pytest.approx(0.5, rel=1e-3)


def test_gain_of_rain_array_matches_per_draw_loop():
    # numpy's vectorised 10 ** x may differ from the scalar pow by 1 ulp,
    # and the product rounds once more
    r_db = sample_rain_db(RAIN_MEAN_DB, RAIN_STD_DB, np.random.default_rng(10), size=1000)
    fpl = (SPEED_OF_LIGHT / (4.0 * math.pi * F_HZ * D0_M)) ** 2
    budget = 10.0 ** (G_OVER_T_DB / 10.0) / (BOLTZMANN * BANDWIDTH_HZ)
    loop = [fpl * budget * 10.0 ** (float(r) / 10.0) for r in r_db]
    np.testing.assert_allclose(large_scale_gain(r_db), loop,
                               rtol=4 * np.finfo(float).eps, atol=0)


def test_gain_rejects_positive_rain():
    with pytest.raises(ValueError):
        large_scale_gain(0.5)
    with pytest.raises(ValueError):
        large_scale_gain(np.array([-1.0, 0.0, 0.5, -2.0]))


# ---------------------------------------------------------------- rain fading

def test_rain_sigma_zero_limit_is_deterministic():
    rng = np.random.default_rng(0)
    samples = sample_rain_db(-2.6, 0.0, rng, size=100)
    np.testing.assert_allclose(samples, -2.6, rtol=1e-12)


def test_rain_moment_match_monte_carlo():
    rng = np.random.default_rng(1)
    n = 1_000_000
    samples = sample_rain_db(-2.6, 1.63, rng, size=n)
    assert abs(np.mean(samples) - (-2.6)) < 3 * 1.63 / math.sqrt(n)
    assert np.std(samples) == pytest.approx(1.63, rel=0.01)


def test_rain_samples_nonpositive():
    rng = np.random.default_rng(2)
    assert np.all(sample_rain_db(-2.6, 1.63, rng, size=10_000) <= 0)


def test_rain_params_reject_nonnegative_mean():
    with pytest.raises(ValueError):
        rain_lognormal_params(0.0, 1.0)


# ---------------------------------------------------------------- antenna gain

def test_antenna_gain_boresight():
    assert antenna_gain(0.0, 0.4) == pytest.approx(1.0, abs=1e-9)


def test_antenna_gain_half_power_at_3db_angle():
    # phi* is within half an ulp of the kernel's first half-power point,
    # found at 40 digits, and rounds to the published 2.07123
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda p: mpmath.besselj(1, p) / (2 * p) + 36 * mpmath.besselj(3, p) / p**3
            - 1 / mpmath.sqrt(2), 2.07)
        assert abs(HALF_POWER_PHI - root) <= math.ulp(HALF_POWER_PHI) / 2
    assert abs(HALF_POWER_PHI - 2.07123) < 1e-5
    w = antenna_gain(math.radians(0.4), 0.4)
    assert w**2 == pytest.approx(0.5, rel=1e-12)


def test_gain_kernel_series_oracle():
    # direct series evaluation of J1(phi)/(2 phi) + 36 J3(phi)/phi^3
    phi = 5.0
    expected = (_bessel_series_oracle(1, phi) / (2 * phi)
                + 36.0 * _bessel_series_oracle(3, phi) / phi**3)
    assert _gain_kernel(phi) == pytest.approx(expected, rel=1e-12)


def test_antenna_gain_even_and_peaked_at_zero():
    thetas = np.linspace(1e-4, math.radians(0.4), 25)
    plus = np.array([antenna_gain(t, 0.4) for t in thetas])
    minus = np.array([antenna_gain(-t, 0.4) for t in thetas])
    np.testing.assert_allclose(plus, minus, rtol=1e-14)
    assert np.all(plus < antenna_gain(0.0, 0.4))


def test_antenna_gain_is_the_paper_form():
    # phi = phi* sin(theta) / sin(theta_3dB), element by element
    for three_db_deg in (0.2, 0.4, 1.5):
        thetas = np.linspace(0.0, math.radians(3 * three_db_deg), 31)
        expected = [_gain_kernel(HALF_POWER_PHI * math.sin(t)
                                 / math.sin(math.radians(three_db_deg))) for t in thetas]
        np.testing.assert_array_equal(antenna_gain(thetas, three_db_deg), expected)


# ---------------------------------------------------------------- Bessel J1, J3

def _bessel_series_oracle(n, x, terms=60):
    total = 0.0
    for j in range(terms):
        total += (-1.0) ** j / (math.factorial(j) * math.factorial(j + n)) \
            * (0.5 * x) ** (2 * j + n)
    return total


def _scalar_miller(n, x):
    """Miller's downward recurrence for one x, one order at a time: the
    order-by-order reference for the array recurrence."""
    m = int(x + 20 + 10.0 * x ** (1.0 / 3.0))
    if m % 2:
        m += 1
    fp, f = 0.0, 1e-30
    norm = 0.0
    result = 0.0
    for k in range(m, 0, -1):
        fm = (2.0 * k / x) * f - fp
        fp, f = f, fm
        if k - 1 == n:
            result = f
        if (k - 1) % 2 == 0 and k - 1 >= 2:
            norm += 2.0 * f
        if abs(f) > 1e250:
            fp *= 1e-250
            f *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    return result / (norm + f)


def test_antenna_gain_rejects_phi_above_the_bound(monkeypatch):
    # a 3 dB angle of 1e-9 degrees at theta = 0.4 degrees gives phi near
    # 8e8, which the recurrence would take hours over; the bound raises
    # before it starts (the patched recurrence fails if it is reached)
    def no_recurrence(x):
        raise AssertionError("the Bessel recurrence started")

    monkeypatch.setattr(channel, "_bessel_j1_j3", no_recurrence)
    with pytest.raises(ValueError, match="exceeds MAX_PHI"):
        antenna_gain(np.array([0.0, math.radians(0.4)]), 1e-9)
    with pytest.raises(ValueError, match="exceeds MAX_PHI"):
        _gain_kernel(2.0 * MAX_PHI)


def test_gain_kernel_is_one_near_zero():
    # phi <= 1e-8 is the kernel's continuous limit, with no Bessel call
    assert _gain_kernel(0.0) == 1.0
    np.testing.assert_array_equal(_gain_kernel(np.array([0.0, 1e-9, 1e-8])), 1.0)
    j1, j3 = _bessel_j1_j3(np.array([]))
    assert j1.shape == j3.shape == (0,)


def test_bessel_small_x_limits():
    for x in (1e-4, 1e-6, 1e-8):
        j1, j3 = _bessel_j1_j3(np.array([x]))
        assert j1[0] / (2 * x) == pytest.approx(0.25, abs=1e-9)
        assert 36.0 * j3[0] / x**3 == pytest.approx(0.75, abs=1e-8)


def test_bessel_series_oracle_j1_at_one():
    j1, _ = _bessel_j1_j3(np.array([1.0]))
    assert j1[0] == pytest.approx(_bessel_series_oracle(1, 1.0), abs=1e-12)


def test_bessel_recurrence_with_independent_series():
    # J0(x) + J2(x) = (2/x) J1(x), with J0 and J2 from the local series
    xs = np.array([0.5, 1.7, 4.0, 9.0, 11.5])
    j1, _ = _bessel_j1_j3(xs)
    for x, j in zip(xs, j1):
        lhs = _bessel_series_oracle(0, x) + _bessel_series_oracle(2, x)
        assert lhs == pytest.approx(2.0 / x * j, rel=1e-10)


def test_bessel_against_scipy():
    sp = pytest.importorskip("scipy.special")
    xs = np.concatenate([np.geomspace(1e-6, 50.0, 400), [77.7, 150.0, 512.3, 1000.0]])
    j1, j3 = _bessel_j1_j3(xs)
    np.testing.assert_allclose(j1, sp.jv(1, xs), rtol=1e-10, atol=2e-15)
    np.testing.assert_allclose(j3, sp.jv(3, xs), rtol=1e-10, atol=2e-15)


def test_bessel_matches_scalar_miller_above_12():
    # both orders from one pass give each order's own recurrence bit for bit
    xs = np.concatenate([np.linspace(12.01, 50.0, 60), [123.4, 999.9]])
    j1, j3 = _bessel_j1_j3(xs)
    assert [float(v) for v in j1] == [_scalar_miller(1, float(x)) for x in xs]
    assert [float(v) for v in j3] == [_scalar_miller(3, float(x)) for x in xs]


def test_gain_kernel_batch_independent():
    # entries with different start indices and rescalings share one pass,
    # yet each keeps the bits it gets alone
    phi = np.concatenate([np.geomspace(1e-9, 1e3, 200), [0.0, 2.07, 5e3]])
    batch = _gain_kernel(phi)
    assert [float(v) for v in batch] == [_gain_kernel(float(p)) for p in phi]
    np.testing.assert_array_equal(_gain_kernel(phi[::-1]), batch[::-1])


# ---------------------------------------------------------------- channel draws

def _uniform_geometry(K, M, norm_sq=0.65, v=0.225):
    """All-identical devices at boresight (unit antenna gain): columns of
    one draw are i.i.d. replicas."""
    direction = np.exp(1j * np.linspace(0.1, 2.0, M)) / math.sqrt(M)
    return DeviceGeometry(
        theta_rad=np.zeros(K),
        omega=np.ones(K),
        hlos_norm_sq=np.full(K, norm_sq),
        v_nlos=np.full(K, v),
        hlos_dir=np.tile(direction[:, None], (1, K)),
    )


def test_draw_channels_zero_activity():
    rng = np.random.default_rng(3)
    geom = sample_device_geometry(50, 4, rng)
    X, alpha = draw_channels(geom, 4, 0.0, rng)
    assert alpha.dtype == np.int8 and np.all(alpha == 0)
    assert X.shape == (4, 50)


def test_draw_channels_infinite_rician_limit(monkeypatch):
    rng = np.random.default_rng(4)
    monkeypatch.setattr(channel, "RAIN_STD_DB", 0.0)
    monkeypatch.setattr(channel, "RICIAN_FACTOR", 1e12)
    K, M = 20_000, 4
    geom = _uniform_geometry(K, M)
    X, _ = draw_channels(geom, M, 1.0, rng)  # every device active
    g = large_scale_gain(RAIN_MEAN_DB)  # RAIN_STD_DB = 0: rain at its mean
    expected_mean = geom.omega[0] * math.sqrt(g) * geom.hlos_dir[:, 0] * math.sqrt(0.65)
    sample_mean = np.mean(X, axis=1)
    sample_var = np.var(X, axis=1)
    np.testing.assert_allclose(sample_mean, expected_mean, rtol=1e-5)
    assert np.all(sample_var < 1e-9)


def test_draw_channels_rician_moment_oracle(monkeypatch):
    rng = np.random.default_rng(5)
    monkeypatch.setattr(channel, "RAIN_STD_DB", 0.0)  # freeze g so moments are clean
    K, M, lam, v = 100_000, 4, channel.RICIAN_FACTOR, 0.225
    geom = _uniform_geometry(K, M, v=v)
    X, _ = draw_channels(geom, M, 1.0, rng)  # every device active
    g, w = large_scale_gain(RAIN_MEAN_DB), geom.omega[0]
    mean_true = w * math.sqrt(lam * g / (lam + 1)) * geom.hlos_dir[:, 0] * math.sqrt(0.65)
    var_true = w**2 * g * v / (lam + 1)
    sample_mean = np.mean(X, axis=1)
    sample_var = np.var(X, axis=1)
    # 3-sigma Monte-Carlo bounds per antenna
    mean_tol = 3 * math.sqrt(var_true / K)
    assert np.all(np.abs(sample_mean - mean_true) < mean_tol)
    var_tol = 3 * var_true * math.sqrt(2.0 / K)
    assert np.all(np.abs(sample_var - var_true) < var_tol)


def test_geometry_sampling_ranges():
    rng = np.random.default_rng(6)
    geom = sample_device_geometry(1000, 4, rng)
    np.testing.assert_array_equal(geom.omega, antenna_gain(geom.theta_rad, THREE_DB_ANGLE_DEG))
    assert np.all((geom.hlos_norm_sq >= 0.6) & (geom.hlos_norm_sq <= 0.7))
    assert np.all((geom.v_nlos >= 0.2) & (geom.v_nlos <= 0.25))
    assert np.all((geom.theta_rad >= 0) & (geom.theta_rad <= math.radians(0.4)))
    np.testing.assert_allclose(np.linalg.norm(geom.hlos_dir, axis=0), 1.0, rtol=1e-12)


# ---------------------------------------------------------------- device state

def _draws(seed, p_a, K=12, M=3):
    """``draw_channels`` at ``p_a``, and at p_a = 1 from the same seed: the
    draw takes the same random numbers at any p_a, so the second X holds
    every device's channel. Returns (X, alpha, H)."""
    geom = sample_device_geometry(K, M, np.random.default_rng(seed))
    X, alpha = draw_channels(geom, M, p_a, np.random.default_rng([seed, 1]))
    H, every = draw_channels(geom, M, 1.0, np.random.default_rng([seed, 1]))
    assert np.all(every == 1) and np.count_nonzero(H) == H.size
    return X, alpha, H


def test_device_state_all_inactive_is_zero():
    X, alpha, _ = _draws(7, 0.0)
    assert np.all(alpha == 0)
    assert np.count_nonzero(X) == 0


def test_device_state_single_active_scaling():
    # the activity bits are the first K uniforms of the draw: a p_a between
    # the smallest two makes exactly one device active
    K = 12
    u = np.sort(np.random.default_rng([8, 1]).random(K))
    X, alpha, H = _draws(8, 0.5 * (u[0] + u[1]), K=K)
    (k,) = np.flatnonzero(alpha)
    np.testing.assert_array_equal(X[:, k], H[:, k])
    assert np.count_nonzero(X[:, np.arange(K) != k]) == 0


def test_device_state_loop_oracle_and_exact_zeros():
    X, alpha, H = _draws(9, 0.5)
    assert 0 < np.count_nonzero(alpha) < alpha.size
    for k in range(alpha.size):
        if alpha[k]:
            np.testing.assert_array_equal(X[:, k], H[:, k])
        else:
            # bitwise zero, enabling exact activity accounting
            assert np.all(X[:, k] == 0.0)

