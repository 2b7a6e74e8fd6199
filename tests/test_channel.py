"""Channel generation against closed-form and Monte-Carlo oracles."""

import math

import numpy as np
import pytest

from leojadce import channel
from leojadce.channel import (ChannelRealization, DeviceGeometry, LinkBudget,
                              SPEED_OF_LIGHT, antenna_gain, _gain_kernel,
                              calibrate_dish_diameter, device_state_matrix,
                              draw_channels, large_scale_gain,
                              rain_lognormal_params, sample_device_geometry,
                              sample_rain_db)


def default_budget(**kw):
    return LinkBudget(**kw)


# ---------------------------------------------------------------- large-scale gain

def test_free_space_loss_factor():
    # (c / (4 pi f d0))^2 at 30 GHz, 1000 km
    f, d0 = 30e9, 1000e3
    fpl = (SPEED_OF_LIGHT / (4 * math.pi * f * d0)) ** 2
    assert fpl == pytest.approx(6.3e-19, rel=0.01)
    assert 10 * math.log10(fpl) == pytest.approx(-182.0, abs=0.5)


def test_gain_no_rain_is_exact_budget():
    lb = default_budget()
    g0 = large_scale_gain(lb, 0.0)
    fpl = (SPEED_OF_LIGHT / (4 * math.pi * lb.f_hz * lb.d0_m)) ** 2
    budget = 10 ** (lb.g_over_t_db / 10) / (lb.boltzmann * lb.bandwidth_hz)
    assert g0 == fpl * budget


def test_gain_db_arithmetic():
    lb = default_budget()
    g0 = large_scale_gain(lb, 0.0)
    g3 = large_scale_gain(lb, -3.01)
    assert g3 / g0 == pytest.approx(0.5, rel=1e-3)


def test_gain_rejects_positive_rain():
    with pytest.raises(ValueError):
        large_scale_gain(default_budget(), 0.5)


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
    assert antenna_gain(0.0, default_budget()) == pytest.approx(1.0, abs=1e-9)


def test_antenna_gain_half_power_at_3db_angle():
    lb = default_budget()  # dish calibrated from the 3 dB angle
    w = antenna_gain(math.radians(lb.three_db_angle_deg), lb)
    assert 0.45 <= w**2 <= 0.55


def test_gain_kernel_series_oracle():
    # direct series evaluation of J1(phi)/(2 phi) + 36 J3(phi)/phi^3
    def series(n, x, terms=60):
        return sum((-1.0) ** j / (math.factorial(j) * math.factorial(j + n))
                   * (0.5 * x) ** (2 * j + n) for j in range(terms))

    phi = 5.0
    expected = series(1, phi) / (2 * phi) + 36.0 * series(3, phi) / phi**3
    assert _gain_kernel(phi) == pytest.approx(expected, rel=1e-12)


def test_antenna_gain_even_and_peaked_at_zero():
    lb = default_budget()
    thetas = np.linspace(1e-4, math.radians(0.4), 25)
    plus = np.array([antenna_gain(t, lb) for t in thetas])
    minus = np.array([antenna_gain(-t, lb) for t in thetas])
    np.testing.assert_allclose(plus, minus, rtol=1e-14)
    assert np.all(plus < antenna_gain(0.0, lb))


def test_dish_calibration_is_consistent():
    d = calibrate_dish_diameter(30e9, 0.4)
    lb = default_budget(dish_diameter_m=d)
    w = antenna_gain(math.radians(0.4), lb)
    assert w**2 == pytest.approx(0.5, rel=1e-6)


# ---------------------------------------------------------------- channel draws

def _uniform_geometry(K, M, theta=0.0, lam=8.0, norm_sq=0.65, v=0.225, xi=1.0):
    """All-identical devices: columns of one draw are i.i.d. replicas."""
    direction = np.exp(1j * np.linspace(0.1, 2.0, M)) / math.sqrt(M)
    return DeviceGeometry(
        theta_rad=np.full(K, theta),
        rician=np.full(K, lam),
        hlos_norm_sq=np.full(K, norm_sq),
        v_nlos=np.full(K, v),
        xi=np.full(K, xi),
        hlos_dir=np.tile(direction[:, None], (1, K)),
    )


def test_draw_channels_zero_activity():
    rng = np.random.default_rng(3)
    lb = default_budget()
    geom = sample_device_geometry(50, 4, rng)
    ch = draw_channels(lb, geom, 4, 0.0, rng)
    assert np.all(ch.alpha == 0)
    assert ch.H.shape == (4, 50)


def test_draw_channels_computes_antenna_gain_once_per_geometry(monkeypatch):
    calls = []

    def counting_gain(theta, lb):
        calls.append(lb)
        return antenna_gain(theta, lb)

    monkeypatch.setattr(channel, "antenna_gain", counting_gain)
    rng = np.random.default_rng(6)
    geom = sample_device_geometry(30, 2, rng, theta_max_deg=0.37)  # a fresh geometry
    lb, lb_wide = default_budget(), default_budget(three_db_angle_deg=0.5)
    first = draw_channels(lb, geom, 2, 0.5, rng)
    second = draw_channels(lb, geom, 2, 0.5, rng)
    wide = draw_channels(lb_wide, geom, 2, 0.5, rng)
    assert calls == [lb, lb_wide]
    np.testing.assert_array_equal(first.omega, antenna_gain(geom.theta_rad, lb))
    np.testing.assert_array_equal(second.omega, first.omega)
    np.testing.assert_array_equal(wide.omega, antenna_gain(geom.theta_rad, lb_wide))
    assert not first.omega.flags.writeable


def test_draw_channels_infinite_rician_limit():
    rng = np.random.default_rng(4)
    lb = default_budget(rain_std_db=0.0)
    K, M = 20_000, 4
    geom = _uniform_geometry(K, M, lam=1e12)
    ch = draw_channels(lb, geom, M, 0.5, rng)
    g = ch.g[0]
    expected_mean = ch.omega[0] * math.sqrt(g) * geom.hlos_dir[:, 0] * math.sqrt(0.65)
    sample_mean = np.mean(ch.H, axis=1)
    sample_var = np.var(ch.H, axis=1)
    np.testing.assert_allclose(sample_mean, expected_mean, rtol=1e-5)
    assert np.all(sample_var < 1e-9)


def test_draw_channels_rician_moment_oracle():
    rng = np.random.default_rng(5)
    lb = default_budget(rain_std_db=0.0)  # freeze g so moments are clean
    K, M, lam, v = 100_000, 4, 8.0, 0.225
    geom = _uniform_geometry(K, M, lam=lam, v=v)
    ch = draw_channels(lb, geom, M, 0.5, rng)
    g, w = ch.g[0], ch.omega[0]
    mean_true = w * math.sqrt(lam * g / (lam + 1)) * geom.hlos_dir[:, 0] * math.sqrt(0.65)
    var_true = w**2 * g * v / (lam + 1)
    sample_mean = np.mean(ch.H, axis=1)
    sample_var = np.var(ch.H, axis=1)
    # 3-sigma Monte-Carlo bounds per antenna
    mean_tol = 3 * math.sqrt(var_true / K)
    assert np.all(np.abs(sample_mean - mean_true) < mean_tol)
    var_tol = 3 * var_true * math.sqrt(2.0 / K)
    assert np.all(np.abs(sample_var - var_true) < var_tol)


def test_geometry_sampling_ranges():
    rng = np.random.default_rng(6)
    geom = sample_device_geometry(1000, 4, rng)
    assert np.all((geom.hlos_norm_sq >= 0.6) & (geom.hlos_norm_sq <= 0.7))
    assert np.all((geom.v_nlos >= 0.2) & (geom.v_nlos <= 0.25))
    assert np.all((geom.theta_rad >= 0) & (geom.theta_rad <= math.radians(0.4)))
    np.testing.assert_allclose(np.linalg.norm(geom.hlos_dir, axis=0), 1.0, rtol=1e-12)


# ---------------------------------------------------------------- device state

def _toy_realization(rng, K=6, M=3, alpha=None):
    H = rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))
    if alpha is None:
        alpha = rng.integers(0, 2, K).astype(np.int8)
    return ChannelRealization(H=H, alpha=np.asarray(alpha, dtype=np.int8),
                              g=np.ones(K), omega=np.ones(K))


def test_device_state_all_inactive_is_zero():
    rng = np.random.default_rng(7)
    ch = _toy_realization(rng, alpha=np.zeros(6))
    X = device_state_matrix(ch, np.ones(6))
    assert np.count_nonzero(X) == 0


def test_device_state_single_active_scaling():
    rng = np.random.default_rng(8)
    alpha = np.zeros(6)
    alpha[2] = 1
    ch = _toy_realization(rng, alpha=alpha)
    X = device_state_matrix(ch, np.full(6, 4.0))
    np.testing.assert_allclose(X[:, 2], 2.0 * ch.H[:, 2])


def test_device_state_loop_oracle_and_exact_zeros():
    rng = np.random.default_rng(9)
    ch = _toy_realization(rng)
    xi = rng.uniform(0.5, 2.0, 6)
    X = device_state_matrix(ch, xi)
    for k in range(6):
        if ch.alpha[k]:
            np.testing.assert_allclose(X[:, k], math.sqrt(xi[k]) * ch.H[:, k])
        else:
            # bitwise zero, enabling exact activity accounting
            assert np.all(X[:, k] == 0.0)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(f_hz=-1.0)
    with pytest.raises(ValueError):
        LinkBudget(rain_mean_db=1.0)
