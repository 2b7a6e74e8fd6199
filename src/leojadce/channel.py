"""Ground-truth satellite channel and activity generation.

Per device k the channel is Rician,

    h_k = w_k * ( sqrt(lam*g/(lam+1)) * h_LOS + sqrt(g/(lam+1)) * h_NLOS ),

with w_k the circular-aperture receive-antenna gain at the device's
off-axis angle, g_k the link-budget large-scale power gain (free-space
loss, G/T, rain), h_LOS a fixed unit-modulus phase direction scaled to a
per-device norm, and h_NLOS i.i.d. circular complex Gaussian. Channels are
stored conjugated (as M-column vectors) so that a device-state column is
just activity * sqrt(power) * column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .specfun import bessel_j

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class LinkBudget:
    """Physical link parameters (Ka-band uplink to a LEO satellite)."""

    f_hz: float = 30e9                 # carrier frequency
    d0_m: float = 1000e3               # orbit altitude / slant distance
    bandwidth_hz: float = 25e6
    boltzmann: float = 1.38e-23        # J/K
    g_over_t_db: float = 34.0          # transmit gain to noise temperature, dB/K
    dish_diameter_m: float = 0.0       # 0 -> calibrate from three_db_angle_deg
    three_db_angle_deg: float = 0.4
    rain_mean_db: float = -2.6         # mean dB power gain (negative)
    rain_std_db: float = 1.63

    def __post_init__(self):
        for name in ("f_hz", "d0_m", "bandwidth_hz", "boltzmann",
                     "three_db_angle_deg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.rain_mean_db >= 0:
            raise ValueError("rain_mean_db is the mean dB power gain of rain "
                             "attenuation, must be < 0")
        if self.rain_std_db < 0 or self.dish_diameter_m < 0:
            raise ValueError("rain_std_db and dish_diameter_m must be >= 0")

    def dish_diameter(self) -> float:
        """Configured dish diameter, or the one calibrated so the pattern's
        half-power point sits at the 3 dB angle."""
        if self.dish_diameter_m > 0:
            return self.dish_diameter_m
        return calibrate_dish_diameter(self.f_hz, self.three_db_angle_deg)


@dataclass(frozen=True)
class DeviceGeometry:
    """Slowly-varying per-device quantities, frozen for a whole scenario.
    The arrays are made read-only, so that trials can share one geometry."""

    theta_rad: np.ndarray       # off-axis angle per device
    omega: np.ndarray           # receive antenna gain at theta_rad
    hlos_norm_sq: np.ndarray    # squared LOS norm, drawn U[0.6, 0.7]
    v_nlos: np.ndarray          # NLOS variance, drawn U[0.2, 0.25]
    hlos_dir: np.ndarray        # M x K unit-norm phase directions

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @property
    def K(self) -> int:
        return self.theta_rad.size


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn channel + activity state for all K devices.

    ``H`` columns are the conjugated per-device channels; inactive devices
    still carry a channel (they simply do not transmit).
    """

    H: np.ndarray          # M x K
    alpha: np.ndarray      # activity bit per device
    g: np.ndarray          # large-scale power gain per device


def sample_device_geometry(K: int, M: int, lb: LinkBudget, rng: np.random.Generator, *,
                           theta_max_deg: float = 0.4,
                           hlos_norm_sq_range: tuple[float, float] = (0.6, 0.7),
                           v_nlos_range: tuple[float, float] = (0.2, 0.25)
                           ) -> DeviceGeometry:
    """Draw the frozen per-device geometry for a scenario, with the antenna
    gain of ``lb``'s receive dish at each device's off-axis angle."""
    theta = rng.uniform(0.0, math.radians(theta_max_deg), size=K)
    norms = rng.uniform(*hlos_norm_sq_range, size=K)
    v_nlos = rng.uniform(*v_nlos_range, size=K)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(M, K))
    hlos_dir = np.exp(1j * phases) / math.sqrt(M)  # unit norm per column
    return DeviceGeometry(
        theta_rad=theta,
        omega=antenna_gain(theta, lb),
        hlos_norm_sq=norms,
        v_nlos=v_nlos,
        hlos_dir=hlos_dir,
    )


def large_scale_gain(lb: LinkBudget, r_db: float) -> float:
    """Linear large-scale power gain for a given rain gain r_db <= 0.

    g = (c / (4 pi f d0))^2 * 10^(G/T_dB / 10) / (kappa B) * 10^(r_dB / 10)
    """
    if r_db > 0:
        raise ValueError("rain gain r_db must be <= 0 dB")
    fpl = (SPEED_OF_LIGHT / (4.0 * math.pi * lb.f_hz * lb.d0_m)) ** 2
    budget = 10.0 ** (lb.g_over_t_db / 10.0) / (lb.boltzmann * lb.bandwidth_hz)
    return fpl * budget * 10.0 ** (r_db / 10.0)


def rain_lognormal_params(mu_r_db: float, sigma_r_db: float) -> tuple[float, float]:
    """(m, s) of the normal in z such that -exp(z) has mean mu_r_db and
    standard deviation sigma_r_db (moment-matched lognormal attenuation)."""
    if mu_r_db >= 0:
        raise ValueError("mu_r_db must be negative (attenuation)")
    mean_mag = -mu_r_db
    s2 = math.log1p((sigma_r_db / mean_mag) ** 2)
    m = math.log(mean_mag) - 0.5 * s2
    return m, math.sqrt(s2)


def sample_rain_db(mu_r_db: float, sigma_r_db: float,
                   rng: np.random.Generator, size=None) -> float | np.ndarray:
    """Draw non-positive dB power gains whose mean/std match (mu, sigma)."""
    m, s = rain_lognormal_params(mu_r_db, sigma_r_db)
    z = rng.normal(m, s, size=size)
    return -np.exp(z)


def antenna_gain(theta_rad: float | np.ndarray, lb: LinkBudget) -> float | np.ndarray:
    """Circular-aperture receive gain J1(phi)/(2 phi) + 36 J3(phi)/phi^3,
    phi = pi d_s f / c * sin(theta); continuous limit 1 at boresight."""
    d_s = lb.dish_diameter()
    phi = np.pi * d_s * lb.f_hz / SPEED_OF_LIGHT * np.sin(np.abs(theta_rad))
    return _gain_kernel(phi)


def _gain_kernel(phi):
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    out = np.ones_like(phi_arr)
    nz = phi_arr > 1e-8
    for i in np.nonzero(nz)[0]:
        p = phi_arr[i]
        out[i] = bessel_j(1, p) / (2.0 * p) + 36.0 * bessel_j(3, p) / p**3
    return out if np.ndim(phi) else float(out[0])


def calibrate_dish_diameter(f_hz: float, three_db_angle_deg: float) -> float:
    """Dish diameter putting the half-power point (gain 1/sqrt(2)) of the
    aperture pattern at the given off-axis angle."""
    phi_star = _half_power_phi()
    return phi_star * SPEED_OF_LIGHT / (
        math.pi * f_hz * math.sin(math.radians(three_db_angle_deg)))


@functools.cache
def _half_power_phi() -> float:
    """First phi with _gain_kernel(phi) = 2^-1/2, by bisection."""
    target = 1.0 / math.sqrt(2.0)
    lo, hi = 1e-6, 1.0
    while _gain_kernel(hi) > target:
        hi *= 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gain_kernel(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def draw_channels(lb: LinkBudget, geom: DeviceGeometry, M: int, p_a: float,
                  rician_factor: float, rng: np.random.Generator) -> ChannelRealization:
    """Draw activity, rain, and small-scale fading for one trial.

    Circular complex Gaussian convention: variance v splits evenly, i.e.
    real and imaginary parts are each N(0, v/2).
    """
    K = geom.K
    alpha = (rng.random(K) < p_a).astype(np.int8)
    r_db = sample_rain_db(lb.rain_mean_db, lb.rain_std_db, rng, size=K)
    g = np.array([large_scale_gain(lb, r) for r in r_db])

    lam = rician_factor
    los = geom.hlos_dir * np.sqrt(geom.hlos_norm_sq)[None, :]
    nlos = math.sqrt(0.5) * (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K)))
    nlos *= np.sqrt(geom.v_nlos)[None, :]
    H = geom.omega[None, :] * (np.sqrt(lam * g / (lam + 1.0))[None, :] * los
                               + np.sqrt(g / (lam + 1.0))[None, :] * nlos)
    return ChannelRealization(H=H, alpha=alpha, g=g)


def device_state_matrix(ch: ChannelRealization, xi: float) -> np.ndarray:
    """M x K device-state matrix for transmit power ``xi``; inactive columns
    are exactly zero."""
    X = ch.H * (ch.alpha * math.sqrt(xi))[None, :]
    X[:, ch.alpha == 0] = 0.0  # bitwise-zero, not just scaled-by-zero
    return X
