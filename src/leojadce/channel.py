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

import math
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
BOLTZMANN = 1.38e-23             # J/K
# first half-power point of the beam-gain kernel: _gain_kernel(phi) = 2^-1/2
# (the correctly rounded root, 2.07123117842185782...)
HALF_POWER_PHI = 2.0712311784218578
# largest beam-gain argument phi taken: the Miller recurrence of
# _bessel_j1_j3 runs about phi steps (0.1 s for 500 devices at 1e4), and
# the fixed scene stays below HALF_POWER_PHI (theta <= the 3 dB angle)
MAX_PHI = 1e4

# The device population of every scenario: off-axis angles uniform on
# [0, THETA_MAX_DEG], squared LOS norms and NLOS variances uniform over
# their ranges, and one Rician (LOS-to-NLOS power) factor for all channels.
THETA_MAX_DEG = 0.4
HLOS_NORM_SQ_RANGE = (0.6, 0.7)
V_NLOS_RANGE = (0.2, 0.25)
RICIAN_FACTOR = 8.0

# The link budget (Ka-band uplink to a LEO satellite).
F_HZ = 30e9                 # carrier frequency
D0_M = 1000e3               # orbit altitude / slant distance
BANDWIDTH_HZ = 25e6
G_OVER_T_DB = 34.0          # transmit gain to noise temperature, dB/K
THREE_DB_ANGLE_DEG = 0.4    # half-power off-axis angle of the receive beam
RAIN_MEAN_DB = -2.6         # mean dB power gain of rain attenuation (negative)
RAIN_STD_DB = 1.63


@dataclass(frozen=True)
class DeviceGeometry:
    """Slowly-varying per-device quantities, frozen for a whole scenario.
    The arrays are made read-only, so that trials can share one geometry."""

    theta_rad: np.ndarray       # off-axis angle per device
    omega: np.ndarray           # receive antenna gain at theta_rad
    hlos_norm_sq: np.ndarray    # squared LOS norm, drawn uniformly over its range
    v_nlos: np.ndarray          # NLOS variance, drawn uniformly over its range
    hlos_dir: np.ndarray        # M x K unit-norm phase directions

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @property
    def K(self) -> int:
        return self.theta_rad.size


def sample_device_geometry(K: int, M: int, rng: np.random.Generator) -> DeviceGeometry:
    """Draw the frozen per-device geometry for a scenario over the ranges
    above, with the antenna gain of the THREE_DB_ANGLE_DEG receive beam at
    each device's off-axis angle."""
    theta = rng.uniform(0.0, math.radians(THETA_MAX_DEG), size=K)
    norms = rng.uniform(*HLOS_NORM_SQ_RANGE, size=K)
    v_nlos = rng.uniform(*V_NLOS_RANGE, size=K)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(M, K))
    hlos_dir = np.exp(1j * phases) / math.sqrt(M)  # unit norm per column
    return DeviceGeometry(
        theta_rad=theta,
        omega=antenna_gain(theta, THREE_DB_ANGLE_DEG),
        hlos_norm_sq=norms,
        v_nlos=v_nlos,
        hlos_dir=hlos_dir,
    )


def large_scale_gain(r_db: np.ndarray) -> np.ndarray:
    """Linear large-scale power gain for each rain gain in r_db <= 0.

    g = (c / (4 pi f d0))^2 * 10^(G/T_dB / 10) / (kappa B) * 10^(r_dB / 10)
    """
    r_db = np.asarray(r_db, dtype=float)
    if np.any(r_db > 0):
        raise ValueError("rain gains r_db must be <= 0 dB")
    fpl = (SPEED_OF_LIGHT / (4.0 * math.pi * F_HZ * D0_M)) ** 2
    budget = 10.0 ** (G_OVER_T_DB / 10.0) / (BOLTZMANN * BANDWIDTH_HZ)
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


def antenna_gain(theta_rad: float | np.ndarray,
                 three_db_angle_deg: float) -> float | np.ndarray:
    """Circular-aperture receive gain J1(phi)/(2 phi) + 36 J3(phi)/phi^3
    with phi = HALF_POWER_PHI sin(theta) / sin(theta_3dB), so the gain is
    2^-1/2 at the 3 dB angle; continuous limit 1 at boresight. (This is
    phi = pi d f / c * sin(theta) for the dish of diameter d whose
    half-power point sits at theta_3dB.) A phi above MAX_PHI, an angle
    more than about 4800 times the 3 dB angle, is a ValueError."""
    return _gain_kernel(HALF_POWER_PHI * np.sin(np.abs(theta_rad))
                        / math.sin(math.radians(three_db_angle_deg)))


def _gain_kernel(phi):
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    if np.any(phi_arr > MAX_PHI):
        raise ValueError(f"beam-gain argument phi = {np.max(phi_arr):g} exceeds "
                         f"MAX_PHI = {MAX_PHI:g}: the 3 dB angle is too small "
                         "for the off-axis angles")
    out = np.ones_like(phi_arr)
    nz = phi_arr > 1e-8
    p = phi_arr[nz]
    j1, j3 = _bessel_j1_j3(p)
    out[nz] = j1 / (2.0 * p) + 36.0 * j3 / p**3
    return out if np.ndim(phi) else float(out[0])


def _bessel_j1_j3(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J1(x) and J3(x) for a 1-d array of x >= 1e-8, by Miller's downward
    recurrence J_(k-1) = (2k/x) J_k - J_(k+1), normalised by
    J0 + 2 (J2 + J4 + ...) = 1.

    Entry i starts from J_(m+1) = 0, J_m = 1e-30 at its own even
    m >= x_i + 20 + 10 x_i^(1/3) and stays exactly 0 before that, so each
    entry gets the same bits as when computed alone. No iterate exceeds
    3e154 for x >= 1e-8, so none needs rescaling."""
    start = (x + 20.0 + 10.0 * x ** (1.0 / 3.0)).astype(int)
    start += start % 2
    fp, f, norm, j1, j3 = (np.zeros_like(x) for _ in range(5))
    for k in range(int(start.max(initial=0)), 0, -1):
        f[start == k] = 1e-30
        fp, f = f, (2.0 * k / x) * f - fp
        # f is now J_(k-1), up to the common scale
        if k % 2 and k > 1:
            norm += 2.0 * f
        elif k == 2:
            j1 = f
        elif k == 4:
            j3 = f
    norm += f
    return j1 / norm, j3 / norm


def draw_channels(geom: DeviceGeometry, M: int, p_a: float, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Draw activity, rain, and small-scale fading for one trial.

    Returns the M x K device-state matrix X at unit transmit power, whose
    column k is device k's conjugated channel if it is active and exactly
    zero if not, and the int8 activity bits. The draw takes the same random
    numbers at any ``p_a``.

    Circular complex Gaussian convention: variance v splits evenly, i.e.
    real and imaginary parts are each N(0, v/2).
    """
    K = geom.K
    alpha = (rng.random(K) < p_a).astype(np.int8)
    r_db = sample_rain_db(RAIN_MEAN_DB, RAIN_STD_DB, rng, size=K)
    g = large_scale_gain(r_db)

    lam = RICIAN_FACTOR
    los = geom.hlos_dir * np.sqrt(geom.hlos_norm_sq)[None, :]
    nlos = math.sqrt(0.5) * (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K)))
    nlos *= np.sqrt(geom.v_nlos)[None, :]
    H = geom.omega[None, :] * (np.sqrt(lam * g / (lam + 1.0))[None, :] * los
                               + np.sqrt(g / (lam + 1.0))[None, :] * nlos)
    return np.where(alpha == 1, H, 0.0), alpha
