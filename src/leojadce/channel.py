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
# Maclaurin coefficients of the beam-gain kernel in q = -(phi/2)^2, from the
# series of J1 and J3 (Abramowitz & Stegun 9.1.10):
# J1(phi)/(2 phi) + 36 J3(phi)/phi^3 = sum_k c_k q^k,
# c_k = (1/(4 (k+1)!) + 9/(2 (k+3)!)) / k! = ((k+2)(k+3) + 18) / (4 (k+3)! k!),
# each rounded once by the integer division, so c_0 = 1. On the main lobe,
# phi <= HALF_POWER_PHI, |q| < 1.08 and the last term kept (k = 13) is below
# 1.2e-21: the truncation is far below the rounding of the sum.
_GAIN_SERIES = tuple(((k + 2) * (k + 3) + 18) / (4 * math.factorial(k + 3) * math.factorial(k))
                     for k in range(14))

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

    omega: np.ndarray           # receive antenna gain at the device's off-axis angle
    hlos_norm_sq: np.ndarray    # squared LOS norm, drawn uniformly over its range
    v_nlos: np.ndarray          # NLOS variance, drawn uniformly over its range
    hlos_dir: np.ndarray        # M x K unit-norm phase directions

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


def sample_device_geometry(K: int, M: int, rng: np.random.Generator) -> DeviceGeometry:
    """Draw the frozen per-device geometry for a scenario over the ranges
    above. The off-axis angles are the first draw; only their antenna gains
    are kept."""
    theta = rng.uniform(0.0, math.radians(THETA_MAX_DEG), size=K)
    norms = rng.uniform(*HLOS_NORM_SQ_RANGE, size=K)
    v_nlos = rng.uniform(*V_NLOS_RANGE, size=K)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(M, K))
    hlos_dir = np.exp(1j * phases) / math.sqrt(M)  # unit norm per column
    return DeviceGeometry(
        omega=antenna_gain(theta),
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


def sample_rain_db(rng: np.random.Generator, size=None) -> float | np.ndarray:
    """Draw non-positive dB power gains -exp(z) with mean RAIN_MEAN_DB and
    standard deviation RAIN_STD_DB: z is normal with the moment-matched
    (m, s) of that lognormal attenuation."""
    if RAIN_MEAN_DB >= 0:
        raise ValueError("RAIN_MEAN_DB must be negative (attenuation)")
    mean_mag = -RAIN_MEAN_DB
    s2 = math.log1p((RAIN_STD_DB / mean_mag) ** 2)
    m = math.log(mean_mag) - 0.5 * s2
    z = rng.normal(m, math.sqrt(s2), size=size)
    return -np.exp(z)


def antenna_gain(theta_rad: float | np.ndarray) -> float | np.ndarray:
    """Circular-aperture receive gain J1(phi)/(2 phi) + 36 J3(phi)/phi^3
    with phi = HALF_POWER_PHI sin(theta) / sin(theta_3dB), theta_3dB being
    THREE_DB_ANGLE_DEG, so the gain is 2^-1/2 at the 3 dB angle and 1 at
    boresight. (This is phi = pi d f / c * sin(theta) for the dish of
    diameter d whose half-power point sits at theta_3dB.) The gain is
    evaluated on the main lobe only: an angle beyond the 3 dB angle, or a
    NaN, is a ValueError."""
    three_db = math.radians(THREE_DB_ANGLE_DEG)
    theta = np.abs(theta_rad)
    if not np.all(theta <= three_db):
        raise ValueError(f"off-axis angle {math.degrees(np.max(theta)):g} degrees is beyond "
                         f"the 3 dB angle THREE_DB_ANGLE_DEG = {THREE_DB_ANGLE_DEG:g}")
    return _gain_kernel(HALF_POWER_PHI * np.sin(theta) / math.sin(three_db))


def _gain_kernel(phi):
    """J1(phi)/(2 phi) + 36 J3(phi)/phi^3 for 0 <= phi <= HALF_POWER_PHI, by
    Horner's rule on its series (_GAIN_SERIES); a float for a float, else
    an array, whose entries each get the bits they get alone."""
    q = -np.square(0.5 * np.asarray(phi, dtype=float))
    g = _GAIN_SERIES[-1]
    for c in _GAIN_SERIES[-2::-1]:
        g = g * q + c
    return g if np.ndim(phi) else float(g)


def draw_channels(geom: DeviceGeometry, p_a: float, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Draw activity, rain, and small-scale fading for one trial.

    Returns the M x K device-state matrix X at unit transmit power, whose
    column k is device k's conjugated channel if it is active and exactly
    zero if not, and the int8 activity bits. M and K are read from the
    M x K LOS directions of ``geom``. The draw takes the same random
    numbers at any ``p_a``.

    Circular complex Gaussian convention: variance v splits evenly, i.e.
    real and imaginary parts are each N(0, v/2).
    """
    M, K = geom.hlos_dir.shape
    alpha = (rng.random(K) < p_a).astype(np.int8)
    r_db = sample_rain_db(rng, size=K)
    g = large_scale_gain(r_db)

    lam = RICIAN_FACTOR
    los = geom.hlos_dir * np.sqrt(geom.hlos_norm_sq)[None, :]
    nlos = math.sqrt(0.5) * (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K)))
    nlos *= np.sqrt(geom.v_nlos)[None, :]
    H = geom.omega[None, :] * (np.sqrt(lam * g / (lam + 1.0))[None, :] * los
                               + np.sqrt(g / (lam + 1.0))[None, :] * nlos)
    return np.where(alpha == 1, H, 0.0), alpha
