"""Scenario configuration: dataclass, flat key=value file parsing, sweeps.

The config file is a flat, human-readable document whose keys are exactly
the :class:`ScenarioConfig` field names; unknown keys are errors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

KNOWN_ALGOS = ("vbi", "somp", "amp")


class ConfigError(ValueError):
    """Invalid configuration file or sweep specification."""


@dataclass(frozen=True)
class ScenarioConfig:
    """The knobs a sweep axis or the command line sets. The rest of the
    scene is fixed in module constants where it is used: the link budget,
    the device geometry and the Rician factor in :mod:`~leojadce.channel`,
    the engine in :mod:`~leojadce.vbi` (EPS, MAX_ITERS, REL_TOL), AMP in
    :mod:`~leojadce.baselines` (AMP_MAX_ITERS, AMP_DAMPING, AMP_TOL) and the
    detection threshold in :data:`~leojadce.detection.THRESHOLD_RATIO`.

    ``p_a`` is the activity probability of the draw. SOMP reads it for its
    support cap and AMP as its prior activity probability; VBI does not
    read it."""

    K: int = 500
    M: int = 8
    p_a: float = 0.1
    snr_db: float = 10.0
    dims: tuple[int, ...] = (20, 20)
    trials: int = 10
    master_seed: int = 0
    algos: tuple[str, ...] = ("vbi",)

    def __post_init__(self):
        # snr_db = inf is the noise-free scene
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError(f"snr_db must be finite or inf, got {self.snr_db}")
        if not self.dims or any(l < 2 for l in self.dims):
            raise ConfigError(f"dims must have d >= 1 entries, all >= 2: {self.dims}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.K < 1 or self.M < 1:
            raise ConfigError("K and M must be >= 1")
        if not (0.0 <= self.p_a <= 1.0):
            raise ConfigError("p_a must lie in [0, 1]")
        if not self.algos:
            raise ConfigError(f"algos must name at least one of {KNOWN_ALGOS}")
        unknown = set(self.algos) - set(KNOWN_ALGOS)
        if unknown:
            raise ConfigError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algos)) != len(self.algos):
            raise ConfigError(f"algos repeat: {list(self.algos)}")

    @property
    def L(self) -> int:
        return int(np.prod(self.dims))


def _parse_dims(text: str) -> tuple[int, ...]:
    parts = text.replace("x", ",").replace("*", ",").split(",")
    try:
        return tuple(int(p.strip()) for p in parts if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse dims from {text!r}") from exc


def parse_algos(text: str) -> tuple[str, ...]:
    """The names of a comma-separated algorithm list, blanks dropped."""
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _parse(name: str, parse, text: str):
    """``parse`` of the stripped ``text``; a number that does not parse is a
    ConfigError that names ``name``."""
    text = text.strip()
    try:
        return parse(text)
    except ConfigError:
        raise
    except ValueError as exc:
        kind = "number" if parse is float else "integer"
        raise ConfigError(f"{name}: expected {kind}, got {text!r}") from exc


# A config file's keys, which are the ScenarioConfig fields, and the parser of
# each key's value.
_KEYS = {"K": int, "M": int, "p_a": float, "snr_db": float, "dims": _parse_dims,
         "trials": int, "master_seed": int, "algos": parse_algos}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat key = value document. Fails fast on unknown keys."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse(key, _KEYS[key], val)
    try:
        return ScenarioConfig(**values)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ScenarioConfig:
    """Parse the UTF-8 config file at ``path``, after a byte-order mark if it
    starts with one; a file that does not decode is a ConfigError."""
    try:
        # not utf-8-sig: it would count a bad byte's offset from after the mark
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_config(text)


# Factorizations used by the experiments for common preamble lengths.
DEFAULT_FACTORIZATIONS: dict[int, tuple[int, ...]] = {
    400: (20, 20),
    225: (15, 15),
    200: (20, 10),
    100: (10, 10),
    50: (10, 5),
}

# Tensor-order study: the same L = 225 as d = 1 (the unstructured preamble),
# 2, 3 and 4 modes.
ORDER_FACTORIZATIONS_225: dict[int, tuple[int, ...]] = {
    1: (225,),
    2: (15, 15),
    3: (9, 5, 5),
    4: (5, 5, 3, 3),
}


def factorization_for_length(token: str) -> tuple[int, ...]:
    """Resolve an L-axis value: explicit '20x20' or a known total length."""
    if "x" in token or "*" in token:
        return _parse_dims(token)
    L = _parse("L", int, token)
    if L not in DEFAULT_FACTORIZATIONS:
        raise ConfigError(
            f"no default factorization for L={L}; give it explicitly, e.g. '20x{L // 20}'")
    return DEFAULT_FACTORIZATIONS[L]


# Each sweep axis, in the order that error messages list them: the
# ScenarioConfig field it sets and the parser of its values. A d value is
# the tensor order of ORDER_FACTORIZATIONS_225, which apply_axis looks up.
_AXES = {"snr": ("snr_db", float), "L": ("dims", factorization_for_length),
         "p_a": ("p_a", float), "K": ("K", int), "d": ("dims", int), "M": ("M", int)}
SWEEP_AXES = tuple(_AXES)


def apply_axis(cfg: ScenarioConfig, axis: str, value: str) -> ScenarioConfig:
    """Specialize the base config for one sweep-axis value."""
    if axis not in _AXES:
        raise ConfigError(f"unknown axis {axis!r}")
    field, parse = _AXES[axis]
    new = _parse(axis, parse, value)
    if axis == "d":
        if cfg.L != 225:
            raise ConfigError("the tensor-order axis is defined for L = 225 scenarios")
        if new not in ORDER_FACTORIZATIONS_225:
            raise ConfigError(f"no L=225 factorization for d={new}")
        new = ORDER_FACTORIZATIONS_225[new]
    return dataclasses.replace(cfg, **{field: new})


@dataclass(frozen=True)
class SweepSpec:
    """One experiment axis and the list of values to visit.

    Values are kept as canonical strings (see :func:`canonical_value`) so
    that output files and RNG derivation are stable regardless of how
    numbers were spelled; two spellings of one number are one value.
    """

    axis: str
    values: tuple[str, ...]

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; valid: {SWEEP_AXES}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"sweep values repeat: {list(self.values)}")


def canonical_value(v) -> str:
    """Stable string form for an axis value: int-like numbers lose the dot
    ("10.0" and 10 give "10"), other numbers take their float repr, and a
    string that is not a number (a "20x20" factorization, or a malformed
    value that :func:`apply_axis` will reject) is kept as it is."""
    try:
        f = float(v)
    except ValueError:
        return v
    return str(int(f)) if math.isfinite(f) and f == int(f) else repr(f)


def make_sweep(axis: str, values) -> SweepSpec:
    return SweepSpec(axis=axis, values=tuple(canonical_value(v) for v in values))


def parse_sweep(text: str) -> SweepSpec:
    """Parse 'axis=v1,v2,...' as given on the command line."""
    if "=" not in text:
        raise ConfigError(f"sweep must look like axis=v1,v2,..., got {text!r}")
    axis, _, vals = text.partition("=")
    values = [v.strip() for v in vals.split(",") if v.strip()]
    return make_sweep(axis.strip(), values)
