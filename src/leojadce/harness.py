"""Seeded Monte-Carlo sweeps, aggregation, and CSV emission.

Reproducibility contract: every number a trial produces is a deterministic
function of (master seed, axis name, axis value, trial index). Trials use
a counter-based Philox stream keyed by a stable hash of that tuple, so
adding trials or axis values never perturbs existing ones, and trials can
run in any order or in parallel. Device geometry (positions, LOS
directions, per-device variances, antenna gains) is frozen per scenario
from a separate stream and cached per configuration, so a process draws it
once per configuration; preambles, activity, rain, fading, and noise are
redrawn per trial.

All three algorithms read the same samples Y = A X^T + N and the same A,
formed once per trial, and are scored against the same M x K states X.

Wall-clock timings are never written into trials.csv (its bytes must be
identical across reruns); they go to a sidecar timings.csv. Why a trial
failed goes to a sidecar failures.csv, one row per failed trial.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, detection, vbi
from .channel import DeviceGeometry, draw_channels, sample_device_geometry
from .config import ScenarioConfig, SweepSpec, apply_axis
from .signals import (assemble_preamble_matrix, gen_preambles, snr_to_noise_variance,
                      synthesize_received)

TRIALS_HEADER = ["axis", "value", "algorithm", "trial", "pe", "nmse", "nmse_active", "iters"]
SUMMARY_HEADER = ["axis", "value", "algorithm", "n",
                  "pe_mean", "pe_std", "pe_ci95",
                  "nmse_mean", "nmse_std", "nmse_ci95",
                  "nmse_active_mean", "iters_mean"]
TIMINGS_HEADER = ["axis", "value", "algorithm", "trial", "wall_ms"]
TRACE_HEADER = ["trial", "iteration", "residual", "max_col_energy", "n_active",
                "e_beta"]
FAILURES_HEADER = ["axis", "value", "algorithm", "trial", "error"]


@dataclass(frozen=True)
class TrialRecord:
    axis: str
    value: str
    algorithm: str
    trial: int
    pe: float
    nmse: float
    nmse_active: float
    iters: int
    wall_ms: float
    failed: bool = False
    error: str = ""          # "ExceptionType: message" of a failed trial


def _stable_seed(*parts) -> int:
    digest = hashlib.blake2s("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def trial_rng(master_seed: int, axis: str, value: str, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_stable_seed(master_seed, axis, value, trial)))


def geometry_rng(cfg: ScenarioConfig) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        _stable_seed(cfg.master_seed, "geometry", cfg.K, cfg.M)))


@functools.lru_cache
def scenario_geometry(cfg: ScenarioConfig) -> DeviceGeometry:
    """The frozen device geometry of ``cfg``'s scenario, drawn once per
    configuration; its arrays are read-only because every trial shares them."""
    return sample_device_geometry(cfg.K, cfg.M, geometry_rng(cfg))


def run_trial(cfg: ScenarioConfig, axis: str, value: str, trial: int
              ) -> tuple[list[TrialRecord], list[tuple]]:
    """Run every requested algorithm on one synthesized scene; returns its
    records and VBI's per-iteration trace rows, each led by the trial index."""
    rng = trial_rng(cfg.master_seed, axis, value, trial)
    preambles = gen_preambles(cfg.dims, cfg.K, rng)
    A = assemble_preamble_matrix(preambles)
    geom = scenario_geometry(cfg)
    X_true, alpha = draw_channels(geom, cfg.p_a, rng)
    sigma_n2 = snr_to_noise_variance(cfg.snr_db)
    Y = synthesize_received(A, X_true, sigma_n2, rng)
    have_active = bool(np.any(alpha == 1))

    records: list[TrialRecord] = []
    trace_rows: list[tuple] = []
    for algo in cfg.algos:
        t0 = time.perf_counter()
        try:
            if algo == "vbi":
                result = vbi.run(preambles, A, Y)
                x_hat = result.M_X
                alpha_hat = detection.detect(x_hat)
                iters = result.n_iters
                trace_rows.extend((trial, *row) for row in result.trace)
            elif algo == "somp":
                sres = baselines.somp(Y, A, preambles,
                                      baselines.default_max_support(cfg.p_a, cfg.K),
                                      baselines.somp_residual_tol(Y, sigma_n2))
                x_hat = sres.X_hat
                alpha_hat = np.zeros(cfg.K, dtype=np.int8)
                alpha_hat[sres.support] = 1
                iters = len(sres.support)
            elif algo == "amp":
                ares = baselines.amp_mmv(Y, A, cfg.p_a)
                x_hat = ares.X_hat
                alpha_hat = detection.detect(x_hat)
                iters = ares.n_iters
            else:
                raise ValueError(f"unknown algorithm {algo!r}")
            wall_ms = (time.perf_counter() - t0) * 1000.0
            pe = detection.error_probability(alpha_hat, alpha)
            nm = detection.nmse(x_hat, X_true) if have_active else math.nan
            nma = (detection.nmse_active(x_hat, X_true, alpha)
                   if have_active else math.nan)
            records.append(TrialRecord(axis, value, algo, trial, pe, nm, nma,
                                       iters, wall_ms))
        except Exception as exc:  # noqa: BLE001 - a failed trial must not kill the sweep
            wall_ms = (time.perf_counter() - t0) * 1000.0
            records.append(TrialRecord(axis, value, algo, trial,
                                       math.nan, math.nan, math.nan, 0,
                                       wall_ms, failed=True,
                                       error=f"{type(exc).__name__}: {exc}"))
    return records, trace_rows


def _trial_task(args):
    return run_trial(*args)


def run_sweep(cfg: ScenarioConfig, sweep: SweepSpec, workers: int = 1
              ) -> tuple[list[TrialRecord], dict[str, list[tuple]]]:
    """All (axis value, trial) combinations; canonical output order. The
    trace rows of each axis value come back with the records."""
    tasks = []
    for value in sweep.values:
        cfg_v = apply_axis(cfg, sweep.axis, value)
        for trial in range(cfg.trials):
            tasks.append((cfg_v, sweep.axis, value, trial))
    # the pool starts all its workers at once: no more than there are trials
    workers = min(workers, len(tasks))
    if workers > 1:
        # a one-worker sweep never loads the pool and multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_trial_task, tasks, chunksize=1))
    else:
        outputs = [_trial_task(t) for t in tasks]
    records: list[TrialRecord] = []
    traces: dict[str, list[tuple]] = {v: [] for v in sweep.values}
    for (_, _, value, _), (recs, rows) in zip(tasks, outputs):
        records.extend(recs)
        traces[value].extend(rows)
    records.sort(key=lambda r: (r.axis, sweep.values.index(r.value), r.algorithm, r.trial))
    return records, traces


def _mean_std_ci(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        return math.nan, math.nan, math.nan
    mean = float(np.mean(arr))
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    ci = 1.96 * std / math.sqrt(arr.size)
    return mean, std, ci


def aggregate(records: list[TrialRecord]) -> list[list]:
    """One ``SUMMARY_HEADER`` row per (axis value, algorithm), in the order
    the groups first appear: the trial count, then the mean, standard
    deviation and 95% CI of pe and nmse, the mean nmse_active, and the mean
    iteration count of the trials that did not fail. Means skip NaN."""
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[tuple[str, str, str], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.axis, r.value, r.algorithm), []).append(r)
    rows = []
    for key, grp in groups.items():
        pe = _mean_std_ci([r.pe for r in grp])
        nm = _mean_std_ci([r.nmse for r in grp])
        nma_m, _, _ = _mean_std_ci([r.nmse_active for r in grp])
        it_m, _, _ = _mean_std_ci([float(r.iters) for r in grp if not r.failed])
        rows.append([*key, len(grp), *map(_fmt, (*pe, *nm, nma_m, it_m))])
    return rows


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_outputs(out_dir: str | Path, sweep: SweepSpec,
                  records: list[TrialRecord],
                  traces: dict[str, list[tuple]] | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trials.csv", TRIALS_HEADER,
               ([r.axis, r.value, r.algorithm, r.trial,
                 _fmt(r.pe), _fmt(r.nmse), _fmt(r.nmse_active), r.iters] for r in records))
    _write_csv(out / "timings.csv", TIMINGS_HEADER,
               ([r.axis, r.value, r.algorithm, r.trial, f"{r.wall_ms:.3f}"] for r in records))
    _write_csv(out / "failures.csv", FAILURES_HEADER,
               ([r.axis, r.value, r.algorithm, r.trial, r.error] for r in records if r.failed))
    _write_csv(out / "summary.csv", SUMMARY_HEADER, aggregate(records))
    if traces:
        for value, rows in traces.items():
            if rows:
                _write_csv(out / f"trace_{sweep.axis}_{value}.csv", TRACE_HEADER,
                           ([trial, it, _fmt(resid), _fmt(max_col), n_active, _fmt(e_beta)]
                            for trial, it, resid, max_col, n_active, e_beta in rows))
