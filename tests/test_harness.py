"""How the experiment harness feeds and scores the algorithms, and its
reproducibility contract."""

import concurrent.futures
import csv
import dataclasses
import math
import statistics

import numpy as np
import pytest

from leojadce import baselines, channel, harness, signals, tensors, vbi
from leojadce.config import ScenarioConfig, make_sweep
from leojadce.harness import (SUMMARY_HEADER, TRACE_HEADER, TRIALS_HEADER, run_sweep,
                              run_trial, write_outputs)


def test_baselines_scored_against_true_device_states():
    # At 60 dB both baselines recover X; a conjugation slip between the
    # samples' A X^T form and the baselines' reading of them shows up as an
    # NMSE near or above 1, and an activity rule that counts every nonzero
    # column as active shows up as a large Pe.
    cfg = ScenarioConfig(K=100, M=4, dims=(10, 10), snr_db=60.0,
                         algos=("somp", "amp"), trials=1)
    records, _ = run_trial(cfg, "snr", "60", 0)
    assert [r.algorithm for r in records] == ["somp", "amp"]
    for r in records:
        assert not r.failed, r.algorithm
        assert r.nmse < 1e-3, (r.algorithm, r.nmse)
        assert r.pe < 0.05, (r.algorithm, r.pe)


def test_noise_free_scene_recovered_by_every_algorithm():
    # one scene, one X_true: all three algorithms are scored against it
    cfg = ScenarioConfig(K=100, M=4, dims=(10, 10), snr_db=150.0,
                         algos=("vbi", "somp", "amp"), trials=1)
    records, _ = run_trial(cfg, "snr", "150", 0)
    assert [r.algorithm for r in records] == ["vbi", "somp", "amp"]
    for r in records:
        assert not r.failed, (r.algorithm, r.error)
        assert r.nmse < 1e-6, (r.algorithm, r.nmse)


def test_noise_free_sweep_over_tensor_order():
    # the d axis splits L = 225 into 2, 3 and 4 modes; VBI and AMP recover
    # X from the noise-free samples at every order
    cfg = ScenarioConfig(K=40, M=4, dims=(15, 15), snr_db=float("inf"),
                         algos=("vbi", "somp", "amp"), trials=2)
    records, _ = run_sweep(cfg, make_sweep("d", [2, 3, 4]))
    assert len(records) == 3 * 3 * 2
    for r in records:
        assert not r.failed, (r.value, r.algorithm, r.error)
        if r.algorithm != "somp":
            assert r.nmse < 1e-6, (r.value, r.algorithm, r.nmse)


TINY = ScenarioConfig(K=40, M=4, dims=(4, 4), algos=("vbi", "somp", "amp"), trials=2)
TINY_SWEEP = make_sweep("snr", [10, 30])


def trials_csv(tmp_path, name, cfg=TINY, workers=1):
    records, traces = run_sweep(cfg, TINY_SWEEP, workers=workers)
    write_outputs(tmp_path / name, TINY_SWEEP, records, traces)
    return (tmp_path / name / "trials.csv").read_bytes()


def test_trials_csv_identical_across_reruns_and_worker_counts(tmp_path):
    serial = trials_csv(tmp_path, "a")
    assert trials_csv(tmp_path, "b") == serial
    assert trials_csv(tmp_path, "c", workers=2) == serial


def test_pool_has_no_more_workers_than_trials(monkeypatch):
    # the pool starts all its workers at once, so 64 requested workers for
    # a two-trial sweep must not fork 64 processes; the fake pool records
    # its size and runs the tasks inline
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = dataclasses.replace(TINY, algos=("somp",), trials=1)
    serial, _ = run_sweep(cfg, TINY_SWEEP)
    pooled, _ = run_sweep(cfg, TINY_SWEEP, workers=64)
    assert sizes == [2]
    assert [(r.value, r.pe, r.nmse) for r in pooled] == [(r.value, r.pe, r.nmse) for r in serial]


def test_adding_trials_keeps_existing_rows(tmp_path):
    two = trials_csv(tmp_path, "two").decode().splitlines()
    three = trials_csv(tmp_path, "three",
                       cfg=dataclasses.replace(TINY, trials=3)).decode().splitlines()
    kept = [row for row in three[1:] if row.split(",")[3] != "2"]
    assert three[0] == two[0]
    assert kept == two[1:]
    assert len(three) - 1 == 3 * len(TINY_SWEEP.values) * len(TINY.algos)


def test_failed_trial_reason_goes_to_failures_csv(tmp_path, monkeypatch):
    def failing_run(*args, **kwargs):
        raise vbi.EngineError("negative expected residual F=-1.0")

    monkeypatch.setattr(vbi, "run", failing_run)
    cfg = dataclasses.replace(TINY, algos=("vbi", "somp"), trials=1)
    sweep = make_sweep("snr", [10])
    records, traces = run_sweep(cfg, sweep)
    failed = [r for r in records if r.failed]
    assert [r.algorithm for r in failed] == ["vbi"]
    assert failed[0].error == "EngineError: negative expected residual F=-1.0"
    assert [r.error for r in records if not r.failed] == [""]

    write_outputs(tmp_path, sweep, records, traces)
    with open(tmp_path / "failures.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["axis", "value", "algorithm", "trial", "error"],
                    ["snr", "10", "vbi", "0",
                     "EngineError: negative expected residual F=-1.0"]]
    with open(tmp_path / "trials.csv", newline="", encoding="utf-8") as fh:
        trials = list(csv.reader(fh))
    assert trials[0] == TRIALS_HEADER
    assert all(len(row) == len(TRIALS_HEADER) for row in trials)
    assert ["snr", "10", "vbi", "0", "nan", "nan", "nan", "0"] in trials


def _summary_stats(values):
    """(mean, std, ci95) over the values that are not NaN: std with ddof = 1,
    and 0 for a single value."""
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        return math.nan, math.nan, math.nan
    std = statistics.stdev(kept) if len(kept) > 1 else 0.0
    return statistics.fmean(kept), std, 1.96 * std / math.sqrt(len(kept))


def test_summary_csv_recomputed_from_trials_csv(tmp_path, monkeypatch):
    # the scene of the failures test, over two SNR values and two trials,
    # with VBI failing on its first trial only: the (10, vbi) group then
    # holds one failed trial and one value, every other group two values
    real_run, calls = vbi.run, []

    def failing_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise vbi.EngineError("negative expected residual F=-1.0")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(vbi, "run", failing_first)
    cfg = dataclasses.replace(TINY, algos=("vbi", "somp"))
    records, traces = run_sweep(cfg, TINY_SWEEP)
    write_outputs(tmp_path, TINY_SWEEP, records, traces)

    def read(name):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    trials, summary, failures = read("trials.csv"), read("summary.csv"), read("failures.csv")
    failed = {tuple(row[:4]) for row in failures[1:]}
    assert failed == {("snr", "10", "vbi", "0")}
    groups = {}
    for row in trials[1:]:
        groups.setdefault(tuple(row[:3]), []).append(row)
    assert summary[0] == SUMMARY_HEADER
    assert [tuple(row[:3]) for row in summary[1:]] == list(groups)
    for row in summary[1:]:
        grp = groups[tuple(row[:3])]
        col = {name: [float(r[TRIALS_HEADER.index(name)]) for r in grp]
               for name in ("pe", "nmse", "nmse_active")}
        iters_ok = [float(r[TRIALS_HEADER.index("iters")]) for r in grp
                    if tuple(r[:4]) not in failed]
        expected = [*_summary_stats(col["pe"]), *_summary_stats(col["nmse"]),
                    _summary_stats(col["nmse_active"])[0], _summary_stats(iters_ok)[0]]
        assert int(row[3]) == len(grp)
        got = [float(x) for x in row[4:]]
        assert len(got) == len(expected)
        for name, g, e in zip(SUMMARY_HEADER[4:], got, expected):
            if math.isnan(e):
                assert math.isnan(g), (row[:3], name)
            else:
                assert g == pytest.approx(e, rel=1e-12, abs=0.0), (row[:3], name)
    one_value = next(row for row in summary[1:] if row[1:3] == ["10", "vbi"])
    assert one_value[3] == "2"
    assert one_value[SUMMARY_HEADER.index("pe_std")] == "0.0"
    assert one_value[SUMMARY_HEADER.index("pe_ci95")] == "0.0"


def test_traces_hold_one_row_per_iteration_and_leave_trials_csv_alone(tmp_path):
    records, traces = run_sweep(TINY, TINY_SWEEP)
    write_outputs(tmp_path / "traced", TINY_SWEEP, records, traces)
    assert (tmp_path / "traced" / "trials.csv").read_bytes() == trials_csv(tmp_path, "plain")
    for value in TINY_SWEEP.values:
        with open(tmp_path / "traced" / f"trace_snr_{value}.csv", newline="",
                  encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == TRACE_HEADER
        assert header[4:] == ["n_active", "e_beta"]
        for r in records:
            if r.value != value or r.algorithm != "vbi":
                continue
            mine = [row for row in rows if row[0] == str(r.trial)]
            assert [int(row[1]) for row in mine] == list(range(1, r.iters + 1))
            n_active = [int(row[4]) for row in mine]
            assert n_active[0] == TINY.K
            assert n_active == sorted(n_active, reverse=True)
            # E[beta] = (L M + eps) / (F + eps), from the residual F beside it
            for row in mine:
                e_beta = (TINY.L * TINY.M + 1e-6) / (float(row[2]) + 1e-6)
                assert float(row[5]) == pytest.approx(e_beta, rel=1e-12)


@pytest.mark.parametrize("dims", [(4, 4), (8, 8), (16,)], ids=["L16", "direct", "L16-d1"])
def test_trial_forms_the_preamble_matrix_once(monkeypatch, dims):
    # synthesis, VBI (at L < K and L > K), SOMP and AMP read one A, also
    # the unstructured preamble of a single factor (d = 1)
    formed = []

    def counting(mats):
        formed.append(len(mats))
        return tensors.khatri_rao(mats)

    for module in (signals, vbi):
        monkeypatch.setattr(module, "khatri_rao", counting)
    cfg = dataclasses.replace(TINY, dims=dims)
    records, _ = run_trial(cfg, "snr", "10", 0)
    assert [r.algorithm for r in records] == ["vbi", "somp", "amp"]
    assert not any(r.failed for r in records), [r.error for r in records]
    assert formed == [len(dims)]


def test_geometry_drawn_once_per_configuration(monkeypatch):
    # the frozen geometry, antenna gain included, is drawn by the first
    # trial of a configuration and shared, read-only, by the rest
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(channel, "antenna_gain", counting(channel.antenna_gain))
    monkeypatch.setattr(harness, "sample_device_geometry",
                        counting(harness.sample_device_geometry))
    harness.scenario_geometry.cache_clear()
    cfg = dataclasses.replace(TINY, algos=("somp",))
    for trial in range(2):
        records, _ = run_trial(cfg, "snr", "10", trial)
        assert not records[0].failed
    assert sorted(calls) == ["antenna_gain", "sample_device_geometry"]
    geom = harness.scenario_geometry(cfg)
    # the off-axis angles are the geometry stream's first draw
    theta = harness.geometry_rng(cfg).uniform(0.0, math.radians(channel.THETA_MAX_DEG),
                                              size=cfg.K)
    np.testing.assert_array_equal(geom.omega, channel.antenna_gain(theta))
    for f in dataclasses.fields(geom):
        assert not getattr(geom, f.name).flags.writeable, f.name


def test_trial_reads_the_iteration_caps_when_it_runs(monkeypatch):
    # the fixed settings are module constants that each call reads: a copy
    # taken at import, as a default argument or a module-level settings
    # object would take it, would keep both caps of 50
    monkeypatch.setattr(vbi, "MAX_ITERS", 2)
    monkeypatch.setattr(baselines, "AMP_MAX_ITERS", 3)
    cfg = ScenarioConfig(K=40, M=4, dims=(8, 8), snr_db=10.0, algos=("vbi", "amp"),
                         trials=1)
    records, _ = run_trial(cfg, "snr", "10", 0)
    assert [(r.algorithm, r.failed, r.iters) for r in records] == [("vbi", False, 2),
                                                                  ("amp", False, 3)]
