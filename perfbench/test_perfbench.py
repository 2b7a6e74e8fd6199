"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

They run a tiny scenario through the same measurement code as the real
workloads, writing into a temporary directory. A quarter of its K=40
devices are active, so no trial is left without an active device, where
NMSE is undefined.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

TINY = run.Workload(
    {"K": "40", "M": "4", "dims": "4x4", "snr_db": "20", "p_a": "0.25",
     "algos": "vbi,somp,amp", "trials": "2"},
    "snr", ("20",))
EXACT_COUNTS = ("specfun.hyp1f1.calls", "tensors.khatri_rao.calls", "vbi.iters",
                "baselines.somp.atoms", "baselines.amp_mmv.iters")


@pytest.fixture(scope="module")
def m():
    return run.import_leojadce()


@pytest.fixture
def out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_installed_restores_every_binding(m):
    sites = run.bindings(m, full=True)
    originals = [(b.module, b.attr, getattr(b.module, b.attr)) for b in sites]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, sites):
            assert all(getattr(mod, attr) is not f for mod, attr, f in originals)
            raise RuntimeError("traced code failed")
    assert all(getattr(mod, attr) is f for mod, attr, f in originals)


def test_spans_nest_and_self_time_excludes_children():
    ns = type("ns", (), {})()
    ns.inner = lambda: sum(range(1000))
    ns.outer = lambda: ns.inner() + ns.inner()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, [tracing.Binding(ns, "outer", "outer"),
                                    tracing.Binding(ns, "inner", "inner")]):
        ns.outer()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    (outer,), (self_time,) = tracer.durations("outer"), tracer.self_times("outer")
    assert self_time == pytest.approx(outer - sum(tracer.durations("inner")))


def test_traced_counts_repeat_exactly(m, out):
    first, _ = run.measure(m, "tiny", TINY, seed=3, seconds=0, trace=True)
    second, _ = run.measure(m, "tiny", TINY, seed=3, seconds=0, trace=True)
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["specfun.hyp1f1.calls"]["value"] == (
        6 * 40 * first["metrics"]["vbi.iters"]["value"])
    assert first["metrics"]["tensors.khatri_rao.calls"]["value"] == 5


def test_metric_names_match_benchmark_json(m, out):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.measure(m, "tiny", TINY, seed=4, seconds=0, trace=trace,
                                setup_runs=1)
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {d["name"]: d["unit"] for d in spec[key]}
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_changed_trials_csv_is_reported(m, out):
    result, record = run.measure(m, "tiny", TINY, seed=5, seconds=0, trace=False,
                                 setup_runs=1)
    assert result["correct"]
    store = out / "digests.json"
    key = f"tiny:5:{record['env']['code_sha256']}"
    store.write_text(json.dumps({key: "0" * 64}))
    result, record = run.measure(m, "tiny", TINY, seed=5, seconds=0, trace=False,
                                 setup_runs=1)
    assert not result["correct"]
    assert "earlier run" in record["problems"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_trial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
