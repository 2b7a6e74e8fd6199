"""Benchmark of the leojadce sweep pipeline.

    python3 perfbench/run.py --workload paper_trial --seed 1 --seconds 25 --trace 0

Runs one workload (a scenario config plus a sweep) through the public
harness, ``run_sweep`` then ``write_outputs`` with one worker, back to back:
at least twice, and again while the next repetition should end within
``--seconds``. Every repetition must write a byte-identical ``trials.csv``.
The last stdout line is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. The line before it is a record of the
environment, the trials.csv digest and the figures that are not gated
(raw throughput, per-algorithm call times, Pe, NMSE). See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, fixed before numpy loads: with two OpenBLAS threads on a
# two-core machine the K x K solves in q(X) varied by about half between
# calls, with one they repeat within a few percent.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import tracing  # noqa: E402
from hostprobe import HostProbe  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SETUP_RUNS = 5
MIN_REPS = 2  # the trials.csv digest is compared between repetitions


@dataclass(frozen=True)
class Workload:
    config: dict[str, str]      # key = value lines of a leojadce config file
    axis: str
    values: tuple[str, ...]


# Every workload: K=500 devices, M=8 antennas, the paper's other defaults.
# Trial counts make one repetition take about half of a 25 s run on one
# core, so a run holds two repetitions of as many distinct trials as fit.
WORKLOADS = {
    # L=400 at 30 dB: the reference trial; VBI is ~90% of it, split about
    # evenly between q(X) and q(mu).
    "paper_trial": Workload(
        {"K": "500", "M": "8", "dims": "20x20", "snr_db": "30",
         "algos": "vbi,somp,amp", "trials": "3"},
        "snr", ("30",)),
    # L=100 << K at 10 dB: VBI runs to the iteration cap; the planned
    # Woodbury q(X) path works here, baselines cost ~10 ms.
    "short_preamble": Workload(
        {"K": "500", "M": "8", "dims": "10x10", "snr_db": "10",
         "algos": "vbi,somp,amp", "trials": "3"},
        "snr", ("10",)),
    # No VBI: synthesis, geometry, Khatri-Rao, SOMP, AMP and CSV writing
    # carry the time, so VBI changes must leave it unchanged.
    "baseline_sweep": Workload(
        {"K": "500", "M": "8", "dims": "20x20",
         "algos": "somp,amp", "trials": "25"},
        "snr", ("0", "30")),
}

ALGO_SPANS = {"vbi": "vbi.run", "somp": "baselines.somp", "amp": "baselines.amp_mmv"}

# Gated metrics. trial_cost_ref is a trial's wall time (run_sweep plus
# write_outputs, per trial) over the host probe's time in the same run: raw
# trials_per_s moved by 10-35% (quartile spread) between runs on a shared
# two-core host, the ratio by 7-14%. Raw throughput, per-algorithm call
# times, Pe and NMSE go to the record; Pe and NMSE over a few trials also
# move too much between seeds to gate.
END_TO_END = {
    "setup_s": "s",
    "trial_cost_ref": "ref",
    "peak_rss_mb": "MB",
}

# Busy time per trial of each layer: spans of these names, summed, over trials.
TIMED_LAYERS = (
    "vbi.run", "vbi.update_qmu", "vbi.update_qX", "vbi.update_qbeta", "vbi.update_qv",
    "vbi.precompute_gram", "vbi.init_posterior", "tensors.khatri_rao",
    "harness.scenario_geometry", "channel.draw_channels", "channel.antenna_gain",
    "signals.gen_preambles", "signals.synthesize_received",
    "baselines.somp", "baselines.amp_mmv", "detection.detect", "detection.score",
    "harness.aggregate", "harness.write_outputs", "config.load_config",
)
# Counters named after their metric; per trial, like the times.
COUNTED = (
    "vbi.iters", "vbi.converged_frac", "specfun.hyp1f1.calls",
    "channel.large_scale_gain.calls", "signals.assemble_preamble_matrix.calls",
    "baselines.somp.atoms", "baselines.amp_mmv.iters", "baselines.amp_mmv.diverged_frac",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_LAYERS},
    "vbi.run.self_s": "s",
    "harness.run_trial.self_s": "s",
    "tensors.khatri_rao.calls": "count",
    **{name: ("ratio" if name.endswith("_frac") else "count") for name in COUNTED},
    "specfun.hyp1f1.x_max": "1",
    "tracing.overhead_frac": "ratio",
}

MODULES = ("baselines", "channel", "config", "detection", "harness", "signals",
           "tensors", "vbi")


def import_leojadce() -> SimpleNamespace:
    """The leojadce modules from this checkout's src/, never an installed copy."""
    if not (SRC / "leojadce" / "__init__.py").is_file():
        raise FileNotFoundError(f"no leojadce package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"leojadce.{name}") for name in MODULES}
    pkg_dir = Path(mods["harness"].__file__).resolve().parent
    if pkg_dir != (SRC / "leojadce").resolve():
        raise ImportError(f"leojadce was imported from {pkg_dir}, not {SRC}")
    return SimpleNamespace(**mods)


def bindings(m: SimpleNamespace, full: bool,
             probe: HostProbe | None = None) -> list[tracing.Binding]:
    """Lookup sites to record. Without ``full``: the three algorithm entry
    points, which the untraced runs time per call, and, given a probe, the
    trial boundary where it samples the host."""
    B = tracing.Binding
    vbi_run = B(m.vbi, "run", "vbi.run",
                observe=lambda r: {"vbi.iters": r.n_iters,
                                   "vbi.converged_frac": int(r.converged)})
    somp = B(m.baselines, "somp", "baselines.somp",
             observe=lambda r: {"baselines.somp.atoms": len(r.support)})
    amp = B(m.baselines, "amp_mmv", "baselines.amp_mmv",
            observe=lambda r: {"baselines.amp_mmv.iters": r.n_iters,
                               "baselines.amp_mmv.diverged_frac": int(r.diverged)})
    if not full:
        probed = [B(m.harness, "run_trial", "harness.run_trial",
                    observe=probe.after_trial)] if probe else []
        return [vbi_run, somp, amp, *probed]
    return [
        vbi_run, somp, amp,
        B(m.config, "load_config", "config.load_config"),
        B(m.harness, "run_trial", "harness.run_trial"),
        B(m.harness, "scenario_geometry", "harness.scenario_geometry"),
        B(m.harness, "gen_preambles", "signals.gen_preambles"),
        B(m.harness, "draw_channels", "channel.draw_channels"),
        B(m.harness, "synthesize_received", "signals.synthesize_received"),
        B(m.harness, "assemble_preamble_matrix", "signals.assemble_preamble_matrix.calls",
          kind="count"),
        B(m.harness, "aggregate", "harness.aggregate"),
        B(m.harness, "write_outputs", "harness.write_outputs"),
        B(m.channel, "antenna_gain", "channel.antenna_gain"),
        B(m.channel, "large_scale_gain", "channel.large_scale_gain.calls", kind="count"),
        B(m.vbi, "precompute_gram", "vbi.precompute_gram"),
        B(m.vbi, "init_posterior", "vbi.init_posterior"),
        B(m.vbi, "update_qX", "vbi.update_qX"),
        B(m.vbi, "update_qmu", "vbi.update_qmu"),
        B(m.vbi, "update_qv", "vbi.update_qv"),
        B(m.vbi, "update_qbeta", "vbi.update_qbeta"),
        B(m.vbi, "hyp1f1", "specfun.hyp1f1.calls", kind="count", max_arg=2),
        B(m.vbi, "khatri_rao", "tensors.khatri_rao"),
        B(m.signals, "khatri_rao", "tensors.khatri_rao"),
        B(m.tensors, "khatri_rao", "tensors.khatri_rao"),
        B(m.detection, "detect", "detection.detect"),
        B(m.detection, "error_probability", "detection.score"),
        B(m.detection, "nmse", "detection.score"),
        B(m.detection, "nmse_active", "detection.score"),
    ]


@dataclass(frozen=True)
class Rep:
    traced: bool
    wall_s: float
    trials: int
    digest: str
    records: list


def config_text(wl: Workload, seed: int) -> str:
    lines = [f"{k} = {v}" for k, v in wl.config.items()]
    return "\n".join(lines + [f"master_seed = {seed}", ""])


def measure_setup(cfg_path: Path, runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it could start its
    first trial: imports, config parse and scenario geometry."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg_path)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(elapsed)
    return times


def run_reps(m, wl: Workload, cfg_path: Path, out_dir: Path, seconds: float,
             trace: bool, probe: HostProbe | None
             ) -> tuple[list[Rep], tracing.Tracer, tracing.Tracer]:
    """Repeat the workload's sweep while the next repetition is expected to
    end within ``seconds``, at least MIN_REPS times. With ``trace``,
    repetitions alternate between timed-only and fully traced. Time spent
    in the probe is left out of the repetition's wall time."""
    sweep = m.config.make_sweep(wl.axis, wl.values)
    timer, tracer = tracing.Tracer(), tracing.Tracer()
    reps: list[Rep] = []
    start = time.perf_counter()
    while (len(reps) < MIN_REPS
           or (time.perf_counter() - start) * (1 + 1 / len(reps)) <= seconds):
        traced = trace and len(reps) % 2 == 1
        rec = tracer if traced else timer
        probed = probe.spent_s if probe else 0.0
        with tracing.installed(rec, bindings(m, full=traced, probe=probe)):
            cfg = m.config.load_config(cfg_path)
            t0 = time.perf_counter()
            records, _ = m.harness.run_sweep(cfg, sweep, workers=1)
            m.harness.write_outputs(out_dir, sweep, records)
            wall = time.perf_counter() - t0
        if probe:
            wall -= probe.spent_s - probed
        digest = hashlib.sha256((out_dir / "trials.csv").read_bytes()).hexdigest()
        reps.append(Rep(traced, wall, len(wl.values) * cfg.trials, digest, records))
    return reps, timer, tracer


def per_point_p50(durations: list[float], n_values: int, trials: int) -> float:
    """Median call time at each sweep point, averaged over the points.

    Calls come in sweep order (point, then trial), so call i belongs to point
    (i // trials) % n_values. Pooling the points would put the median
    between two modes when they differ, as SOMP at 0 and 30 dB does.
    """
    points = [[] for _ in range(n_values)]
    for i, d in enumerate(durations):
        points[(i // trials) % n_values].append(d)
    return statistics.fmean(statistics.median(p) for p in points)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return p, cuts[p - 1]
    return None


def trials_per_s(reps: list[Rep]) -> float:
    """Trials completed per wall-second of run_sweep plus write_outputs."""
    return sum(r.trials for r in reps) / sum(r.wall_s for r in reps)


def end_to_end_metrics(reps: list[Rep], setup_times: list[float],
                       probe: HostProbe) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "trial_cost_ref": 1.0 / (trials_per_s(reps) * statistics.fmean(probe.samples)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer: tracing.Tracer, reps: list[Rep]) -> dict[str, float]:
    n = len(tracer.durations("harness.run_trial"))
    out = {f"{name}.s": math.fsum(tracer.durations(name)) / n for name in TIMED_LAYERS}
    out["vbi.run.self_s"] = math.fsum(tracer.self_times("vbi.run")) / n
    out["harness.run_trial.self_s"] = math.fsum(tracer.self_times("harness.run_trial")) / n
    out["tensors.khatri_rao.calls"] = len(tracer.durations("tensors.khatri_rao")) / n
    for name in COUNTED:
        out[name] = tracer.counts[name] / n
    out["specfun.hyp1f1.x_max"] = tracer.maxima.get("specfun.hyp1f1.calls", 0.0)
    traced = statistics.median(r.wall_s for r in reps if r.traced)
    untraced = statistics.median(r.wall_s for r in reps if not r.traced)
    out["tracing.overhead_frac"] = traced / untraced - 1.0
    return out


def algo_figures(reps, timer, wl) -> dict[str, object]:
    """Scores and untraced call times per algorithm, for the record."""
    trials = int(wl.config["trials"])
    out: dict[str, object] = {}
    for algo in wl.config["algos"].split(","):
        ok = [r for r in reps[-1].records if r.algorithm == algo and not r.failed]
        out[f"pe.{algo}"] = statistics.fmean(r.pe for r in ok) if ok else None
        out[f"nmse.{algo}"] = statistics.fmean(r.nmse for r in ok) if ok else None
        calls = timer.durations(ALGO_SPANS[algo])
        out[f"trial_s.{algo}.p50"] = per_point_p50(calls, len(wl.values), trials)
        out[f"trial_s.{algo}.n"] = len(calls)
        tail = tail_percentile(calls)
        if tail is not None:
            out[f"trial_s.{algo}.p{tail[0]}"] = tail[1]
    return out


def check_records(reps: list[Rep]) -> list[str]:
    """Scores must be valid wherever a trial did not fail."""
    problems = []
    for r in reps[-1].records:
        if r.failed:
            continue
        if not 0.0 <= r.pe <= 1.0:
            problems.append(f"pe={r.pe} outside [0, 1] for {r.algorithm} trial {r.trial}")
        if not (math.isfinite(r.nmse) and math.isfinite(r.nmse_active)):
            problems.append(f"non-finite nmse for {r.algorithm} trial {r.trial}")
    return problems


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "leojadce").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def agrees_with_earlier_runs(key: str, digest: str) -> bool:
    """Earlier runs in this checkout with the same code, workload and seed
    must have written the same trials.csv."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    known = store.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)
    return known == digest


def git_sha() -> str | None:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads(np) -> int | None:
    """Thread count OpenBLAS reports at run time, when its library is found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict[str, object]:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "openblas_threads": openblas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
        "code_sha256": code_digest(),
        "seed": seed,
    }


def measure(m, name: str, wl: Workload, seed: int, seconds: float, trace: bool,
            setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """One benchmark run: returns (result, record)."""
    run_dir = OUT / f"{name}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "scenario.cfg"
    cfg_path.write_text(config_text(wl, seed))
    setup_times = [] if trace else measure_setup(cfg_path, setup_runs)
    probe = None if trace else HostProbe()

    reps, timer, tracer = run_reps(m, wl, cfg_path, run_dir / "out", seconds, trace, probe)

    problems = check_records(reps)
    digests = {r.digest for r in reps}
    if len(digests) != 1:
        problems.append(f"trials.csv differs between repetitions: {sorted(digests)}")
    env = environment(seed)
    key = f"{name}:{seed}:{env['code_sha256']}"
    if not agrees_with_earlier_runs(key, reps[0].digest):
        problems.append("trials.csv differs from an earlier run of the same code and seed")
    attempted = sum(len(r.records) for r in reps)
    failed = sum(1 for r in reps for rec in r.records if rec.failed)

    if trace:
        metrics, units = per_layer_metrics(tracer, reps), PER_LAYER
        tracer.write_spans(run_dir / "spans.csv")
    else:
        metrics, units = end_to_end_metrics(reps, setup_times, probe), END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "env": env,
        "trials_csv_sha256": reps[0].digest,
        "repetitions": len(reps),
        "rep_wall_s": [r.wall_s for r in reps],
        "trials_per_s": trials_per_s([r for r in reps if not r.traced]),
        "probe_s": probe.samples if probe else [],
        "setup_s_runs": setup_times,
        "failed_frac": failed / attempted,
        "problems": problems,
        **algo_figures(reps, timer, wl),
    }
    (run_dir / f"record-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        m = import_leojadce()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, record = measure(m, args.workload, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    if record["problems"]:
        print("perfbench: " + "; ".join(record["problems"]), file=sys.stderr)
        return 1
    if result["failed"] and args.seed == DEFAULT_SEED:
        print(f"perfbench: {result['failed']} trials failed on the default seed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
