"""The command line: exit codes 0, 1 and 2, `validate`, and what a run
imports."""

import ast
import codecs
import csv
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import leojadce
from leojadce import cli, vbi

SCENE = "K = 40\nM = 4\ndims = 4x4\n"
TINY = SCENE + "algos = vbi, somp, amp\ntrials = 2\n"
ROOT = Path(leojadce.__file__).resolve().parents[2]


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(TINY)
    return path


def run(cfg, out, sweep="snr=10"):
    return cli.main(["run", "--config", str(cfg), "--sweep", sweep, "--out", str(out)])


def test_run_writes_trials_and_exits_0(cfg, tmp_path):
    assert run(cfg, tmp_path / "out") == 0
    with open(tmp_path / "out" / "trials.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert sorted((r[2], r[3]) for r in rows[1:]) == sorted(
        (algo, trial) for trial in "01" for algo in ("vbi", "somp", "amp"))
    assert all(r[4] != "nan" for r in rows[1:])
    # VBI ran, so each sweep value has its trace file, with no option asking
    assert sorted(p.name for p in (tmp_path / "out").glob("trace_*.csv")) == ["trace_snr_10.csv"]
    # and a run without VBI writes none
    cfg.write_text(SCENE + "algos = somp, amp\ntrials = 1\n")
    assert run(cfg, tmp_path / "baselines") == 0
    assert not list((tmp_path / "baselines").glob("trace_*.csv"))


def test_validate_prints_config_ok(cfg, capsys):
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("config OK: K=40 M=4 L=16 dims=(4, 4)")


def test_validate_reads_past_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(codecs.BOM_UTF8 + TINY.encode())
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("config OK: K=40 M=4 L=16 dims=(4, 4)")


@pytest.mark.parametrize("config_text, sweep", [
    (None, "snr=10"),                 # no config file
    ("bogus_key = 1\n", "snr=10"),    # unknown key
    (TINY, "bogus=1,2"),              # unknown sweep axis
    (TINY, "L=17"),                   # no default factorization for L
    (TINY + "p_a = 1.5\n", "snr=10"),          # out of range
    (TINY + "snr_db = nan\n", "snr=10"),       # not a number
    (TINY + "threshold_ratio = 0.3\n", "snr=10"),  # unknown key: the threshold is fixed
    (b"K = 40\xff\n", "snr=10"),                # not UTF-8
])
def test_configuration_errors_exit_1(tmp_path, capsys, config_text, sweep):
    path = tmp_path / "scenario.cfg"
    if isinstance(config_text, bytes):
        path.write_bytes(config_text)
    elif config_text is not None:
        path.write_text(config_text)
    assert run(path, tmp_path / "out", sweep) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code, stream, start", [
    (["validate", "--config", "examples/paper.cfg"], 0, "stdout", "config OK: "),
    (["run", "--config", "examples/paper.cfg"], 1, "stderr", "usage: leojadce run "),
], ids=["validate", "usage-error"])
def test_python_dash_m_entry_point(argv, code, stream, start):
    # the checkout entry point, PYTHONPATH=src python -m leojadce, run from
    # the repository root
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-m", "leojadce", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).startswith(start)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("out", ["taken", "taken/out"])
def test_out_that_cannot_be_a_directory_exits_1_before_any_trial(cfg, tmp_path, capsys,
                                                                 monkeypatch, out):
    # "taken" is a file: making it a directory raises FileExistsError, and
    # making a directory under it NotADirectoryError
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    (tmp_path / "taken").write_text("kept")
    assert run(cfg, tmp_path / out) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "kept"


@pytest.mark.parametrize("extra, out", [
    (["--trials", "abc"], True),
    (["--workers", "x"], True),
    ([], False),                    # no --out
    # the config file sets the trial count, the seed and the algorithms,
    # and VBI's traces are always written: no option does any of these
    (["--trials", "1"], True),
    (["--seed", "3"], True),
    (["--algos", "vbi"], True),
    (["--traces"], True),
], ids=["trials-abc", "workers-x", "missing-out", "trials", "seed", "algos", "traces"])
def test_usage_errors_exit_1_without_making_out(cfg, tmp_path, capsys, extra, out):
    # argparse alone would exit 2, which the run keeps for a failed trial;
    # an unknown option is reported with the usage of the command it follows
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10", *extra]
    assert cli.main(argv + (["--out", str(tmp_path / "out")] if out else [])) == 1
    assert capsys.readouterr().err.startswith("usage: leojadce run ")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_help_exits_0(capsys):
    assert cli.main(["run", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: leojadce run ")


def test_readme_and_help_name_exactly_the_run_options(capsys):
    # the config file and the sweep define a run; its options say only
    # where it reads and writes, and how many processes it uses
    options = ["--config", "--sweep", "--out", "--workers"]
    assert cli.main(["run", "--help"]) == 0
    assert re.findall(r"^  (--\w+)", capsys.readouterr().out, re.M) == options
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    usage = re.search(r"^    leojadce run .*(?:\n {8}.*)*", readme, re.M).group(0)
    assert re.findall(r"--\w+", usage) == options


def test_failed_trial_exits_2(cfg, tmp_path, monkeypatch):
    def failing_run(*args, **kwargs):
        raise vbi.EngineError("negative expected residual F=-1.0")

    monkeypatch.setattr(vbi, "run", failing_run)
    assert run(cfg, tmp_path / "out") == 2
    assert (tmp_path / "out" / "failures.csv").read_text().count("EngineError") == 2


def test_run_does_not_import_mpmath(cfg, tmp_path):
    # mpmath is a test dependency only
    code = textwrap.dedent(f"""
        import sys
        import leojadce.cli
        assert leojadce.cli.main(["run", "--config", {str(cfg)!r},
                                  "--sweep", "snr=10", "--out", {str(tmp_path / "out")!r}]) == 0
        print("mpmath" in sys.modules)
    """)
    src = str(Path(leojadce.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("sweep", ["snr=ten", "K=abc", "L=abc", "d=abc", "p_a=x", "M=abc",
                                   "snr=nan", "snr=-inf"])
def test_malformed_sweep_values_exit_1(cfg, tmp_path, capsys, sweep):
    assert run(cfg, tmp_path / "out", sweep) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert sweep.partition("=")[2] in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_1_before_out_is_made(cfg, tmp_path, capsys, monkeypatch,
                                                     workers):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--sweep", "snr=10", "--out", str(out),
                     "--workers", workers]) == 1
    assert capsys.readouterr().err == f"config error: --workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_two_spellings_of_one_value_write_identical_trials(cfg, tmp_path):
    assert run(cfg, tmp_path / "int", "snr=10") == 0
    assert run(cfg, tmp_path / "float", "snr=10.0") == 0
    assert ((tmp_path / "float" / "trials.csv").read_bytes()
            == (tmp_path / "int" / "trials.csv").read_bytes())


def test_empty_algos_exit_1_on_validate_and_run(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text(TINY.replace("algos = vbi, somp, amp", "algos ="))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    path.write_text(TINY.replace("algos = vbi, somp, amp", "algos = ,"))
    assert cli.main(["run", "--config", str(path), "--sweep", "snr=10",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["three_db_angle_deg = 180", "three_db_angle_deg = 200",
                                  "three_db_angle_deg = 360", "theta_max_deg = 91"])
def test_beam_angles_beyond_a_quarter_turn_exit_1_on_validate(tmp_path, capsys, line):
    # 180 degrees used to hang the antenna gain; 200 and 360 gave gain 1.
    # Both angles are now fixed in the modules that use them, so no config
    # reaches them: naming one is an unknown key
    path = tmp_path / "scenario.cfg"
    path.write_text(TINY + line + "\n")
    assert cli.main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "unknown key" in err


def test_repeated_algos_exit_1_on_validate_and_run(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text(TINY.replace("algos = vbi, somp, amp", "algos = somp, somp"))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "algos repeat" in capsys.readouterr().err
    path.write_text(TINY.replace("algos = vbi, somp, amp", "algos = somp,somp"))
    assert cli.main(["run", "--config", str(path), "--sweep", "snr=10",
                     "--out", str(tmp_path / "out")]) == 1
    assert "algos repeat" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def loaded_in_fresh_interpreter(argv: list[str], modules: list[str],
                                blocked: tuple[str, ...] = ()) -> list[bool]:
    """Run ``leojadce.cli.main(argv)`` in a new interpreter, require exit 0,
    and report which of ``modules`` that process had loaded by the end.
    Each package in ``blocked`` is set to None in ``sys.modules`` first, so
    that importing it, or anything in it, raises ImportError."""
    code = textwrap.dedent(f"""
        import sys
        for name in {blocked!r}:
            sys.modules[name] = None
        import leojadce.cli
        assert leojadce.cli.main({argv!r}) == 0
        print([name in sys.modules for name in {modules!r}])
    """)
    src = str(Path(leojadce.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_validate_and_baselines_run_do_not_import_scipy(cfg, tmp_path):
    # SOMP solves its triangular system with numpy
    assert loaded_in_fresh_interpreter(["validate", "--config", str(cfg)], ["scipy"]) == [False]
    cfg.write_text(SCENE + "algos = somp, amp\ntrials = 2\n")
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10", "--out", str(tmp_path / "out")]
    assert loaded_in_fresh_interpreter(argv, ["scipy"]) == [False]


def test_vbi_run_does_not_import_scipy(cfg, tmp_path):
    # VBI's q(X) solves with numpy only
    cfg.write_text(SCENE + "algos = vbi\ntrials = 1\n")
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10", "--out", str(tmp_path / "out")]
    assert loaded_in_fresh_interpreter(argv, ["scipy"]) == [False]


def test_forked_vbi_sweep_leaves_scipy_unloaded(cfg, tmp_path):
    # the parent runs no trial itself, and loads nothing for its workers
    cfg.write_text(SCENE + "algos = vbi\ntrials = 1\n")
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10,20", "--out", str(tmp_path / "out"),
            "--workers", "2"]
    assert loaded_in_fresh_interpreter(argv, ["scipy"]) == [False]


def test_sweep_runs_where_scipy_cannot_be_imported(cfg, tmp_path):
    # every algorithm, two trials at two SNRs, in a process where any
    # import of scipy raises: a failed trial exits 2
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10,30", "--out", str(tmp_path / "out")]
    assert loaded_in_fresh_interpreter(argv, ["leojadce.vbi"], blocked=("scipy",)) == [True]
    with open(tmp_path / "out" / "trials.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * 2 * 3


def test_process_pool_loads_only_for_a_forked_sweep(cfg, tmp_path):
    modules = ["concurrent.futures.process", "multiprocessing"]
    cfg.write_text(SCENE + "algos = vbi, somp, amp\ntrials = 1\n")
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10,20", "--out", str(tmp_path / "one")]
    assert loaded_in_fresh_interpreter(argv, modules) == [False, False]
    argv = ["run", "--config", str(cfg), "--sweep", "snr=10,20", "--out", str(tmp_path / "two"),
            "--workers", "2"]
    assert loaded_in_fresh_interpreter(argv, modules) == [True, True]
