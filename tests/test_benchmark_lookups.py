"""perfbench/run.py's traced run rebinds package attributes by name; every
name it looks up must exist, or the traced run stops before its first trial."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_finds_every_binding():
    code = ("import sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import run, tracing\n"
            "m = run.import_leojadce()\n"
            "with tracing.installed(tracing.Tracer(), run.bindings(m, full=True)):\n"
            "    pass\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
