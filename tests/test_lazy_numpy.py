"""numpy loads on first matrix use, and the verifier on the first verify;
these run in fresh interpreters, since conftest imports numpy before qsynth
for every in-process test."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsynth.cli import run
from qsynth.ir import export_text
from qsynth.mcx import McxSpec, mcx_log

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(code, *argv):
    """Run ``code`` in a new interpreter with src on PYTHONPATH and
    ``argv`` as sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


_RUN_THEN_CHECK = """
import sys
import qsynth.cli
code = qsynth.cli.run(sys.argv[1:])
sys.stdout.flush()
sys.exit(code if "numpy._core" not in sys.modules
         and "qsynth.verify" not in sys.modules else 99)
"""


@pytest.mark.parametrize("argv", [
    ["synth", "mcx", "--controls", "20", "--format", "json"],
    ["synth", "mcmt-x", "--controls", "12", "--targets", "3",
     "--format", "qasm3"],
    ["export", "--format", "qasm2", "--in", "{mcx}"],
    ["bench", "--family", "mcx_clean", "--n-min", "3", "--n-max", "12"],
])
def test_matrix_free_requests_never_load_numpy(tmp_path, argv):
    src = tmp_path / "mcx.json"
    src.write_text(export_text(mcx_log(McxSpec(9, "dirty")), "json"))
    r = fresh(_RUN_THEN_CHECK, *[a.format(mcx=src) for a in argv])
    assert r.returncode == 0, r.stderr
    assert r.stdout


@pytest.mark.parametrize("argv", [
    ["verify", "mcx", "--controls", "5"],
    ["synth", "mcmt-su2", "--controls", "4", "--targets", "1", "--gate",
     "h"],
])
def test_matrix_requests_match_in_process(capsys, argv):
    r = fresh("import sys, qsynth.cli; sys.exit(qsynth.cli.run(sys.argv[1:]))",
              *argv)
    code = run(argv)
    cap = capsys.readouterr()
    assert (r.returncode, r.stdout, r.stderr) == (code, cap.out, cap.err)


def test_missing_numpy_is_named():
    r = fresh("import sys\nsys.modules['numpy'] = None\nimport qsynth")
    assert r.returncode == 1
    assert r.stderr.rstrip().splitlines()[-1] == \
        "ModuleNotFoundError: No module named 'numpy'"
