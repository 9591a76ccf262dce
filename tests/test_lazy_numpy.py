"""numpy and the matrix modules load on first use, and the verifier on the
first verify; these run in fresh interpreters, since conftest imports numpy
before qsynth for every in-process test."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsynth
from qsynth.cli import run
from qsynth.ir import export_text, ry_mat, rz_mat
from qsynth.mcx import McxSpec, mcx_log
from qsynth.su2 import McmtSpec, mcmt_su2

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def fresh(code, *argv):
    """Run ``code`` in a new interpreter with src on PYTHONPATH and
    ``argv`` as sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


# after the request, name on stderr each module it loaded of those that
# only matrix work, verification or dataclasses need; a lazy module is in
# sys.modules from the start, and counts once its code has run
_RUN_THEN_CHECK = """
import sys, types
import qsynth.cli
code = qsynth.cli.run(sys.argv[1:])
sys.stdout.flush()
ran = [m for m in ("qsynth.su2", "qsynth.approx", "qsynth.sim")
       if type(sys.modules[m]) is types.ModuleType]
ran += [m for m in ("numpy._core", "qsynth.verify", "dataclasses",
                    "inspect") if m in sys.modules]
sys.stderr.write("loaded:%s\\n" % "".join(" " + m for m in ran))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["synth", "mcx", "--controls", "20", "--format", "json"],
    ["synth", "mcmt-x", "--controls", "12", "--targets", "3",
     "--format", "qasm3"],
    ["export", "--format", "qasm2", "--in", "{mcx}"],
    ["bench", "--family", "mcx_clean", "--n-min", "3", "--n-max", "12"],
    ["synth", "mcmt-su2", "--controls", "12", "--targets", "2", "--gate",
     "h", "--format", "json"],
    ["synth", "mcmt-su2", "--controls", "5", "--targets", "3", "--gate",
     "ry(pi/3)", "--format", "qasm3"],
    ["synth", "approx-u", "--controls", "14", "--gate", "rz(pi/4)",
     "--epsilon", "0.1", "--format", "qasm2"],
    ["export", "--format", "qasm3", "--in", "{mcmt_su2}"],
    ["bench", "--family", "mcmt_su2", "--n-min", "3", "--n-max", "20",
     "--m", "2"],
    ["bench", "--family", "approx_u", "--n-min", "10", "--n-max", "16",
     "--epsilon", "0.1"],
])
def test_matrix_free_requests_never_load_numpy(tmp_path, argv):
    """Nor the verifier or dataclasses: gate matrices are tuples of Python
    complex numbers, so only the simulator and the verifier need numpy.
    mcmt-x runs su2, for its fanout around the mcx; mcmt-su2 and approx-u
    run su2 and approx."""
    paths = {"mcx": tmp_path / "mcx.json", "mcmt_su2": tmp_path / "su2.json"}
    paths["mcx"].write_text(export_text(mcx_log(McxSpec(9, "dirty")),
                                        "json"))
    paths["mcmt_su2"].write_text(export_text(
        mcmt_su2(McmtSpec(9, 2, (rz_mat(0.4), ry_mat(1.1)))), "json"))
    ran = ""
    if "mcmt-x" in argv:
        ran = " qsynth.su2"
    elif {"mcmt-su2", "approx-u", "mcmt_su2", "approx_u"} & set(argv):
        ran = " qsynth.su2 qsynth.approx"
    r = fresh(_RUN_THEN_CHECK, *[a.format(**paths) for a in argv])
    assert r.returncode == 0, r.stderr
    assert r.stdout
    assert r.stderr.rstrip().splitlines()[-1] == "loaded:" + ran


@pytest.mark.parametrize("argv", [
    ["verify", "mcx", "--controls", "7", "--ancilla", "dirty"],
    ["verify", "mcmt-x", "--controls", "5", "--targets", "4"],
    ["bench", "--family", "mcx_dirty", "--n-min", "4", "--n-max", "6",
     "--verify"],
    ["verify", "mcx", "--controls", "14"],
    ["verify", "mcmt-x", "--controls", "10", "--targets", "3"],
    ["verify", "mcx", "--controls", "19", "--ancilla", "dirty"],
    ["verify", "mcmt-su2", "--controls", "8", "--targets", "2", "--gate",
     "h"],
    ["verify", "mcmt-su2", "--controls", "12", "--targets", "3", "--gate",
     "ry(pi/3)"],
    ["verify", "mcmt-su2", "--controls", "14", "--targets", "2", "--gate",
     "t"],
    ["verify", "mcmt-su2", "--controls", "21", "--targets", "4", "--gate",
     "h"],
    ["verify", "approx-u", "--controls", "7", "--gate", "rz(pi/8)",
     "--epsilon", "0.1"],
    ["verify", "approx-u", "--controls", "8", "--gate", "rz(pi/4)",
     "--epsilon", "0.1"],
])
def test_dense_permutation_checks_never_load_numpy(argv):
    # the dense tier checks these bit-sliced on Python ints, up to 2^21
    # inputs of their classical wires (mcx with 19 controls and a dirty
    # ancilla, mcmt-su2 with 21 controls), and runs none of sim's code:
    # mcx and mcmt-x are circuits of X, CX, CCX and RCCX against X targets;
    # mcmt-su2 adds gates on its targets only, run as one small operator
    # per class of inputs; approx-u's 3 or 4 quantum wires (base controls
    # and target) keep their operators and spectral norms in Python
    r = fresh(_RUN_THEN_CHECK, *argv)
    assert r.returncode == 0, r.stderr
    lines = r.stderr.rstrip().splitlines()
    assert all(": ok tier=dense inputs=" in line for line in lines[:-1])
    assert lines[-1].startswith("loaded:")
    assert "qsynth.verify" in lines[-1].split()
    assert "numpy._core" not in lines[-1].split()
    assert "qsynth.sim" not in lines[-1].split()


def test_traced_modules_are_registered_on_cli_import():
    # a tracer rebinds the functions that perfbench/layers.py names, in the
    # modules it finds in sys.modules right after `import qsynth.cli`
    r = fresh("""
import sys
sys.path.insert(0, sys.argv[1])
import qsynth.cli
from layers import TRACED
for name in TRACED:
    mod, fn = name.split(".")
    assert callable(getattr(sys.modules["qsynth." + mod], fn)), name
""", str(ROOT / "perfbench"))
    assert r.returncode == 0, r.stderr


def test_star_import_gives_every_public_name():
    names = {}
    exec("from qsynth import *", names)
    assert set(qsynth.__all__) <= set(names)
    for name in qsynth.__all__:
        assert names[name] is getattr(qsynth, name)
    with pytest.raises(AttributeError):
        qsynth.no_such_name


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
