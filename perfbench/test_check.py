"""Tests of the benchmark's independent output checker.

    python -m pytest perfbench

Correct circuits come from the qsynth library at sizes where it is right
(n <= 12); the checker itself never imports qsynth.
"""
import json
import sys
from pathlib import Path

import pytest

import check

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from qsynth import McxSpec, export_text, mcx_log, mcmt_x, run_family, to_csv  # noqa: E402


def mcx_json(n, mode):
    return export_text(mcx_log(McxSpec(n, mode)), "json")


def edit(text, fn):
    doc = json.loads(text)
    fn(doc["gates"])
    return json.dumps(doc)


@pytest.mark.parametrize("mode", ["clean", "dirty"])
@pytest.mark.parametrize("n", range(1, 13))
def test_accepts_correct_mcx(n, mode):
    assert check.check_mcx_json(mcx_json(n, mode), n, mode) == []


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 1), (5, 4), (8, 2),
                                 (12, 3)])
def test_accepts_correct_mcmt_x(n, m):
    text = export_text(mcmt_x(n, m), "json")
    assert check.check_mcmt_x_json(text, n, m, seed=7) == []


@pytest.mark.parametrize("fmt", ["qasm2", "qasm3"])
def test_accepts_correct_qasm(fmt):
    c = mcx_log(McxSpec(9, "dirty"))
    assert check.check_qasm(export_text(c, fmt), fmt, 11, 12 * 9 - 18) == []


def test_rejects_dropped_rccx():
    def drop(gates):
        gates.pop(next(i for i, g in enumerate(gates)
                       if g["kind"] == "RCCX"))
    fails = check.check_mcx_json(edit(mcx_json(8, "clean"), drop), 8,
                                 "clean")
    assert any(f.startswith("basis check") for f in fails)


def test_rejects_moved_cx_target():
    doc = json.loads(export_text(mcmt_x(6, 3), "json"))
    # the last fanout CX copies onto a target; point it at a control instead
    last = max(i for i, g in enumerate(doc["gates"]) if g["kind"] == "CX")
    doc["gates"][last]["qubits"][1] = 0
    fails = check.check_mcmt_x_json(json.dumps(doc), 6, 3)
    assert any(f.startswith("basis check") for f in fails)


def test_rejects_cx_count_off_by_one():
    def extra(gates):
        gates.append({"kind": "CX", "qubits": [0, 1]})
    fails = check.check_mcx_json(edit(mcx_json(6, "dirty"), extra), 6,
                                 "dirty")
    assert "cx count 55 != 54" in fails


def test_rejects_non_classical_gate():
    def add_h(gates):
        gates.append({"kind": "H", "qubits": [0]})
    fails = check.check_mcx_json(edit(mcx_json(4, "clean"), add_h), 4,
                                 "clean")
    assert any("no basis-state action" in f for f in fails)


def test_rejects_qasm_cx_count():
    text = export_text(mcx_log(McxSpec(5, "clean")), "qasm3")
    assert check.check_qasm(text, "qasm3", 7, 24) == []
    assert check.check_qasm(text, "qasm3", 7, 25) == ["cx count 24 != 25"]


@pytest.mark.parametrize("family,ns,m,eps", [
    ("mcx_clean", range(1, 20, 3), 1, None),
    ("mcx_dirty", range(3, 20, 4), 1, None),
    ("mcmt_x", range(1, 15, 2), 3, None),
    ("mcmt_su2", range(1, 15, 2), 2, None),
    ("approx_u", range(10, 30, 5), 1, 0.1),
    ("approx_u", range(14, 30, 5), 1, 0.01),
])
def test_bench_csv(family, ns, m, eps):
    params = {"epsilon": eps} if eps else {}
    text = to_csv(run_family(family, ns, m=m, params=params))
    fails, depths = check.check_bench_csv(text, family, list(ns), m, eps)
    assert fails == [] and len(depths) == len(ns)
    # one wrong cnot in one row
    lines = text.splitlines()
    row = lines[2].split(",")
    row[3] = str(int(row[3]) + 1)
    lines[2] = ",".join(row)
    fails, _ = check.check_bench_csv("\n".join(lines), family, list(ns), m,
                                     eps)
    assert len(fails) == 1 and "cnot" in fails[0]


def test_export_round_trip():
    src = mcx_json(7, "dirty")
    assert check.check_export(src, src, "json") == []
    assert check.check_export(src, edit(src, lambda g: g.pop()), "json")
    qasm = export_text(mcx_log(McxSpec(7, "dirty")), "qasm2")
    assert check.check_export(src, qasm, "qasm2") == []


def test_verify_verdict():
    assert check.check_verify(0, "verify mcx: ok\n", "mcx") == []
    assert check.check_verify(1, "verify mcx: FAIL: x\n", "mcx")


def test_report_line():
    rep = check.parse_report("cnot=42 total_gates=133 depth=84 "
                             "num_ancilla=1 ancilla_kind=clean\n")
    assert rep == {"cnot": 42, "total_gates": 133, "depth": 84,
                   "num_ancilla": 1}
