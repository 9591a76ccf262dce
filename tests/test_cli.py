import json
import math
import time

import numpy as np
import pytest

import qsynth.cli as cli
from qsynth.cli import parse_angle, parse_gate_spec, run, UsageError
from qsynth.ir import cnot_count, parse_json, report_for
from qsynth.sim import rx_mat
from qsynth.verify import Verdict


def invoke(capsys, *argv):
    code = run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_synth_mcx_json_report(capsys):
    code, out, err = invoke(capsys, "synth", "mcx", "--controls", "8",
                            "--ancilla", "clean", "--format", "json")
    assert code == 0
    assert "cnot=42" in err
    c = parse_json(out)
    assert c.num_qubits == 10
    assert cnot_count(c) == 42
    assert report_for(c).num_ancilla == 1  # the roles survive the round trip


def test_stdout_deterministic(capsys):
    args = ("synth", "mcmt-su2", "--controls", "4", "--targets", "2",
            "--gate", "rz(pi/5)")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_synth_qasm_formats(capsys):
    for fmt, head in (("qasm2", "OPENQASM 2.0;"), ("qasm3", "OPENQASM 3.0;")):
        code, out, _ = invoke(capsys, "synth", "mcx", "--controls", "3",
                              "--format", fmt)
        assert code == 0
        assert out.startswith(head)


def test_verify_mcx_exit_zero(capsys):
    code, _, err = invoke(capsys, "verify", "mcx", "--controls", "4",
                          "--ancilla", "dirty")
    assert code == 0
    assert "ok" in err


def test_verify_families(capsys):
    assert invoke(capsys, "verify", "mcmt-x", "--controls", "4",
                  "--targets", "2")[0] == 0
    assert invoke(capsys, "verify", "mcmt-su2", "--controls", "3",
                  "--targets", "2", "--gate", "ry(0.8)")[0] == 0
    assert invoke(capsys, "verify", "approx-u", "--controls", "9",
                  "--gate", "x", "--epsilon", "0.3")[0] == 0


def test_approx_too_few_controls_is_usage_error(capsys):
    code, _, err = invoke(capsys, "synth", "approx-u", "--controls", "3",
                          "--gate", "x", "--epsilon", "0.1")
    assert code == 2
    assert "n_b + 5 = 10" in err


def test_bad_invocations_exit_two(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "synth", "mcx")[0] == 2  # missing --controls
    assert invoke(capsys, "synth", "mcx", "--controls", "4",
                  "--ancilla", "warm")[0] == 2
    assert invoke(capsys, "synth", "mcmt-su2", "--controls", "4",
                  "--targets", "1", "--gate", "qq")[0] == 2
    sweep = ("bench", "--family", "mcx_clean", "--n-min", "3")
    for argv, msg in (
            (sweep + ("--n-max", "8", "--step", "0"), "at least 1"),
            (sweep + ("--n-max", "8", "--step", "-1"), "at least 1"),
            (sweep[:-1] + ("10", "--n-max", "3"), "above --n-max 3"),
            (sweep + ("--n-max", "4", "--m", "0"), "at least 1"),
            (sweep + ("--n-max", "4", "--m", "-3"), "at least 1"),
            (sweep[:-1] + ("0", "--n-max", "4"), "at least 1"),
            (("synth", "mcmt-x", "--controls", "3", "--targets", "0"),
             "at least 1")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert msg in err, err


def test_bench_stdout_and_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "bench", "--family", "mcx_clean",
                          "--n-min", "4", "--n-max", "8", "--step", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,m,cnot,depth,baseline_cnot,baseline_depth"
    assert len(lines) == 4
    out_file = tmp_path / "rows.csv"
    code, stdout, _ = invoke(capsys, "bench", "--family", "mcx_clean",
                             "--n-min", "4", "--n-max", "8", "--step", "2",
                             "--out", str(out_file))
    assert code == 0
    assert stdout == ""
    assert out_file.read_text() == out


def test_bench_verify_flag(capsys):
    code, _, err = invoke(capsys, "bench", "--family", "mcx_dirty",
                          "--n-min", "4", "--n-max", "6", "--verify")
    assert code == 0, err
    assert err.count(": ok tier=dense inputs=") == 3, err


@pytest.mark.parametrize("family", ["approx_u", "mcmt_su2", "mcx_clean",
                                    "mcx_dirty", "mcmt_x"])
def test_bench_verify_checks_the_row_circuit(capsys, monkeypatch, family):
    ancilla = {"mcx_clean": "clean", "mcx_dirty": "dirty",
               "mcmt_x": "clean"}.get(family, "none")
    seen = []

    def record(c, spec):
        seen.append((cnot_count(c), spec.ancilla))
        return Verdict("dense", 1, ())
    monkeypatch.setattr(cli, "verify_circuit", record)
    n = "10" if family == "approx_u" else "4"
    code, out, _ = invoke(capsys, "bench", "--family", family,
                          "--n-min", n, "--n-max", n, "--verify")
    assert code == 0
    assert seen == [(int(out.splitlines()[1].split(",")[3]), ancilla)]


def test_size_cap_is_checked_while_parsing(capsys):
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "synth", "mcx", "--controls", "4097")
    assert (code, out) == (2, "")
    assert time.perf_counter() - t0 < 1
    assert "above the size cap 4096" in err
    assert invoke(capsys, "verify", "mcx", "--controls", "4097")[0] == 2
    assert invoke(capsys, "bench", "--family", "mcx_clean", "--n-min", "3",
                  "--n-max", "4097")[0] == 2
    for argv in (("synth", "mcmt-x", "--controls", "3", "--targets", "4097"),
                 ("verify", "mcmt-su2", "--controls", "3", "--targets",
                  "4097", "--gate", "h"),
                 ("bench", "--family", "mcmt_x", "--n-min", "3", "--n-max",
                  "4", "--m", "4097")):
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert time.perf_counter() - t0 < 1
        assert "above the size cap 4096" in err


def test_export_round_trip(tmp_path, capsys):
    _, out, _ = invoke(capsys, "synth", "mcmt-x", "--controls", "3",
                       "--targets", "2", "--format", "json")
    src = tmp_path / "c.json"
    src.write_text(out)
    code, q2, _ = invoke(capsys, "export", "--in", str(src),
                         "--format", "qasm2")
    assert code == 0
    assert q2.startswith("OPENQASM 2.0;")
    # json -> json is the identity
    code, again, _ = invoke(capsys, "export", "--in", str(src),
                            "--format", "json")
    assert code == 0
    assert parse_json(again).gates == parse_json(out).gates


def test_export_missing_file(capsys):
    assert invoke(capsys, "export", "--in", "/nonexistent.json")[0] == 2


@pytest.mark.parametrize("text", [
    '{"gates": []}', "[1, 2]",
    # Python's json reads NaN; the U2 check must not let it through
    '{"n": 1, "gates": [{"kind": "U2", "qubits": [0], "matrix": '
    '[[NaN, 0], [0, 0], [0, 0], [1, 0]]}]}',
    # nor Infinity, and no numpy warning may reach stderr
    '{"n": 1, "gates": [{"kind": "U2", "qubits": [0], "matrix": '
    '[[Infinity, 0], [0, 0], [0, 0], [1, 0]]}]}'])
def test_export_malformed_json_is_usage_error(tmp_path, capsys, text):
    src = tmp_path / "bad.json"
    src.write_text(text)
    code, out, err = invoke(capsys, "export", "--in", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("error: matrix is not unitary" if "matrix" in text
                          else "error: circuit JSON needs an object")
    assert err.count("\n") == 1, err


def test_parse_angle(capsys):
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("-3*pi/4") == pytest.approx(-3 * math.pi / 4)
    assert parse_angle("0.25") == 0.25
    with pytest.raises(UsageError):
        parse_angle("__import__('os')")
    with pytest.raises(UsageError):
        parse_angle("pi)(")
    assert parse_angle("-(pi + 1) / 2") == pytest.approx(-(math.pi + 1) / 2)
    for bad in ("2**3", "pi**2", "1e400", "-1e400", "1e400 - 1e400",
                "1e308 * 10"):
        with pytest.raises(UsageError):
            parse_angle(bad)
    for extra in (("approx-u", "--epsilon", "0.1"),
                  ("mcmt-su2", "--targets", "1")):
        code, out, err = invoke(capsys, "synth", *extra, "--controls", "9",
                                "--gate", "rz(1e400)")
        assert (code, out) == (2, ""), err
        assert "not finite" in err


def test_parse_gate_spec():
    assert np.array_equal(parse_gate_spec("x"),
                          np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.abs(parse_gate_spec("rx(pi/3)") - rx_mat(math.pi / 3)).max() \
        < 1e-15
    # flat row-major [re, im] pairs
    M = parse_gate_spec(json.dumps([[0, 0], [1, 0], [1, 0], [0, 0]]))
    assert np.array_equal(M, np.array([[0, 1], [1, 0]], dtype=complex))
    # plain real 2x2
    M = parse_gate_spec("[[0, 1], [1, 0]]")
    assert np.array_equal(M, np.array([[0, 1], [1, 0]], dtype=complex))
    for bad in ("[[1, 0], [0, 2]]", "[[NaN, 0], [0, 1]]"):  # not unitary
        with pytest.raises(UsageError):
            parse_gate_spec(bad)
    with pytest.raises(UsageError):
        parse_gate_spec("cnot")
