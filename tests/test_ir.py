import json

import numpy as np
import pytest

from qsynth import ir
from qsynth.bench import FAMILY_TARGET, build
from qsynth.ir import (Circuit, Gate, cnot_count, count_gates, depth,
                       export_text, inverse, lower, parse_json, remap,
                       report_for, rx_mat, ry_mat, rz_mat)
from qsynth.sim import unitary_of

from conftest import H, X, random_circuit, random_su2


def test_gate_arity_checked():
    with pytest.raises(ValueError):
        Gate("CX", (0,))
    with pytest.raises(ValueError):
        Gate("CCX", (0, 1))
    with pytest.raises(ValueError):
        Gate("X", (0, 1))


def test_indices_and_sizes_are_integers():
    # int() would truncate 1.7 and read True as 1
    for q in (1.7, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="qubit index must be an integer"):
            Gate("X", (q,))
    for n in (2.5, True):
        with pytest.raises(ValueError, match="register size must be an int"):
            Circuit(n)
    assert Gate("CX", (np.int64(0), 1)).qubits == (0, 1)


def test_gate_qubits_distinct():
    with pytest.raises(ValueError):
        Gate("CX", (2, 2))
    with pytest.raises(ValueError):
        Gate("RCCX", (0, 1, 1))


def test_rotation_needs_angle_and_u2_needs_matrix():
    with pytest.raises(ValueError):
        Gate("Rz", (0,))
    with pytest.raises(ValueError):
        Gate("U2", (0,))
    # non-unitary and non-finite matrices are rejected at 1e-12
    for bad in ([[1, 0], [0, 1.001]], [[np.nan, 0], [0, 1]],
                [[np.inf, 0], [0, 1]]):
        with pytest.raises(ValueError):
            Gate("U2", (0,), matrix=np.array(bad))
    for angle in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Gate("Rz", (0,), angle=angle)


def test_gate_immutable_and_hashable():
    g = Gate("Rz", (0,), angle=0.5)
    with pytest.raises(AttributeError):
        g.angle = 1.0
    assert g == Gate("Rz", (0,), angle=0.5)
    assert hash(g) == hash(Gate("Rz", (0,), angle=0.5))
    assert g != Gate("Rz", (0,), angle=0.25)


def test_circuit_validates_indices_and_roles():
    with pytest.raises(ValueError):
        Circuit(1, [Gate("CX", (0, 1))])
    with pytest.raises(ValueError):
        Circuit(2, [], ancilla_roles=("none",))
    with pytest.raises(ValueError):
        Circuit(1, [], ancilla_roles=("scratch",))
    c = Circuit(2, [Gate("CX", (0, 1))])
    assert c.ancilla_roles == ("none", "none")


def test_lower_ccx_is_six_cx_and_exact():
    c = Circuit(3, [Gate("CCX", (0, 1, 2))])
    low = lower(c)
    assert count_gates(low, "CX") == 6
    assert np.abs(unitary_of(low) - unitary_of(c)).max() < 1e-12


def test_lower_rccx_is_three_cx():
    low = lower(Circuit(3, [Gate("RCCX", (0, 1, 2))]))
    assert count_gates(low, "CX") == 3


def test_lower_cu2_is_two_cx_and_exact(rng):
    for _ in range(5):
        U = random_su2(rng)
        c = Circuit(2, [Gate("CU2", (0, 1), matrix=U)])
        low = lower(c)
        assert count_gates(low, "CX") == 2
        assert np.abs(unitary_of(low) - unitary_of(c)).max() < 1e-9


def test_lower_handles_general_u2_phase():
    # det != 1: controlled phase must be carried onto the control line
    U = np.exp(0.37j) * np.asarray(rz_mat(1.1))
    c = Circuit(2, [Gate("CU2", (0, 1), matrix=U)])
    assert np.abs(unitary_of(lower(c)) - unitary_of(c)).max() < 1e-9


def test_lower_idempotent():
    c = Circuit(3, [Gate("CCX", (0, 1, 2)), Gate("RCCX", (2, 0, 1)),
                    Gate("H", (0,))])
    low = lower(c)
    assert lower(low).gates == low.gates


def test_cnot_count_is_arithmetic():
    c = Circuit(4, [Gate("CCX", (0, 1, 2)), Gate("RCCX", (0, 1, 3)),
                    Gate("CX", (0, 1)), Gate("H", (2,)),
                    Gate("CU2", (0, 2), matrix=H)])
    assert cnot_count(c) == 6 + 3 + 1 + 2
    assert cnot_count(c) == count_gates(lower(c), "CX")


def test_depth_empty_and_asap():
    assert depth(Circuit(3, [])) == 0
    # parallel singles share a layer
    assert depth(Circuit(2, [Gate("X", (0,)), Gate("X", (1,))])) == 1
    # CX chains serialize on the shared wire
    c = Circuit(3, [Gate("CX", (0, 1)), Gate("CX", (1, 2)),
                    Gate("X", (0,))])
    assert depth(c) == 2


def test_inverse_reverses_adjoints(rng):
    U = random_su2(rng)
    c = Circuit(3, [Gate("H", (0,)), Gate("T", (1,)),
                    Gate("Rz", (2,), angle=0.7),
                    Gate("CU2", (0, 2), matrix=U),
                    Gate("CCX", (0, 1, 2))])
    ic = inverse(c)
    assert len(ic.gates) == len(c.gates)
    assert ic.gates[0].kind == "CCX"
    assert ic.gates[-1].kind == "H"
    M = unitary_of(c)
    assert np.abs(unitary_of(ic) - M.conj().T).max() < 1e-12


def test_remap(rng, monkeypatch):
    a = Circuit(2, [Gate("CX", (0, 1))])
    r = remap(a, {0: 2, 1: 0}, 3)
    assert r.num_qubits == 3
    assert r.gates[0].qubits == (2, 0)
    # the mapping is checked once: used qubits go to distinct indices >= 0,
    # even where the merged qubits never share a gate
    b = Circuit(3, [Gate("X", (0,)), Gate("H", (2,))])
    for bad in ({0: 1, 1: 1, 2: 1}, {0: -1, 2: 0}, {0: 0.0, 2: 1},
                {0: 0, 2: 3}):
        with pytest.raises(ValueError):
            remap(b, bad, 3)
    # moved and inverted gates keep their checked fields, so no matrix is
    # checked again, and they equal the gates the checked path builds
    c = Circuit(3, [Gate("U2", (0,), matrix=random_su2(rng)),
                    Gate("CU2", (1, 2), matrix=random_su2(rng)),
                    Gate("Rz", (2,), angle=0.3), Gate("T", (1,)),
                    Gate("Tdg", (0,)), Gate("CCX", (0, 1, 2))])
    mapping = {0: 4, 1: 0, 2: 3}
    adjoint = {"T": "Tdg", "Tdg": "T"}
    want_r = [Gate(g.kind, [mapping[q] for q in g.qubits], g.angle, g.matrix)
              for g in c.gates]
    want_i = [Gate(adjoint.get(g.kind, g.kind), g.qubits,
                   None if g.angle is None else -g.angle,
                   None if g.matrix is None
                   else np.asarray(g.matrix).conj().T)
              for g in reversed(c.gates)]
    calls = []
    real_check = ir.check_unitary
    monkeypatch.setattr(ir, "check_unitary",
                        lambda *a: calls.append(1) or real_check(*a))
    moved, inv = remap(c, mapping, 5), inverse(c)
    assert not calls
    assert list(moved.gates) == want_r and list(inv.gates) == want_i
    for g in moved.gates + inv.gates:
        assert g.matrix is None or isinstance(g.matrix, tuple)


def _family_circuits():
    """Every bench family's ``build`` circuit at three sizes."""
    for target, ancilla in FAMILY_TARGET.values():
        for n in (10, 12, 17) if target == "approx-u" else (3, 6, 21):
            yield build(target, n, 2, ancilla)[0]


def test_depth_and_report_match_the_lowered_circuit(rng):
    circuits = [random_circuit(nq, rng) for nq in range(2, 7)
                for _ in range(3)]
    # each of these CU2 gates leaves out some of its ABC parts
    circuits += [Circuit(2, [Gate("H", (1,)), Gate("CU2", (0, 1), matrix=U)])
                 for U in (np.eye(2), np.diag([1, 1j]), X, rz_mat(0.3),
                           -np.eye(2))]
    circuits += _family_circuits()
    for c in circuits:
        low = lower(c)
        assert depth(c) == depth(low), c
        assert report_for(c).total_gates == len(low.gates), c


def test_unchecked_builds_pass_the_public_checks(rng):
    # the constructions, lower, remap and inverse build their circuits
    # without checking each gate; the checked constructors accept them all
    cs = list(_family_circuits())
    cs += [lower(c) for c in cs] + [inverse(c) for c in cs]
    cs += [remap(c, {q: q + 1 for q in range(c.num_qubits)},
                 c.num_qubits + 1) for c in cs]
    for c in cs:
        again = [Gate(g.kind, g.qubits, g.angle, g.matrix) for g in c.gates]
        assert Circuit(c.num_qubits, again, c.ancilla_roles) == c, c


def test_trusted_builds_yield_valid_gates(rng):
    # lower, inverse, remap and the constructions build through _make and
    # _replace, which skip the checks of Gate(...) and Circuit(...); every
    # gate and circuit they give must pass those checks unchanged
    cs = [random_circuit(nq, rng) for nq in range(3, 7)]
    cs += [build(target, n, 2, ancilla)[0]
           for target, ancilla in FAMILY_TARGET.values()
           for n in ((10, 12) if target == "approx-u" else (1, 2, 5, 20))]
    for c in cs:
        nq = c.num_qubits + 2
        moved = remap(c, dict(enumerate(rng.permutation(nq))), nq)
        for out in (c, lower(c), inverse(c), moved):
            for g in out.gates:
                assert Gate(*g) == g, g
            assert Circuit(out.num_qubits, out.gates,
                           out.ancilla_roles) == out, out


def _qasm_from_gates(c, fmt):
    """Assembly text of ``c`` written gate by gate from ``lower(c)``."""
    if fmt == "qasm2":
        lines, u = ['OPENQASM 2.0;', 'include "qelib1.inc";',
                    'qreg q[%d];' % c.num_qubits], "u3"
    else:
        lines, u = ['OPENQASM 3.0;', 'include "stdgates.inc";',
                    'qubit[%d] q;' % c.num_qubits], "U"
    for g in lower(c).gates:
        q = ",".join("q[%d]" % i for i in g.qubits)
        if g.kind in ("X", "H", "T", "Tdg"):
            lines.append("%s %s;" % (g.kind.lower(), q))
        elif g.kind in ("Rx", "Ry", "Rz"):
            lines.append("%s(%.17g) %s;" % (g.kind.lower(), g.angle, q))
        elif g.kind == "CX":
            lines.append("cx %s;" % q)
        else:
            assert g.kind == "U2"
            _, beta, gamma, delta = ir.zyz_angles(g.matrix)
            lines.append("%s(%.17g,%.17g,%.17g) %s;"
                         % (u, gamma, beta, delta, q))
    return "\n".join(lines) + "\n"


def test_assembly_export_matches_the_lowered_gates(rng):
    circuits = list(_family_circuits())
    circuits += [Circuit(3, [Gate("CU2", (2, 0), matrix=U),
                             Gate("Rx", (1,), angle=0.7),
                             Gate("Ry", (0,), angle=-1.25),
                             Gate("Rz", (2,), angle=np.pi / 3)])
                 for U in (np.eye(2), np.diag([1, 1j]), X, rx_mat(0.4),
                           ry_mat(2.0), rz_mat(0.3), random_su2(rng))]
    circuits.append(random_circuit(5, rng))
    for c in circuits:
        for fmt in ("qasm2", "qasm3"):
            assert export_text(c, fmt) == _qasm_from_gates(c, fmt), c


def test_report_for_counts():
    c = Circuit(4, [Gate("CCX", (0, 1, 3))],
                ancilla_roles=("none", "none", "clean", "none"))
    rep = report_for(c, "clean")
    assert rep.cnot_count == 6
    assert rep.num_ancilla == 1
    assert rep.ancilla_kind == "clean"


def test_json_round_trip(rng):
    c = Circuit(3, [Gate("H", (0,)), Gate("Rz", (1,), angle=-0.25),
                    Gate("CU2", (0, 2), matrix=random_su2(rng)),
                    Gate("RCCX", (0, 1, 2))])
    text = export_text(c, "json")
    back = parse_json(text)
    assert back.num_qubits == 3
    assert back.gates == c.gates
    # byte-stable
    assert export_text(back, "json") == text


def test_json_keeps_ancilla_roles():
    c = Circuit(3, [Gate("CCX", (0, 1, 2))], ("none", "none", "dirty"))
    text = export_text(c, "json")
    assert json.loads(text)["ancilla_roles"] == ["none", "none", "dirty"]
    assert parse_json(text) == c
    # without the key every wire is a plain data wire
    assert "ancilla_roles" not in export_text(Circuit(2), "json")
    assert parse_json('{"n": 2, "gates": []}').ancilla_roles == ("none",) * 2


@pytest.mark.parametrize("text", [
    '{"gates": []}', "[1, 2]", '{"n": -1, "gates": []}', '{"n": 1.5}',
    '{"n": 2, "gates": {}}', '{"n": 2, "gates": [7]}',
    '{"n": 2, "gates": [{"kind": "X"}]}',
    '{"n": 2, "gates": [{"kind": "X", "qubits": 0}]}',
    '{"n": 1, "gates": [], "ancilla_roles": "clean"}',
    '{"n": true, "gates": [{"kind": "X", "qubits": [false]}]}',
    '{"n": 2, "gates": [{"kind": "X", "qubits": [false]}]}',
    '{"n": 2, "gates": [{"kind": "X", "qubits": [1.5]}]}',
    '{"n": 8194, "gates": []}',
    '{"n": 1, "gates": [{"kind": "Rz", "qubits": [0], "params": [true]}]}',
    '{"n": 1, "gates": [{"kind": "U2", "qubits": [0], "matrix": '
    '[[true, false], [false, false], [false, false], [true, false]]}]}'])
def test_parse_json_rejects_bad_shapes(text):
    with pytest.raises(ValueError):
        parse_json(text)


def test_json_schema_shape():
    c = Circuit(2, [Gate("CU2", (0, 1), matrix=H)])
    d = json.loads(export_text(c, "json"))
    assert d["n"] == 2
    g = d["gates"][0]
    assert g["kind"] == "CU2" and g["qubits"] == [0, 1]
    assert len(g["matrix"]) == 4 and len(g["matrix"][0]) == 2


def test_qasm_headers_and_equivalence(rng):
    c = Circuit(3, [Gate("CCX", (0, 1, 2)), Gate("Rz", (0,), angle=0.3),
                    Gate("CU2", (1, 2), matrix=random_su2(rng))])
    q2 = export_text(c, "qasm2")
    q3 = export_text(c, "qasm3")
    assert q2.startswith("OPENQASM 2.0;")
    assert q3.startswith("OPENQASM 3.0;")
    assert "qreg q[3];" in q2
    assert "qubit[3] q;" in q3
    with pytest.raises(ValueError):
        export_text(c, "quil")


def test_qasm_angle_precision():
    c = Circuit(1, [Gate("Rz", (0,), angle=np.pi / 3)])
    assert "%.17g" % (np.pi / 3) in export_text(c, "qasm2")
