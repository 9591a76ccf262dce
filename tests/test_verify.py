import numpy as np
import pytest

import qsynth.bench as bench
import qsynth.cli as cli
from qsynth.ir import Circuit, Gate
from qsynth.mcx import McxSpec, mcx_log
from qsynth.sim import apply, random_state
from qsynth.su2 import mcmt_x
from qsynth.verify import Spec, oracle_matrix, sparse_apply, verify_circuit

from conftest import X, mcmt_oracle, random_circuit, random_su2


def test_oracle_matches_reference(rng):
    # mcmt-x with its ancilla, then random SU(2) targets without one; mcx
    # shapes are in test_mcx
    shapes = [(8, 4, (X,) * 3)]
    shapes += [(nq, n, tuple(random_su2(rng) for _ in range(nq - n)))
               for nq, n in ((4, 1), (5, 3), (6, 3), (7, 4))]
    for nq, n, ws in shapes:
        want = mcmt_oracle(nq, n, range(n, n + len(ws)), ws)
        assert np.abs(oracle_matrix(nq, n, ws) - want).max() < 1e-15


@pytest.mark.parametrize("nq", [3, 5, 8])
def test_sparse_apply_matches_dense(nq, rng):
    c = random_circuit(nq, rng)
    # a basis input and a random state, told apart by their owners
    psis = [np.eye(1 << nq)[5], random_state(nq, rng)]
    flat = np.concatenate([[5], np.arange(1 << nq)])
    bits, amp, owner = sparse_apply(
        c, (flat >> np.arange(nq)[:, None]) & 1,
        np.concatenate([[1], psis[1]]), np.repeat([0, 1], [1, 1 << nq]))
    got = np.zeros((2, 1 << nq), dtype=complex)
    np.add.at(got, (owner, (bits.T << np.arange(nq)).sum(axis=1)), amp)
    assert np.abs(got - [apply(c, psi) for psi in psis]).max() < 1e-10


def test_sparse_tier_catches_a_retargeted_store(capsys, monkeypatch):
    # move one store (an X and an RCCX onto a freed wire) and its mirror
    # image to another freed wire: same CX count, wrong circuit
    good = mcx_log(McxSpec(20, "clean"))
    gates = list(good.gates)
    assert [gates[i].qubits[-1] for i in (21, 22)] == [13, 13]
    for i in (21, 22, len(gates) - 22, len(gates) - 23):
        gates[i] = Gate(gates[i].kind, gates[i].qubits[:-1] + (17,))
    bad = Circuit(good.num_qubits, gates, good.ancilla_roles)
    monkeypatch.setattr(bench, "mcx_log", lambda spec: bad)
    assert cli.run(["verify", "mcx", "--controls", "20"]) == 1
    err = capsys.readouterr().err
    assert "verify mcx: FAIL tier=sparse inputs=" in err
    assert "cnot count" not in err


def test_spot_tier_catches_a_retargeted_store(capsys, monkeypatch):
    # the store X(8), RCCX(10, 11, 8) and its mirror image moved onto
    # wire 12: same CX count, wrong circuit, in the spot tier's range
    good = mcx_log(McxSpec(13, "clean"))
    gates = list(good.gates)
    assert [gates[i].qubits[-1] for i in (9, 10)] == [8, 8]
    for i in (9, 10, len(gates) - 10, len(gates) - 11):
        gates[i] = Gate(gates[i].kind, gates[i].qubits[:-1] + (12,))
    bad = Circuit(good.num_qubits, gates, good.ancilla_roles)
    monkeypatch.setattr(bench, "mcx_log", lambda spec: bad)
    assert cli.run(["verify", "mcx", "--controls", "13"]) == 1
    err = capsys.readouterr().err
    assert "verify mcx: FAIL tier=spot inputs=8: spot check distance" in err
    assert "(input 0)" in err and "cnot count" not in err


def test_spot_tier_names_the_first_failing_input():
    # X(0) CX(0, 11) X(0) flips a target whenever control 0 is clear: the
    # firing input 0 passes, the five drawn inputs (control 0 clear) fail
    good = mcmt_x(11, 2)
    bad = Circuit(good.num_qubits, good.gates + (
        Gate("X", (0,)), Gate("CX", (0, 11)), Gate("X", (0,))))
    v = verify_circuit(bad, Spec("mcmt-x", 11, (X, X), "clean"))
    assert (v.tier, v.inputs) == ("spot", 6)
    assert v.fails[-1].startswith("spot check distance")
    assert v.fails[-1].endswith("(input 1)")


def test_mcmt_su2_count_is_exact():
    # a CX pair leaves the unitary alone but adds 2 CX, which stay inside
    # the old 12n + 8m - 30 budget for m >= 2; the exact count catches it
    c, spec = bench.build("mcmt-su2", 4, 3, gate=random_su2(
        np.random.default_rng(5)))
    bad = Circuit(c.num_qubits, c.gates + (Gate("CX", (0, 4)),) * 2)
    assert verify_circuit(c, spec).fails == ()
    v = verify_circuit(bad, spec)
    assert v.fails == ("cnot count %d != %d" % (12 * 4 + 6 * 3 - 26,
                                                 12 * 4 + 6 * 3 - 28),)


@pytest.mark.parametrize("argv, tier", [
    ("mcx --controls 4 --ancilla dirty", "dense"),
    ("mcmt-x --controls 9 --targets 2", "spot"),
    ("mcx --controls 29", "sparse"),
    ("mcx --controls 29 --ancilla dirty", "sparse"),
    ("mcmt-x --controls 17 --targets 3", "sparse"),
    ("mcmt-su2 --controls 17 --targets 2 --gate h", "sparse"),
    ("approx-u --controls 18 --gate x --epsilon 0.1", "sparse"),
])
def test_verify_names_its_tier(capsys, argv, tier):
    assert cli.run(["verify"] + argv.split()) == 0
    err = capsys.readouterr().err
    assert ": ok tier=%s inputs=" % tier in err
    assert ("necessary, not sufficient" in err) == argv.startswith("approx")


@pytest.mark.parametrize("target, n", [("mcmt-su2", 10), ("mcmt-x", 9)])
def test_spot_tier_sees_a_phase_that_depends_on_the_controls(target, n):
    # Rz on control 0 keeps the CX count and maps each basis pattern of the
    # controls to itself up to a phase, but that phase moves with control 0:
    # the exact targets share one phase over all inputs, so input 1 (control
    # 0 clear) fails against the firing input's phase
    c, spec = bench.build(target, n, 2)
    bad = Circuit(c.num_qubits, c.gates + (Gate("Rz", (0,), angle=0.3),),
                  c.ancilla_roles)
    assert verify_circuit(c, spec).lines() == ["ok tier=spot inputs=6"]
    v = verify_circuit(bad, spec)
    assert (v.tier, v.inputs, len(v.fails)) == ("spot", 6, 1)
    assert v.fails[0].startswith("spot check distance")
    assert v.fails[0].endswith("(input 1)")


def test_approx_spot_verdict_says_it_checks_columns(capsys):
    assert cli.run(["verify", "approx-u", "--controls", "12", "--gate", "x",
                    "--epsilon", "0.1"]) == 0
    assert capsys.readouterr().err == (
        "verify approx-u: ok tier=spot inputs=6; the per-column epsilon "
        "check is necessary, not sufficient, for the spectral bound\n")
