import numpy as np
import pytest

import qsynth.sim as sim
from qsynth.ir import Circuit, Gate, lower
from qsynth.ir import rx_mat, ry_mat, rz_mat
from qsynth.sim import (apply, equiv, gate_matrix, random_state,
                        spectral_distance, spectral_norm, unitary_of)

from conftest import H, X, ctrl_u, random_circuit, random_su2


def test_x_on_single_qubit():
    U = unitary_of(Circuit(1, [Gate("X", (0,))]))
    assert np.array_equal(U, X)


def test_little_endian_convention():
    # X on qubit 0 of a 2-qubit register flips the LSB of the index
    U = unitary_of(Circuit(2, [Gate("X", (0,))]))
    assert np.abs(U - np.kron(np.eye(2), X)).max() < 1e-15
    # and on qubit 1 the MSB
    U = unitary_of(Circuit(2, [Gate("X", (1,))]))
    assert np.abs(U - np.kron(X, np.eye(2))).max() < 1e-15


def test_cx_matches_oracle():
    U = unitary_of(Circuit(2, [Gate("CX", (0, 1))]))
    assert np.abs(U - ctrl_u(2, [0], 1, X)).max() < 1e-15
    U = unitary_of(Circuit(2, [Gate("CX", (1, 0))]))
    assert np.abs(U - ctrl_u(2, [1], 0, X)).max() < 1e-15


def test_ccx_matches_oracle():
    U = unitary_of(Circuit(3, [Gate("CCX", (0, 2, 1))]))
    assert np.abs(U - ctrl_u(3, [0, 2], 1, X)).max() < 1e-13


def test_rotations():
    for mk, mat in (("Rx", rx_mat), ("Ry", ry_mat), ("Rz", rz_mat)):
        U = unitary_of(Circuit(1, [Gate(mk, (0,), angle=0.37)]))
        assert np.abs(U - mat(0.37)).max() < 1e-15


def test_apply_consistent_with_unitary(rng):
    gates = [Gate("H", (0,)), Gate("CX", (0, 2)),
             Gate("CU2", (1, 0), matrix=random_su2(rng)),
             Gate("Rz", (2,), angle=1.1), Gate("RCCX", (2, 0, 1))]
    c = Circuit(3, gates)
    psi = random_state(3, rng)
    assert np.abs(apply(c, psi) - unitary_of(c) @ psi).max() < 1e-12


def test_caps_enforced():
    with pytest.raises(ValueError):
        unitary_of(Circuit(14, []))
    with pytest.raises(ValueError):
        apply(Circuit(23, []), np.zeros(2 ** 23, dtype=complex))


def test_equiv_exact_and_global_phase():
    A = unitary_of(Circuit(2, [Gate("CX", (0, 1))]))
    r = equiv(A, A, "exact")
    assert r.passed and r.distance == 0.0
    B = np.exp(0.42j) * A
    assert not equiv(A, B, "exact").passed
    r = equiv(A, B, "global_phase")
    assert r.passed and r.distance < 1e-12
    assert bool(r) is True


def test_equiv_diagonal():
    ccx = unitary_of(Circuit(3, [Gate("CCX", (0, 1, 2))]))
    rccx = unitary_of(Circuit(3, [Gate("RCCX", (0, 1, 2))]))
    assert equiv(rccx, ccx, "diagonal", 1e-12).passed
    h3 = unitary_of(Circuit(3, [Gate("H", (2,))]))
    assert not equiv(h3, ccx, "diagonal").passed


def test_equiv_rejects_mismatch():
    with pytest.raises(ValueError):
        equiv(np.eye(2), np.eye(4), "exact")
    with pytest.raises(ValueError):
        equiv(np.eye(2), np.eye(2), "sideways")
    with pytest.raises(ValueError, match="unknown mode"):
        equiv(np.eye(4), np.eye(4), "clean_subspace")


def test_spectral_distance_phase_invariant(rng):
    A = unitary_of(Circuit(2, [Gate("H", (0,)), Gate("CX", (0, 1))]))
    assert spectral_distance(A, np.exp(1.3j) * A) < 1e-12
    # Rz(theta) vs identity: eigenphases +-theta/2, so the aligned
    # distance sits between 2 sin(theta/4) and 2 sin(theta/2)
    th = 0.8
    d = spectral_distance(rz_mat(th), np.eye(2))
    assert 2 * np.sin(th / 4) - 1e-12 <= d <= 2 * np.sin(th / 2) + 1e-12


def test_spectral_distance_sees_an_error_orthogonal_to_uniform(
        monkeypatch):
    # above EXACT_CAP, here lowered to 256, the norm comes from a power
    # iteration: an error orthogonal to the uniform vector must still show
    # in full
    monkeypatch.setattr(sim, "EXACT_CAP", 256)
    B = np.eye(512)
    A = B[[1, 0] + list(range(2, 512))]
    assert abs(spectral_distance(A, B) - 2) < 1e-9
    assert abs(spectral_distance(A[:256, :256], B[:256, :256]) - 2) < 1e-12


def test_spectral_norm_is_exact_up_to_its_cap():
    # up to EXACT_CAP, past every dense verify operator (2048 rows), the
    # norm is an SVD's, however close the top two singular values lie
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.normal(size=(512, 512)))[0]
    s = np.linspace(0.5, 1.0, 512)
    s[-2] = 1.0 - 1e-9
    assert sim.EXACT_CAP >= 2048
    assert abs(spectral_norm(Q * s @ Q.T) - 1.0) < 1e-12


def test_random_state_properties(rng):
    psi = random_state(4, rng)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12


def test_gate_matrix_first_operand_msb():
    M = gate_matrix(Gate("CX", (0, 1)))
    # within a gate's own matrix the first operand is the high bit
    assert np.array_equal(M, np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 0, 1], [0, 0, 1, 0]],
                                      dtype=complex))


def _embedded(g, n):
    """One gate's 2^n x 2^n matrix, by index arithmetic."""
    M, k = gate_matrix(g), len(g.qubits)
    col = np.arange(1 << n)
    local = sum(((col >> q) & 1) << (k - 1 - i)
                for i, q in enumerate(g.qubits))
    rest = col & ~sum(1 << q for q in g.qubits)
    E = np.zeros((1 << n, 1 << n), dtype=complex)
    for out in range(1 << k):
        row = rest | sum(((out >> (k - 1 - i)) & 1) << q
                         for i, q in enumerate(g.qubits))
        E[row, col] = M[out, local]
    return E


@pytest.mark.parametrize("nq, seed", [(6, 0), (7, 1), (8, 2), (8, 3)])
def test_fused_unitary_matches_unfused_product(nq, seed):
    # the unfused reference: the ordered product of every gate's embedding;
    # more than 5 wires, so the fused blocks must split
    c = random_circuit(nq, np.random.default_rng(seed))
    want = np.eye(1 << nq, dtype=complex)
    for g in c.gates:
        want = _embedded(g, nq) @ want
    assert np.abs(unitary_of(c) - want).max() <= 1e-12


def test_apply_on_a_stack_of_states(rng):
    c = random_circuit(7, rng, copies=2)
    stack = np.stack([random_state(7, rng) for _ in range(5)], axis=1)
    want = np.stack([apply(c, psi) for psi in stack.T], axis=1)
    assert np.abs(apply(c, stack) - want).max() < 1e-12
    for shape in ((127, 3), (3, 128), (128, 3, 1), ()):
        with pytest.raises(ValueError):
            apply(c, np.zeros(shape, dtype=complex))
