import numpy as np
import pytest

from qsynth.ir import cnot_count, depth, lower, rx_mat, rz_mat
from qsynth.sim import equiv, unitary_of
from qsynth.su2 import (McmtSpec, conjugation_frame, conjugation_residual,
                        find_conjugating_gate, mcmt_su2, mcmt_x)

from conftest import X, ctrl_u, mcmt_oracle, random_su2

XM = np.array([[0, 1], [1, 0]], dtype=complex)


def _reachable_su2(rng):
    """Sample from the solvable class: quaternion x-component zero, i.e.
    real anti-diagonal."""
    q = rng.normal(size=4)
    q[1] = 0.0
    q /= np.linalg.norm(q)
    return np.array([[q[0] - 1j * q[3], -q[2]],
                     [q[2], q[0] + 1j * q[3]]], dtype=complex)


def test_identity_maps_to_identity():
    A = find_conjugating_gate(np.eye(2, dtype=complex))
    assert np.abs(A - np.eye(2)).max() < 1e-12


def test_rz_quarter_angle():
    beta = 0.9
    A = np.asarray(find_conjugating_gate(rz_mat(beta)))
    assert np.abs(A - rz_mat(-beta / 4)).max() < 1e-12


def test_conjugation_residual_definition(rng):
    W = _reachable_su2(rng)
    A = np.asarray(find_conjugating_gate(W))
    P = XM @ A @ XM @ A.conj().T
    assert min(np.abs(P @ P - W).max(),
               np.abs(P @ P + W).max()) < 1e-9
    assert conjugation_residual(A, W) < 1e-9


def test_thousand_reachable_samples():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        W = _reachable_su2(rng)
        A = find_conjugating_gate(W)
        worst = max(worst, conjugation_residual(A, W))
    assert worst < 1e-9, worst


def test_deterministic():
    rng = np.random.default_rng(7)
    W = _reachable_su2(rng)
    A1 = find_conjugating_gate(W)
    A2 = find_conjugating_gate(W.copy())
    assert np.asarray(A1).tobytes() == np.asarray(A2).tobytes()


def test_unreachable_flagged():
    # an imaginary part on the anti-diagonal puts W outside the solvable
    # class for this equation shape
    with pytest.raises(ValueError):
        find_conjugating_gate(rx_mat(0.7))
    with pytest.raises(ValueError):
        find_conjugating_gate(np.array([[0.0, 1.0j], [1.0j, 0.0]],
                                       dtype=complex))


def test_rejects_non_su2():
    with pytest.raises(ValueError):
        find_conjugating_gate(np.diag([1.0, 1.0j]))   # det != 1
    with pytest.raises(ValueError):
        find_conjugating_gate(np.ones((2, 2)))
    with pytest.raises(ValueError):
        find_conjugating_gate(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        find_conjugating_gate(np.array([[np.inf, 0], [0, 1]]))


def test_conjugation_frame_extends_reach(rng):
    # any SU(2) becomes reachable after the diagonal frame rotation
    for _ in range(50):
        W = random_su2(rng)
        A, F = conjugation_frame(W)
        F = np.asarray(F)
        assert conjugation_residual(A, F.conj().T @ W @ F) < 1e-9


# ---------------------------------------------------------------------------
# multi-controlled multi-target X


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (3, 1), (3, 5), (4, 4),
                                 (5, 2), (6, 3)])
def test_mcmt_x_equivalent(n, m):
    c = mcmt_x(n, m)
    assert c.num_qubits == n + m + 1
    A = unitary_of(lower(c))
    B = mcmt_oracle(n + m + 1, n, range(n, n + m), [X] * m)
    # the columns whose clean ancilla (the top wire) is 0, no phase freedom
    d = np.abs(A - B)[:, :1 << (n + m)].max()
    assert d < 1e-9, (n, m, d)


def test_mcmt_x_counts():
    for n in range(3, 120, 7):
        for m in (1, 2, 5, 31, 64, 180):
            assert cnot_count(mcmt_x(n, m)) == 6 * n + 2 * m - 8, (n, m)
    assert cnot_count(mcmt_x(1, 9)) == 9
    assert cnot_count(mcmt_x(2, 9)) == 2 * 9 + 4


def test_mcmt_x_fanout_depth():
    # the copy network adds layers logarithmically with the target count
    base = depth(lower(mcmt_x(5, 8)))
    assert depth(lower(mcmt_x(5, 16))) <= base + 4
    assert depth(lower(mcmt_x(5, 64))) <= base + 12


# ---------------------------------------------------------------------------
# multi-controlled multi-target SU(2)


def test_mcmt_spec_validation(rng):
    with pytest.raises(ValueError):
        McmtSpec(3, 2, (random_su2(rng),))       # wrong list length
    with pytest.raises(ValueError):
        McmtSpec(3, 1, (np.diag([1.0, 1.0j]),))  # not SU(2)
    with pytest.raises(ValueError):
        McmtSpec(0, 1, (np.eye(2, dtype=complex),))


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 1), (3, 3), (4, 2),
                                 (5, 3), (6, 2)])
def test_mcmt_su2_equivalent(n, m):
    rng = np.random.default_rng(100 * n + m)
    Ws = tuple(random_su2(rng) for _ in range(m))
    c = mcmt_su2(McmtSpec(n, m, Ws))
    assert c.num_qubits == n + m   # ancilla-free
    A = unitary_of(lower(c))
    B = mcmt_oracle(n + m, n, range(n, n + m), Ws)
    r = equiv(A, B, "global_phase", 1e-9)
    assert r.passed, (n, m, r.distance)


def test_mcmt_su2_counts_within_bound():
    W = rz_mat(0.4)
    for n in range(3, 80, 5):
        for m in (1, 2, 3, 8, 30):
            got = cnot_count(mcmt_su2(McmtSpec(n, m, (W,) * m)))
            assert got == 12 * n + 6 * m - 28, (n, m)
            assert got <= 12 * n + 8 * m - 30
    # direct small-n forms
    assert cnot_count(mcmt_su2(McmtSpec(1, 4, (W,) * 4))) == 8
    assert cnot_count(mcmt_su2(McmtSpec(2, 4, (W,) * 4))) <= 8 * 4
