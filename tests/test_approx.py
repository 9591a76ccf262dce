import math

import numpy as np
import pytest

from qsynth.approx import (ApproxParams, _exact_mcu, approx_mcu,
                           nb_from_epsilon, root_gate, su2_angle)
from qsynth.ir import cnot_count, lower, report_for
from qsynth.sim import apply, rx_mat, rz_mat, spectral_distance, unitary_of

from conftest import X, ctrl_u, random_su2


def test_su2_angle_of_x():
    theta, alpha = su2_angle(X)
    assert abs(theta - math.pi) < 1e-12
    assert abs(alpha - math.pi / 2) < 1e-12


def test_su2_angle_of_rotations():
    for th in (0.3, 1.7, 3.0):
        theta, alpha = su2_angle(rz_mat(th))
        assert abs(theta - th) < 1e-12
        assert abs(alpha) < 1e-12


def test_su2_angle_rejects_garbage():
    with pytest.raises(ValueError):
        su2_angle(np.ones((2, 2)))
    with pytest.raises(ValueError):
        su2_angle(np.eye(3))
    with pytest.raises(ValueError):
        su2_angle(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        su2_angle(np.array([[np.inf, 0], [0, 1]]))


def test_nb_values():
    assert nb_from_epsilon(math.pi, 1e-3) == 12
    assert nb_from_epsilon(math.pi, 0.1) == 5
    assert nb_from_epsilon(math.pi, 0.3) == 4
    assert nb_from_epsilon(0.01, 1.5) == 1  # floor at 1


def test_nb_monotone_in_epsilon():
    prev = None
    for eps in (1.0, 0.5, 0.1, 0.01, 0.001):
        nb = nb_from_epsilon(math.pi, eps)
        if prev is not None:
            assert nb >= prev
        prev = nb


def test_nb_errors():
    with pytest.raises(ValueError):
        nb_from_epsilon(0.0, 0.1)
    with pytest.raises(ValueError):
        nb_from_epsilon(math.pi, 0.0)
    with pytest.raises(ValueError):
        nb_from_epsilon(math.pi, 2.0)


def test_root_gate_squares_back(rng):
    U = random_su2(rng)
    R = root_gate(U, 1)
    assert np.abs(R @ R - U).max() < 1e-10
    R3 = root_gate(U, 3)
    acc = np.eye(2)
    for _ in range(8):
        acc = acc @ R3
    assert np.abs(acc - U).max() < 1e-9


def test_root_gate_principal():
    # eigenphases are divided, not wrapped: the 4th root of Rz stays close
    # to identity
    R = root_gate(rz_mat(1.0), 2)
    assert np.abs(R - rz_mat(0.25)).max() < 1e-10


def test_exact_ladder_small_n():
    for n in (3, 4):
        c = _exact_mcu(n, X)
        A = unitary_of(lower(c))
        B = ctrl_u(n + 1, range(n), n, X)
        assert spectral_distance(A, B) < 1e-9, n


def test_params_validation():
    with pytest.raises(ValueError):
        ApproxParams(epsilon=0.1, theta=0.5, alpha=0.0, n_b=0, n_e=1)
    with pytest.raises(ValueError):
        ApproxParams(epsilon=2.5, theta=0.5, alpha=0.0, n_b=1, n_e=1)
    with pytest.raises(ValueError):
        ApproxParams(epsilon=0.1, theta=7.0, alpha=0.0, n_b=1, n_e=1)


def test_precondition_names_minimum():
    with pytest.raises(ValueError, match=r"n_b \+ 5 = 10"):
        approx_mcu(3, X, 0.1)


def test_nb_override_only_upward():
    c, params = approx_mcu(12, X, 0.1, n_b=6)
    assert params.n_b == 6
    with pytest.raises(ValueError):
        approx_mcu(12, X, 0.1, n_b=2)


def test_count_formula_and_linear_slope():
    counts = {}
    for n in (10, 11, 12, 20, 40):
        c, params = approx_mcu(n, X, 0.1)
        rep = report_for(c)
        n_b = params.n_b
        want = 4 * n_b ** 2 + 24 * n - 12 * n_b - 56
        assert rep.cnot_count == want, n
        assert cnot_count(c) == want
        counts[n] = want
    assert counts[11] - counts[10] == 24
    assert counts[12] - counts[11] == 24


def test_ancilla_free_register():
    c, params = approx_mcu(10, X, 0.1)
    assert c.num_qubits == 11
    assert all(r == "none" for r in c.ancilla_roles)
    assert params.n_e == 10 - params.n_b


def test_error_at_minimum_n():
    # smallest admissible instance; the heavier grid lives in the
    # acceptance suite
    eps = 0.3
    n = nb_from_epsilon(math.pi, eps) + 5
    c, params = approx_mcu(n, X, eps)
    A = unitary_of(lower(c))
    B = ctrl_u(n + 1, range(n), n, X)
    d = spectral_distance(A, B)
    assert d <= eps, d
    # the truncation error is exactly the dropped rotation angle
    assert abs(d - 2 * math.sin(math.pi / 2 ** (params.n_b + 1))) < 1e-6


def test_error_shrinks_with_larger_nb():
    # statevector probe on the firing branch, where the truncation error
    # concentrates; cheaper than the full unitary at this size
    n, eps = 11, 0.3
    pat = (1 << n) - 1
    psi = np.zeros(1 << (n + 1), dtype=complex)
    psi[pat] = 1.0                      # controls all fire, target |0>
    want = np.zeros_like(psi)
    want[pat | (1 << n)] = 1.0          # ... so X lands on the target
    errs = []
    for n_b in (4, 5, 6):
        c, _ = approx_mcu(n, X, eps, n_b=n_b)
        out = apply(lower(c), psi)
        # phase-aligned distance from the ideal output state
        errs.append(math.sqrt(max(0.0, 2 - 2 * abs(np.vdot(want, out)))))
    assert errs[0] > errs[1] > errs[2]
