import math

import numpy as np
import pytest

from qsynth.approx import (ApproxParams, _ladder, _mat_power, approx_mcu,
                           nb_from_epsilon, su2_angle)
from qsynth.cli import parse_gate_spec, run
from qsynth.ir import Circuit, cnot_count, lower, report_for, rz_mat
from qsynth.sim import apply, spectral_distance, unitary_of

from conftest import X, ctrl_u, random_su2


def root_gate(U, j):
    """Principal 2^j-th root of a 2x2 unitary via eigenphase division."""
    return np.asarray(_mat_power(U, 1.0 / (1 << j)))


def _exact_mcu(n, U):
    """Exact C^nU over n+1 qubits: the column ladder with no truncation."""
    gates = []
    _ladder(gates, U, list(range(n)), n, True)
    return Circuit(n + 1, gates)


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
    # phi = 2 asin(eps/2) is 0 only where eps/2 rounds to 0, at the smallest
    # subnormal; below about 1.5e-8, where arccos(1 - eps^2/2) rounded to 0,
    # n_b grows by one per halving of eps, past a ratio |theta| / phi that
    # overflows a float (below about 3.5e-308)
    with pytest.raises(ValueError, match="too small"):
        nb_from_epsilon(math.pi, 5e-324)
    assert [nb_from_epsilon(math.pi, eps) for eps in (
        1e-320, 1e-300, 1e-9, 1e-8, 2e-8)] == [1065, 999, 32, 29, 28]


@pytest.mark.parametrize("argv", [
    "synth approx-u --controls 12 --gate z --epsilon 1e-300",
    "verify approx-u --controls 40 --gate h --epsilon 1e-8",
    "bench --family approx_u --n-min 20 --n-max 20 --epsilon 1e-9"])
def test_an_epsilon_too_small_for_arccos_is_a_usage_error(capsys, argv):
    # arccos(1 - eps^2/2) rounded each eps to 0; 2 asin(eps/2) does not, and
    # the n_b it gives is past the request's n or past the sparse tier
    assert run(argv.split()) == 2
    assert capsys.readouterr().err == {
        "synth": "error: need n >= n_b + 5 = 1004 control qubits for "
                 "epsilon = 1e-300 (got n = 12)\n",
        "verify": "error: sparse check needs more than 2097152 amplitudes\n",
        "bench": "error: need n >= n_b + 5 = 37 control qubits for "
                 "epsilon = 1e-09 (got n = 20)\n"}[argv.split()[0]]


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


@pytest.mark.parametrize("gate", ["rz(2*pi)", "[[-1, 0], [0, -1]]"])
@pytest.mark.parametrize("n, epsilon, n_b, cnot, tier", [
    (9, 0.5, 4, 176, "dense"), (11, 0.1, 6, 280, "dense")])
def test_su2_part_minus_identity(capsys, gate, n, epsilon, n_b, cnot, tier):
    # theta = 2 pi, the top of its range: the SU(2) part is -I
    c, params = approx_mcu(n, parse_gate_spec(gate), epsilon)
    assert abs(params.theta - 2 * math.pi) < 1e-12
    assert (params.n_b, cnot_count(c)) == (n_b, cnot)
    assert cnot == 4 * n_b ** 2 + 24 * n - 12 * n_b - 56
    code = run(["verify", "approx-u", "--controls", str(n), "--gate", gate,
                "--epsilon", str(epsilon)])
    assert code == 0
    assert capsys.readouterr().err == (
        "verify approx-u: ok tier=%s inputs=%d\n" % (tier, 2 << n))
