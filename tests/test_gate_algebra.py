"""The plain-Python 2x2 gate algebra against a numpy reference, on a fixed
grid: the named gates, rotations at k pi / 8, -I and seeded random
unitaries."""
import math

import numpy as np
import pytest

from qsynth import ir
from qsynth.approx import _mat_power
from qsynth.cli import parse_gate_spec
from qsynth.su2 import conjugation_frame

from conftest import X, random_su2


ROTATIONS = {"rx": ir.rx_mat, "ry": ir.ry_mat, "rz": ir.rz_mat}


def _grid():
    gates = {name: parse_gate_spec(name) for name in "xzsth"}
    for k in range(17):
        for name, rot in ROTATIONS.items():
            gates["%s(%d pi/8)" % (name, k)] = rot(k * math.pi / 8)
    gates["-I"] = -np.eye(2)
    rng = np.random.default_rng(2024)
    for i in range(50):
        gates["random %d" % i] = np.exp(1j * rng.uniform(-math.pi, math.pi)) \
            * random_su2(rng)
    return {name: ir.check_unitary(U) for name, U in gates.items()}


GRID = _grid()


@pytest.mark.parametrize("name", GRID)
def test_abc_parts_recompose(name):
    U = GRID[name]
    C, B, A, phase = (np.eye(2) if m is None else np.asarray(m)
                      for m in ir._abc(U))
    # control clear: A B C = I; control set: e^{i alpha} A X B X C = U
    assert np.abs(A @ B @ C - np.eye(2)).max() < 1e-12
    assert np.abs(phase[1, 1] * A @ X @ B @ X @ C - U).max() < 1e-12


@pytest.mark.parametrize("name", GRID)
def test_mat_power_matches_the_eigendecomposition(name):
    U = GRID[name]
    w, V = np.linalg.eig(np.asarray(U))
    for k in range(1, 7):
        p = 1.0 / (1 << k)
        got = np.asarray(_mat_power(U, p))
        # the eigenvalues of a 2 pi rotation, -1 -+ 1.2e-16 i, are 3e-16
        # apart, so to numpy every vector is an eigenvector of rx(2 pi) and
        # ry(2 pi), and it returns an arbitrary pair; the closed form
        # R(theta)^p = R(p theta) of the rotations covers those
        if not 0 < abs(w[0] - w[1]) < 1e-8:
            want = V @ np.diag(w ** p) @ np.linalg.inv(V)
            assert np.abs(got - want).max() < 1e-12, k
        if name[:2] in ROTATIONS:
            theta = int(name[3:].split()[0]) * math.pi / 8
            want = ROTATIONS[name[:2]](p * theta)
            assert np.abs(got - want).max() < 1e-12, k


@pytest.mark.parametrize("name", GRID)
def test_conjugation_frame_residual(name):
    U = np.asarray(GRID[name])
    W = U / np.sqrt(np.linalg.det(U))
    A, F = map(np.asarray, conjugation_frame(W))
    P = X @ A @ X @ A.conj().T
    got = F @ P @ P @ F.conj().T
    assert min(np.abs(got - W).max(), np.abs(got + W).max()) < 1e-9
