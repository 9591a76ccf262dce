import numpy as np
import pytest

import qsynth.verify as verify
from qsynth.ir import ANGLE_KINDS, ARITY, MATRIX_KINDS, Circuit, Gate

# ---------------------------------------------------------------------------
# independent oracles: plain index arithmetic, no circuit machinery involved

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ctrl_u(nq, ctrls, target, W):
    """Unitary of W on `target` controlled on `ctrls`, little-endian."""
    dim = 1 << nq
    cm = sum(1 << c for c in ctrls)
    tb = 1 << target
    M = np.eye(dim, dtype=complex)
    for i in range(dim):
        if (i & cm) == cm and not (i & tb):
            j = i | tb
            M[i, i], M[j, i] = W[0, 0], W[1, 0]
            M[i, j], M[j, j] = W[0, 1], W[1, 1]
    return M


def mcmt_oracle(nq, n, targets, Ws):
    """Product of controlled gates, one W per target, shared controls."""
    M = np.eye(1 << nq, dtype=complex)
    for t, W in zip(targets, Ws):
        M = ctrl_u(nq, range(n), t, W) @ M
    return M


def random_su2(rng):
    """Haar-ish SU(2) sample from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return np.array([[q[0] - 1j * q[3], -q[2] - 1j * q[1]],
                     [q[2] - 1j * q[1], q[0] + 1j * q[3]]], dtype=complex)


def product_state(n, rng):
    """A random product state of n qubits, qubit 0 least significant."""
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(v / np.linalg.norm(v), amps)
    return amps


def random_circuit(nq, rng, copies=4):
    """Every gate kind that fits on nq wires, ``copies`` times, on random
    wires in random order."""
    kinds = [k for k in ARITY if ARITY[k] <= nq] * copies
    return Circuit(nq, [Gate(k, rng.choice(nq, ARITY[k], replace=False),
                             angle=rng.normal() if k in ANGLE_KINDS else None,
                             matrix=random_su2(rng) if k in MATRIX_KINDS
                             else None) for k in rng.permutation(kinds)])


def kernel_fails(c, spec):
    """The dense tier's FAIL line from the sparse tier's kernel
    (``verify._held``) run on every basis input the spec allows, a clean
    ancilla (the top wire) at 0, 2^17 rows a run: the first input that
    breaks verify's rule, with its distance, or []."""
    nq = c.num_qubits
    k, step = 1 << (nq - (spec.ancilla == "clean")), max(1, (1 << 17) >> nq)
    for j in range(0, k, step):
        i = np.arange(j, min(j + step, k))
        err, bad = verify._held(c, spec, (i >> np.arange(nq)[:, None] & 1)
                                == 1, np.ones(len(i), dtype=complex), i - j,
                                len(i))
        if bad.size:
            return ["dense check distance %.3e (input %d)"
                    % (err[bad[0]], j + bad[0])]
    return []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
