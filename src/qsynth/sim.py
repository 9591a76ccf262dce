"""Dense unitary and statevector simulation: the correctness oracle.

Everything here uses the global little-endian convention: the bit of qubit
``q`` in a basis-state index ``i`` is ``(i >> q) & 1``.  ``unitary_of`` is
capped at 13 qubits (dimension 8192), ``apply`` at 22 qubits.

Both fuse each run of consecutive gates that touches at most ``FUSE_WIDTH``
distinct qubits into one block (Haner & Steiger, arXiv:1704.01127).  A
block's 2^k x 2^k matrix is built by the same small-tensor contraction on a
2^k identity, and then each block, not each gate, makes one pass over the
big tensor.  The last circuit's blocks are kept for its next stack.
``operator`` fuses the steps of one class of verify's split check the same
way.

``verify`` runs neither ``apply`` nor ``unitary_of``, the tests' reference;
its checks take ``gate_matrix``, ``random_state``, ``operator``, ``top``
and ``spectral_norm``.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from ._np import np
from .ir import PHASE_TIE, Circuit, Gate, lower, target_matrix

UNITARY_CAP = 13
APPLY_CAP = 22
FUSE_WIDTH = 5         # widest fused block; of 3 to 6, fastest on verify
EXACT_CAP = 2048       # widest SVD norm: 3.9 s on a 2-core Xeon
_POWER_SEED = 20240811


@lru_cache(maxsize=4096)
def _array(m, values):
    """Read-only array of the 2x2 matrix tuple ``m`` acting where control
    wires in front hold ``values``, built once per matrix."""
    at = 2 * sum(v << i for i, v in enumerate(values[::-1]))
    a = np.eye(2 << len(values), dtype=complex)
    a[at:at + 2, at:at + 2] = m
    a.setflags(write=False)
    return a


@lru_cache(maxsize=1)
def rccx_matrix():
    """8x8 matrix of the relative-phase Toffoli, computed from its network."""
    # operands (a, b, t) with a as the most significant local index bit,
    # matching the gate_matrix ordering: under the global little-endian
    # convention that means a = qubit 2, b = qubit 1, t = qubit 0
    return unitary_of(lower(Circuit(3, [Gate("RCCX", (2, 1, 0))])))


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of one gate over its own operands.

    Index ordering inside the matrix follows the operand list: the first
    operand is the most significant bit of the local index.
    """
    if g.kind == "RCCX":
        return rccx_matrix()
    return _array(target_matrix(g), (1,) * (len(g.qubits) - 1))


def _contract(tensor, m, axes):
    """Apply matrix ``m`` (first operand most significant) on ``axes``."""
    k = len(axes)
    m = m.reshape((2,) * (2 * k))
    tensor = np.tensordot(m, tensor, axes=(range(k, 2 * k), axes))
    # tensordot puts the gate axes in front; move them back
    return np.moveaxis(tensor, range(k), axes)


def _block(ops, wires):
    """(qubits, matrix) of a run of (qubits, matrix) ops on ``wires``,
    first wire most significant."""
    if len(ops) == 1:
        return wires, ops[0][1]
    k = len(wires)
    t = np.eye(1 << k, dtype=complex).reshape((2,) * k + (1 << k,))
    for qubits, m in ops:
        t = _contract(t, m, [wires.index(q) for q in qubits])
    return wires, t.reshape(1 << k, 1 << k)


def _fuse(ops):
    """Greedy blocks of consecutive (qubits, matrix) ops on at most
    FUSE_WIDTH qubits."""
    blocks, run, wires = [], [], []
    for op in ops:
        grown = wires + [q for q in op[0] if q not in wires]
        if len(grown) > FUSE_WIDTH:
            blocks.append(_block(run, wires))
            run, grown = [], list(op[0])
        run.append(op)
        wires = grown
    return tuple(blocks + [_block(run, wires)] if run else blocks)


@lru_cache(maxsize=1)
def _fused(circuit):
    """The blocks of ``circuit``'s gates (:func:`_fuse`)."""
    return _fuse([(g.qubits, gate_matrix(g)) for g in circuit.gates])


def _run(blocks, state):
    """Each block applied to the (2^n, ...) array ``state``."""
    n = state.shape[0].bit_length() - 1
    t = state.reshape((2,) * n + state.shape[1:])
    for qubits, m in blocks:
        # axis for qubit q is n-1-q (little-endian)
        t = _contract(t, m, [n - 1 - q for q in qubits])
    return t.reshape(state.shape)


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit to a statevector, or to each column of a
    (2^n, k) stack of statevectors."""
    n = circuit.num_qubits
    if n > APPLY_CAP:
        raise ValueError("apply capped at %d qubits, got %d"
                         % (APPLY_CAP, n))
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape[0] != 2 ** n:
        raise ValueError("state dimension mismatch")
    return _run(_fused(circuit), state)


def operator(D, steps):
    """The D x D operator of ``steps``, each (target, ((control, value),
    ...), 2x2 matrix tuple) on log2(D) wires: ``verify._operator`` as an
    array, its steps fused into blocks as :func:`apply` fuses gates."""
    return _run(_fuse([(tuple(q for q, _ in ctl) + (t,),
                        _array(m, tuple(v for _, v in ctl)))
                       for t, ctl, m in steps]), np.eye(D, dtype=complex))


def ties(a):
    """Flat indices of the entries of ``a`` whose modulus is within
    PHASE_TIE of its largest: the entries the phase rule picks the first
    of."""
    m = np.abs(a)
    return np.flatnonzero(m >= m.max() - PHASE_TIE)


def top(op):
    """(index, value) of each of ``op``'s :func:`ties`, indexed in
    column-major order as ``verify._operator`` lists them."""
    t, hit = op.T, ties(op.T)
    return list(zip(hit.tolist(), t.flat[hit].tolist()))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary of the circuit: product of gate embeddings in order."""
    n = circuit.num_qubits
    if n > UNITARY_CAP:
        raise ValueError("unitary_of capped at %d qubits, got %d"
                         % (UNITARY_CAP, n))
    return apply(circuit, np.eye(2 ** n, dtype=complex))


class EquivResult(namedtuple("EquivResult", "distance passed mode")):
    """Distance plus pass/fail verdict from an equivalence check."""
    __slots__ = ()

    def __bool__(self):
        return self.passed


def _aligned(A, B):
    """A - e^{i phi} B, with phi the phase of the first of the
    :func:`ties` of B^dag A in row-major order."""
    D = B.conj().T @ A
    return A - cmath.exp(1j * cmath.phase(D.flat[ties(D)[0]])) * B


def equiv(A, B, mode, tol=1e-9) -> EquivResult:
    """Compare two unitaries under the requested equivalence mode.

    Modes: 'exact' (max-norm), 'global_phase', 'diagonal' (B^dag A diagonal
    with unit-modulus entries).  Returns distance and verdict.
    """
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("dimension mismatch")
    n = int(round(math.log2(A.shape[0])))
    if 2 ** n != A.shape[0]:
        raise ValueError("dimension is not a power of two")

    if mode == "exact":
        d = float(np.abs(A - B).max())
    elif mode == "global_phase":
        d = float(np.abs(_aligned(A, B)).max())
    elif mode == "diagonal":
        D = B.conj().T @ A
        off = D - np.diag(np.diag(D))
        d = max(float(np.abs(off).max()),
                float(np.abs(np.abs(np.diag(D)) - 1).max()))
    else:
        raise ValueError("unknown mode %r" % (mode,))
    return EquivResult(d, d <= tol, mode)


def spectral_norm(D):
    """Largest singular value of the square matrix D: exact (an SVD) up to
    dimension EXACT_CAP, which every dense verify check stays within, and
    above it a lower bound from a power iteration."""
    if D.shape[0] <= EXACT_CAP:
        return float(np.linalg.norm(D, 2))
    # matrix-free power iteration on D^dag D; a full SVD at dimension 4096
    # costs minutes while two matvecs per step cost milliseconds.  A seeded
    # random start: a fixed vector can be orthogonal to the whole error.
    # It stops when two estimates agree, so it may stop low
    rng = np.random.default_rng(_POWER_SEED)
    v = (1, 1j) @ rng.normal(size=(2, D.shape[0]))
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(500):
        # D^dag u = conj(conj(u) D), which copies no matrix
        w = ((D @ v).conj() @ D).conj()
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        nxt = math.sqrt(nrm)
        if abs(nxt - sigma) <= 1e-10 * max(nxt, 1.0):
            return nxt
        sigma = nxt
    return sigma


def spectral_distance(A, B) -> float:
    """Largest singular value of A - e^{i phi} B after phase alignment."""
    return spectral_norm(_aligned(np.asarray(A, dtype=complex),
                                  np.asarray(B, dtype=complex)))


def random_state(n, rng):
    """Haar-ish random statevector."""
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)
