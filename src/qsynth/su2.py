"""Multi-controlled multi-target X and SU(2) synthesis.

``mcmt_x`` surrounds one log-depth multi-controlled X with balanced CX
fanout trees over the targets (one clean ancilla).  ``mcmt_su2`` realizes
C^n(W_1 x ... x W_m) with no ancilla at all: the last control doubles as a
conditionally clean ancilla for two inner multi-controlled multi-target X
gates, and per-target single-qubit dressings turn the resulting double
conjugation (X A X A^dag)^2 into each W_i.  Its matrices are ``ir`` tuples
of Python complex numbers: nothing here loads numpy.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .ir import (IDENTITY, Circuit, Gate, adjoint, check_unitary, det, dist,
                 fixed_matrix, inverse_gates, mul, rz_mat, scale)
from .mcx import _mcx_gates

_SU2_TOL = 1e-10


# ---------------------------------------------------------------------------
# quaternion helpers: U = q0 I - i(qx sx + qy sy + qz sz) for U in SU(2)

def _quat_of(U):
    """Quaternion (q0, qx, qy, qz) of an SU(2) matrix."""
    (a, b), (c, d) = U
    return ((a + d).real / 2.0, -(b + c).imag / 2.0, (c - b).real / 2.0,
            -(a - d).imag / 2.0)


def _quat_to_mat(q):
    q0, qx, qy, qz = q
    return ((q0 - 1j * qz, -qy - 1j * qx), (qy - 1j * qx, q0 + 1j * qz))


def _check_su2(W):
    W = check_unitary(W, _SU2_TOL)
    if not abs(det(W) - 1) <= _SU2_TOL:
        raise ValueError("matrix is not special (det != 1)")
    return W


def _principal_sqrt_su2(q):
    """Principal square root in quaternion form; halves the rotation angle.

    The degenerate W = -I picks diag(i, -i), i.e. quaternion (0,0,0,-1).
    """
    q0 = min(1.0, max(-1.0, q[0]))
    if q0 <= -1.0 + 1e-14:
        return 0.0, 0.0, 0.0, -1.0
    t0 = math.sqrt((1.0 + q0) / 2.0)
    return (t0, *(x / (2.0 * t0) for x in q[1:]))


def conjugation_residual(A, W):
    """Max-norm of (X A X A^dag)^2 - W, minimized over the SU(2) sign."""
    X = fixed_matrix("X")
    T = mul(X, A, X, adjoint(A))
    P = mul(T, T)
    return min(dist(P, W), dist(P, scale(W, -1)))


def find_conjugating_gate(W):
    """Solve (X A X A^dag)^2 = W for A, deterministically.

    Works on the reachable class of SU(2) targets, which is exactly the
    matrices with a real anti-diagonal (vanishing x component of the
    quaternion): conjugation by X can only ever produce those.  For W
    outside that class no A exists and a ValueError is raised rather than
    silently approximating; :func:`mcmt_su2` handles general SU(2) by
    conjugating with an Rz frame first (see :func:`conjugation_frame`).
    """
    W = _check_su2(W)
    t = _principal_sqrt_su2(_quat_of(W))
    # solve X A X A^dag = -t (the SU(2) sign that squares to the same W):
    # with A = (a, 0, c, d), the product is (-(2a^2-1), 0, 2ac, 2ad)
    a = math.sqrt((1.0 + t[0]) / 2.0)   # t[0] >= 0, so a >= sqrt(1/2)
    A = _quat_to_mat((a, 0.0, -t[2] / (2 * a), -t[3] / (2 * a)))
    res = conjugation_residual(A, W)
    if res > 1e-9:
        raise ValueError(
            "no conjugating gate at tolerance (residual %.3e); the target "
            "must have a real anti-diagonal" % res)
    return A


def conjugation_frame(W):
    """Split W as F . W' . F^dag with W' in the reachable class.

    Returns (A, F) where A solves the conjugation identity for W' and F
    is an Rz rotation (identity when W is already reachable).
    """
    W = _check_su2(W)
    q = _quat_of(W)
    if abs(q[1]) < 1e-14:
        return find_conjugating_gate(W), IDENTITY
    # Rz(-psi) turns the Bloch axis about z onto +y.  On an axis within
    # 1e-12 of x or y, Rz(psi) also zeroes the x component (onto -y); the
    # frame takes Rz(psi) there, which fixes the gates emitted for h and rx
    psi = math.atan2(q[1], q[2])
    flat = abs(2 * q[1] * q[2]) < 1e-12 * math.hypot(q[1], q[2])
    F = rz_mat(psi if flat else -psi)
    return find_conjugating_gate(mul(adjoint(F), W, F)), F


# ---------------------------------------------------------------------------
# multi-controlled multi-target X

def _fanout_tree(targets):
    """Balanced doubling tree copying target[0] onto the other targets.

    Returns the CX gate list; ceil(log2 m) layers, m-1 gates.
    """
    gates = []
    have = [targets[0]]
    rest = list(targets[1:])
    while rest:
        layer = []
        for src in have:
            if not rest:
                break
            layer.append((src, rest.pop(0)))
        for src, dst in layer:
            gates.append(Gate("CX", (src, dst)))
        have.extend(dst for _, dst in layer)
    return gates


def _mcmt_x_gates(controls, targets, anc):
    """Gates of C^n(X^{x m}) from ``controls`` onto ``targets``, borrowing
    the clean ancilla ``anc``: the doubling tree around one central mcx."""
    if len(controls) == 1:
        return [Gate("CX", (controls[0], t)) for t in targets]
    # conjugating the central X by the doubling tree copies it onto every
    # target; the reversed tree must come first so chained copies
    # propagate outward through the later-applied gates
    tree = _fanout_tree(targets)
    return [*tree[::-1], *_mcx_gates(controls, targets[0], anc, "clean"),
            *tree]


def mcmt_x(n, m) -> Circuit:
    """C^n(X^{x m}) on n+m+1 qubits with one clean ancilla.

    Layout: controls [0..n), targets [n..n+m), ancilla n+m.  Balanced CX
    fanout trees conjugate the first target onto the rest around one
    central multi-controlled X, giving 6n+2m-8 CX for n >= 3 and depth
    O(log n + log m).  n=1 degenerates to m direct CX from the control.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 controls and m >= 1 targets")
    gates = _mcmt_x_gates(range(n), range(n, n + m), n + m)
    return Circuit._checked(n + m + 1, gates, ("none",) * (n + m) + ("clean",))


# ---------------------------------------------------------------------------
# multi-controlled multi-target SU(2)

class McmtSpec(namedtuple("McmtSpec", "n m gates")):
    """Parameters of one C^n(W_1 x ... x W_m) synthesis request; ``gates``
    holds the m per-target 2x2 SU(2) matrices."""
    __slots__ = ()

    def __new__(cls, n, m, gates):
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        mats = tuple(_check_su2(W) for W in gates)
        if len(mats) != m:
            raise ValueError("need exactly m target gates")
        return super().__new__(cls, n, m, mats)


def _u2(t, M):
    return Gate("U2", (t,), matrix=M)


def mcmt_su2(spec: McmtSpec) -> Circuit:
    """C^n(W_1 x ... x W_m) on n+m qubits, no ancilla, no global phase.

    For n <= 2 it emits the controlled gates directly.  For n >= 3 the
    last control k2 doubles as a conditionally clean ancilla for two
    inner (n-1)-controlled multi-target X gates G and G^-1 (X-conjugated
    so k2 = |1> presents as clean |0>).  Between and around them each
    target carries single-qubit dressings so that when every control
    fires the target sees F (X A X A^dag)^2 F^dag = W, and in every
    other control branch the layers cancel to the identity exactly.
    Lowered CX count: exactly 12n + 6m - 28.
    """
    n, m = spec.n, spec.m
    if n == 1:
        gates = [Gate("CU2", (0, 1 + i), matrix=W)
                 for i, W in enumerate(spec.gates)]
        return Circuit._checked(1 + m, gates)
    if n == 2:
        return _mcmt_su2_two_controls(spec)
    gates = _mcmt_su2_gates(range(n), range(n, n + m), spec.gates)
    return Circuit._checked(n + m, gates)


def _mcmt_su2_gates(controls, targets, ws):
    """Gates of C^n(W_1 x ... x W_m) from ``controls`` (n >= 3) onto
    ``targets``, with ``controls[-1]`` as the inner gates' ancilla."""
    k2 = controls[-1]
    pairs = [conjugation_frame(W) for W in ws]

    # inner gate: (n-1)-controlled X^{x m} borrowing k2 as its ancilla,
    # X-conjugated because a firing k2 is |1>
    g_fwd = [Gate("X", (k2,)), *_mcmt_x_gates(controls[:-1], targets, k2),
             Gate("X", (k2,))]
    g_bwd = inverse_gates(g_fwd)

    k2_fan = [Gate("CX", (k2, t)) for t in targets]

    gates = []
    # layer P = A F^dag on each target, then G, A, k2-CX, A^dag, G^-1,
    # A^dag ... chosen so the all-fire branch reads F (X A X A^dag)^2 F^dag
    gates += [_u2(t, mul(adjoint(A), adjoint(F)))
              for t, (A, F) in zip(targets, pairs)]
    gates += g_fwd
    gates += [_u2(t, A) for t, (A, F) in zip(targets, pairs)]
    gates += k2_fan
    gates += [_u2(t, adjoint(A)) for t, (A, F) in zip(targets, pairs)]
    gates += g_bwd
    gates += [_u2(t, A) for t, (A, F) in zip(targets, pairs)]
    gates += k2_fan
    gates += [_u2(t, F) for t, (A, F) in zip(targets, pairs)]
    return gates


def _mcmt_su2_two_controls(spec: McmtSpec) -> Circuit:
    """Direct n=2 construction: per-target C^2(W) via square roots.

    The general scheme needs n >= 3; this uses the standard two-control
    pattern (2 CU2 + 2 CX + 1 CU2 per target) and is exempt from the
    general count formula.
    """
    gates = []
    for i, W in enumerate(spec.gates):
        t = 2 + i
        V = _quat_to_mat(_principal_sqrt_su2(_quat_of(W)))
        gates += [
            Gate("CU2", (1, t), matrix=V),
            Gate("CX", (0, 1)),
            Gate("CU2", (1, t), matrix=adjoint(V)),
            Gate("CX", (0, 1)),
            Gate("CU2", (0, t), matrix=V),
        ]
    return Circuit._checked(2 + spec.m, gates)
