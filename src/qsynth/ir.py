"""Gate and circuit representation, macro lowering, resource metrics, export.

The gate set mixes primitive gates (single-qubit gates and CX) with macro
gates (CCX, RCCX, CU2).  ``lower`` rewrites every macro into the
{single-qubit, CX} basis; all counting and text export is defined on top of
that.  Circuits are immutable after construction and every operation here is
a pure function, so shared circuits are safe to use concurrently.

Qubit-index convention (fixed globally, shared with :mod:`qsynth.sim`):
little-endian, qubit 0 is the least significant bit of a basis-state index.
Gate operands are listed controls first, target last.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from ._np import np

# arity per gate kind; operands are (controls..., target)
ARITY = {
    "X": 1, "H": 1, "T": 1, "Tdg": 1,
    "Rx": 1, "Ry": 1, "Rz": 1, "U2": 1,
    "CX": 2, "CCX": 3, "RCCX": 3, "CU2": 2,
}
ANGLE_KINDS = frozenset({"Rx", "Ry", "Rz"})
MATRIX_KINDS = frozenset({"U2", "CU2"})
FIXED_KINDS = frozenset({"X", "H", "T", "Tdg"})
# kinds allowed in a fully lowered circuit
LOWERED_KINDS = FIXED_KINDS | {"Rx", "Ry", "Rz", "U2", "CX"}

_UNITARITY_TOL = 1e-12


@lru_cache(maxsize=None)
def fixed_matrix(kind):
    """Read-only matrix of a fixed single-qubit kind (X, H, T, Tdg): the one
    definition the simulator, the synthesizers and the CLI share."""
    if kind == "X":
        m = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "H":
        m = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    elif kind == "T":
        m = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
                     dtype=complex)
    elif kind == "Tdg":
        m = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
                     dtype=complex)
    else:
        raise ValueError("no fixed matrix for kind %r" % (kind,))
    m.setflags(write=False)
    return m


def rx_mat(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_mat(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_mat(a):
    return np.array([[cmath.exp(-0.5j * a), 0], [0, cmath.exp(0.5j * a)]],
                    dtype=complex)


def check_unitary(m, tol=_UNITARITY_TOL) -> np.ndarray:
    """``m`` as a complex 2x2 array; ValueError unless its entries are
    finite and no entry of m^dag m - I exceeds ``tol`` in magnitude."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("gate matrix must be 2x2, got %r" % (m.shape,))
    # finiteness first: an inf entry would make the product warn
    dev = (np.abs(m.conj().T @ m - np.eye(2)).max()
           if all(map(cmath.isfinite, m.ravel().tolist())) else math.nan)
    if not dev <= tol:
        raise ValueError("matrix is not unitary (deviation %.3e)" % dev)
    return m


class Gate:
    """A single gate instance: kind, operand qubits, optional parameter.

    ``qubits`` lists controls first and the target last.  ``angle`` is set
    for rotation kinds, ``matrix`` for U2/CU2.
    """

    __slots__ = ("kind", "qubits", "angle", "matrix")

    def __init__(self, kind, qubits, angle=None, matrix=None):
        if kind not in ARITY:
            raise ValueError("unknown gate kind %r" % (kind,))
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != ARITY[kind]:
            raise ValueError("%s expects %d qubits, got %d"
                             % (kind, ARITY[kind], len(qubits)))
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit in %s%r" % (kind, qubits))
        if any(q < 0 for q in qubits):
            raise ValueError("negative qubit index in %r" % (qubits,))
        if kind in ANGLE_KINDS:
            if angle is None:
                raise ValueError("%s requires an angle" % kind)
            angle = float(angle)
            if not math.isfinite(angle):
                raise ValueError("%s angle must be finite, got %r"
                                 % (kind, angle))
        elif angle is not None:
            raise ValueError("%s takes no angle" % kind)
        if kind in MATRIX_KINDS:
            if matrix is None:
                raise ValueError("%s requires a matrix" % kind)
            matrix = check_unitary(matrix)
            matrix.setflags(write=False)
        elif matrix is not None:
            raise ValueError("%s takes no matrix" % kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("Gate is immutable")

    def __repr__(self):
        extra = ""
        if self.angle is not None:
            extra = ", angle=%r" % self.angle
        if self.matrix is not None:
            extra = ", matrix=..."
        return "Gate(%r, %r%s)" % (self.kind, self.qubits, extra)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits, self.angle) != \
                (other.kind, other.qubits, other.angle):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        if self.matrix is not None and not np.array_equal(self.matrix,
                                                          other.matrix):
            return False
        return True

    def __hash__(self):
        return hash((self.kind, self.qubits, self.angle))


ANCILLA_ROLES = ("none", "clean", "dirty")


class Circuit:
    """Ordered gate sequence over a fixed register, immutable.

    ``ancilla_roles`` annotates each qubit with 'none', 'clean' or 'dirty';
    plain data qubits are 'none'.
    """

    __slots__ = ("num_qubits", "gates", "ancilla_roles")

    def __init__(self, num_qubits, gates=(), ancilla_roles=None):
        num_qubits = int(num_qubits)
        if num_qubits < 0:
            raise ValueError("negative register size")
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise TypeError("expected Gate, got %r" % (g,))
            if max(g.qubits, default=-1) >= num_qubits:
                raise ValueError("gate %r outside register of %d qubits"
                                 % (g, num_qubits))
        if ancilla_roles is None:
            ancilla_roles = ("none",) * num_qubits
        ancilla_roles = tuple(ancilla_roles)
        if len(ancilla_roles) != num_qubits:
            raise ValueError("ancilla_roles length mismatch")
        for r in ancilla_roles:
            if r not in ANCILLA_ROLES:
                raise ValueError("bad ancilla role %r" % (r,))
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "ancilla_roles", ancilla_roles)

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    def __len__(self):
        return len(self.gates)

    def __repr__(self):
        return "Circuit(%d qubits, %d gates)" % (self.num_qubits,
                                                 len(self.gates))

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self.ancilla_roles == other.ancilla_roles
                and self.gates == other.gates)

    def __hash__(self):
        return hash((self.num_qubits, self.ancilla_roles, len(self.gates)))


@dataclass(frozen=True)
class DecompReport:
    """Resource summary for one synthesized circuit."""
    cnot_count: int
    total_gates: int
    depth: int
    num_ancilla: int
    ancilla_kind: str

    def __post_init__(self):
        if min(self.cnot_count, self.total_gates, self.depth,
               self.num_ancilla) < 0:
            raise ValueError("negative count in report")
        if self.depth > self.total_gates:
            raise ValueError("depth exceeds gate count")


def remap(circuit: Circuit, mapping, num_qubits, ancilla_roles=None) -> Circuit:
    """Embed a circuit into a larger register via a qubit-index map."""
    gates = [Gate(g.kind, tuple(mapping[q] for q in g.qubits),
                  g.angle, g.matrix) for g in circuit.gates]
    return Circuit(num_qubits, gates, ancilla_roles)


# ---------------------------------------------------------------------------
# lowering

def _ccx_template(a, b, t):
    """Standard exact Toffoli over {H, T, Tdg, CX}: 6 CX, 15 gates."""
    return [
        Gate("H", (t,)),
        Gate("CX", (b, t)), Gate("Tdg", (t,)),
        Gate("CX", (a, t)), Gate("T", (t,)),
        Gate("CX", (b, t)), Gate("Tdg", (t,)),
        Gate("CX", (a, t)), Gate("T", (b,)), Gate("T", (t,)),
        Gate("H", (t,)),
        Gate("CX", (a, b)), Gate("T", (a,)), Gate("Tdg", (b,)),
        Gate("CX", (a, b)),
    ]


def _rccx_template(a, b, t):
    """Relative-phase Toffoli: equals CCX times a diagonal gate, 3 CX.

    This network is the defining expansion of the RCCX macro; its matrix
    is always computed from these gates, never hard-coded.
    """
    return [
        Gate("H", (t,)), Gate("T", (t,)),
        Gate("CX", (b, t)), Gate("Tdg", (t,)),
        Gate("CX", (a, t)), Gate("T", (t,)),
        Gate("CX", (b, t)), Gate("Tdg", (t,)),
        Gate("H", (t,)),
    ]


def zyz_angles(U):
    """Decompose a 2x2 unitary as e^{i alpha} Rz(beta) Ry(gamma) Rz(delta).

    Returns (alpha, beta, gamma, delta) in radians.
    """
    U = np.asarray(U, dtype=complex)
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    alpha = cmath.phase(det) / 2.0
    V = U * cmath.exp(-1j * alpha)       # V in SU(2)
    gamma = 2.0 * math.atan2(abs(V[1, 0]), abs(V[0, 0]))
    # V00 = e^{-i(b+d)/2} cos(g/2), V10 = e^{i(b-d)/2} sin(g/2)
    sum_bd = 2.0 * cmath.phase(V[1, 1]) if abs(V[1, 1]) > 1e-12 else 0.0
    diff_bd = 2.0 * cmath.phase(V[1, 0]) if abs(V[1, 0]) > 1e-12 else 0.0
    beta = (sum_bd + diff_bd) / 2.0
    delta = (sum_bd - diff_bd) / 2.0
    return alpha, beta, gamma, delta


def _cu2_template(c, t, U):
    """Controlled-U via the ABC decomposition: 2 CX plus single-qubit gates.

    U = e^{i alpha} A X B X C with A B C = I; the phase lands on the
    control as diag(1, e^{i alpha}).
    """
    alpha, beta, gamma, delta = zyz_angles(U)
    A = rz_mat(beta) @ ry_mat(gamma / 2)
    B = ry_mat(-gamma / 2) @ rz_mat(-(delta + beta) / 2)
    C = rz_mat((delta - beta) / 2)
    out = []
    if np.abs(C - np.eye(2)).max() > 1e-15:
        out.append(Gate("U2", (t,), matrix=C))
    out.append(Gate("CX", (c, t)))
    if np.abs(B - np.eye(2)).max() > 1e-15:
        out.append(Gate("U2", (t,), matrix=B))
    out.append(Gate("CX", (c, t)))
    if np.abs(A - np.eye(2)).max() > 1e-15:
        out.append(Gate("U2", (t,), matrix=A))
    if abs(alpha) > 1e-15:
        phase = np.array([[1, 0], [0, cmath.exp(1j * alpha)]], dtype=complex)
        out.append(Gate("U2", (c,), matrix=phase))
    return out


def lower(circuit: Circuit) -> Circuit:
    """Rewrite macro gates into the {single-qubit, CX} basis.

    CCX lowers to the standard exact 6-CX network; RCCX lowers to its
    defining 3-CX network; CU2 lowers via the ABC decomposition (2 CX).
    Idempotent, and exact: the full unitary is preserved.  A circuit with
    no macro gate is returned as it is.
    """
    if all(g.kind in LOWERED_KINDS for g in circuit.gates):
        return circuit
    out = []
    for g in circuit.gates:
        if g.kind in LOWERED_KINDS:
            out.append(g)
        elif g.kind == "CCX":
            out.extend(_ccx_template(*g.qubits))
        elif g.kind == "RCCX":
            out.extend(_rccx_template(*g.qubits))
        elif g.kind == "CU2":
            out.extend(_cu2_template(g.qubits[0], g.qubits[1], g.matrix))
        else:  # pragma: no cover - kinds are exhaustive
            raise ValueError("cannot lower %r" % (g.kind,))
    return Circuit(circuit.num_qubits, out, circuit.ancilla_roles)


# CX contribution of each kind once lowered; used for fast counting
CX_WEIGHT = {"CX": 1, "CCX": 6, "RCCX": 3, "CU2": 2}


def cnot_count(circuit: Circuit) -> int:
    """CX count of the lowered circuit, computed without expanding macros."""
    return sum(CX_WEIGHT.get(g.kind, 0) for g in circuit.gates)


def count_gates(circuit: Circuit, kind) -> int:
    """Exact number of gates of the given kind in the circuit as written."""
    return sum(1 for g in circuit.gates if g.kind == kind)


def depth(circuit: Circuit) -> int:
    """Greedy as-soon-as-possible layer count.

    Every gate costs one layer and enters the earliest layer where all of
    its qubits are free; macros count as opaque multi-qubit gates unless
    the circuit is lowered first.  Empty circuit has depth 0.
    """
    frontier = [0] * circuit.num_qubits
    for g in circuit.gates:
        layer = 1 + max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = layer
    return max(frontier, default=0)


# RCCX is included because its defining network happens to be an involution:
# reversing the network and daggering each gate reproduces it verbatim
_ADJOINT_SELF = {"X", "H", "CX", "CCX", "RCCX"}


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with each gate replaced by its adjoint.

    T <-> Tdg, rotations negate their angle, U2/CU2 take the conjugate
    transpose.  X, H, CX, CCX and RCCX are their own adjoints (for RCCX
    this is a property of its defining network).
    """
    out = []
    for g in reversed(circuit.gates):
        if g.kind in _ADJOINT_SELF:
            out.append(g)
        elif g.kind == "T":
            out.append(Gate("Tdg", g.qubits))
        elif g.kind == "Tdg":
            out.append(Gate("T", g.qubits))
        elif g.kind in ANGLE_KINDS:
            out.append(Gate(g.kind, g.qubits, angle=-g.angle))
        elif g.kind in MATRIX_KINDS:
            out.append(Gate(g.kind, g.qubits, matrix=g.matrix.conj().T))
        else:  # pragma: no cover
            raise ValueError("no adjoint for %r" % (g.kind,))
    return Circuit(circuit.num_qubits, out, circuit.ancilla_roles)


def report_for(circuit: Circuit, ancilla_kind="none") -> DecompReport:
    """Build a DecompReport for a synthesized circuit."""
    low = lower(circuit)
    return DecompReport(
        cnot_count=cnot_count(circuit),
        total_gates=len(low.gates),
        depth=depth(low),
        num_ancilla=sum(1 for r in circuit.ancilla_roles if r != "none"),
        ancilla_kind=ancilla_kind,
    )


# ---------------------------------------------------------------------------
# text export

def _fmt_angle(a: float) -> str:
    return "%.17g" % a


def _gate_to_json(g: Gate) -> dict:
    d = {"kind": g.kind, "qubits": list(g.qubits)}
    if g.angle is not None:
        d["params"] = [g.angle]
    if g.matrix is not None:
        d["matrix"] = [[float(x.real), float(x.imag)]
                       for x in g.matrix.reshape(4)]
    return d


def _qasm_body(circuit: Circuit, u_name: str) -> list:
    """Statement list shared by the two assembly dialects."""
    low = lower(circuit)
    lines = []
    for g in low.gates:
        q = ",".join("q[%d]" % i for i in g.qubits)
        if g.kind in FIXED_KINDS:
            lines.append("%s %s;" % (g.kind.lower(), q))
        elif g.kind in ANGLE_KINDS:
            lines.append("%s(%s) %s;" % (g.kind.lower(),
                                         _fmt_angle(g.angle), q))
        elif g.kind == "CX":
            lines.append("cx %s;" % q)
        elif g.kind == "U2":
            _, beta, gamma, delta = zyz_angles(g.matrix)
            lines.append("%s(%s,%s,%s) %s;"
                         % (u_name, _fmt_angle(gamma), _fmt_angle(beta),
                            _fmt_angle(delta), q))
        else:  # pragma: no cover
            raise ValueError("kind %r not exportable" % (g.kind,))
    return lines


def export_text(circuit: Circuit, fmt: str) -> str:
    """Serialize a circuit as 'qasm2', 'qasm3' or 'json' text.

    The JSON dialect keeps macro gates and round-trips exactly through
    :func:`parse_json`.  The assembly dialects lower the circuit first and
    drop global phase (their gate sets are phase-free).
    """
    if fmt == "json":
        doc = {"n": circuit.num_qubits,
               "gates": [_gate_to_json(g) for g in circuit.gates]}
        if any(r != "none" for r in circuit.ancilla_roles):
            doc["ancilla_roles"] = list(circuit.ancilla_roles)
        return json.dumps(doc)
    if fmt == "qasm2":
        head = ['OPENQASM 2.0;', 'include "qelib1.inc";',
                'qreg q[%d];' % circuit.num_qubits]
        return "\n".join(head + _qasm_body(circuit, "u3")) + "\n"
    if fmt == "qasm3":
        head = ['OPENQASM 3.0;', 'include "stdgates.inc";',
                'qubit[%d] q;' % circuit.num_qubits]
        return "\n".join(head + _qasm_body(circuit, "U")) + "\n"
    raise ValueError("unsupported format %r" % (fmt,))


def parse_json(text: str) -> Circuit:
    """Parse the JSON dialect produced by :func:`export_text`.

    Raises ValueError unless the text is an object with an integer ``n``
    >= 0 and a ``gates`` list of objects that each have ``kind`` and
    ``qubits``; ``ancilla_roles`` is optional.
    """
    doc = json.loads(text)
    if not (isinstance(doc, dict) and isinstance(doc.get("n"), int)
            and doc["n"] >= 0 and isinstance(doc.get("gates"), list)):
        raise ValueError("circuit JSON needs an object with an integer 'n' "
                         ">= 0 and a 'gates' list")
    try:
        gates = []
        for d in doc["gates"]:
            params, matrix = d.get("params"), None
            if "matrix" in d:
                flat = [complex(re, im) for re, im in d["matrix"]]
                matrix = np.array(flat, dtype=complex).reshape(2, 2)
            gates.append(Gate(d["kind"], d["qubits"],
                              angle=params[0] if params else None,
                              matrix=matrix))
        return Circuit(doc["n"], gates, doc.get("ancilla_roles"))
    except (TypeError, KeyError, IndexError, AttributeError) as e:
        raise ValueError("bad gate or role in circuit JSON: %s: %s"
                         % (type(e).__name__, e)) from None
