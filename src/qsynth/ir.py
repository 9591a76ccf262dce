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
import math
import operator
from collections import namedtuple
from functools import lru_cache

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
# moduli closer than this count as equally largest where a phase is read off
# a matrix's first largest entry (sim._aligned, verify's approximate checks)
PHASE_TIE = 1e-12


# ---------------------------------------------------------------------------
# 2x2 gate algebra on matrix tuples ((a, b), (c, d)) of Python complex
# numbers; the helpers read their arguments row by row, so lists and numpy
# arrays work too.

IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))


def mul(p, q, *more):
    """The matrix product p q ..., multiplied from the left."""
    (a, b), (c, d) = p
    (e, f), (g, h) = q
    m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return mul(m, *more) if more else m


def adjoint(m):
    """The conjugate transpose of m."""
    (a, b), (c, d) = m
    return ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))


def scale(m, z):
    """Every entry of m times the number z."""
    return tuple(tuple(x * z for x in row) for row in m)


def det(m):
    (a, b), (c, d) = m
    return a * d - b * c


def dist(p, q):
    """The largest entry of |p - q|."""
    return max(abs(x - y) for r, s in zip(p, q) for x, y in zip(r, s))


@lru_cache(maxsize=None)
def fixed_matrix(kind):
    """Matrix of a fixed single-qubit kind (X, H, T, Tdg): the one
    definition the simulator, the synthesizers and the CLI share."""
    h = 1 / math.sqrt(2)
    m = {"X": ((0j, 1 + 0j), (1 + 0j, 0j)),
         "H": ((h + 0j, h + 0j), (h + 0j, -h + 0j)),
         "T": ((1 + 0j, 0j), (0j, cmath.exp(1j * math.pi / 4))),
         "Tdg": ((1 + 0j, 0j), (0j, cmath.exp(-1j * math.pi / 4)))}.get(kind)
    if m is None:
        raise ValueError("no fixed matrix for kind %r" % (kind,))
    return m


def rx_mat(a):
    c, s = complex(math.cos(a / 2)), -1j * math.sin(a / 2)
    return ((c, s), (s, c))


def ry_mat(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return ((complex(c), complex(-s)), (complex(s), complex(c)))


def rz_mat(a):
    return ((cmath.exp(-0.5j * a), 0j), (0j, cmath.exp(0.5j * a)))


def target_matrix(g):
    """The 2x2 matrix gate ``g`` applies to its target when every control
    is set: its own for a one-qubit kind, X for CX and CCX, its matrix for
    CU2.  RCCX has none: what it does to its target depends on each
    control."""
    if g.kind in FIXED_KINDS:
        return fixed_matrix(g.kind)
    if g.kind in ANGLE_KINDS:
        return {"Rx": rx_mat, "Ry": ry_mat, "Rz": rz_mat}[g.kind](g.angle)
    if g.kind in MATRIX_KINDS:
        return g.matrix
    if g.kind in ("CX", "CCX"):
        return fixed_matrix("X")
    raise ValueError("no matrix for kind %r" % (g.kind,))


def check_unitary(m, tol=_UNITARITY_TOL):
    """``m`` as a 2x2 matrix tuple; ValueError unless its entries are
    finite and no entry of m^dag m - I exceeds ``tol`` in magnitude."""
    try:
        (a, b), (c, d) = m
        m = ((complex(a), complex(b)), (complex(c), complex(d)))
    except (TypeError, ValueError):
        raise ValueError("gate matrix must be 2x2") from None
    # finiteness first: an inf entry makes the product meaningless
    dev = (dist(mul(adjoint(m), m), IDENTITY)
           if all(map(cmath.isfinite, m[0] + m[1])) else math.nan)
    if not dev <= tol:
        raise ValueError("matrix is not unitary (deviation %.3e)" % dev)
    return m


def json_number(x, what):
    """``x`` if it is a JSON number; else ValueError, for a boolean too."""
    if type(x) not in (int, float):
        raise ValueError("%s must be a number, got %r" % (what, x))
    return x


def _index(i, what):
    """``i`` as an int: ValueError for a bool or a non-integer, which
    ``int`` would truncate."""
    if isinstance(i, bool) or not hasattr(i, "__index__"):
        raise ValueError("%s must be an integer, got %r" % (what, i))
    return operator.index(i)


class Gate(namedtuple("Gate", "kind qubits angle matrix")):
    """A single gate instance: kind, operand qubits, optional parameter.

    ``qubits`` lists controls first and the target last.  ``angle`` is set
    for rotation kinds, ``matrix`` for U2/CU2.  Calling ``Gate`` checks
    every field; code that holds fields which already passed those checks
    builds through ``_make`` and ``_replace``, which skip them.
    """
    __slots__ = ()

    def __new__(cls, kind, qubits, angle=None, matrix=None):
        if kind not in ARITY:
            raise ValueError("unknown gate kind %r" % (kind,))
        qubits = tuple(_index(q, "qubit index") for q in qubits)
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
        elif matrix is not None:
            raise ValueError("%s takes no matrix" % kind)
        return super().__new__(cls, kind, qubits, angle, matrix)

    def __repr__(self):
        extra = ""
        if self.angle is not None:
            extra = ", angle=%r" % self.angle
        if self.matrix is not None:
            extra = ", matrix=..."
        return "Gate(%r, %r%s)" % (self.kind, self.qubits, extra)


ANCILLA_ROLES = ("none", "clean", "dirty")


def _register(num_qubits, ancilla_roles):
    """Checked (num_qubits, ancilla_roles) of a circuit; roles default to
    'none' on every qubit."""
    num_qubits = _index(num_qubits, "register size")
    if num_qubits < 0:
        raise ValueError("negative register size")
    if ancilla_roles is None:
        return num_qubits, ("none",) * num_qubits
    ancilla_roles = tuple(ancilla_roles)
    if len(ancilla_roles) != num_qubits:
        raise ValueError("ancilla_roles length mismatch")
    for r in ancilla_roles:
        if r not in ANCILLA_ROLES:
            raise ValueError("bad ancilla role %r" % (r,))
    return num_qubits, ancilla_roles


class Circuit(namedtuple("Circuit", "num_qubits gates ancilla_roles")):
    """Ordered gate sequence over a fixed register, immutable.

    ``ancilla_roles`` annotates each qubit with 'none', 'clean' or 'dirty';
    plain data qubits are 'none'.  Calling ``Circuit`` checks every gate;
    ``_checked``, ``_make`` and ``_replace`` do not.
    """
    __slots__ = ()

    def __new__(cls, num_qubits, gates=(), ancilla_roles=None):
        num_qubits, ancilla_roles = _register(num_qubits, ancilla_roles)
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise TypeError("expected Gate, got %r" % (g,))
            if max(g.qubits, default=-1) >= num_qubits:
                raise ValueError("gate %r outside register of %d qubits"
                                 % (g, num_qubits))
        return super().__new__(cls, num_qubits, gates, ancilla_roles)

    @classmethod
    def _checked(cls, num_qubits, gates, ancilla_roles=None):
        """A circuit of Gates that lie inside the register, with roles
        None ('none' on every qubit) or a valid tuple."""
        return cls._make((num_qubits, tuple(gates),
                          ancilla_roles or ("none",) * num_qubits))

    def __repr__(self):
        return "Circuit(%d qubits, %d gates)" % (self.num_qubits,
                                                 len(self.gates))


class DecompReport(namedtuple("DecompReport", "cnot_count total_gates "
                              "depth num_ancilla ancilla_kind")):
    """Resource summary for one synthesized circuit."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.cnot_count, self.total_gates, self.depth,
               self.num_ancilla) < 0:
            raise ValueError("negative count in report")
        if self.depth > self.total_gates:
            raise ValueError("depth exceeds gate count")
        return self


def remap(circuit: Circuit, mapping, num_qubits) -> Circuit:
    """Embed a circuit into a larger register via a qubit-index map.

    ValueError unless ``mapping`` sends the qubits the gates use to
    distinct integers in ``[0, num_qubits)``.  That one check keeps every
    moved gate valid, so the gates are not checked again.
    """
    num_qubits = _register(num_qubits, None)[0]
    image = {q: _index(mapping[q], "qubit mapping")
             for g in circuit.gates for q in g.qubits}
    if min(image.values(), default=0) < 0:
        raise ValueError("qubit mapping gives a negative index")
    if max(image.values(), default=-1) >= num_qubits:
        raise ValueError("qubit mapping leaves the register of %d qubits"
                         % num_qubits)
    if len(set(image.values())) != len(image):
        raise ValueError("qubit mapping sends two used qubits to one")
    return Circuit._checked(num_qubits, [
        g._replace(qubits=tuple(map(image.__getitem__, g.qubits)))
        for g in circuit.gates])


# ---------------------------------------------------------------------------
# lowering

# macro kind -> its lowering as rows of (kind, operand positions), the
# positions indexing the macro's (controls..., target).  ``lower``, ``depth``,
# ``report_for`` and the simulator's RCCX matrix all read this one table.
_TEMPLATES = {
    # standard exact Toffoli over {H, T, Tdg, CX}: 6 CX, 15 gates
    "CCX": (
        ("H", (2,)),
        ("CX", (1, 2)), ("Tdg", (2,)),
        ("CX", (0, 2)), ("T", (2,)),
        ("CX", (1, 2)), ("Tdg", (2,)),
        ("CX", (0, 2)), ("T", (1,)), ("T", (2,)),
        ("H", (2,)),
        ("CX", (0, 1)), ("T", (0,)), ("Tdg", (1,)),
        ("CX", (0, 1)),
    ),
    # relative-phase Toffoli: CCX times a diagonal gate, 3 CX.  This network
    # defines the macro; its matrix is always computed from it.
    "RCCX": (
        ("H", (2,)), ("T", (2,)),
        ("CX", (1, 2)), ("Tdg", (2,)),
        ("CX", (0, 2)), ("T", (2,)),
        ("CX", (1, 2)), ("Tdg", (2,)),
        ("H", (2,)),
    ),
}


def zyz_angles(U):
    """Decompose a 2x2 unitary as e^{i alpha} Rz(beta) Ry(gamma) Rz(delta).

    Returns (alpha, beta, gamma, delta) in radians.
    """
    alpha = cmath.phase(det(U)) / 2.0
    (v00, _), (v10, v11) = scale(U, cmath.exp(-1j * alpha))   # in SU(2)
    gamma = 2.0 * math.atan2(abs(v10), abs(v00))
    # V00 = e^{-i(b+d)/2} cos(g/2), V10 = e^{i(b-d)/2} sin(g/2)
    sum_bd = 2.0 * cmath.phase(v11) if abs(v11) > 1e-12 else 0.0
    diff_bd = 2.0 * cmath.phase(v10) if abs(v10) > 1e-12 else 0.0
    beta = (sum_bd + diff_bd) / 2.0
    delta = (sum_bd - diff_bd) / 2.0
    return alpha, beta, gamma, delta


@lru_cache(maxsize=1024)
def _abc(U):
    """(C, B, A, control phase) of the ABC decomposition of the 2x2 unitary
    tuple U; a part equal to the identity is None.

    U = e^{i alpha} A X B X C with A B C = I; the phase lands on the
    control as diag(1, e^{i alpha}).  Cached, since the CU2 gates of a
    circuit share a few matrices.
    """
    alpha, beta, gamma, delta = zyz_angles(U)
    A = mul(rz_mat(beta), ry_mat(gamma / 2))
    B = mul(ry_mat(-gamma / 2), rz_mat(-(delta + beta) / 2))
    C = rz_mat((delta - beta) / 2)
    parts = [m if dist(m, IDENTITY) > 1e-15 else None for m in (C, B, A)]
    parts.append(((1 + 0j, 0j), (0j, cmath.exp(1j * alpha)))
                 if abs(alpha) > 1e-15 else None)
    # checked once here, so no gate lowered from a part checks it again
    return tuple(None if m is None else check_unitary(m) for m in parts)


@lru_cache(maxsize=4096)
def _cu2_parts(c, t, U):
    """Controlled-U via the ABC decomposition as lowered gates: 2 CX plus
    the single-qubit parts that are not the identity.  Cached, since a
    circuit repeats a CU2 gate on the same wires."""
    C, B, A, phase = _abc(U)
    rows = (("U2", (t,), C), ("CX", (c, t), None), ("U2", (t,), B),
            ("CX", (c, t), None), ("U2", (t,), A), ("U2", (c,), phase))
    return tuple(Gate._make((kind, qubits, None, m))
                 for kind, qubits, m in rows if kind == "CX" or m is not None)


@lru_cache(maxsize=4096)
def _template_gates(kind, qubits):
    """The lowered gates of the ``kind`` macro on ``qubits``, one per row
    of ``_TEMPLATES[kind]``.  Cached: a circuit repeats a macro on the same
    wires, at least once more to uncompute it."""
    at = qubits.__getitem__
    return tuple(Gate._make((k, tuple(map(at, pos)), None, None))
                 for k, pos in _TEMPLATES[kind])


def _lowered(circuit):
    """Each gate of ``lower(circuit)``, in order.  ``lower``, ``depth``,
    ``report_for`` and the assembly export all read this one walk."""
    for g in circuit.gates:
        if g.kind in LOWERED_KINDS:
            yield g
        elif g.kind == "CU2":
            yield from _cu2_parts(*g.qubits, g.matrix)
        else:
            yield from _template_gates(g.kind, g.qubits)


def lower(circuit: Circuit) -> Circuit:
    """Rewrite macro gates into the {single-qubit, CX} basis.

    CCX lowers to the standard exact 6-CX network; RCCX lowers to its
    defining 3-CX network; CU2 lowers via the ABC decomposition (2 CX).
    Idempotent, and exact: the full unitary is preserved.  A circuit with
    no macro gate is returned as it is.
    """
    if all(g.kind in LOWERED_KINDS for g in circuit.gates):
        return circuit
    return circuit._replace(gates=tuple(_lowered(circuit)))


# CX contribution of each kind once lowered; used for fast counting
CX_WEIGHT = {"CX": 1, "CCX": 6, "RCCX": 3, "CU2": 2}


def cnot_count(circuit: Circuit) -> int:
    """CX count of the lowered circuit, computed without expanding macros."""
    return sum(CX_WEIGHT.get(g.kind, 0) for g in circuit.gates)


def count_gates(circuit: Circuit, kind) -> int:
    """Exact number of gates of the given kind in the circuit as written."""
    return sum(1 for g in circuit.gates if g.kind == kind)


def depth(circuit: Circuit) -> int:
    """Greedy as-soon-as-possible layer count of the lowered circuit.

    Every gate of ``lower(circuit)`` costs one layer and enters the
    earliest layer where all of its qubits are free.  Empty circuit has
    depth 0.
    """
    frontier = [0] * circuit.num_qubits
    # a lowered gate acts on one qubit or, as CX, on two
    for g in _lowered(circuit):
        qubits = g.qubits
        if len(qubits) == 1:
            frontier[qubits[0]] += 1
        else:
            a, b = qubits
            frontier[a] = frontier[b] = max(frontier[a], frontier[b]) + 1
    return max(frontier, default=0)


# RCCX is included because its defining network happens to be an involution:
# reversing the network and daggering each gate reproduces it verbatim
_ADJOINT_SELF = {"X", "H", "CX", "CCX", "RCCX"}


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with each gate replaced by its adjoint.

    T <-> Tdg, rotations negate their angle, U2/CU2 take the conjugate
    transpose.  X, H, CX, CCX and RCCX are their own adjoints (for RCCX
    this is a property of its defining network).  The adjoint of a checked
    gate needs no check of its own.
    """
    return circuit._replace(gates=tuple(inverse_gates(circuit.gates)))


def inverse_gates(gates) -> list:
    """The gates of ``inverse`` for a gate sequence: reversed, each
    replaced by its adjoint."""
    out = []
    for g in reversed(gates):
        if g.kind in _ADJOINT_SELF:
            out.append(g)
        elif g.kind in ("T", "Tdg"):
            out.append(g._replace(kind="Tdg" if g.kind == "T" else "T"))
        elif g.kind in ANGLE_KINDS:
            out.append(g._replace(angle=-g.angle))
        elif g.kind in MATRIX_KINDS:
            out.append(g._replace(matrix=adjoint(g.matrix)))
        else:  # pragma: no cover
            raise ValueError("no adjoint for %r" % (g.kind,))
    return out


def report_for(circuit: Circuit, ancilla_kind="none") -> DecompReport:
    """Build a DecompReport for a synthesized circuit; counts and depth are
    those of its lowering, found without building it."""
    return DecompReport(
        cnot_count=cnot_count(circuit),
        total_gates=sum(1 for _ in _lowered(circuit)),
        depth=depth(circuit),
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
        d["matrix"] = [[x.real, x.imag] for row in g.matrix for x in row]
    return d


def _qasm_body(circuit: Circuit, u_name: str) -> list:
    """Statement list shared by the two assembly dialects, written from the
    gates of the lowering without building it."""
    lines = []
    for kind, qubits, angle, matrix in _lowered(circuit):
        # a lowered gate acts on one qubit or, as CX, on two
        q = "q[%d]" % qubits if len(qubits) == 1 else "q[%d],q[%d]" % qubits
        if kind in FIXED_KINDS:
            lines.append("%s %s;" % (kind.lower(), q))
        elif kind in ANGLE_KINDS:
            lines.append("%s(%s) %s;" % (kind.lower(), _fmt_angle(angle), q))
        elif kind == "CX":
            lines.append("cx %s;" % q)
        elif kind == "U2":
            _, beta, gamma, delta = zyz_angles(matrix)
            lines.append("%s(%s,%s,%s) %s;"
                         % (u_name, _fmt_angle(gamma), _fmt_angle(beta),
                            _fmt_angle(delta), q))
        else:  # pragma: no cover
            raise ValueError("kind %r not exportable" % (kind,))
    return lines


def export_text(circuit: Circuit, fmt: str) -> str:
    """Serialize a circuit as 'qasm2', 'qasm3' or 'json' text.

    The JSON dialect keeps macro gates and round-trips exactly through
    :func:`parse_json`.  The assembly dialects write the gates of
    ``lower(circuit)`` without building it, and drop global phase (their
    gate sets are phase-free).
    """
    if fmt == "json":
        # imported here, so an assembly export does not load it
        import json
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
    from 0 to 8193 and a ``gates`` list of objects that each have ``kind``
    and integer ``qubits``; ``ancilla_roles`` is optional.
    """
    import json
    from .bench import COUNT_ONLY_MAX_N
    widest = 2 * COUNT_ONLY_MAX_N + 1   # mcmt-x at the cap: n + m + 1 qubits
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("circuit JSON nests too deeply") from None
    if not (isinstance(doc, dict) and type(doc.get("n")) is int
            and 0 <= doc["n"] <= widest
            and isinstance(doc.get("gates"), list)):
        raise ValueError("circuit JSON needs an object with an integer 'n' "
                         "from 0 to %d and a 'gates' list" % widest)
    try:
        gates = []
        for d in doc["gates"]:
            params, matrix = d.get("params"), None
            if "matrix" in d:
                flat = [complex(json_number(re, "matrix entry"),
                                json_number(im, "matrix entry"))
                        for re, im in d["matrix"]]
                matrix = flat[:2], flat[2:]
            angle = json_number(params[0], "angle") if params else None
            gates.append(Gate(d["kind"], d["qubits"], angle, matrix))
        return Circuit(doc["n"], gates, doc.get("ancilla_roles"))
    except (TypeError, KeyError, IndexError, AttributeError) as e:
        raise ValueError("bad gate or role in circuit JSON: %s: %s"
                         % (type(e).__name__, e)) from None
