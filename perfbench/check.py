"""Independent output checker for the qsynth CLI.

It reads only what the CLI writes (stdout, stderr, exit code, and the files
it is given) and imports nothing from ``qsynth``.  Every check returns a list
of failure strings; an empty list means the output passed.

The basis-state simulation below is a NECESSARY BUT NOT SUFFICIENT check: it
runs the structured near-firing inputs through the circuit's classical action
(RCCX acts on basis states as CCX up to a phase) and so never looks at
phases.  A circuit it accepts can still be wrong; a circuit it rejects is
wrong.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

# CX cost of each gate kind once lowered to {single-qubit, CX}
CX_COST = {"CX": 1, "CCX": 6, "RCCX": 3, "CU2": 2}


# ---------------------------------------------------------------------------
# closed-form CX counts, written out here rather than taken from the library

def mcx_cnot(n, mode):
    if n <= 2:
        return (1, 6)[n - 1]
    return 6 * n - 6 if mode == "clean" else 12 * n - 18


def mcmt_x_cnot(n, m):
    if n <= 2:
        return (m, 2 * m + 4)[n - 1]
    return 6 * n + 2 * m - 8


def mcmt_su2_cnot(n, m):
    if n <= 2:
        return (2 * m, 8 * m)[n - 1]
    return 12 * n + 6 * m - 28


def approx_u_cnot(n, epsilon):
    """For the X gate (rotation angle pi), as `bench` builds approx_u."""
    n_b = max(1, math.ceil(math.log2(
        math.pi / math.acos(1.0 - epsilon ** 2 / 2.0))))
    return 4 * n_b ** 2 + 24 * n - 12 * n_b - 56


def bench_cnot(family, n, m, epsilon):
    if family in ("mcx_clean", "mcx_dirty"):
        return mcx_cnot(n, family[4:])
    if family == "mcmt_x":
        return mcmt_x_cnot(n, m)
    if family == "mcmt_su2":
        return mcmt_su2_cnot(n, m)
    if family == "approx_u":
        return approx_u_cnot(n, epsilon)
    raise ValueError("unknown family %r" % (family,))


# ---------------------------------------------------------------------------
# JSON circuits

def parse_circuit(text):
    """(num_qubits, gates) from the CLI's JSON dialect; raises ValueError."""
    doc = json.loads(text)
    n, gates = doc["n"], doc["gates"]
    for g in gates:
        if any(not 0 <= q < n for q in g["qubits"]):
            raise ValueError("qubit outside register in %r" % (g,))
    return n, gates


def cx_count(gates):
    return sum(CX_COST.get(g["kind"], 0) for g in gates)


def _words(rows):
    """Pack a (wires x patterns) bool array into one Python int per wire."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def near_firing(n):
    """Control patterns (n x P bools): firing, then one and two cleared."""
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                     dtype=np.int64).reshape(-1, 2)
    rows = np.ones((n, 1 + n + len(pairs)), dtype=bool)
    rows[np.arange(n), 1 + np.arange(n)] = False
    cols = 1 + n + np.arange(len(pairs))
    rows[pairs[:, 0], cols] = False
    rows[pairs[:, 1], cols] = False
    return rows


_ARITY = {"X": 1, "CX": 2, "CCX": 3, "RCCX": 3}


def simulate_basis(gates, wires, width):
    """Bit-sliced classical action: each wire is an int, one bit per input.

    ``width`` is the number of inputs.  Raises ValueError on a gate kind
    without a classical basis action.
    """
    w = list(wires)
    ones = (1 << width) - 1
    for g in gates:
        q, kind = g["qubits"], g["kind"]
        if _ARITY.get(kind) != len(q):
            raise ValueError("gate %s%r has no basis-state action" % (kind, q))
        if kind == "X":
            w[q[0]] ^= ones
        elif kind == "CX":
            w[q[1]] ^= w[q[0]]
        else:
            w[q[2]] ^= w[q[0]] & w[q[1]]
    return w


def check_controlled_x(text, n, targets, ancilla_mode, seed):
    """Near-firing basis check plus CX count for a synthesized C^n(X^m).

    Layout: controls [0..n), the ``targets`` wires next, then one ancilla.
    Inputs: the firing pattern and every pattern with one or two controls
    cleared; random target bits; ancilla 0, or both values when dirty.
    The targets must flip exactly on the firing pattern; every other wire
    must come back unchanged.
    """
    m = len(targets)
    expect_cx = (mcx_cnot(n, ancilla_mode) if m == 1
                 else mcmt_x_cnot(n, m))
    try:
        nq, gates = parse_circuit(text)
    except (ValueError, KeyError, TypeError) as e:
        return ["unparseable circuit JSON: %s" % e]
    fails = []
    if nq != n + m + 1:
        fails.append("register of %d qubits, want %d" % (nq, n + m + 1))
        return fails
    got = cx_count(gates)
    if got != expect_cx:
        fails.append("cx count %d != %d" % (got, expect_cx))

    ctrl = near_firing(n)
    anc = np.zeros((1, ctrl.shape[1]), dtype=bool)
    if ancilla_mode == "dirty":
        ctrl = np.concatenate([ctrl, ctrl], axis=1)
        anc = np.concatenate([anc, ~anc], axis=1)
    rng = np.random.default_rng(seed)
    tgt = rng.integers(0, 2, size=(m, ctrl.shape[1])).astype(bool)
    wires = _words(np.concatenate([ctrl, tgt, anc]))
    try:
        out = simulate_basis(gates, wires, ctrl.shape[1])
    except ValueError as e:
        return fails + [str(e)]
    firing = wires[0]
    for x in wires[1:n]:
        firing &= x
    want = list(wires)
    for t in range(n, n + m):
        want[t] ^= firing
    bad = [q for q in range(nq) if out[q] != want[q]]
    if bad:
        fails.append("basis check: wires %s wrong on %d of %d inputs"
                     % (bad[:8], _count_bad(out, want), ctrl.shape[1]))
    return fails


def _count_bad(out, want):
    diff = 0
    for a, b in zip(out, want):
        diff |= a ^ b
    return bin(diff).count("1")


def check_mcx_json(text, n, mode, seed=0):
    return check_controlled_x(text, n, (n,), mode, seed)


def check_mcmt_x_json(text, n, m, seed=0):
    return check_controlled_x(text, n, tuple(range(n, n + m)), "clean", seed)


# ---------------------------------------------------------------------------
# assembly text (qasm2 / qasm3): structure and CX count only

_STMT = re.compile(r"(x|h|t|tdg|cx|rx\([^)]*\)|ry\([^)]*\)|rz\([^)]*\)"
                   r"|u3\([^)]*\)|U\([^)]*\)) (q\[\d+\](?:,q\[\d+\])*);")


def check_qasm(text, fmt, nq, expect_cx):
    """Header, register size, statement syntax and CX count."""
    lines = text.splitlines()
    head = (["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[%d];" % nq]
            if fmt == "qasm2" else
            ["OPENQASM 3.0;", 'include "stdgates.inc";', "qubit[%d] q;" % nq])
    if lines[:3] != head:
        return ["bad %s header %r" % (fmt, lines[:3])]
    cx = 0
    for line in lines[3:]:
        mt = _STMT.fullmatch(line)
        if not mt:
            return ["bad statement %r" % line]
        qs = [int(x) for x in re.findall(r"\d+", mt.group(2))]
        if max(qs) >= nq or len(set(qs)) != len(qs):
            return ["bad operands in %r" % line]
        cx += mt.group(1) == "cx"
    if cx != expect_cx:
        return ["cx count %d != %d" % (cx, expect_cx)]
    return []


# ---------------------------------------------------------------------------
# export: a faithful conversion of its input file

def check_export(src_text, out_text, fmt):
    nq, gates = parse_circuit(src_text)
    if fmt != "json":
        return check_qasm(out_text, fmt, nq, cx_count(gates))
    try:
        onq, ogates = parse_circuit(out_text)
    except (ValueError, KeyError, TypeError) as e:
        return ["unparseable export JSON: %s" % e]
    if (onq, ogates) != (nq, gates):
        return ["json export differs from its input circuit"]
    return []


# ---------------------------------------------------------------------------
# bench CSV

def check_bench_csv(text, family, ns, m, epsilon):
    """Every row's n, m and cnot against the closed forms; returns
    (failures, depths)."""
    lines = text.splitlines()
    if not lines:
        return ["empty CSV"], []
    head = lines[0].split(",")
    try:
        col = {k: head.index(k) for k in ("family", "n", "m", "cnot",
                                          "depth")}
    except ValueError:
        return ["CSV header %r lacks a column" % lines[0]], []
    fails, depths, seen = [], [], []
    for line in lines[1:]:
        f = line.split(",")
        try:
            n, cnot, dep, row_m = (int(f[col[k]])
                                   for k in ("n", "cnot", "depth", "m"))
        except (ValueError, IndexError):
            fails.append("unparseable row %r" % line)
            continue
        seen.append(n)
        depths.append(dep)
        if f[col["family"]] != family or row_m != m:
            fails.append("row %r: wrong family or m" % line)
        want = bench_cnot(family, n, m, epsilon)
        if cnot != want:
            fails.append("n=%d: cnot %d != %d" % (n, cnot, want))
        if dep < 1:
            fails.append("n=%d: depth %d" % (n, dep))
    if seen != sorted(ns):
        fails.append("rows for n=%s, want %s" % (seen, sorted(ns)))
    return fails, depths


# ---------------------------------------------------------------------------
# stderr

_REPORT = re.compile(r"cnot=(\d+) total_gates=(\d+) depth=(\d+) "
                     r"num_ancilla=(\d+) ancilla_kind=(\w+)")


def parse_report(stderr):
    """The synth resource line as a dict, or None when absent."""
    mt = _REPORT.search(stderr)
    if not mt:
        return None
    keys = ("cnot", "total_gates", "depth", "num_ancilla")
    return dict(zip(keys, map(int, mt.groups()[:4])))


def check_verify(code, stderr, target):
    """Exit code and verdict line against the known verdict, ok."""
    if code != 0 or ("verify %s: ok" % target) not in stderr:
        return ["verify %s: exit %d, want 0" % (target, code)]
    return []
