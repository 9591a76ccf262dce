"""One verification layer: the oracle, the CX-count table, the tier choice.

:func:`verify_circuit` checks a circuit against C^n(W_1 x ... x W_m), with
controls on wires [0, n), W_j on wire n + j and at most one ancilla after
them.  It checks the CX count against :data:`CNOT_TABLE`, then runs the
tier the circuit and its register size select:

- dense: every basis input the spec allows, by the split check
  (:func:`_split`) on any register whose classical wires take at most
  :data:`SLICED_INPUTS` inputs: the classical wires bit-sliced on Python
  ints, the few wires that hold amplitudes as one small operator per class
  of inputs, held to the oracle's block by wire role: column by column for
  an exact target, in spectral norm for an approximate one, whose
  classical wires that end wrong join the quantum ones.  The operators are
  pure Python up to _WORK entries (and _PURE approximate quantum wires),
  numpy arrays up to _WIDE.  That takes every circuit of at most 11
  qubits, every ``mcx`` and ``mcmt-x`` build up to 2^21 inputs, and
  ``mcmt-su2`` up to 2^21 control inputs and 10 targets;
- sparse (every other circuit, of 12 qubits and up): near-firing inputs
  through a basis-index -> amplitude simulator (Jaques & Haner,
  arXiv:2105.01533) on int64 keys, vectorised over the inputs, in batches
  that spread to at most MAX_ROWS rows.  It runs the macro gates with the
  dense simulator's own matrices.

The split check holds one int of k bits per classical wire, so its time and
memory grow with k, the sparse tier's with the width of the register.  The
budget stops at 2^21 inputs (an mcx on 21 qubits with a dirty ancilla, on
22 with a clean one), the last power of two at which the bit-sliced check
still peaks below the sparse tier: a fresh verify process peaks at 28 MB
against 36 at 2^21 inputs, and at 41 MB against 37 at 2^22.

Every exact check simulates macro gates; that lowering preserves them is
tested on its own.  Only the sparse tier and numpy operators load ``sim``
(and with it numpy); no check runs ``sim.apply``.  Every tier holds each
input to the one rule of :func:`_errors`, except that the dense tier holds
an approximate target's unitary to its spectral bound.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, mul, or_

from ._np import np
from .bench import Spec  # re-exported: the spec verify_circuit checks
from .ir import (IDENTITY, PHASE_TIE, Circuit, Gate, adjoint, check_unitary,
                 cnot_count, dist, fixed_matrix, target_matrix)

SLICED_INPUTS = 1 << 21  # most classical inputs of a split check
_SEED = 20240811
_TOL = 1e-9            # largest entry error of an exact target, every tier
_TINY = 1e-12          # amplitudes dropped after a gate spreads the rows
MAX_ROWS = 1 << 21     # sparse rows per batch: 48 MB, 370-760 MB at peak
_WORD = 63             # key bits per int64 word; the sign bit stays clear
_ALL_PAIRS = 64        # up to this many controls, every pair is cleared
_PERMUTING = frozenset({"X", "CX", "CCX", "RCCX"})  # phased permutations
_WORK = 1 << 14        # most classes x 4^|quantum| of operators in Python
_WIDE = 1 << 22        # the same of any split check, in numpy: 64 MB
_PURE = 4              # most quantum wires of approximate operators in
                       # Python; numpy's import costs more from 5


# target -> exact CX count of (n, m, ancilla, n_b); n <= 2 circuits are
# direct gates.
CNOT_TABLE = {
    "mcx": lambda n, m, anc, n_b: {1: 1, 2: 6}.get(
        n, 6 * n - 6 if anc == "clean" else 12 * n - 18),
    "mcmt-x": lambda n, m, anc, n_b: {1: m, 2: 2 * m + 4}.get(
        n, 6 * n + 2 * m - 8),
    "mcmt-su2": lambda n, m, anc, n_b: {1: 2 * m, 2: 8 * m}.get(
        n, 12 * n + 6 * m - 28),
    "approx-u": lambda n, m, anc, n_b: 4 * n_b ** 2 + 24 * n - 12 * n_b - 56,
}


class Verdict(namedtuple("Verdict", "tier inputs fails note",
                         defaults=("",))):
    """Which tier ran, how many inputs it covered, and what failed."""
    __slots__ = ()

    def lines(self):
        head = "tier=%s inputs=%d" % (self.tier, self.inputs)
        if self.fails:
            return ["FAIL %s: %s" % (head, f) for f in self.fails]
        return ["ok " + head + self.note]


def apply_oracle(states, n, ws):
    """C^n(W_1 x ... x W_m) applied in one pass of index arithmetic to
    ``states`` (in place if complex), shaped (2^nq, ...) with one basis
    index per row; the identity gives the oracle's matrix."""
    m, nq = len(ws), states.shape[0].bit_length() - 1
    W = reduce(np.kron, ws[::-1])      # wire n + m - 1 most significant
    # firing rows: one group per value of the wires above the targets
    fire = (np.arange(1 << (nq - n - m)) << (n + m)) + ((1 << n) - 1)
    idx = fire[:, None] + (np.arange(1 << m) << n)
    out = np.asarray(states, dtype=complex)
    out[idx] = np.einsum("st,rt...->rs...", W, out[idx])
    return out


# ---------------------------------------------------------------------------
# sparse states: int64 keys per row, wire q at bit q % 63 of word q // 63 and
# the number of the row's input above the wires, in one word; one amplitude

def _sum_by(key, values, size=0):
    return (np.bincount(key, values.real, size)
            + 1j * np.bincount(key, values.imag, size))


def _pack(bits, owner):
    """Keys of rows given as a (wires, rows) bit array and input numbers,
    and the key bit where the input number starts."""
    nq = len(bits)
    at = nq if nq % _WORD + int(owner.max(initial=0)).bit_length() <= _WORD \
        else -(-nq // _WORD) * _WORD
    keys = np.zeros((at // _WORD + 1, len(owner)), dtype=np.int64)
    for q, b in enumerate(bits):
        keys[q // _WORD] |= np.asarray(b, dtype=np.int64) << (q % _WORD)
    keys[-1] |= np.asarray(owner, dtype=np.int64) << (at % _WORD)
    return keys, at


def _merge(keys, *vals):
    """The distinct keys in sorted order, and each of ``vals`` summed over
    the rows of each key."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)][:len(order)]
    group = np.cumsum(new) - 1
    return (keys[:, new],) + tuple(_sum_by(group, v[order]) for v in vals)


def _check_rows(rows):
    if rows > MAX_ROWS:
        raise ValueError("sparse check needs more than %d amplitudes"
                         % MAX_ROWS)


@lru_cache(maxsize=4096)
def _action(g):
    """Tables for gate ``g``, a 2x2 matrix on its target (last operand) for
    each local value of the others: the target's key word and bit; for a
    phased permutation, the target flip and phase of each local input (None
    for none), else the diagonal, the entry each input takes from its
    partner (the target flipped) and which inputs mix."""
    from .sim import gate_matrix
    M, k = gate_matrix(g), len(g.qubits)
    frm, to = np.nonzero(np.abs(M.T) > _TINY)
    if ((frm ^ to) > 1).any():
        raise ValueError("no sparse action for %r" % (g,))
    i, (w, t) = np.arange(1 << k), divmod(g.qubits[-1], _WORD)
    if len(frm) == 1 << k:
        coef = M[to, frm]
        return (g.qubits, w, 1 << t, (frm ^ to) << t if (frm != to).any()
                else None, None if (coef == 1).all() else coef, None)
    return g.qubits, w, 1 << t, None, None, (M[i, i], M[i, i ^ 1],
                                             np.abs(M[i, i ^ 1]) > _TINY)


def _gate(keys, amp, ordered, qubits, w, bit, flip, coef, spread):
    """One gate on rows sorted by key if ``ordered``; returns the new (keys,
    amp, ordered).  A phased permutation rewrites keys and phases in place.
    Any other gate mixes each row with its partner: in sorted rows whose
    partners all exist, the j-th mixing row with target 0 pairs with the
    j-th with target 1.  Missing partners join by one sort."""
    if spread is not None and not ordered:
        keys, amp = _merge(keys, amp)
    local = 0
    for q in qubits:
        local = (local << 1) | ((keys[q // _WORD] >> (q % _WORD)) & 1)
    if spread is None:
        if flip is not None:
            keys[w] ^= flip[local]
        amp = amp if coef is None else amp * coef[local]
        return keys, amp, ordered and flip is None
    diag, off, mix = spread
    lo, hi = (np.flatnonzero(mix[local] & (local & 1 == b)) for b in (0, 1))
    part = keys[:, lo]
    part[w] |= bit
    if len(lo) != len(hi) or (part != keys[:, hi]).any():
        part = keys[:, mix[local]]
        part[w] ^= bit
        keys, amp = _merge(np.hstack([keys, part]),
                           np.concatenate([amp, np.zeros(part.shape[1])]))
        return _gate(keys, amp, True, qubits, w, bit, flip, coef, spread)
    new = amp * diag[local]
    new[lo] += off[local[lo]] * amp[hi]
    new[hi] += off[local[hi]] * amp[lo]
    keep = np.abs(new) > _TINY
    if not keep.all():
        keys, new = keys[:, keep], new[keep]
    _check_rows(len(new))
    return keys, new, True


def sparse_apply(circuit, bits, amp, owner):
    """Run ``circuit`` on sparse states given, and returned, as a (wires,
    rows) bit array, one amplitude and one input number per row."""
    (keys, at), ordered = _pack(bits, owner), False
    for g in circuit.gates:
        keys, amp, ordered = _gate(keys, amp, ordered, *_action(g))
    bits = [(keys[q // _WORD] >> q % _WORD & 1).astype(bool)
            for q in range(len(bits))]
    return np.array(bits), amp, keys[-1] >> (at % _WORD)


# ---------------------------------------------------------------------------
# the rule and the tiers

def _errors(o, w, owner, k, epsilon):
    """Each of the k inputs' error, from the amplitudes ``o`` (circuit) and
    ``w`` (oracle) of its rows, and the inputs whose error is too large.
    An exact target's error is the largest entry of |o - w|, with no phase
    freedom, bounded by _TOL; an approximate one's is the 2-norm of
    o - e^{i phi} w at the input's best phase phi, bounded by epsilon,
    which the spectral bound implies."""
    if epsilon is None:
        err = np.zeros(k)
        np.maximum.at(err, owner, np.abs(o - w))
        return err, np.flatnonzero(err > _TOL)
    phase = np.exp(1j * np.angle(_sum_by(owner, w.conj() * o, k)))
    err = np.sqrt(np.bincount(owner, np.abs(o - phase[owner] * w) ** 2, k))
    return err, np.flatnonzero(err > epsilon)


def _basis_ints(nq, k):
    """Inputs 0..k-1 bit-sliced: bit j of wire q's int is bit q of input j,
    which is set in the upper half of every run of 2^(q+1) inputs.  Each
    int is one run doubled by shifts, in time linear in k."""
    wires = []
    for q in range(nq):
        half = 1 << q
        run, width = ((1 << half) - 1) << half, 2 * half
        while width < k:
            run |= run << width
            width *= 2
        wires.append(run & ((1 << k) - 1) if half < k else 0)
    return wires


# the split check: classical wires bit-sliced on Python ints, quantum ones
# as one small operator per class of inputs

_X, _Y = fixed_matrix("X"), ((0j, -1j), (1j, 0j))


@lru_cache(maxsize=4096)
def _blocks(g):
    """The 2x2 matrix gate ``g`` applies to its target for each value of
    its controls, the first control most significant.  RCCX(a, b, t) is
    I unless a, then Z unless b, then Y: the phases of :func:`_slice`."""
    if g.kind == "RCCX":
        return IDENTITY, IDENTITY, ((1 + 0j, 0j), (0j, -1 + 0j)), _Y
    k = len(g.qubits) - 1
    return (IDENTITY,) * ((1 << k) - 1) + (target_matrix(g),)


def _quantum(c, spec, extra=()):
    """The wires that need amplitudes: an approximate target, the exact
    targets whose W is not exactly X and the ``extra`` wires, closed over
    the target of every gate outside _PERMUTING and of every gate with a
    quantum control, and over every target once a control is one, as the
    oracle's action on each target then depends on it."""
    n, m, approx = spec.n, len(spec.ws), spec.epsilon is not None
    quantum, size = {n + j for j, W in enumerate(spec.ws)
                     if approx or dist(W, _X)} | set(extra), -1
    while size < len(quantum):
        size = len(quantum)
        quantum.update(g.qubits[-1] for g in c.gates
                       if g.kind not in _PERMUTING
                       or not quantum.isdisjoint(g.qubits[:-1]))
        if min(quantum, default=n) < n:
            quantum.update(range(n, n + m))
    return sorted(quantum)


def _slice(c, wires, k, quantum=()):
    """Run each gate of ``c`` with a classical target on bit-sliced inputs
    0..k-1, in place on ``wires`` (one int of k bits per classical wire);
    return the power of i on each input, mod 4, bit-sliced as (lo, hi), and
    each gate on a ``quantum`` wire with the ints its controls hold then
    (None for a quantum control)."""
    ones, lo, hi, conds = (1 << k) - 1, 0, 0, []
    for g in c.gates:
        *ctl, t = g.qubits
        if t in quantum:
            conds.append((g, [None if q in quantum else wires[q]
                              for q in ctl]))
            continue
        fire = reduce(and_, (wires[q] for q in ctl), ones)
        if g.kind == "RCCX":   # i^2 where a and t, then i where a and b
            hi ^= (wires[ctl[0]] & wires[t]) ^ (lo & fire)
            lo ^= fire
        wires[t] ^= fire
    return lo, hi, conds


@lru_cache(maxsize=64)
def _swaps(D, bit, ctl):
    """The entry each entry of a D x D operator takes from when an X on
    ``bit`` acts on the rows whose ``ctl`` bits hold their values."""
    return [j ^ bit if all((j >> q & 1) == v for q, v in ctl) else j
            for j in range(D * D)]


def _operator(D, steps):
    """The operator of ``steps`` on the quantum wires, each (target bit,
    ((control bit, value), ...), 2x2), as a list whose D entries from y * D
    are column y."""
    op = [0j] * (D * D)
    op[::D + 1] = [1 + 0j] * D
    for t, ctl, M in steps:
        bit, ((a, b), (c, d)) = 1 << t, M
        if M == _X:
            op = list(map(op.__getitem__, _swaps(D, bit, ctl)))
        elif not ctl:   # each run of rows with bit t clear, all columns
            for r in range(bit):
                x, y = op[r::2 * bit], op[r + bit::2 * bit]
                op[r::2 * bit] = [a * u + b * v for u, v in zip(x, y)]
                op[r + bit::2 * bit] = [c * u + d * v for u, v in zip(x, y)]
        else:
            for j in range(D * D):
                if not j & bit and all((j >> q & 1) == v for q, v in ctl):
                    x, y = op[j], op[j | bit]
                    op[j], op[j | bit] = a * x + b * y, c * x + d * y
    return op


def _top(entries):
    """(index, value) of each of ``entries`` within PHASE_TIE of the largest
    modulus among them."""
    big = max(map(abs, entries)) - PHASE_TIE
    return [(i, v) for i, v in enumerate(entries) if abs(v) >= big]


def _norm(D, E):
    """The spectral norm of the D x D matrix E, given as :func:`_operator`
    gives one: the square root of the top eigenvalue of E^dag E.  Lanczos
    with full reorthogonalisation reduces E^dag E to a tridiagonal matrix
    over a basis of all of C^D (a breakdown restarts from the unit vector
    farthest from the basis so far), whose top eigenvalue bisection on its
    Sturm sequence finds."""
    cols = [(E[y:y + D], [u.conjugate() for u in E[y:y + D]])
            for y in range(0, D * D, D)]
    basis, alpha, beta, v = [], [], [], None   # basis: (q, conj(q)) pairs
    small = 1e-14 * D * max(1.0, max(map(abs, E))) ** 2

    def rest(v):
        # v less its projection on the basis, twice, and its length
        for _ in range(2):
            for b, bc in basis:
                h = sum(map(mul, bc, v))
                v = [x - h * y for x, y in zip(v, b)]
        return v, math.sqrt(sum(abs(x) ** 2 for x in v))

    for j in range(D):
        if v is None:
            i = max(range(D), key=lambda i: -sum(abs(b[i]) ** 2
                                                for b, _ in basis))
            v, r = rest([0j] * i + [1 + 0j] + [0j] * (D - 1 - i))
            v = [x / r for x in v]
            if basis:
                beta.append(0.0)
        basis.append((v, [x.conjugate() for x in v]))
        w = [0j] * D            # E^dag E v, one column of E at a time
        for a, (col, _) in zip(v, cols):
            w = [x + a * y for x, y in zip(w, col)]
        w = [sum(map(mul, cc, w)) for _, cc in cols]
        alpha.append(sum(map(mul, basis[-1][1], w)).real)
        w, r = rest(w)
        v = None if r <= small else [x / r for x in w]
        if v is not None and j + 1 < D:
            beta.append(r)
    # bisection between the largest diagonal entry and Gershgorin's bound
    lo = max(alpha)
    hi = max(a + (beta[i - 1] if i else 0.0) + (beta[i] if i < len(beta)
                                                else 0.0)
             for i, a in enumerate(alpha))
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return math.sqrt(max(hi, 0.0))
        below, d = 0, 1.0
        for i, a in enumerate(alpha):
            d = a - mid - (beta[i - 1] ** 2 / d if i else 0.0)
            if d == 0:
                d = -1e-300
            below += d < 0
        if below == D:
            hi = mid
        else:
            lo = mid


def _scatter(x, wires):
    """Bit i of ``x`` moved to bit wires[i]."""
    return sum((x >> i & 1) << q for i, q in enumerate(wires))


def _split(c, spec, extra=()):
    """The dense tier's check of every basis input the spec allows, in
    classes: the FAIL lines of :func:`_class_fails` or
    :func:`_approx_fails`, or None if the check declines.

    Classical wires are bit-sliced over their inputs (:func:`_slice`).  Two
    inputs share a class when they agree on the controls of every gate on a
    quantum wire (:func:`_quantum`), on oracle firing, on the power of i and
    on whether a classical wire ends wrong; they then share one operator on
    the quantum wires.  For an approximate target a classical wire that
    ends wrong joins the quantum wires (``extra``), and the check runs
    again.  Declines more than SLICED_INPUTS classical inputs and more
    than _WIDE operator entries, classes x 4^|quantum|; every circuit of
    at most 11 qubits fits, as 2^c * 4^q <= 2^22 when c + q <= 11."""
    quantum = _quantum(c, spec, extra)
    nq, n, D = c.num_qubits, spec.n, 1 << len(quantum)
    classical = [q for q in range(nq) if q not in quantum]
    # a clean ancilla, the top wire, starts at 0: as a classical wire it
    # takes no inputs, as a quantum one no columns
    clean = spec.ancilla == "clean"
    k = 1 << (len(classical) - (clean and nq - 1 in classical))
    if k > SLICED_INPUTS:
        return None
    wires = [None] * nq
    for q, v in zip(classical, _basis_ints(len(classical), k)):
        wires[q] = v
    want = list(wires)
    fire = reduce(and_, (v for v in want[:n] if v is not None), (1 << k) - 1)
    for q in range(n, n + len(spec.ws)):
        if q not in quantum:
            want[q] ^= fire
    lo, hi, conds = _slice(c, wires, k, set(quantum))
    moved = reduce(or_, (w ^ v for w, v in zip(wires, want) if w is not None),
                   0)
    if spec.epsilon is not None and moved:
        return _split(c, spec, extra + tuple(q for q in classical
                                             if wires[q] != want[q]))

    # each gate on a quantum wire reads its classical controls as (local
    # bits, mask) pairs: one AND of them when only the all-set value acts
    reads = []
    for g, ints in conds:
        cl = [(1 << (len(ints) - 1 - p), v) for p, v in enumerate(ints)
              if v is not None]
        if len(cl) > 1 and all(m is IDENTITY for m in _blocks(g)[:-1]):
            cl = [(sum(b for b, _ in cl), reduce(and_, (v for _, v in cl)))]
        reads.append(cl)
    # classes: the inputs split by each of those masks, then by firing, the
    # power of i and a wrong classical wire
    classes = [((1 << k) - 1, ())]
    for mask in [v for cl in reads for _, v in cl] + [fire, lo, hi, moved]:
        split = []
        for inputs, bits in classes:
            part = inputs & mask
            if part and part != inputs:
                split.append((inputs ^ part, bits + (0,)))
            split.append((part or inputs, bits + (1 if part else 0,)))
        classes = split
        if len(classes) * D * D > _WIDE:
            return None

    pos, parts = {q: i for i, q in enumerate(quantum)}, []
    for inputs, bits in classes:
        steps, read = [], iter(bits)
        for (g, ints), cl in zip(conds, reads):
            base = sum(b for b, _ in cl if next(read))
            qctl = [(pos[q], len(ints) - 1 - p) for p, (q, v)
                    in enumerate(zip(g.qubits, ints)) if v is None]
            blocks = _blocks(g)
            for v in range(1 << len(qctl)):
                M = blocks[base | sum((v >> i & 1) << s
                                      for i, (_, s) in enumerate(qctl))]
                if M is not IDENTITY:
                    steps.append((pos[g.qubits[-1]], tuple(
                        (q, v >> i & 1) for i, (q, _) in enumerate(qctl)), M))
        *_, fires, p_lo, p_hi, wrong = bits
        # the class's first input, its classical wires scattered
        x = _scatter((inputs & -inputs).bit_length() - 1, classical)
        parts.append((x, steps, fires, 1j ** (p_lo + 2 * p_hi), wrong))
    if spec.epsilon is None:
        return _class_fails(spec, quantum, parts,
                            D >> (clean and nq - 1 in pos))
    return _approx_fails(spec, quantum, parts)


def _oracle(spec, quantum):
    """The oracle's block on the quantum wires of an input whose classical
    controls fire, as steps of :func:`_operator`: C^{quantum controls}(W_j)
    on each quantum target n + j, the identity on every other quantum
    wire, such as an ancilla or a wire outside the spec."""
    n, pos = spec.n, {q: i for i, q in enumerate(quantum)}
    ctl = tuple((pos[q], 1) for q in quantum if q < n)
    return [(pos[n + j], ctl, check_unitary(W))
            for j, W in enumerate(spec.ws) if n + j in pos]


def _class_fails(spec, quantum, parts, cols):
    """Each class's operator on the quantum wires, times its power of i,
    must equal the oracle's block (:func:`_oracle`) if its classical
    controls fire, else I, in each of its first ``cols`` columns (a
    quantum clean ancilla, the top wire, is set in the others); a wrong
    classical wire fails every column, by the largest entry of either.
    The operators stay in Python up to _WORK entries in all; others are
    numpy arrays (``sim.operator``), one class at a time.  The FAIL line
    of the first input that breaks the rule of :func:`_errors`, if any."""
    D = 1 << len(quantum)
    pure = len(parts) * D * D <= _WORK
    if pure:
        blocks = _operator(D, []), _operator(D, _oracle(spec, quantum))
    else:
        from .sim import operator
        blocks = np.eye(D), operator(D, _oracle(spec, quantum))

    def errors(steps, O, ph, wrong):
        # each column's largest entry error
        if pure:
            T = _operator(D, steps)
            return [max(map(abs, T[y:y + D] + O[y:y + D])) if wrong else
                    max(abs(ph * u - w) for u, w in zip(T[y:y + D],
                                                        O[y:y + D]))
                    for y in range(0, cols * D, D)]
        T = operator(D, steps)    # in place: one operator at a time
        if not wrong:
            T *= ph
            T -= O
        return (np.maximum(abs(T).max(axis=0), abs(O).max(axis=0)) if wrong
                else abs(T).max(axis=0))[:cols].tolist()

    # (input, error) of each failing column
    fails = [(x + _scatter(y, quantum), e)
             for x, steps, fires, ph, wrong in parts
             for y, e in enumerate(errors(steps, blocks[fires], ph, wrong))
             if e > _TOL]
    return _dense_fails(min(fails)[::-1] if fails else None)


def _approx_fails(spec, quantum, parts):
    """The spectral bound on every input.  With every classical wire right,
    U - e^{i phi} O is block-diagonal, one block i^p T - e^{i phi} O_c per
    class, where O_c, the oracle's block (:func:`_oracle`), is
    C^{quantum controls}(W) if the classical controls fire, else I: the
    norm is the largest of ||i^p O_c^dag T - e^{i phi} I||.  phi follows
    sim._aligned, the phase of the first largest entry of O^dag U, each
    class's entries at their places in its first input's rows and columns.
    The operators stay in Python up to _PURE quantum wires and _WORK
    entries in all, and the norm is :func:`_norm`; others are numpy arrays
    (``sim.operator``, ``sim.spectral_norm``)."""
    D = 1 << len(quantum)
    undo = [(t, ctl, adjoint(M)) for t, ctl, M in _oracle(spec, quantum)]
    pure = len(quantum) <= _PURE and len(parts) * D * D <= _WORK
    if pure:
        ops = [[ph * u for u in _operator(D, steps + undo * fires)]
               for _, steps, fires, ph, _ in parts]
        tops = [_top(op) for op in ops]
    else:
        from .sim import operator, spectral_norm, top
        ops = [ph * operator(D, steps + undo * fires)
               for _, steps, fires, ph, _ in parts]
        tops = [top(op) for op in ops]
    # each class's ties at (row, column) of O^dag U; the first of theirs
    cands = [((x + _scatter(i % D, quantum), x + _scatter(i // D, quantum)),
              v) for (x, *_), top_c in zip(parts, tops) for i, v in top_c]
    v = min(_top([v for _, v in cands]), key=lambda iv: cands[iv[0]][0])[1]
    z, err = v / abs(v), 0.0
    for op in ops:
        if pure:
            op[::D + 1] = [u - z for u in op[::D + 1]]
            err = max(err, _norm(D, op))
        else:
            op.flat[::D + 1] -= z
            err = max(err, spectral_norm(op))
    return ["spectral error %.3e > epsilon %g" % (err, spec.epsilon)] \
        if err > spec.epsilon else []


def _dense_fails(miss):
    """The dense tier's FAIL line, on the first failing input."""
    return ["dense check distance %.3e (input %d)" % miss] if miss else []


def _patterns(k, rng):
    """Sets of cleared controls among k: none, each one, each pair (a drawn
    sample above _ALL_PAIRS controls), then up to 200 drawn sets of 3-8."""
    def draw(size):
        return tuple(sorted(map(int, rng.choice(k, size, replace=False))))
    pats = [()] + [(i,) for i in range(k)]
    if k <= _ALL_PAIRS:
        pats += list(combinations(range(k), 2))
    else:
        pairs = _ALL_PAIRS * (_ALL_PAIRS - 1) // 2
        pats += sorted({draw(2) for _ in range(pairs)})
    if k >= 3:
        pats += sorted({draw(int(rng.integers(3, min(8, k) + 1)))
                        for _ in range(200)})
    return pats


def _sparse_inputs(spec, nq, rng):
    """The sparse tier's inputs: a label for each, and the inputs as sparse
    rows (:func:`sparse_apply`), in batches that spread to at most MAX_ROWS
    rows.  Basis controls take the patterns of :func:`_patterns`, with both
    ancilla values in dirty mode, and targets random basis values; an
    approximate circuit's base controls and target instead hold one random
    state per input.  An input spreads to at most 2^h rows, h the number
    of wires that may hold amplitudes: those base controls and the
    targets."""
    from .sim import random_state
    n, m = spec.n, len(spec.ws)
    dense = [] if spec.n_b is None else list(range(spec.n_b + 1)) + [n]
    basis = [q for q in range(n) if q not in dense]
    inputs = [(p, a) for p in _patterns(len(basis), rng)
              for a in ((0, 1) if spec.ancilla == "dirty" else (0,))]
    K, D = len(inputs), 1 << len(dense)
    spread = 1 << len(set(dense).union(range(n, n + m)))
    _check_rows(spread)
    step = MAX_ROWS // spread
    free = [q for q in range(n, n + m) if q not in dense]
    drawn = rng.integers(2, size=(len(free), K, 1))
    labels = ["controls cleared: %s%s" % (
        ",".join(str(basis[j]) for j in p) or "none",
        ", ancilla %d" % a if spec.ancilla == "dirty" else "")
        for p, a in inputs]

    def batches():
        for j in range(0, K, step):
            part = inputs[j:j + step]
            bits = np.zeros((nq, len(part), D), dtype=bool)
            bits[basis] = True
            for i, (p, a) in enumerate(part):
                bits[[basis[x] for x in p], i] = False
                bits[n + m:, i] = a
            bits[free] = drawn[:, j:j + step]
            for x, q in enumerate(dense):
                bits[q] = (np.arange(D) >> x) & 1
            amp = np.stack([random_state(len(dense), rng) for _ in part]) \
                if dense else np.ones((len(part), 1), dtype=complex)
            yield (bits.reshape(nq, -1), amp.reshape(-1),
                   np.repeat(np.arange(len(part)), D)), len(part)
    return labels, batches()


def _held(c, spec, bits, amp, owner, k):
    """The k inputs given as sparse rows (:func:`sparse_apply`) run through
    the circuit and the oracle, each held to the rule of :func:`_errors`:
    each input's error and the inputs that break the rule."""
    n = spec.n
    fire = bits[:n].all(axis=0)
    # the oracle: W_j on wire n + j of every row whose controls are all set
    want = sparse_apply(Circuit(c.num_qubits, [
        Gate("U2", (n + j,), matrix=W) for j, W in enumerate(spec.ws)]),
        bits[:, fire], amp[fire], owner[fire])
    out = sparse_apply(c, bits, amp, owner)
    rest = np.concatenate([amp[~fire], want[1]])
    keys, at = _pack(np.hstack([out[0], bits[:, ~fire], want[0]]),
                     np.concatenate([out[2], owner[~fire], want[2]]))
    keys, o, w = _merge(keys, np.concatenate([out[1], 0 * rest]),
                        np.concatenate([0 * out[1], rest]))
    return _errors(o, w, keys[-1] >> (at % _WORD), k, spec.epsilon)


def _sparse(c, spec):
    """Every near-firing input (:func:`_sparse_inputs`) must come out as
    the oracle says, by the rule of :func:`_errors`."""
    labels, batches = _sparse_inputs(spec, c.num_qubits,
                                     np.random.default_rng(_SEED))
    err, bad = [], []
    for rows, size in batches:
        e, b = _held(c, spec, *rows, size)
        bad += (len(err) + b).tolist()
        err += e.tolist()
    k = len(err)
    return k, ["sparse check failed on %d of %d inputs; first: %s, "
               "distance %.3e" % (len(bad), k, labels[i], err[i])
               for i in bad[:1]]


def verify_circuit(c, spec) -> Verdict:
    """CX count plus the check of the tier the circuit and its register
    size select: dense if the split check takes the circuit, which it does
    for every circuit of at most 11 qubits, else sparse."""
    want = CNOT_TABLE[spec.target](spec.n, len(spec.ws), spec.ancilla,
                                   spec.n_b)
    got = cnot_count(c)
    fails = ["cnot count %d != %d" % (got, want)] if got != want else []
    more, note = _split(c, spec), spec.dropped()
    if more is None:
        tier, (inputs, more) = "sparse", _sparse(c, spec)
        if spec.epsilon is not None:
            note = ("; the per-column epsilon check is necessary, "
                    "not sufficient, for the spectral bound")
    else:   # every basis input the spec allows; a clean ancilla is 0
        tier, inputs = "dense", 1 << c.num_qubits - (spec.ancilla == "clean")
    return Verdict(tier, inputs, tuple(fails + more), note)
