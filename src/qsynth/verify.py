"""One verification layer: the oracle, the CX-count table, the tier choice.

:func:`verify_circuit` checks a circuit against C^n(W_1 x ... x W_m), with
controls on wires [0, n), W_j on wire n + j and at most one ancilla after
them.  It checks the CX count against :data:`CNOT_TABLE`, then runs the
tier the register size selects:

- dense (at most 11 qubits): every basis input the spec allows, as one
  stack of columns through the lowered circuit;
- spot (12 to 18 qubits): seeded statevectors, as one stack;
- sparse (more than 18 qubits): near-firing inputs through a basis-index ->
  amplitude simulator (Jaques & Haner, arXiv:2105.01533), vectorised over
  the inputs.  It runs the macro gates with the dense simulator's own
  matrices; that lowering preserves them is tested on its own.

Every tier holds each input to the one rule of :func:`_errors`, except
that an approximate target's dense unitary is held to its spectral bound.
"""
from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations

from ._np import np
from .bench import Spec  # re-exported: the spec verify_circuit checks
from .ir import cnot_count, lower
from .sim import (UNITARY_CAP, apply, gate_matrix, random_state,
                  spectral_distance)

SPOT_CAP = 18          # statevector spot checks beyond the dense cap
_SPOT_SEED = 20240811
_TOL = 1e-9            # largest entry error of an exact target, every tier
_TINY = 1e-12          # amplitudes dropped after a gate spreads the rows
MAX_ROWS = 1 << 21     # sparse rows held at once: about 100 MB at 20 qubits
_ALL_PAIRS = 64        # up to this many controls, every pair is cleared


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
    ``states``, shaped (2^nq, ...) with one little-endian basis index per
    row; the identity gives the oracle's matrix."""
    m, nq = len(ws), states.shape[0].bit_length() - 1
    W = reduce(np.kron, ws[::-1])      # wire n + m - 1 most significant
    # firing rows: one group per value of the wires above the targets
    fire = (np.arange(1 << (nq - n - m)) << (n + m)) + ((1 << n) - 1)
    idx = fire[:, None] + (np.arange(1 << m) << n)
    out = np.array(states, dtype=complex)
    out[idx] = np.einsum("st,rt...->rs...", W, out[idx])
    return out


# ---------------------------------------------------------------------------
# sparse states: a (wires, rows) bool array of basis bits, one amplitude per
# row, and the number of the input each row belongs to

def _sum_by(key, values, size=0):
    return (np.bincount(key, values.real, size)
            + 1j * np.bincount(key, values.imag, size))


def _group(bits, owner):
    """First row of each distinct (owner, bits) key, and each row's key."""
    packed = np.packbits(bits, axis=0)
    packed = np.pad(packed, ((0, -len(packed) % 8), (0, 0)))
    words = np.ascontiguousarray(packed.T).view(np.uint64)
    order = np.lexsort(list(words.T) + [owner])
    words, owner = words[order], owner[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (words[1:] != words[:-1]).any(1)
    key = np.empty(len(order), dtype=np.intp)
    key[order] = np.cumsum(new) - 1
    return order[new], key


def _check_rows(rows):
    if rows > MAX_ROWS:
        raise ValueError("sparse check needs more than %d amplitudes"
                         % MAX_ROWS)


def _apply_matrix(M, qubits, bits, amp, owner):
    """One gate matrix (first operand most significant) on sparse states.
    Each row spreads over the nonzero entries of its column; equal rows
    then merge.  A phased permutation keeps the rows and rewrites ``bits``
    in place."""
    k = len(qubits)
    local = np.zeros(len(amp), dtype=np.intp)
    for q in qubits:
        local = (local << 1) | bits[q]
    rows, to = np.nonzero((np.abs(M) > _TINY).T[local])
    spread = len(rows) > len(amp)
    if not spread:
        rows = slice(None)
    amp, bits, owner = amp[rows] * M[to, local[rows]], bits[:, rows], \
        owner[rows]
    for i, q in enumerate(qubits):
        bits[q] = (to >> (k - 1 - i)) & 1
    if not spread:
        return bits, amp, owner
    first, key = _group(bits, owner)
    amp = _sum_by(key, amp)
    keep = np.abs(amp) > _TINY
    first = first[keep]
    _check_rows(len(first))
    return bits[:, first], amp[keep], owner[first]


def sparse_apply(circuit, bits, amp, owner):
    """Run ``circuit`` on sparse states; returns new (bits, amp, owner)."""
    bits = np.array(bits, dtype=bool)
    for g in circuit.gates:
        bits, amp, owner = _apply_matrix(gate_matrix(g), g.qubits, bits,
                                         amp, owner)
    return bits, amp, owner


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


def _spot_inputs(spec, nq):
    """Seeded statevectors, one per column."""
    n, m = spec.n, len(spec.ws)
    rng = np.random.default_rng(_SPOT_SEED)
    if spec.target == "mcx":
        # product states on the controls and the target; in dirty mode the
        # ancilla takes a random basis value
        psis = [random_state(n + 1, rng, product=True) for _ in range(8)]
        inputs = [((int(rng.integers(2)) if spec.ancilla == "dirty" else 0)
                   << (n + 1), np.arange(1 << (n + 1)), psi) for psi in psis]
    else:
        # basis-valued controls and a random target state
        inputs = [(pat, np.arange(1 << m) << n, random_state(m, rng))
                  for pat in [(1 << n) - 1] + [
                      int(rng.integers(1 << n) & ((1 << n) - 2))
                      for _ in range(5)]]
    cols = np.zeros((1 << nq, len(inputs)), dtype=complex)
    for i, (base, idx, psi) in enumerate(inputs):
        cols[base + idx, i] = psi
    return cols


def _columns(c, spec, cols, tier):
    """The columns through the lowered circuit and through the oracle.  An
    approximate target's dense unitary is held to epsilon in spectral norm
    at one phase; everything else takes the rule of :func:`_errors`."""
    out, want = apply(lower(c), cols), apply_oracle(cols, spec.n, spec.ws)
    k = cols.shape[1]
    if tier == "dense" and spec.epsilon is not None:
        d = spectral_distance(out, want)
        return k, ["spectral error %.3e > epsilon %g" % (d, spec.epsilon)] \
            if d > spec.epsilon else []
    err, bad = _errors(out.ravel(), want.ravel(),
                       np.tile(np.arange(k), len(cols)), k, spec.epsilon)
    # one line, on the first failing input
    return k, ["%s check distance %.3e (input %d)" % (tier, err[i], i)
               for i in bad[:1]]


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
    """The sparse tier's inputs and a label for each.  Basis controls take
    the patterns of :func:`_patterns`, with both ancilla values in dirty
    mode, and targets random basis values; an approximate circuit's base
    controls and target instead hold one random state per input."""
    n, m = spec.n, len(spec.ws)
    dense = [] if spec.n_b is None else list(range(spec.n_b + 1)) + [n]
    basis = [q for q in range(n) if q not in dense]
    inputs = [(p, a) for p in _patterns(len(basis), rng)
              for a in ((0, 1) if spec.ancilla == "dirty" else (0,))]
    K, D = len(inputs), 1 << len(dense)
    _check_rows(K * D)
    bits = np.zeros((nq, K, D), dtype=bool)
    bits[basis] = True
    for i, (p, a) in enumerate(inputs):
        bits[[basis[j] for j in p], i] = False
        bits[n + m:, i] = a
    free = [q for q in range(n, n + m) if q not in dense]
    bits[free] = rng.integers(2, size=(len(free), K, 1))
    for j, q in enumerate(dense):
        bits[q] = (np.arange(D) >> j) & 1
    amp = np.stack([random_state(len(dense), rng) for _ in range(K)]) \
        if dense else np.ones((K, 1), dtype=complex)
    labels = ["controls cleared: %s%s" % (
        ",".join(str(basis[j]) for j in p) or "none",
        ", ancilla %d" % a if spec.ancilla == "dirty" else "")
        for p, a in inputs]
    return (bits.reshape(nq, K * D), amp.reshape(-1),
            np.repeat(np.arange(K), D)), labels


def _sparse(c, spec):
    """Every input must come out as the oracle says, by the rule of
    :func:`_errors`."""
    rng = np.random.default_rng(_SPOT_SEED)
    (bits, amp, owner), labels = _sparse_inputs(spec, c.num_qubits, rng)
    k = len(labels)
    out = sparse_apply(c, bits, amp, owner)
    # the oracle: W_j on wire n + j of every row whose controls are all set
    fire = bits[:spec.n].all(axis=0)
    want = bits[:, fire], amp[fire], owner[fire]
    for j, W in enumerate(spec.ws):
        want = _apply_matrix(np.asarray(W), (spec.n + j,), *want)
    rows = (np.hstack([out[0], bits[:, ~fire], want[0]]),
            np.concatenate([out[2], owner[~fire], want[2]]))
    first, key = _group(*rows)
    o = _sum_by(key[:len(out[1])], out[1], len(first))
    w = _sum_by(key[len(out[1]):], np.concatenate([amp[~fire], want[1]]),
                len(first))
    err, bad = _errors(o, w, rows[1][first], k, spec.epsilon)
    return k, ["sparse check failed on %d of %d inputs; first: %s, "
               "distance %.3e" % (bad.size, k, labels[i], err[i])
               for i in bad[:1]]


def verify_circuit(c, spec) -> Verdict:
    """CX count plus the check of the tier the register size selects."""
    want = CNOT_TABLE[spec.target](spec.n, len(spec.ws), spec.ancilla,
                                   spec.n_b)
    got = cnot_count(c)
    fails = []
    if got != want:
        fails.append("cnot count %d != %d" % (got, want))
    nq = c.num_qubits
    if nq <= UNITARY_CAP - 2:
        # every basis input the spec allows: a clean ancilla (top wire) is 0
        cols = np.eye(1 << nq, 1 << (nq - (spec.ancilla == "clean")))
        tier, (inputs, more) = "dense", _columns(c, spec, cols, "dense")
    elif nq <= SPOT_CAP:
        tier, (inputs, more) = "spot", _columns(
            c, spec, _spot_inputs(spec, nq), "spot")
    else:
        tier, (inputs, more) = "sparse", _sparse(c, spec)
    note = ""
    if spec.epsilon is not None and tier != "dense":
        note = ("; the per-column epsilon check is necessary, "
                "not sufficient, for the spectral bound")
    return Verdict(tier, inputs, tuple(fails + more), note)
