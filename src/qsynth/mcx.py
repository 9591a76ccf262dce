"""Multi-controlled X with one clean or one dirty ancilla.

``mcx_log`` lays its register out fixed: controls ``[0..n)``, target ``n``,
ancilla ``n+1``.  The builders below it (``_mcx_gates`` and the schedule)
take the wires they act on, so a larger construction writes the gates
straight onto its own register.

The construction stores pairwise ANDs of controls into already-freed control
wires using relative-phase Toffolis, keeping the lowered CX count at
``6n - 6`` (clean) / ``12n - 18`` (dirty).

Each store writes ``not(host) xor (u and v)`` onto a host wire.  A host is
only safe if the values its current contents depend on ("certificate") are
disjoint from the operands being merged.  The scheduler tracks certificates
explicitly and makes one deterministic pass per n, with no seeds and no
retries.  A merge wave hosts only on slots freed in earlier waves, so it
stops pairing once none of those is left; the pass then costs O(n^2),
about 0.13 s at n = 1024 and 2.4 s at n = 4096 on a 2-core Xeon.  Up to
``STRICT_MAX_N`` the pass is strict and raises if its schedule is not
certificate-valid; those schedules are long boot chains, so the clean
depth is about 11n (176 at n = 16, 318 at n = 29), not logarithmic.
Above ``STRICT_MAX_N`` a best-effort pass keeps the count and a
logarithmic depth, but its circuits are wrong on some near-firing inputs
and ``qsynth verify`` reports FAIL for them.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .ir import Circuit, Gate

ANCILLA_MODES = ("clean", "dirty")


class McxSpec(namedtuple("McxSpec", "n ancilla_mode", defaults=("clean",))):
    """Parameters of one n-controlled X synthesis request."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError("need at least one control")
        if self.ancilla_mode not in ANCILLA_MODES:
            raise ValueError("ancilla_mode must be clean or dirty")
        return self


# ---------------------------------------------------------------------------
# wave scheduler
#
# wires: anchors c0 = controls[0] and c1 = controls[1], raw controls
# controls[2:]; value id 0 = the AND stored on the ancilla, stores are
# numbered from 1

# Largest n whose strict pass at the K chosen by _schedule is
# certificate-valid; above it the best-effort pass is kept, byte for byte,
# until a constructive schedule replaces it.
STRICT_MAX_N = 29


def _attempt(controls, K, strict=True):
    """One deterministic scheduling pass on the wires ``controls``.
    Returns (gates, f, valid).

    ``gates`` is the X/RCCX list computing the conjunction tree, ``f`` the
    wire holding the AND of ``controls[2:]`` afterwards.  The pass first
    builds a boot chain of ``K`` links from the first anchor, then merges
    the remaining raw controls in waves, then folds the chain top-down
    onto the second anchor.  A wave only hosts on slots freed in earlier
    waves, and every host is the free slot with the smallest certificate
    that shares no value with the operands.  Each store spends one such
    slot and frees two that only later waves may use, so once the older
    slots are spent no pairing can succeed: the wave stops there and its
    unpaired values pass, in order, to the next wave.  The pass is then
    O(n^2), spent scanning the pool for each host and updating the
    certificates after each store.  The chain is sequential: with
    the K that ``_schedule`` passes up to ``STRICT_MAX_N`` it holds most
    controls, so the depth grows linearly; only the waves are
    logarithmic.

    In strict mode the pass returns (None, None, False) when no
    certificate-valid host exists for a needed merge.  Otherwise it spends
    the least-conflicting host and keeps going, which preserves the gate
    count but may leave the schedule invalid (``valid`` False).
    """
    raws = list(controls[2:])
    m = len(raws)
    gates = []
    nid = [1]
    pool = []      # free host slots: [qubit, cert(set of live ids), birth wave]
    reserve = []   # boot-chain spares; certificates name only chain values
    valid = [True]
    rnd = [0]

    def store(u, v, slot):
        sid = nid[0]
        nid[0] += 1
        gates.append(Gate("X", (slot[0],)))
        gates.append(Gate("RCCX", (u[1], v[1], slot[0])))
        newcert = {sid} | slot[1]
        uv = {x for x in (u[0], v[0]) if x is not None}
        if slot[1] & uv:
            valid[0] = False
        for q in (u, v):
            pool.append([q[1], set(newcert), rnd[0]])
        if uv:
            for s in pool:
                if s[1] & uv:
                    s[1] = (s[1] - uv) | newcert
        return (sid, slot[0])

    # boot chain from the first anchor: each link leaves one spare whose
    # certificate names only chain values, so it stays valid until spent
    K = max(1, min((m - 2) // 2, K))
    if m - 2 * K == 1:
        K = max(1, K - 1)
    chain = []
    slot = [controls[0], {0}, 0]
    k = 0
    for _ in range(K):
        rnd[0] += 1
        chain.append(store((None, raws[k]), (None, raws[k + 1]), slot))
        reserve.append(pool.pop())
        slot = pool.pop()
        k += 2

    # one rescue host for a stuck merge wave: the chain's top spare has no
    # fold duty, and its certificate names only chain values, which never
    # appear as operands
    rescues = [reserve.pop()] if reserve else []

    # the remaining raw controls enter the waves directly; raw operands
    # carry no certificate obligations, so any free slot hosts their pairing
    vals = [(None, q) for q in raws[k:]]
    pool.append(slot)

    def pick_host(uv):
        good = [p for p, s in enumerate(pool)
                if s[2] < rnd[0] and not (s[1] & uv)]
        if good:
            return min(good, key=lambda p: len(pool[p][1]))
        if strict:
            return None
        aged = [p for p, s in enumerate(pool) if s[2] < rnd[0]]
        if not aged:
            return None
        valid[0] = False
        return min(aged, key=lambda p: (len(pool[p][1] & uv),
                                        len(pool[p][1])))

    while len(vals) > 1:
        rnd[0] += 1
        nxt = []
        pending = list(vals)
        # host slots freed before this wave; none left ends the pairing
        older = sum(1 for s in pool if s[2] < rnd[0])
        while len(pending) > 1 and older:
            u = pending.pop(0)
            hit = None
            for j in range(len(pending)):
                v = pending[j]
                uv = {x for x in (u[0], v[0]) if x is not None}
                p = pick_host(uv)
                if p is not None:
                    hit = (j, p)
                    break
            if hit is None:
                nxt.append(u)
                continue
            j, p = hit
            v = pending.pop(j)
            nxt.append(store(u, v, pool.pop(p)))
            older -= 1
        nxt.extend(pending)
        if len(nxt) >= len(vals):
            if rescues:
                nxt.append(store(nxt.pop(0), nxt.pop(0), rescues.pop()))
            else:
                return None, None, False
        vals = nxt

    # fold the chain top-down: the spare below each link hosts its fold,
    # ending on the second anchor
    f = vals[0] if vals else chain.pop()
    while len(chain) > 1:
        rnd[0] += 1
        z = chain.pop()
        slot = reserve.pop()
        if slot[1] & {x for x in (f[0], z[0]) if x is not None}:
            if strict:
                return None, None, False
            valid[0] = False
        f = store(f, z, slot)
    if chain:
        rnd[0] += 1
        f = store(f, chain.pop(), [controls[1], {0}, 0])

    return gates, f[1], valid[0]


@lru_cache(maxsize=None)
def _schedule(controls):
    """The schedule on the control wires ``controls``, a tuple of n >= 4:
    (gates, f_wire, valid).

    Up to ``STRICT_MAX_N`` this is one strict pass, and an invalid result
    raises.  Above it, one best-effort pass whose ``valid`` is False.
    """
    n = len(controls)
    b = (n - 2).bit_length()
    strict = n <= STRICT_MAX_N
    K = max(b, n // 2 - 3) if strict else b + 1
    gates, f, valid = _attempt(controls, K, strict)
    if strict and not valid:
        raise RuntimeError("no certificate-valid mcx schedule for n=%d" % n)
    return tuple(gates), f, valid


def _mcx_gates(controls, t, anc, mode):
    """Gates of C^nX from the wires ``controls`` onto ``t``, borrowing the
    clean or dirty ancilla ``anc``; n <= 2 leaves the ancilla alone."""
    controls = tuple(controls)
    n = len(controls)
    if n == 1:
        return [Gate("CX", (controls[0], t))]
    if n == 2:
        return [Gate("CCX", (controls[0], controls[1], t))]

    w = Gate("RCCX", (controls[0], controls[1], anc))
    stores, f = ((), controls[2]) if n == 3 else _schedule(controls)[:2]

    # M flips the target iff ancilla AND all raw controls fire; the store
    # mirror is its own adjoint gate-for-gate (X and RCCX are involutions)
    half = [*stores, Gate("CCX", (anc, f, t)), *stores[::-1]]
    return [w, *half, w] if mode == "clean" else [w, *half, w, *half]


def mcx_log(spec: McxSpec) -> Circuit:
    """n-controlled X on n+2 qubits using one clean or one dirty ancilla.

    Clean mode: equal to C^nX on the inputs whose ancilla is |0>, which
    comes back |0>; lowered CX count 6n-6 for n >= 3.  Dirty mode: equal
    to C^nX (x) I; lowered CX count 12n-18 for n >= 3.  Neither differs by
    a phase.  For n <= 2 the ancilla is never touched and the exact CX /
    Toffoli is emitted directly.
    """
    n, mode = spec.n, spec.ancilla_mode
    gates = _mcx_gates(range(n), n, n + 1, mode)
    return Circuit._checked(n + 2, gates, ("none",) * (n + 1) + (mode,))
