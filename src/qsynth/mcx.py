"""Log-depth multi-controlled X with one clean or one dirty ancilla.

Register layout (fixed): controls ``[0..n)``, target ``n``, ancilla ``n+1``.

The construction stores pairwise ANDs of controls into already-freed control
wires using relative-phase Toffolis, in waves whose free-slot supply doubles
each round, so the dependency depth is logarithmic while the lowered CX count
stays at ``6n - 6`` (clean) / ``12n - 18`` (dirty).

Each store writes ``not(host) xor (u and v)`` onto a host wire.  A host is
only safe if the values its current contents depend on ("certificate") are
disjoint from the operands being merged; the scheduler tracks certificates
explicitly and retries seeds until a certificate-valid schedule exists,
falling back to a count-preserving best-effort schedule for registers far
beyond the verification range.  Correctness is asserted end to end by the
dense-simulation oracle and by exhaustive truth tables in the test suite,
never assumed from the schedule alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .ir import Circuit, Gate

ANCILLA_MODES = ("clean", "dirty")


@dataclass(frozen=True)
class McxSpec:
    """Parameters of one n-controlled X synthesis request."""
    n: int
    ancilla_mode: str = "clean"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one control")
        if self.ancilla_mode not in ANCILLA_MODES:
            raise ValueError("ancilla_mode must be clean or dirty")


def rccx() -> Circuit:
    """Relative-phase Toffoli on qubits (0, 1, 2): controls 0,1, target 2."""
    return Circuit(3, [Gate("RCCX", (0, 1, 2))])


# ---------------------------------------------------------------------------
# wave scheduler
#
# qubits: c0=0, c1=1, raw controls 2..n-1, target n, ancilla n+1
# value id 0 = the AND stored on the ancilla; stores are numbered from 1


def _attempt(n, K, seed=None, strict=True):
    """One scheduling attempt.  Returns (stores, f, valid).

    ``stores`` is the gate-tuple list computing the conjunction tree,
    ``f`` the wire holding the AND of controls 2..n-1 afterwards.  In
    strict mode the attempt returns (None, None, False) when no
    certificate-valid host exists for a needed merge; otherwise it spends
    the least-conflicting host and keeps going, which preserves the gate
    count but may leave the schedule invalid.

    Merges run in waves: a wave only hosts on slots freed in earlier
    waves, so the freed-slot supply doubles each wave and the dependency
    depth of the whole network stays logarithmic in n.
    """
    rng = random.Random(seed) if seed is not None else None
    raws = list(range(2, n))
    m = len(raws)
    gates = []
    nid = [1]
    pool = []      # free host slots: [qubit, cert(set of live ids), birth wave]
    reserve = []   # boot-chain spares; certificates stable while the chain lives
    valid = [True]
    rnd = [0]

    def store(u, v, slot):
        sid = nid[0]
        nid[0] += 1
        gates.append(('x', slot[0]))
        gates.append(('rccx', u[1], v[1], slot[0]))
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
            for s in reserve:
                if s[1] & uv:
                    s[1] = (s[1] - uv) | newcert
        return (sid, slot[0])

    # boot chain from the first anchor: each link leaves one spare whose
    # certificate names only chain values, so it stays valid until spent
    K = max(1, min((m - 2) // 2, K))
    if m - 2 * K == 1:
        K = max(1, K - 1)
    chain = []
    slot = [0, {0}, 0]
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
            if rng is not None:
                return rng.choice(good)
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
        if rng is not None:
            rng.shuffle(pending)
        while len(pending) > 1:
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
        f = store(f, chain.pop(), [1, {0}, 0])

    return gates, f[1], valid[0]


@lru_cache(maxsize=None)
def _schedule(n):
    """Deterministic schedule for n >= 4: (stores, f_wire, valid)."""
    m = n - 2
    b = m.bit_length()
    if n <= 40:
        ks = [b, b + 1, max(1, b - 1)] + list(range(b + 2, b + 7))
        tries = [(K, None) for K in ks]
        tries += [(K, s) for s in range(40) for K in (b, b + 1, b + 3)]
        for K, seed in tries:
            out = _attempt(n, K, seed, strict=True)
            if out[0] is not None:
                return tuple(out[0]), out[1], out[2]
    out = _attempt(n, b + 1, None, strict=False)
    return tuple(out[0]), out[1], out[2]


def _to_gates(tuples):
    out = []
    for g in tuples:
        if g[0] == 'x':
            out.append(Gate("X", (g[1],)))
        elif g[0] == 'rccx':
            out.append(Gate("RCCX", (g[1], g[2], g[3])))
        else:  # pragma: no cover
            raise ValueError(g)
    return out


def _roles(n, mode):
    return ("none",) * (n + 1) + (mode,)


def mcx_log(spec: McxSpec) -> Circuit:
    """n-controlled X on n+2 qubits using one clean or one dirty ancilla.

    Clean mode: clean_subspace-equivalent to C^nX with the ancilla
    restored to |0>, lowered CX count 6n-6 for n >= 3.  Dirty mode:
    tensor_identity-equivalent to C^nX (ancilla untouched as a tensor
    factor), lowered CX count 12n-18 for n >= 3.  For n <= 2 the ancilla
    is never touched and the exact CX / Toffoli is emitted directly.
    """
    n, mode = spec.n, spec.ancilla_mode
    t, anc = n, n + 1
    roles = _roles(n, mode)
    if n == 1:
        return Circuit(n + 2, [Gate("CX", (0, t))], roles)
    if n == 2:
        return Circuit(n + 2, [Gate("CCX", (0, 1, t))], roles)

    w = Gate("RCCX", (0, 1, anc))
    if n == 3:
        stores, f = [], 2
    else:
        tuples, f, _valid = _schedule(n)
        stores = _to_gates(tuples)

    # M flips the target iff ancilla AND all raw controls fire; the store
    # mirror is its own adjoint gate-for-gate (X and RCCX are involutions)
    mirror = stores[::-1]
    mid = [Gate("CCX", (anc, f, t))]
    if mode == "clean":
        gates = [w] + stores + mid + mirror + [w]
    else:
        half = stores + mid + mirror
        gates = [w] + half + [w] + half
    return Circuit(n + 2, gates, roles)
