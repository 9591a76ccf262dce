"""Seeded request sequences for the three workloads.

A workload is a list of blocks, and a run measures whole blocks.  Every
block of a workload holds the same request shapes (kind, target and size
class), so every run sees the same mix of costs whatever its seed and
however many blocks fit in its time.  The seed moves each size a little,
picks options that cost about the same, and sets the order in a block, so
runs with different seeds send different requests with the same mix of
costs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

FORMATS = ("json", "qasm2", "qasm3")
# share of a stratum's log range by which the seed may move a size
JITTER = 0.03


@dataclass
class Request:
    kind: str                  # synth | export | verify | bench
    argv: list                 # arguments after "python -m qsynth"
    meta: dict = field(default_factory=dict)   # what the checker needs


def _log_between(u, lo, hi):
    return int(round(math.exp(math.log(lo) + u * math.log(hi / lo))))


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


# ---------------------------------------------------------------------------
# synth-large

# n strata: log-thirds of 8..384; the first ends where mcx_log is last right
N_STRATA = ((8, 29), (30, 105), (106, 384))
SYNTH_TARGETS = ("mcx-clean", "mcx-dirty", "mcmt-x")


def _synth(target, n, m, fmt):
    if target == "mcmt-x":
        argv = ["synth", "mcmt-x", "--controls", str(n), "--targets", str(m)]
    else:
        argv = ["synth", "mcx", "--controls", str(n),
                "--ancilla", target[4:]]
    return Request("synth", argv + ["--format", fmt],
                   {"target": target, "n": n, "m": m, "format": fmt})


def synth_large_setup(rng):
    """The circuits written during set-up for the export requests.

    Their sizes sit mid-stratum, moved a little by the seed, so the exports
    cost about the same for every seed.
    """
    def mid(lo, hi):
        return _log_between(0.5 + JITTER * (rng.random() - 0.5), lo, hi)

    return [
        _synth("mcx-dirty", mid(*N_STRATA[2]), 1, "json"),
        _synth("mcmt-x", mid(*N_STRATA[1]), int(rng.integers(2, 9)), "json"),
        Request("synth", ["synth", "mcmt-su2", "--controls",
                          str(int(rng.integers(32, 37))), "--targets",
                          str(int(rng.integers(2, 5))), "--gate",
                          _pick(rng, ("rz(pi/4)", "h", "ry(pi/3)")),
                          "--format", "json"], {"target": "mcmt-su2"}),
    ]


def synth_large_block(rng, inputs):
    """9 synth requests (3 targets x 3 n strata) and 3 exports.

    In every stratum the three targets sit near 0.15, 0.55 and 0.95 of its
    log range, rotating by stratum, so each target meets each size class;
    formats form a Latin square over (target, stratum), so every block has
    three of each format and one JSON request per stratum.  The seed moves
    each n up by at most JITTER of its stratum's log range, picks m for
    mcmt-x and sets the order.
    """
    reqs = []
    for k, target in enumerate(SYNTH_TARGETS):
        for s, (lo, hi) in enumerate(N_STRATA):
            m = int(rng.integers(2, 9)) if target == "mcmt-x" else 1
            at = (0.15, 0.55, 0.95)[(k + s) % 3] + JITTER * rng.random()
            reqs.append(_synth(target, _log_between(at, lo, hi), m,
                               FORMATS[(k + s) % 3]))
    for e, path in enumerate(inputs):
        reqs.append(Request("export", ["export", "--in", path,
                                       "--format", FORMATS[e % 3]],
                            {"input": path, "format": FORMATS[e % 3]}))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# verify-oracle: dense tier (8-10 qubits) and spot tier (12-17 qubits)

SU2_GATES = ("h", "rz(pi/4)", "ry(pi/3)", "t")
# approx-u (controls, gate, epsilon) per dense level; n must reach n_b + 5.
# A 10-qubit approx-u verify takes about 5 s, so the top level stays at 9.
APPROX_DENSE = {8: (7, "rz(pi/8)", 0.1), 9: (8, "rz(pi/4)", 0.1),
                10: (8, "x", 0.5)}


def _verify(target, *flags):
    argv = ["verify", target] + [str(f) for f in flags]
    return Request("verify", argv, {"target": target})


def _verify_set(rng, nq, level):
    """One verify request per target on a register of about nq qubits.

    The mcx ancilla mode and the mcmt target counts are fixed per size
    level, so every seed sends the same request costs; the seed picks the
    gates and the order.
    """
    m = 2 + level % 3
    approx = APPROX_DENSE.get(nq) or (min(nq, 15) - 1,
                                      _pick(rng, ("x", "h")), 0.1)
    return [
        _verify("mcx", "--controls", nq - 2, "--ancilla",
                ("dirty", "clean")[level % 2]),
        _verify("mcmt-x", "--controls", nq + level % 2 - m - 1,
                "--targets", m),
        _verify("mcmt-su2", "--controls", nq - m, "--targets", m, "--gate",
                _pick(rng, SU2_GATES)),
        _verify("approx-u", "--controls", approx[0], "--gate", approx[1],
                "--epsilon", approx[2]),
    ]


# (qubits, target): every target on the dense 8- and 9-qubit and the spot
# 12- and 14-qubit registers; one target on the largest register of each
# tier, where each request takes 1.5-3 s.  A block then takes about 15 s, so
# a run holds two identical blocks, and its median falls among many
# requests of about the same cost.
VERIFY_LEVELS = ((8, None), (9, None), (10, "mcmt-x"), (12, None),
                 (14, None), (16, "mcx"))


def verify_oracle_block(rng, inputs):
    """The requests of VERIFY_LEVELS (mcmt-x one qubit more at odd levels;
    approx-u at most 9 dense and 14 spot qubits); n <= 14, so every verdict
    is ok.
    """
    reqs = []
    for level, (nq, only) in enumerate(VERIFY_LEVELS):
        reqs += [r for r in _verify_set(rng, nq, level)
                 if only in (None, r.meta["target"])]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# bench-sweep: count-only sweeps of every family

BENCH_FAMILIES = ("mcx_clean", "mcx_dirty", "mcmt_x", "mcmt_su2", "approx_u")


def _bench(family, n_min, n_max, step, m=1, epsilon=None):
    argv = ["bench", "--family", family, "--n-min", str(n_min),
            "--n-max", str(n_max), "--step", str(step), "--m", str(m)]
    if epsilon is not None:
        argv += ["--epsilon", str(epsilon)]
    return Request("bench", argv, {"family": family,
                                   "ns": list(range(n_min, n_max + 1, step)),
                                   "m": m, "epsilon": epsilon})


# (family, first n, rows, step, m, epsilon): dense sweeps over small n and
# sparse ones up to about 134, plus one mcx_clean sweep up to about 190.
# On a 2-core Xeon host that last one takes about 1 s and the others
# 0.35-0.65 s, most of them 0.45-0.6 s, so the median and p68 of a run fall
# among many requests of about the same cost rather than in a gap between
# two sizes.  The dense sweeps stop short of the n where the mcx schedule
# search turns slow (past 29 for mcx, past 31 for mcmt).
BENCH_SHAPES = (
    ("mcx_clean", 3, 27, 1, 1, None),
    ("mcx_clean", 20, 7, 28, 1, None),
    ("mcx_dirty", 3, 27, 1, 1, None),
    ("mcx_dirty", 20, 5, 28, 1, None),
    ("mcmt_x", 3, 15, 2, 1, None),
    ("mcmt_x", 20, 5, 28, 3, None),
    ("mcmt_su2", 3, 14, 2, 2, None),
    ("mcmt_su2", 20, 5, 28, 4, None),
    ("approx_u", 10, 8, 2, 1, 0.1),
    ("approx_u", 14, 5, 2, 1, 0.01),
    ("approx_u", 20, 3, 28, 1, 0.1),
)


def bench_sweep_block(rng, inputs):
    """The eleven sweeps of BENCH_SHAPES, the same in every block, so any
    number of whole blocks has the same mix of costs.  The seed shifts the
    first n of each sparse sweep by up to two and sets the order.
    """
    reqs = []
    for family, n0, rows, step, m, eps in BENCH_SHAPES:
        if step > 2:
            n0 += int(rng.integers(0, 3))
        reqs.append(_bench(family, n0, n0 + (rows - 1) * step, step, m, eps))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "synth-large": (synth_large_setup, synth_large_block),
    "verify-oracle": (lambda rng: [], verify_oracle_block),
    "bench-sweep": (lambda rng: [], bench_sweep_block),
}


def make_blocks(name, rng, count, inputs):
    block = WORKLOADS[name][1]
    return [block(rng, inputs) for _ in range(count)]
