"""Desk-scale scaling studies: count/depth tables, baselines, log fits.

Rows are deterministic functions of the arguments, CSV output is
byte-stable, and count-only sweeps extend to n = 4096 without touching the
simulator.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._np import np
from .approx import approx_mcu, nb_from_epsilon, su2_angle
from .ir import cnot_count, depth, fixed_matrix, lower, rz_mat
from .mcx import McxSpec, mcx_log
from .su2 import McmtSpec, baseline_counts, mcmt_su2, mcmt_x

# bench family -> (synthesis target, ancilla kind)
FAMILY_TARGET = {
    "mcx_clean": ("mcx", "clean"),
    "mcx_dirty": ("mcx", "dirty"),
    "mcmt_x": ("mcmt-x", "clean"),
    "mcmt_su2": ("mcmt-su2", "none"),
    "approx_u": ("approx-u", "none"),
}
FAMILIES = tuple(FAMILY_TARGET)
TARGETS = tuple(dict.fromkeys(t for t, _ in FAMILY_TARGET.values()))
COUNT_ONLY_MAX_N = 4096


def default_gate(target):
    """The gate ``target`` is built with when the request names none; None
    for the targets that take no gate."""
    if target == "mcmt-su2":
        return rz_mat(math.pi / 4)
    if target == "approx-u":
        return fixed_matrix("X")
    return None


def build(target, n, m=1, ancilla="clean", gate=None, epsilon=0.1,
          n_b=None):
    """The circuit one request names, and a function that gives the spec it
    must meet.

    ``m`` is the target count of mcmt-x and mcmt-su2, ``ancilla`` the kind
    of mcx, ``gate`` the 2x2 unitary of mcmt-su2 and approx-u.  The spec is
    left to a function because the mcx and mcmt-x specs hold X matrices,
    which synthesis alone has no use for.
    """
    # imported here so that `import qsynth` leaves the verifier unloaded
    from .verify import Spec
    if gate is None:
        gate = default_gate(target)
    if target == "mcx":
        c = mcx_log(McxSpec(n, ancilla))
        return c, lambda: Spec("mcx", n, (fixed_matrix("X"),), ancilla)
    if target == "mcmt-x":
        c = mcmt_x(n, m)
        return c, lambda: Spec("mcmt-x", n, (fixed_matrix("X"),) * m,
                               "clean")
    if target == "mcmt-su2":
        # multi-target SU(2) synthesis works up to the global phase
        ws = (gate * cmath.exp(-1j * su2_angle(gate)[1]),) * m
        c = mcmt_su2(McmtSpec(n, m, ws))
        return c, lambda: Spec("mcmt-su2", n, ws)
    if target == "approx-u":
        c, params = approx_mcu(n, gate, epsilon, n_b)
        return c, lambda: Spec("approx-u", n, (gate,), epsilon=epsilon,
                               n_b=params.n_b)
    raise ValueError("unknown target %r" % (target,))


@dataclass(frozen=True)
class BenchRow:
    """One benchmark data point with its published-baseline columns."""
    family: str
    n: int
    m: int
    cnot: int
    depth: int
    baseline_cnot: float
    baseline_depth: float


def _baselines(family, n, m, epsilon):
    if family == "mcx_clean":
        cnot, _ = baseline_counts("khattar_clean", n)
        return cnot, baseline_counts("fit_khattar", n)[1]
    if family == "mcx_dirty":
        cnot, _ = baseline_counts("khattar_dirty", n)
        return cnot, baseline_counts("fit_khattar", n)[1]
    if family in ("mcmt_x", "mcmt_su2"):
        return baseline_counts("silva_linear_su2", n, m)
    # approx_u: published upper bound of the approximate scheme itself, next
    # to the linear-baseline depth for the single-target case
    n_b = nb_from_epsilon(su2_angle(default_gate("approx-u"))[0], epsilon)
    cnot = 4 * (n_b - 1) ** 2 + 24 * n - 8 * n_b - 4
    return cnot, baseline_counts("silva_linear_su2", n, 1)[1]


def run_family(family, n_range, m=1, params=None):
    """One BenchRow per n, ordered by n ascending.

    ``n_range`` is any iterable of control counts (capped at 4096,
    count-only).  ``params`` may carry 'epsilon' (approx_u, default 0.1).
    """
    if family not in FAMILY_TARGET:
        raise ValueError("unknown family %r" % (family,))
    target, ancilla = FAMILY_TARGET[family]
    eps = (params or {}).get("epsilon", 0.1)
    rows = []
    for n in sorted(set(int(n) for n in n_range)):
        if n > COUNT_ONLY_MAX_N:
            raise ValueError("n = %d beyond the count-only limit %d"
                             % (n, COUNT_ONLY_MAX_N))
        c, _spec = build(target, n, m, ancilla, epsilon=eps)
        bc, bd = _baselines(family, n, m, eps)
        rows.append(BenchRow(family=family, n=n, m=m,
                             cnot=cnot_count(c), depth=depth(lower(c)),
                             baseline_cnot=bc, baseline_depth=bd))
    return rows


def _csv_num(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.4f" % x
    return "%d" % x


CSV_HEADER = "family,n,m,cnot,depth,baseline_cnot,baseline_depth"


def to_csv(rows) -> str:
    """Byte-stable CSV serialization; floats at 4 decimal places."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.family, "%d" % r.n, "%d" % r.m, "%d" % r.cnot, "%d" % r.depth,
            _csv_num(r.baseline_cnot), _csv_num(r.baseline_depth),
        ]))
    return "\n".join(lines) + "\n"


def fit_log(rows):
    """Least-squares fit depth ~ a*log2(n) + b; returns (a, b, r2)."""
    pts = [(r.n, r.depth) if isinstance(r, BenchRow) else tuple(r)
           for r in rows]
    if len(pts) < 3:
        raise ValueError("need at least 3 rows")
    ns = np.array([p[0] for p in pts], dtype=float)
    ds = np.array([p[1] for p in pts], dtype=float)
    if np.unique(ns).size < 2:
        raise ValueError("degenerate input: all n equal")
    x = np.log2(ns)
    a, b = np.polyfit(x, ds, 1)
    pred = a * x + b
    ss_res = float(np.sum((ds - pred) ** 2))
    ss_tot = float(np.sum((ds - ds.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2
