"""Desk-scale scaling studies: count/depth tables, baselines, log fits.

Rows are deterministic functions of the arguments, CSV output is
byte-stable, and count-only sweeps extend to n = 4096 without touching the
simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .approx import approx_mcu
from .ir import cnot_count, depth, fixed_matrix, lower, rz_mat
from .mcx import McxSpec, mcx_log
from .su2 import McmtSpec, baseline_counts, mcmt_su2, mcmt_x

FAMILIES = ("mcx_clean", "mcx_dirty", "mcmt_x", "mcmt_su2", "approx_u")
COUNT_ONLY_MAX_N = 4096


def default_gate(family):
    """The gate ``family`` is built with unless ``params`` names another;
    None for the families that take no gate."""
    if family == "mcmt_su2":
        return rz_mat(math.pi / 4)
    if family == "approx_u":
        return fixed_matrix("X")
    return None


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


def _build(family, n, m, params):
    if family == "mcx_clean":
        return mcx_log(McxSpec(n, "clean"))
    if family == "mcx_dirty":
        return mcx_log(McxSpec(n, "dirty"))
    if family == "mcmt_x":
        return mcmt_x(n, m)
    if family == "mcmt_su2":
        W = params["W"] if "W" in params else default_gate(family)
        return mcmt_su2(McmtSpec(n, m, (W,) * m))
    if family == "approx_u":
        U = params["U"] if "U" in params else default_gate(family)
        eps = params.get("epsilon", 0.1)
        return approx_mcu(n, U, eps)[0]
    raise ValueError("unknown family %r" % (family,))


def _baselines(family, n, m, params):
    if family == "mcx_clean":
        cnot, _ = baseline_counts("khattar_clean", n)
        return cnot, baseline_counts("fit_khattar", n)[1]
    if family == "mcx_dirty":
        cnot, _ = baseline_counts("khattar_dirty", n)
        return cnot, baseline_counts("fit_khattar", n)[1]
    if family in ("mcmt_x", "mcmt_su2"):
        return baseline_counts("silva_linear_su2", n, m)
    if family == "approx_u":
        # published upper bound of the approximate scheme itself, next to
        # the linear-baseline depth for the single-target case
        from .approx import nb_from_epsilon, su2_angle
        U = params["U"] if "U" in params else default_gate(family)
        eps = params.get("epsilon", 0.1)
        n_b = nb_from_epsilon(su2_angle(U)[0], eps)
        cnot = 4 * (n_b - 1) ** 2 + 24 * n - 8 * n_b - 4
        return cnot, baseline_counts("silva_linear_su2", n, 1)[1]
    raise ValueError("unknown family %r" % (family,))


def run_family(family, n_range, m=1, params=None):
    """One BenchRow per n, ordered by n ascending.

    ``n_range`` is any iterable of control counts (capped at 4096,
    count-only).  ``params`` may carry 'W' (mcmt_su2 target), 'U' and
    'epsilon' (approx_u).
    """
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    params = params or {}
    rows = []
    for n in sorted(set(int(n) for n in n_range)):
        if n > COUNT_ONLY_MAX_N:
            raise ValueError("n = %d beyond the count-only limit %d"
                             % (n, COUNT_ONLY_MAX_N))
        c = _build(family, n, m, params)
        bc, bd = _baselines(family, n, m, params)
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
