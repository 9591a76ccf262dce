"""Desk-scale scaling studies: count/depth tables, baselines, log fits.

Rows are deterministic functions of the arguments, CSV output is
byte-stable, and count-only sweeps extend to n = 4096 without touching the
simulator.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .ir import cnot_count, depth, fixed_matrix, rz_mat, scale
from .mcx import McxSpec, mcx_log

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


class Spec(namedtuple("Spec", "target n ws ancilla epsilon n_b phase",
                      defaults=("none", None, None, 0.0))):
    """What a circuit must do.  ``target`` keys ``verify.CNOT_TABLE``;
    ``ws`` holds the target gates as 2x2 matrix tuples; ``ancilla`` is
    clean, dirty or none; ``epsilon`` and ``n_b`` (base controls [0, n_b])
    describe an approximate circuit; ``phase`` is the alpha an mcmt-su2
    build drops from the requested gate U, whose SU(2) part e^{-i alpha} U
    each W is."""
    __slots__ = ()

    def dropped(self):
        """The field that ends synth's report and verify's ok line when
        the build dropped a phase, or ""."""
        return " dropped_phase=%.6g" % self.phase if self.phase else ""


def build(target, n, m=1, ancilla="clean", gate=None, epsilon=0.1,
          n_b=None):
    """The circuit one request names, and the Spec it must meet.

    ``m`` is the target count of mcmt-x and mcmt-su2, ``ancilla`` the kind
    of mcx, ``gate`` the 2x2 unitary of mcmt-su2 and approx-u.  Each branch
    imports the constructions it runs, so an mcx request loads neither
    ``su2`` nor ``approx``.
    """
    if gate is None:
        gate = default_gate(target)
    if target == "mcx":
        c = mcx_log(McxSpec(n, ancilla))
        return c, Spec("mcx", n, (fixed_matrix("X"),), ancilla)
    if target == "mcmt-x":
        from .su2 import mcmt_x
        c = mcmt_x(n, m)
        return c, Spec("mcmt-x", n, (fixed_matrix("X"),) * m, "clean")
    if target == "mcmt-su2":
        from .approx import su2_angle
        from .su2 import McmtSpec, mcmt_su2
        # multi-target SU(2) synthesis builds the SU(2) part of the gate
        alpha = su2_angle(gate)[1]
        ws = (scale(gate, cmath.exp(-1j * alpha)),) * m
        c = mcmt_su2(McmtSpec(n, m, ws))
        return c, Spec("mcmt-su2", n, ws, phase=alpha)
    if target == "approx-u":
        from .approx import approx_mcu
        c, params = approx_mcu(n, gate, epsilon, n_b)
        return c, Spec("approx-u", n, (gate,), epsilon=epsilon,
                       n_b=params.n_b)
    raise ValueError("unknown target %r" % (target,))


class BenchRow(namedtuple("BenchRow", "family n m cnot depth baseline_cnot "
                          "baseline_depth")):
    """One benchmark data point with its published-baseline columns."""
    __slots__ = ()


def baseline_counts(family, n, m=1):
    """Closed-form benchmark baselines: (cnot_or_gate_count, depth).

    Families: 'silva_linear_su2' (16n+8m-32 CX, depth 32n+8m-52),
    'khattar_clean' (8n-12 gates, 2n-3 Toffolis), 'khattar_dirty'
    (16n-32 gates, 4n-8 Toffolis), 'fit_ours' / 'fit_khattar'
    (published log-depth fit lines; depth only, count is None).
    """
    if family == "silva_linear_su2":
        return 16 * n + 8 * m - 32, 32 * n + 8 * m - 52
    if family == "khattar_clean":
        return 8 * n - 12, None
    if family == "khattar_dirty":
        return 16 * n - 32, None
    if family == "fit_ours":
        return None, 25.5903 * math.log2(n) - 12.1237
    if family == "fit_khattar":
        return None, 29.3675 * math.log2(n) - 28.2752
    raise ValueError("unknown baseline family %r" % (family,))


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
    from .approx import nb_from_epsilon, su2_angle
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
        c, _ = build(target, n, m, ancilla, epsilon=eps)
        bc, bd = _baselines(family, n, m, eps)
        rows.append(BenchRow(family=family, n=n, m=m,
                             cnot=cnot_count(c), depth=depth(c),
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
    if len({float(n) for n, _ in pts}) < 2:
        raise ValueError("degenerate input: all n equal")
    xs = [math.log2(n) for n, _ in pts]
    ds = [float(d) for _, d in pts]
    mx, md = sum(xs) / len(xs), sum(ds) / len(ds)
    sxx = sum((x - mx) ** 2 for x in xs)
    a = sum((x - mx) * (d - md) for x, d in zip(xs, ds)) / sxx
    b = md - a * mx
    ss_res = sum((d - a * x - b) ** 2 for x, d in zip(xs, ds))
    ss_tot = sum((d - md) ** 2 for d in ds)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return a, b, r2
