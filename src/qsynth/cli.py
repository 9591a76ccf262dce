"""Command-line front end: synth, verify, bench, export.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Circuits go
to standard output (deterministic bytes for identical invocations); the
DecompReport summary and diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import math
import operator
import re
import sys

from .bench import (COUNT_ONLY_MAX_N, FAMILIES, FAMILY_TARGET, TARGETS,
                    build, run_family, to_csv)
from .ir import (check_unitary, export_text, fixed_matrix, parse_json,
                 report_for, rx_mat, ry_mat, rz_mat)


class UsageError(argparse.ArgumentTypeError):
    """Bad input; argparse reports it when an argument's type raises it."""


# ---------------------------------------------------------------------------
# gate-argument parsing

_NAMED = {"x": fixed_matrix("X"), "t": fixed_matrix("T"),
          "h": fixed_matrix("H"), "z": ((1 + 0j, 0j), (0j, -1 + 0j)),
          "s": ((1 + 0j, 0j), (0j, 1j))}
_ROT = {"rx": rx_mat, "ry": ry_mat, "rz": rz_mat}
# syntax-tree operator class name -> its function
_ARITH = {"Add": operator.add, "Sub": operator.sub, "Mult": operator.mul,
          "Div": operator.truediv, "USub": operator.neg,
          "UAdd": operator.pos}


def _eval_angle(node):
    kind, op = type(node).__name__, type(getattr(node, "op", None)).__name__
    if kind == "Constant" and type(node.value) in (int, float):
        return float(node.value)
    if kind == "Name" and node.id == "pi":
        return math.pi
    if kind == "BinOp" and op in _ARITH:
        return _ARITH[op](_eval_angle(node.left), _eval_angle(node.right))
    if kind == "UnaryOp" and op in _ARITH:
        return _ARITH[op](_eval_angle(node.operand))
    raise ValueError("unsupported element")


def parse_angle(expr):
    """Finite float angle expression: numbers, ``pi``, + - * /,
    parentheses."""
    # imported here, so only the requests that name an angle load it
    import ast
    try:
        a = _eval_angle(ast.parse((expr or "").strip(), mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError, RecursionError):
        raise UsageError("bad angle expression %r" % (expr,)) from None
    if not math.isfinite(a):
        raise UsageError("angle %r is not finite" % (expr,))
    return a


def _entry(x, pair):
    re, im = x if pair else (x, 0)
    return complex(float(re), float(im))


def _matrix_from_json(data):
    """Four row-major [re, im] pairs, two rows of [re, im] pairs, or two
    rows of reals."""
    try:
        pair = len(data) == 4 or isinstance(data[0][0], list)
        rows = (data[:2], data[2:]) if len(data) == 4 else data
        (a, b), (c, d) = [[_entry(x, pair) for x in row] for row in rows]
    except (TypeError, ValueError, KeyError, IndexError):
        raise UsageError("gate matrix must be 2x2") from None
    try:
        return check_unitary(((a, b), (c, d)), 1e-10)
    except ValueError:
        raise UsageError("gate matrix is not unitary") from None


def size(text):
    """A register size argument, from 1 to COUNT_ONLY_MAX_N."""
    n = int(text)
    if n < 1:
        raise UsageError("size must be at least 1, got %d" % n)
    if n > COUNT_ONLY_MAX_N:
        raise UsageError("%d is above the size cap %d" % (n, COUNT_ONLY_MAX_N))
    return n


def step(text):
    """A sweep step, at least 1."""
    k = int(text)
    if k < 1:
        raise UsageError("step must be at least 1, got %d" % k)
    return k


def parse_gate_spec(text):
    """--gate argument: x, z, s, t, h, rx(a)/ry(a)/rz(a), or a JSON matrix."""
    s = (text or "").strip()
    low = s.lower()
    if low in _NAMED:
        return _NAMED[low]
    m = re.fullmatch(r"(rx|ry|rz)\((.*)\)", low)
    if m:
        return _ROT[m.group(1)](parse_angle(m.group(2)))
    import json
    try:
        data = json.loads(s)
    except ValueError:
        raise UsageError("unknown gate %r (use x, z, s, t, h, rx(a), ry(a), "
                         "rz(a), or a JSON 2x2 matrix)" % (text,))
    return _matrix_from_json(data)


def _report_line(rep):
    return ("cnot=%d total_gates=%d depth=%d num_ancilla=%d ancilla_kind=%s"
            % (rep.cnot_count, rep.total_gates, rep.depth, rep.num_ancilla,
               rep.ancilla_kind))


def _requested(args):
    return build(args.target, args.controls, args.targets, args.ancilla,
                 args.gate, args.epsilon, args.n_b)


def cmd_synth(args):
    c, _ = _requested(args)
    sys.stdout.write(export_text(c, args.format))
    kind = next((r for r in c.ancilla_roles if r != "none"), "none")
    sys.stderr.write(_report_line(report_for(c, kind)) + "\n")
    return 0


def _verify(c, spec, prefix):
    """Verify ``c`` against ``spec``, print the verdict lines; 1 on FAIL."""
    # imported here so that only the requests that verify load the verifier
    from .verify import verify_circuit
    verdict = verify_circuit(c, spec)
    for line in verdict.lines():
        sys.stderr.write("%s: %s\n" % (prefix, line))
    return 1 if verdict.fails else 0


def cmd_verify(args):
    return _verify(*_requested(args), "verify " + args.target)


# ---------------------------------------------------------------------------
# bench + export

def cmd_bench(args):
    if args.n_min > args.n_max:
        raise UsageError("--n-min %d is above --n-max %d"
                         % (args.n_min, args.n_max))
    if args.epsilon is not None and args.family != "approx_u":
        raise UsageError("--epsilon applies only to --family approx_u")
    # run_family and build hold the default epsilon
    params = {} if args.epsilon is None else {"epsilon": args.epsilon}
    ns = range(args.n_min, args.n_max + 1, args.step)
    rows = run_family(args.family, ns, m=args.m, params=params)
    text = to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    code = 0
    for r in rows:
        if r.n >= 6 and r.baseline_cnot is not None \
                and r.cnot > r.baseline_cnot:
            sys.stderr.write("bench: n=%d cnot %d exceeds baseline %s\n"
                             % (r.n, r.cnot, r.baseline_cnot))
            code = 1
    if args.verify:
        target, ancilla = FAMILY_TARGET[args.family]
        for r in rows:
            c, spec = build(target, r.n, args.m, ancilla, **params)
            code |= _verify(c, spec, "bench verify n=%d" % r.n)
    return code


def cmd_export(args):
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile) as fh:
            text = fh.read()
    sys.stdout.write(export_text(parse_json(text), args.format))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_synth_flags(sub, target):
    sub.add_argument("--controls", type=size, required=True, metavar="N")
    if target == "mcx":
        sub.add_argument("--ancilla", choices=("clean", "dirty"),
                         default="clean")
    if target in ("mcmt-x", "mcmt-su2"):
        sub.add_argument("--targets", type=size, required=True, metavar="M")
    if target in ("mcmt-su2", "approx-u"):
        sub.add_argument("--gate", type=parse_gate_spec, required=True,
                         help="x, z, s, t, h, rx(a), ry(a), rz(a) with pi "
                              "literal, or a JSON 2x2 matrix")
    if target == "approx-u":
        sub.add_argument("--epsilon", type=float, required=True)
        sub.add_argument("--n-b", dest="n_b", type=int, default=None)


def build_parser():
    p = argparse.ArgumentParser(prog="qsynth",
                                description="log-depth multi-controlled "
                                            "gate synthesis")
    cmds = p.add_subparsers(dest="command", required=True)

    for cmd, fn in (("synth", cmd_synth), ("verify", cmd_verify)):
        cp = cmds.add_parser(cmd)
        tsub = cp.add_subparsers(dest="target", required=True)
        for target in TARGETS:
            tp = tsub.add_parser(target)
            # the build fields a target takes no option for
            tp.set_defaults(func=fn, targets=1, ancilla="clean", gate=None,
                            epsilon=0.1, n_b=None)
            _add_synth_flags(tp, target)
            if cmd == "synth":
                tp.add_argument("--format", choices=("qasm2", "qasm3",
                                                     "json"), default="json")

    bp = cmds.add_parser("bench")
    bp.add_argument("--family", choices=FAMILIES, required=True)
    bp.add_argument("--n-min", dest="n_min", type=size, required=True)
    bp.add_argument("--n-max", dest="n_max", type=size, required=True)
    bp.add_argument("--step", type=step, default=1)
    bp.add_argument("--m", type=size, default=1)
    bp.add_argument("--epsilon", type=float, default=None)
    bp.add_argument("--verify", action="store_true")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_bench)

    ep = cmds.add_parser("export")
    ep.add_argument("--in", dest="infile", required=True,
                    help="JSON circuit file, or - for standard input")
    ep.add_argument("--format", choices=("qasm2", "qasm3", "json"),
                    default="qasm3")
    ep.set_defaults(func=cmd_export)
    return p


def run(argv):
    """Entry point used by tests; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return 0 if not e.code else 2
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
