"""Every output of a fixed grid of CLI requests, pinned byte for byte.

Each request runs in process through ``cli.run``; its argv, exit code,
stdout and stderr are hashed with SHA-256 and compared with
``tests/golden.json``.  A change that moves outputs on purpose rewrites the
file with ``python tests/test_golden.py`` and names the moved requests: the
file's diff lists them.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")

_GATES = ["h", "x", "t", "rz(pi/5)", "ry(0.8)", "rx(-1.2)",
          "[[0, 1], [1, 0]]"]


def grid():
    """The requests, as (argv, stdin) pairs: an export reads the stdout of
    the synth its stdin names, or else the text itself."""
    fmts = ("json", "qasm2", "qasm3")
    synth = []
    for anc in ("clean", "dirty"):
        for n in list(range(1, 41)) + [64, 128, 384]:
            for fmt in fmts if n in (1, 2, 3, 5, 8, 13, 21, 34, 384) \
                    else fmts[:1]:
                synth.append("synth mcx --controls %d --ancilla %s "
                             "--format %s" % (n, anc, fmt))
    for n in range(1, 41, 3):
        for m in (1, 2, 5):
            synth.append("synth mcmt-x --controls %d --targets %d --format "
                         "%s" % (n, m, fmts[(n + m) % 3]))
    for i, n in enumerate((1, 2, 3, 4, 7, 12, 20, 33)):
        for m in (1, 3):
            synth.append(["synth", "mcmt-su2", "--controls", str(n),
                          "--targets", str(m), "--gate",
                          _GATES[(i + m) % len(_GATES)],
                          "--format", fmts[(n + m) % 3]])
    for n, gate, eps in ((7, "rz(pi/8)", "0.1"), (10, "x", "0.1"),
                         (14, "h", "0.05"), (18, "rz(pi/4)", "0.01")):
        for fmt in fmts:
            synth.append("synth approx-u --controls %d --gate %s --epsilon "
                         "%s --format %s" % (n, gate, eps, fmt))
    synth.append("synth approx-u --controls 12 --gate x --epsilon 0.1 "
                 "--n-b 6 --format json")
    reqs = [(r, None) for r in synth]
    for src in ("synth mcx --controls 9 --ancilla dirty --format json",
                "synth mcmt-x --controls 6 --targets 3 --format json",
                "synth mcmt-su2 --controls 5 --targets 2 --gate ry(0.8) "
                "--format json",
                "synth approx-u --controls 10 --gate x --epsilon 0.1 "
                "--format json"):
        for fmt in fmts:
            reqs.append(("export --in - --format " + fmt, src))
    for family, extra in (("mcx_clean", "3 --step 3"),
                          ("mcx_dirty", "3 --step 7"), ("mcmt_x", "3 --m 3"),
                          ("mcmt_su2", "3 --m 2"),
                          ("approx_u", "11 --epsilon 0.05")):
        reqs.append(("bench --family %s --n-max 200 --n-min %s"
                     % (family, extra), None))
    reqs.append(("bench --family approx_u --n-min 10 --n-max 40 --step 5",
                 None))
    reqs.append(("bench --family mcx_clean --n-min 3 --n-max 8 --verify",
                 None))
    for r in ("mcx --controls 4 --ancilla dirty", "mcx --controls 16",
              "mcx --controls 19 --ancilla dirty", "mcx --controls 24",
              "mcx --controls 29", "mcx --controls 30",
              "mcx --controls 30 --ancilla dirty",
              "mcx --controls 64 --ancilla dirty",
              "mcmt-x --controls 9 --targets 2",
              "mcmt-x --controls 17 --targets 4",
              "mcmt-x --controls 18 --targets 4",
              "mcmt-su2 --controls 3 --targets 2 --gate ry(0.8)",
              "mcmt-su2 --controls 17 --targets 2 --gate h",
              "mcmt-su2 --controls 1 --targets 7 --gate h",
              "mcmt-su2 --controls 2 --targets 7 --gate rz(0.3)",
              "mcmt-su2 --controls 6 --targets 7 --gate h",
              "mcmt-su2 --controls 22 --targets 2 --gate h",
              "mcmt-su2 --controls 31 --targets 1 --gate rz(0.4)",
              "mcmt-su2 --controls 40 --targets 2 --gate t",
              "approx-u --controls 7 --gate rz(pi/8) --epsilon 0.1",
              "approx-u --controls 8 --gate rz(pi/4) --epsilon 0.1",
              "approx-u --controls 10 --gate x --epsilon 0.1",
              "approx-u --controls 12 --gate h --epsilon 0.1",
              "approx-u --controls 27 --gate x --epsilon 0.1"):
        reqs.append(("verify " + r, None))
    for r in ("synth mcx --controls 0", "synth mcx --controls 5000",
              "synth mcx", "synth", "frobnicate",
              "synth mcmt-su2 --controls 3 --targets 2 --gate foo",
              "synth mcmt-su2 --controls 3 --targets 2 --gate rz(pi/0)",
              "synth mcmt-su2 --controls 3 --targets 2 --gate rz(1e999)",
              "synth approx-u --controls 6 --gate x --epsilon 0.1",
              "synth approx-u --controls 12 --gate z --epsilon 1e-300",
              "verify approx-u --controls 40 --gate h --epsilon 1e-8",
              "bench --family approx_u --n-min 12 --n-max 10",
              "bench --family mcx_clean --n-min 3 --n-max 5 --epsilon 0.1",
              "bench --family mcx_clean --n-min 3 --n-max 5 --m 2",
              "bench --family mcx_clean --n-min 3 --n-max 5 --step 0",
              "bench --family approx_u --n-min 20 --n-max 20 "
              "--epsilon 1e-9"):
        reqs.append((r, None))
    reqs.append((["synth", "mcmt-su2", "--controls", "3", "--targets", "2",
                  "--gate", "[[1, 1], [1, 1]]"], None))
    reqs.append(("export --in - --format qasm2", "{"))
    reqs.append(("export --in - --format qasm2", '{"n": true, "gates": []}'))
    return [(r.split() if isinstance(r, str) else r, s) for r, s in reqs]


def run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process request; argparse
    wraps its usage lines at 80 columns, whatever the terminal."""
    from qsynth.cli import run as cli_run
    out, err, env = io.StringIO(), io.StringIO(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(argv)
    finally:
        sys.stdin = saved
        if env is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = env
    return code, out.getvalue(), err.getvalue()


def digests():
    """Request label -> SHA-256 of its (argv, exit code, stdout, stderr),
    in grid order."""
    got = {}
    for argv, src in grid():
        stdin = src or ""
        if stdin.startswith("synth "):
            stdin = run(stdin.split())[1]
        code, out, err = run(argv, stdin)
        label = " ".join(argv) + ("" if src is None else " < " + src)
        got[label] = hashlib.sha256(json.dumps(
            [argv, code, out, err]).encode()).hexdigest()
    return got


def test_outputs_match_the_golden_file():
    want, got = json.loads(GOLDEN.read_text()), digests()
    assert list(got) == list(want), "the grid moved: rewrite golden.json"
    diff = [label for label in want if got[label] != want[label]]
    assert not diff, "%d of %d requests moved; first: %s" % (
        len(diff), len(want), diff[0])


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    GOLDEN.write_text(json.dumps(digests(), indent=0) + "\n")
