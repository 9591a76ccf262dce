"""Closed-loop benchmark of the qsynth command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time; every request is a fresh
``python -m qsynth`` process, so each pays interpreter start, the imports and
a cold schedule cache, as a CLI user does.  Requests are generated from the
seed before timing starts.  Whole blocks of requests run for about
--seconds; every output is then checked by ``check.py``, which imports
nothing from qsynth.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each request twice,
untraced and then under ``tracer.py``, until --seconds have passed, and
prints the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it are a readable summary.  The run record and the
spans go to .perfbench-out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
from layers import PER_LAYER, TRACED
from workloads import WORKLOADS, make_blocks

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 11         # fresh `import qsynth` interpreters per run
REQUEST_TIMEOUT_S = 60.0   # a request still running then is killed
MAX_BLOCKS = 64            # generated before timing; a run uses a few
# percentile reported as req_tail_s: one with at least ten of the requests
# a run makes at the seed commit beyond it, chosen where the workload's
# request costs lie close together, so noise cannot move it across a gap
TAIL_PCT = {"synth-large": 80, "verify-oracle": 70, "bench-sweep": 68}
# mcx_log is known to emit wrong circuits for n >= 30 (ROADMAP item 1).
# Such outputs count in wrong_frac like any other wrong output; they only
# do not clear `correct`, which flags wrong outputs outside this class.
KNOWN_WRONG_MIN_N = 30
WARMUP = {"synth": ["synth", "mcx", "--controls", "3"],
          "verify": ["verify", "mcx", "--controls", "3"],
          "bench": ["bench", "--family", "mcx_clean", "--n-min", "3",
                    "--n-max", "4"],
          "export": ["export", "--format", "qasm3", "--in"]}


class Child:
    """One finished process: wall time from spawn to exit, and its output."""

    def __init__(self, wall, code, usage, out, err):
        self.wall, self.code, self.out, self.err = wall, code, out, err
        self.rss_kb = usage.ru_maxrss
        self.cpu = usage.ru_utime + usage.ru_stime


class Runner:
    """Starts `python ...` children with outputs in a private directory."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv):
        out_path, err_path = self.tmp / "out", self.tmp / "err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv,
                             self.env, file_actions=actions)
        killer = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (pid, 9))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        return Child(wall, os.waitstatus_to_exitcode(status), usage,
                     out_path.read_text(), err_path.read_text())

    def qsynth(self, argv):
        return self.run(["-m", "qsynth"] + argv)

    def traced(self, argv, request_id):
        spans = self.tmp / "spans.json"
        spans.unlink(missing_ok=True)
        child = self.run([str(HERE / "tracer.py"), str(spans),
                          repr(time.perf_counter()), str(request_id), "--"]
                         + argv)
        return child, json.loads(spans.read_text())


# ---------------------------------------------------------------------------
# run record

def run_record(args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "qsynth_commit": _git_head(),
            "qsynth_src_sha256": digest.hexdigest()}


def _git_head():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# checking

def judge(req, child, inputs):
    """(error, failures, depth) for one finished request."""
    meta = req.meta
    ok_codes = (0, 1) if req.kind == "verify" else (0,)
    if child.code not in ok_codes or "Traceback" in child.err:
        return True, ["exit %d: %s" % (child.code, child.err[-300:])], None
    depth = None
    if req.kind == "synth":
        rep = check.parse_report(child.err)
        if rep is None:
            return True, ["no report line on stderr"], None
        depth = rep["depth"]
        n, m, fmt = meta["n"], meta["m"], meta["format"]
        mcmt = meta["target"] == "mcmt-x"
        mode = "clean" if mcmt else meta["target"][4:]
        if fmt == "json":
            fails = (check.check_mcmt_x_json(child.out, n, m, seed=n) if mcmt
                     else check.check_mcx_json(child.out, n, mode, seed=n))
        else:
            cx = check.mcmt_x_cnot(n, m) if mcmt else check.mcx_cnot(n, mode)
            fails = check.check_qasm(child.out, fmt, n + m + 1, cx)
    elif req.kind == "export":
        fails = check.check_export(inputs[meta["input"]], child.out,
                                   meta["format"])
    elif req.kind == "verify":
        fails = check.check_verify(child.code, child.err, meta["target"])
    else:
        fails, depths = check.check_bench_csv(child.out, meta["family"],
                                              meta["ns"], meta["m"],
                                              meta["epsilon"])
        depth = statistics.fmean(depths) if depths else None
    return False, fails, depth


def known_wrong(req, fails):
    """A basis-check failure of an mcx_log circuit in the known-bad range."""
    return (req.kind == "synth" and req.meta["n"] >= KNOWN_WRONG_MIN_N
            and all(f.startswith("basis check") for f in fails))


# ---------------------------------------------------------------------------
# the run

def timed_loop(runner, blocks, seconds, trace):
    """[(request, child, spans or None)] and the seconds they took.

    Untraced, whole blocks run while the next would end nearer to
    ``seconds`` than not.  Traced, each request runs untraced and then
    traced, and the loop stops at ``seconds`` even inside a block.
    """
    done = []
    start = time.perf_counter()
    for b, block in enumerate(blocks):
        if b and (time.perf_counter() - start) * (1 + 0.5 / b) >= seconds:
            break
        for req in block:
            if trace and done and time.perf_counter() - start >= seconds:
                return done, time.perf_counter() - start
            done.append((req, runner.qsynth(req.argv), None))
            if trace:
                child, spans = runner.traced(req.argv, len(done))
                done.append((req, child, spans))
    return done, time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsynth" / "cli.py").is_file():
        sys.stderr.write("perfbench: no qsynth sources under %s\n"
                         % (ROOT / "src"))
        return 2
    tmp = OUT / ("tmp-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, Runner(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench(args, runner):
    rng = np.random.default_rng(args.seed)
    record = run_record(args)

    # set-up (untimed): circuits for the export requests
    inputs = {}
    for i, req in enumerate(WORKLOADS[args.workload][0](rng)):
        child = runner.qsynth(req.argv)
        if child.code != 0:
            sys.stderr.write("perfbench: set-up request failed: %s\n%s"
                             % (" ".join(req.argv), child.err))
            return 1
        path = runner.tmp / ("input%d.json" % i)
        path.write_text(child.out)
        inputs[str(path)] = child.out
    blocks = make_blocks(args.workload, rng, MAX_BLOCKS, sorted(inputs))

    # warm-up (untimed): one small request per kind fills the OS file cache
    # and the bytecode cache only
    kinds = sorted({req.kind for req in blocks[0]})
    for kind in kinds:
        runner.qsynth(WARMUP[kind] + (sorted(inputs)[:1] if kind == "export"
                                      else []))
    record["warmup"] = kinds

    # setup_s: a fresh interpreter importing qsynth, as every request does
    setup = [runner.run(["-c", "import qsynth"]).wall
             for _ in range(SETUP_REPEATS)]

    done, elapsed = timed_loop(runner, blocks, args.seconds, args.trace)

    # checks (untimed)
    errors = wrong = known = 0
    depths, walls, rss = [], [], []
    examples = {}
    for req, child, spans in done:
        error, fails, depth = judge(req, child, inputs)
        if error:
            errors += 1
        elif fails:
            wrong += 1
            known += known_wrong(req, fails)
        if error or fails:
            examples.setdefault(" ".join(req.argv), fails[0])
        if spans is None:
            walls.append(child.wall)
            rss.append(child.rss_kb)
            if depth is not None:
                depths.append(depth)

    # verify prints no circuit: take the depth of each verified circuit from
    # `qsynth synth` with the same arguments, run untimed in one process
    if args.workload == "verify-oracle":
        specs = [r.argv[1:] for r, _, spans in done if spans is None]
        child = runner.run([str(HERE / "depths.py"), json.dumps(specs)])
        got = json.loads(child.out) if child.code == 0 else [None]
        if None in got:
            errors += 1
            examples["depths.py"] = "exit %d %s" % (child.code,
                                                    child.err[-200:])
        depths += [d for d in got if d is not None]

    attempted, n, pct = len(done), len(walls), TAIL_PCT[args.workload]
    summary = {
        "setup_s": (statistics.median(setup), "s"),
        "req_p50_s": (statistics.median(walls), "s"),
        "req_tail_s": (float(np.percentile(walls, pct)), "s"),
        "req_per_s": (n / (elapsed if not args.trace else sum(walls)),
                      "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        "error_frac": (errors / attempted, "ratio"),
        "wrong_frac": (wrong / attempted, "ratio"),
        "depth_mean": (statistics.fmean(depths) if depths else 0.0, "count"),
    }
    print("perfbench %s seed=%d trace=%d: %d requests, %.1f s timed"
          % (args.workload, args.seed, args.trace, attempted, elapsed))
    print("machine: nproc=%s cpu=%r python=%s numpy=%s src=%s"
          % (record["nproc"], record["cpu_model"], record["python"],
             record["numpy"], record["qsynth_src_sha256"][:12]))
    for name, (value, unit) in summary.items():
        print("  %-12s %12.6g %s" % (name, value, unit))
    print("  req_tail_s is p%d of %d requests (%d beyond it)"
          % (pct, n, sum(w > summary["req_tail_s"][0] for w in walls)))
    print("  wrong outputs: %d, of which %d are mcx_log n>=%d (known defect)"
          % (wrong, known, KNOWN_WRONG_MIN_N))
    for request, fail in list(examples.items())[:5]:
        print("  e.g. %s -> %s" % (request, fail[:160]))

    if args.trace:
        metrics = layer_metrics(done)
        metrics["check.error_frac"] = summary["error_frac"][0]
        metrics["check.wrong_frac"] = summary["wrong_frac"][0]
        out = {k: {"value": metrics[k], "unit": PER_LAYER[k][0]}
               for k in PER_LAYER}
        for k in sorted((k for k in PER_LAYER if k.endswith("self_s")),
                        key=metrics.get, reverse=True)[:6]:
            print("  %-34s %12.6g s" % (k, metrics[k]))
        print("  trace.coverage_frac %.4f, trace.overhead_frac %.4f"
              % (metrics["trace.coverage_frac"],
                 metrics["trace.overhead_frac"]))
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()
               if k not in ("error_frac", "wrong_frac")}

    record.update(attempted=attempted, errors=errors, wrong=wrong,
                  known_wrong=known, elapsed_s=elapsed, setup_samples=setup,
                  metrics=out, requests=[
                      {"argv": r.argv, "traced": s is not None,
                       "wall_s": c.wall, "cpu_s": c.cpu, "rss_kb": c.rss_kb,
                       "exit": c.code}
                      for r, c, s in done])
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / ("run-%s.json" % tag)).write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / ("spans-%s.json" % tag)).write_text(
            json.dumps([s for _, _, s in done if s is not None]))
    unexpected = errors + wrong - known
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected, "metrics": out}))
    return 0


def layer_metrics(done):
    """Per-layer means over the traced requests, trace coverage and
    overhead.

    Coverage is the share of in-process time (spawn to the CLI's return)
    that startup and the spans' self times account for.
    """
    traced = [d for d in done if d[2] is not None]
    traces = [s for _, _, s in traced]
    k = len(traces)
    total = dict.fromkeys(PER_LAYER, 0.0)
    calls = dict.fromkeys(TRACED, 0)
    circuits = 0
    covered = in_process = 0.0
    for (_, child, _), trace in zip(traced, traces):
        startup = trace["imported"] - trace["spawn"]
        total["proc.startup_s"] += startup / k
        total["proc.exit_s"] += (trace["spawn"] + child.wall
                                 - trace["finished"]) / k
        in_process += trace["finished"] - trace["spawn"]
        covered += startup
        seen = set()
        for s in trace["spans"]:
            name = s["name"]
            calls[name] += 1
            total[name + ".self_s"] += s["self"] / k
            covered += s["self"]
            for attr in ("gates_out", "bytes_out", "gate_passes",
                         "bytes_computed", "rows"):
                if attr in s:
                    total[name + "." + attr] += s[attr]
            if "circuit" in s:
                seen.add(s["circuit"])
        circuits += len(seen)
    for name, n in calls.items():
        if name + ".calls" in total:
            total[name + ".calls"] = n / k
        for attr in ("gates_out", "bytes_out"):
            if name + "." + attr in total:
                total[name + "." + attr] /= max(n, 1)
        for attr in ("gate_passes", "bytes_computed", "rows"):
            if name + "." + attr in total:
                total[name + "." + attr] /= k
    total["ir.lower.calls_per_circuit"] = calls["ir.lower"] / max(circuits, 1)
    untraced = [c.wall for _, c, s in done if s is None]
    total["trace.coverage_frac"] = covered / in_process
    total["trace.overhead_frac"] = (
        statistics.median(c.wall for _, c, _ in traced)
        / statistics.median(untraced) - 1.0)
    return total


if __name__ == "__main__":
    sys.exit(main())
