"""Run one qsynth CLI request with a span around each traced library call.

    python perfbench/tracer.py SPANS_FILE SPAWN_T0 REQUEST_ID -- QSYNTH_ARGS...

SPAWN_T0 is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux).  Spans stay in
memory and are written to SPANS_FILE once, when the request ends.  The exit
code is the CLI's.
"""
import functools
import json
import sys
import time

from layers import TRACED


class Tracer:
    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self.stack = []     # [span id, child time] of the open spans
        self.alive = []     # circuits whose id a span recorded

    def wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1][0] if self.stack else None
            frame = [sid, 0.0]
            self.stack.append(frame)
            span = {"id": sid, "name": name, "parent": parent,
                    "request": self.request_id}
            self.spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += t1 - t0
                span.update(start=t0, end=t1, self=t1 - t0 - frame[1])
            for key, count in attrs.items():
                span[key] = count(args, result)
            if "circuit" in span:
                self.alive.append(args[0])
            return result
        return traced

    def install(self):
        """Rebind every module attribute that holds a traced function."""
        mods = [m for k, m in sys.modules.items()
                if k == "qsynth" or k.startswith("qsynth.")]
        for name, attrs in TRACED.items():
            modname, fname = name.split(".")
            orig = getattr(sys.modules["qsynth." + modname], fname)
            traced = self.wrap(name, orig, attrs)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)


def main(argv):
    spans_file, spawn_t0, request_id = argv[0], float(argv[1]), argv[2]
    cli_args = argv[argv.index("--") + 1:]
    import qsynth.cli
    imported = time.perf_counter()
    tracer = Tracer(request_id)
    tracer.install()
    try:
        code = qsynth.cli.run(cli_args)
        sys.stdout.flush()
    finally:
        finished = time.perf_counter()
        with open(spans_file, "w") as fh:
            json.dump({"request": request_id, "spawn": spawn_t0,
                       "imported": imported, "finished": finished,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
