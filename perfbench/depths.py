"""Print the lowered depth of each circuit `qsynth synth` makes for a list
of argument lists, all in this one process.

    python perfbench/depths.py ARGS_JSON

ARGS_JSON is a JSON list of argument lists (without "synth" or "--format").
Prints one JSON list: the depth from each request's stderr report line, or
null where the request failed.
"""
import io
import json
import sys

import qsynth.cli

from check import parse_report


def main(argv):
    depths = []
    for args in json.loads(argv[0]):
        err, sys.stderr = sys.stderr, io.StringIO()
        out, sys.stdout = sys.stdout, io.StringIO()
        try:
            code = qsynth.cli.run(["synth"] + args + ["--format", "json"])
            report = parse_report(sys.stderr.getvalue())
        finally:
            sys.stderr, sys.stdout = err, out
        depths.append(report["depth"] if code == 0 and report else None)
    print(json.dumps(depths))


if __name__ == "__main__":
    main(sys.argv[1:])
