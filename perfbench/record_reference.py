"""Write ``reference.json``: exit code and checked output fields of every
command the workloads run, as the current ``src/cremona`` computes them.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py``.
Record only from a commit whose outputs are trusted; the benchmark fails any
later output that disagrees with this file.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, "src"]

import checks  # noqa: E402
import workloads  # noqa: E402
from cremona import cli  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def entry(argv) -> dict:
    code, payload = run(argv)
    e = {"exit": code, "fields": checks.checked_fields(payload)}
    family = opt(argv, "--family", "pk")
    if opt(argv, "--backend") == "float" and family != "lines":
        # the exact delta the float multiplier must reproduce
        _, degree = run(["degree", "--family", family, "-k", opt(argv, "-k"),
                         "-n", opt(argv, "-n"),
                         "--precision", opt(argv, "--precision")])
        e["delta"] = degree["delta"]["decimal"]
    return e


def main():
    reference = {}
    for cmds in workloads.WORKLOADS.values():
        for argv in cmds:
            reference[checks.key(argv)] = entry(argv)
            print(f"recorded {checks.key(argv)}", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
