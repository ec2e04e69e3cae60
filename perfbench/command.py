"""Run one ``cremona`` command in this fresh interpreter and report on it.

Usage: ``python3 perfbench/command.py JOB`` from the root of a checkout, where
JOB is a JSON object ``{"argv": [...], "trace_dir": null | "<dir>"}``.

The process imports ``cremona.cli`` from ``src/`` and builds the parser (the
set-up a CLI user pays), notes the monotonic clock, then calls
``cremona.cli.main(argv)`` with standard output and error captured.  With a
trace directory it first wraps the package (see ``tracing.py``).  It prints
one JSON line: exit code, captured output, clock readings, CPU time, peak
resident set size of itself and its waited-for children, and the trace
summary.
"""

import sys
import time

sys.path.insert(0, "src")

from cremona import cli  # noqa: E402

cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run(job: dict) -> dict:
    tracer = None
    if job.get("trace_dir"):
        import tracing

        tracer = tracing.instrument(job["trace_dir"])
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job["argv"])
    except Exception:  # reported as a failed command, not a crash
        error = traceback.format_exc()
    t1 = time.perf_counter()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "ready": READY,
        "wall_s": t1 - t0,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "trace": None,
    }
    if tracer is not None:
        workers = tracing.merge_worker_files(job["trace_dir"])
        result["trace"] = {
            "main": tracer.summary(),
            "workers": workers,
            "worker_pids": sorted({w["pid"] for w in workers}),
        }
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
