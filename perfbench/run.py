"""Benchmark of the ``cremona`` CLI: spectral -> construct -> verify ->
picard -> JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-orbit --seed 1 --seconds 30 --trace 0

A closed loop with one client: every command of a pass runs in its own fresh
interpreter (``command.py``), one after another, so each pays for its own
imports and caches as a CLI user does.  A run makes as many whole passes as
fit in ``--seconds`` (at least one).  Every output is checked against
``reference.json`` (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one with every layer wrapped (``tracing.py``), checks that the
outputs are identical, and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COMMAND = os.path.join(HERE, "command.py")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_ROOT = ".perfbench_tmp"
RUN_BUDGET_S = 170.0  # the whole run must end within 180 s


# ---------------------------------------------------------------------------
# running commands


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CREMONA_PRECISION_BITS", None)  # every command sets --precision
    return env


def run_command(argv, deadline, trace_dir=None) -> dict:
    """Run one command in a fresh interpreter; its report plus ``setup_s``,
    or a report with ``error`` set if it could not run."""
    job = json.dumps({"argv": argv, "trace_dir": trace_dir})
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, COMMAND, job],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
        start_new_session=True,  # its own process group, sweep workers included
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # stop what is left of the command's session: the command process
        # after a timeout, or sweep workers it left behind
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if out is None:
        proc.communicate()
        return {"argv": argv, "error": "timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"argv": argv, "error": f"command process failed: {err[-2000:]}"}
    report = json.loads(lines[-1])
    report["argv"] = argv
    report["setup_s"] = report["ready"] - spawn
    return report


def run_pass(cmds, deadline, traced=False) -> dict:
    """One pass over ``cmds``; stops early (reporting the rest as failed)
    when the run's deadline has passed."""
    reports = []
    t0 = time.monotonic()
    for i, argv in enumerate(cmds):
        if time.monotonic() >= deadline:
            reports.append({"argv": argv, "error": "run deadline passed"})
            continue
        trace_dir = None
        if traced:
            trace_dir = os.path.join(TRACE_ROOT, f"{os.getpid()}-{i}")
            os.makedirs(trace_dir)
        try:
            reports.append(run_command(argv, deadline, trace_dir))
        finally:
            if trace_dir:
                shutil.rmtree(trace_dir, ignore_errors=True)
    return {"reports": reports, "elapsed_s": time.monotonic() - t0}


def failures(passes, reference) -> dict:
    """Problems of every command report that is not correct, keyed by
    (pass index, command index)."""
    bad = {}
    seen = {}  # passes repeat outputs; check each distinct one once
    for i, p in enumerate(passes):
        for j, r in enumerate(p["reports"]):
            key = checks.key(r["argv"])
            entry = reference.get(key)
            if r.get("error"):
                problems = [r["error"].strip().splitlines()[-1]]
            elif entry is None:
                problems = ["no reference output for this command"]
            else:
                out = (key, r["exit"], r["stdout"])
                if out not in seen:
                    seen[out] = checks.check(entry, r["exit"], r["stdout"])
                problems = seen[out]
            if problems:
                bad[i, j] = problems
    return bad


# ---------------------------------------------------------------------------
# metrics


def pass_wall(p) -> float:
    return sum(r.get("wall_s", 0.0) for r in p["reports"])


def median_pass_wall(passes) -> float:
    """One pass's time, each command taking its median over the passes."""
    per_command = zip(*([r.get("wall_s", 0.0) for r in p["reports"]] for p in passes))
    return sum(statistics.median(walls) for walls in per_command)


def end_to_end(passes, failed: int, attempted: int) -> dict:
    setups = [r["setup_s"] for p in passes for r in p["reports"] if "setup_s" in r]
    return {
        "wall_s": (median_pass_wall(passes), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (
            statistics.median(
                max((r.get("peak_rss_mb", 0.0) for r in p["reports"]), default=0.0)
                for p in passes
            ),
            "MB",
        ),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(plain, traced) -> dict:
    """Per-layer metrics from an untraced and a traced pass of one workload."""
    summaries, worker_counts = [], [0]
    for r in traced["reports"]:
        t = r.get("trace")
        if t:
            summaries += [t["main"]] + t["workers"]
            worker_counts.append(len(t["worker_pids"]))
    t = tracing.merge(summaries)
    spans, counters = t["spans"], t["counters"]
    distinct, maxima, groups = t["distinct"], t["maxima"], t["groups"]

    def calls(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[0] for n in names)

    def total(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    rat = ("polynomials.rat_mul", "polynomials.rat_divmod", "polynomials.rat_xgcd")
    m = {
        "polynomials.sign_at.calls": (calls("polynomials.sign_at"), "count"),
        "polynomials.sign_at.self_s": (self_s("polynomials.sign_at"), "s"),
        "polynomials.try_divide.calls": (calls("polynomials.try_divide"), "count"),
        "polynomials.try_divide.self_s": (self_s("polynomials.try_divide"), "s"),
        "polynomials.rat.calls": (calls(*rat), "count"),
        "polynomials.rat.self_s": (self_s(*rat), "s"),
        "arith.nf_mul.calls": (calls("arith.nf_mul"), "count"),
        "arith.nf_mul.s": (total("arith.nf_mul"), "s"),
        "arith.nf_invert.calls": (calls("arith.nf_invert"), "count"),
        "arith.nf_invert.s": (total("arith.nf_invert"), "s"),
        "arith.nf_embed.calls": (calls("arith.nf_embed"), "count"),
        "arith.nf_embed.s": (total("arith.nf_embed"), "s"),
        "arith.bigfloat.calls": (calls("arith.bigfloat"), "count"),
        "arith.bigfloat.self_s": (self_s("arith.bigfloat"), "s"),
        "spectra.spectral_report.calls": (calls("spectra.spectral_report"), "count"),
        "spectra.spectral_report.s": (total("spectra.spectral_report"), "s"),
        "spectra.strip_cyclotomic.s": (total("spectra.strip_cyclotomic"), "s"),
        "spectra.euler_phi.calls": (calls("spectra.euler_phi"), "count"),
        "spectra.cyclotomic_hit_ratio": (
            _ratio(counters.get("cyclotomic_hits", 0),
                   counters.get("cyclotomic_trials", 0)),
            "ratio",
        ),
        "spectra.leading_salem_root.calls": (
            calls("spectra.leading_salem_root"), "count"),
        "spectra.leading_salem_root.s": (total("spectra.leading_salem_root"), "s"),
        "spectra.sturm_sequence.s": (total("spectra.sturm_sequence"), "s"),
        "construct.s": (groups.get("construct", 0.0), "s"),
        "construct.field_degree": (maxima.get("field_degree", 0), "count"),
        "geometry.linmap_inverse.calls": (calls("geometry.linmap_inverse"), "count"),
        "geometry.linmap_inverse.s": (total("geometry.linmap_inverse"), "s"),
        "geometry.linmap_inverse.redundant_ratio": (
            _ratio(calls("geometry.linmap_inverse"),
                   distinct.get("linmap_inverse", 0)),
            "ratio",
        ),
        "geometry.normalized.calls": (calls("geometry.normalized"), "count"),
        "geometry.normalized.s": (total("geometry.normalized"), "s"),
        "geometry.apply_J.self_s": (self_s("geometry.apply_J"), "s"),
        "geometry.apply_linear.self_s": (self_s("geometry.apply_linear"), "s"),
        "verify.field_root.calls": (calls("verify.field_root"), "count"),
        "verify.field_root.s": (total("verify.field_root"), "s"),
        "verify.field_root.redundant_ratio": (
            _ratio(calls("verify.field_root"), distinct.get("field_root", 0)),
            "ratio",
        ),
        "verify.orbit.self_s": (self_s("verify.verify_orbit"), "s"),
        "verify.curve_invariance.s": (total("verify.verify_curve_invariance"), "s"),
        "verify.distinctness.s": (total("verify.verify_distinctness"), "s"),
        "verify.lines_orbit.s": (total("verify.verify_lines_orbit"), "s"),
        "verify.coeff_bits_max": (maxima.get("coeff_bits", 0), "bits"),
        "picard.coxeter_action.s": (total("picard.coxeter_action"), "s"),
        "picard.berkowitz_charpoly.s": (total("picard.berkowitz_charpoly"), "s"),
        "picard.spectral_radius.s": (total("picard.spectral_radius"), "s"),
        "picard.trace_compatibility.s": (total("picard.trace_compatibility"), "s"),
        "cli.serialize.s": (groups.get("cli.serialize", 0.0), "s"),
        "cli.output_bytes": (
            sum(len(r.get("stdout", "")) for r in plain["reports"]), "bytes"),
        "cli.cpu_s": (sum(r.get("cpu_s", 0.0) for r in plain["reports"]), "s"),
        "cli.workers": (max(worker_counts), "count"),
        "cli.trace_overhead_frac": (
            _ratio(pass_wall(traced), pass_wall(plain)) - 1.0, "ratio"),
    }
    for layer in tracing.MODULES:
        m[f"layer.{layer}.self_s"] = (
            sum(row[2] for name, row in spans.items()
                if name.startswith(layer + ".")),
            "s",
        )
    return m


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cremona", "cli.py")):
        sys.stderr.write("run from the root of a cremona checkout (no src/cremona)\n")
        return 2
    reference = checks.load_reference(REFERENCE)
    cmds = workloads.commands(args.workload, args.seed)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        plain = run_pass(cmds, deadline)
        try:
            traced = run_pass(cmds, deadline, traced=True)
        finally:
            shutil.rmtree(TRACE_ROOT, ignore_errors=True)
        passes = [plain, traced]
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(cmds, deadline))
            now = time.monotonic()
            if now - start + passes[-1]["elapsed_s"] > args.seconds:
                break

    bad = failures(passes, reference)
    if args.trace:
        for j, (a, b) in enumerate(zip(plain["reports"], traced["reports"])):
            if (a.get("stdout"), a.get("exit")) != (b.get("stdout"), b.get("exit")):
                bad.setdefault((1, j), []).append("traced output differs from untraced")
    for (i, j), problems in sorted(bad.items()):
        argv_ = passes[i]["reports"][j]["argv"]
        sys.stderr.write(f"FAILED {checks.key(argv_)}: {'; '.join(problems[:5])}\n")
    attempted = sum(len(p["reports"]) for p in passes)
    failed = len(bad)

    metrics = per_layer(plain, traced) if args.trace else end_to_end(
        passes, failed, attempted)
    print(json.dumps({"env": environment(args.seed),
                      "pass_wall_s": [pass_wall(p) for p in passes]}))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
