"""The benchmark's workloads: the ``cremona`` commands one pass runs.

Each workload stresses a different part of the pipeline (see README.md).
Every pass runs the same commands, so the work done does not depend on the
seed; the seed fixes the order in which the commands run.
"""

from __future__ import annotations

import random


def _verify(family, k, n, backend, precision=256, m=None):
    argv = ["verify", "--family", family, "-k", str(k), "-n", str(n)]
    if m is not None:
        argv += ["-m", str(m)]
    return argv + ["--backend", backend, "--precision", str(precision)]


WORKLOADS = {
    # cyclotomic stripping and Sturm isolation over a (k, n) grid, through
    # the CLI's own process pool, plus the lattice side
    "spectral-sweep": [
        ["degree", "--family", "pk", "--sweep", "2..4", "20..28",
         "--precision", "256"],
        ["degree", "--family", "biproj", "--sweep", "2..3", "20..28",
         "--precision", "256"],
        ["picard", "-k", "2", "-n", "20", "--precision", "256"],
        ["picard", "-k", "3", "-n", "25", "--precision", "256"],
        ["picard", "-k", "4", "-n", "30", "--precision", "256"],
    ],
    # exact Q(delta) orbit closure; pk (2, 17) and lines (3, 2, 2) sit on the
    # coefficient-growth cliff
    "exact-orbit": (
        [_verify("pk", k, n, "exact") for k, n in [(2, 17), (3, 12), (4, 8)]]
        + [_verify("biproj", k, n, "exact") for k, n in [(2, 10), (3, 8)]]
        + [_verify("lines", k, 2, "exact", m=2) for k in (2, 3)]
        + [["report", "--family", "pk", "-k", "3", "-n", "10",
            "--precision", "256"]]
    ),
    # the same orbit code over BigFloat scalars, at two precisions
    "float-orbit": (
        [_verify("pk", k, n, "float") for k, n in [(2, 26), (3, 22), (5, 15)]]
        + [_verify("biproj", k, n, "float") for k, n in [(2, 20), (3, 12)]]
        + [_verify("lines", 2, 3, "float", m=2),
           _verify("pk", 3, 12, "float", precision=512)]
    ),
}


def commands(workload: str, seed: int) -> list:
    """One pass of ``workload``: its commands in the order ``seed`` picks."""
    cmds = [list(c) for c in WORKLOADS[workload]]
    random.Random(seed).shuffle(cmds)
    return cmds
