"""Command-line front end: machine-readable JSON reports and exit codes for
the spectral, construction, verification and lattice pipelines.

Exit codes: 0 success, 2 invalid input, 3 exceptional parameter pair,
4 verification failure.  Exact field values are serialized as residue
coefficient arrays together with the modulus so they can be reconstructed
losslessly; decimals carry 30 significant digits by default.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from fractions import Fraction

import mpmath

from .arith import (
    DEFAULT_PRECISION_BITS,
    BigFloat,
    NumberFieldElement,
    close,
    embed,
    is_exact,
)
from .construct import (
    ExceptionalPairError,
    RootOfUnityError,
    construct_biproj,
    construct_lines,
    construct_pk,
)
from .picard import (
    LatticeError,
    OrbitData,
    canonical_pairings,
    congruence,
    coxeter_action,
    preserves_form,
    spectral_radius as lattice_radius,
    transpose,
    trace_compatibility,
)
from .polynomials import IntegerPolynomial
from .spectra import char_poly_pk, spectral_report
from .verify import (
    VerificationError,
    blown_point_params,
    field_root,
    verify_lines_orbit,
    verify_orbit,
)

SCHEMA_VERSION = 1
DECIMAL_DIGITS = 30
PRECISION_ENV = "CREMONA_PRECISION_BITS"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXCEPTIONAL = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# serialization helpers


def frac_str(f) -> str:
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def decimal_str(value: BigFloat) -> str:
    """Fixed-width decimal rendering; deterministic for a given value (the
    digits come from the value's own mantissa, not the working precision)."""
    return mpmath.nstr(value.value, DECIMAL_DIGITS, strip_zeros=False)


def ser_exact(x):
    """Lossless form of an exact scalar."""
    if isinstance(x, NumberFieldElement):
        return {
            "residue": [frac_str(c) for c in x.residue],
            "modulus": list(x.modulus.coeffs),
        }
    return frac_str(x)


def ser_scalar(x, root):
    return {"exact": ser_exact(x), "decimal": decimal_str(embed(x, root))}


def ser_matrix(m, root):
    return {
        "exact": [[ser_exact(c) for c in row] for row in m.matrix],
        "decimal": [[decimal_str(embed(c, root)) for c in row] for row in m.matrix],
    }


def ser_poly(p: IntegerPolynomial):
    """Coefficients, constant term first."""
    return list(p.coeffs)


def emit(payload, out_path) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _build_construction(args):
    if args.family == "pk":
        return construct_pk(args.k, args.n)
    if args.family == "biproj":
        return construct_biproj(args.k, args.n)
    return construct_lines(args.k, args.m, args.n)


def _degree_payload(rep):
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "degree",
        "family": rep.family,
        "k": rep.k,
        "n": rep.n,
        "characteristic_polynomial": ser_poly(rep.full_poly),
        "cyclotomic_factors": [[d, mult] for d, mult in rep.cyclotomic_factors],
        "salem_factor": ser_poly(rep.salem_factor) if rep.salem_factor else None,
        "exceptional": rep.exceptional,
        "exceptional_list_member": rep.literal_gamma_member,
        "exceptional_list_agrees": rep.gamma_agrees,
        "notes": rep.notes,
    }
    if rep.delta is not None:
        payload["delta"] = {
            "decimal": decimal_str(rep.delta.value),
            "interval": [frac_str(rep.delta.low), frac_str(rep.delta.high)],
        }
    else:
        payload["delta"] = None
    return payload


def cmd_degree(args) -> int:
    if args.sweep:
        cells = _sweep_cells(args.sweep)
        reports = _run_cells(
            [(args.family, k, n, args.precision) for k, n in cells]
        )
        emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "degree-sweep",
                "family": args.family,
                "cells": reports,
            },
            args.out,
        )
        return EXIT_OK
    emit(_degree_cell((args.family, args.k, args.n, args.precision)), args.out)
    return EXIT_OK


def _degree_cell(job):
    family, k, n, precision = job
    return _degree_payload(spectral_report(family, k, n, precision))


def _run_cells(jobs):
    """``_degree_cell`` of every job, in job order, on forked workers.

    Worker i of w = min(cpu_count, len(jobs)) takes the interleaved share
    ``jobs[i::w]``, so the cost that grows with k and n is spread evenly, and
    sends back one pickled reply through its own pipe (see ``_sweep_worker``).
    The parent runs no cell: it reads every pipe to the end and reaps every
    worker before it raises anything.  It re-raises the exception of the
    first failing job, as a serial loop would, and reports a worker that
    ended without a reply.  Where ``os.fork`` does not exist the jobs run in
    this process.
    """
    if not hasattr(os, "fork"):
        return [_degree_cell(job) for job in jobs]
    w = min(os.cpu_count() or 1, len(jobs))
    workers, replies = [], []
    try:
        for i in range(w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _sweep_worker(jobs, i, w, write_fd)
            os.close(write_fd)
            workers.append((pid, read_fd))
    finally:
        for pid, read_fd in workers:
            with open(read_fd, "rb") as fh:
                data = fh.read()
            replies.append((pid, data, os.waitpid(pid, 0)[1]))
    payloads, errors = [None] * len(jobs), []
    for i, (pid, data, status) in enumerate(replies):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(
                f"sweep worker {pid} ended with exit code {code} "
                "before sending its cells"
            )
        tag, value = pickle.loads(data)
        if tag == "error":
            errors.append(value)
        else:
            payloads[i::w] = value
    if errors:
        raise min(errors)[1]  # job indices are distinct
    return payloads


def _sweep_worker(jobs, start, step, write_fd):
    """The body of a forked sweep worker for ``jobs[start::step]``.  It
    pickles ``("ok", payloads)``, or ``("error", (index, exception))`` for
    the first job that raised, to ``write_fd``, and leaves only by
    ``os._exit``: with code 0 once the reply is written."""
    code = 1
    try:
        payloads = []
        try:
            for index in range(start, len(jobs), step):
                payloads.append(_degree_cell(jobs[index]))
            reply = ("ok", payloads)
        except Exception as exc:
            reply = ("error", (index, exc))
        with open(write_fd, "wb") as fh:
            pickle.dump(reply, fh)
        code = 0
    finally:
        os._exit(code)


def _sweep_cells(spec_pair):
    def parse_range(text):
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)

    ks, ns = (parse_range(t) for t in spec_pair)
    return [(k, n) for k in ks for n in ns]


def _construction_payload(construction, precision_bits: int):
    root = field_root(construction, precision_bits)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "construct",
        "family": construction.family,
        "k": construction.k,
        "n": construction.n,
        "modulus": ser_poly(construction.modulus),
        "delta": ser_scalar(construction.delta, root),
        "tau": ser_scalar(construction.tau, root),
        "t_plus": [ser_scalar(t, root) for t in construction.t_plus],
        "s_params": [ser_scalar(s, root) for s in construction.s_params],
        "L": [ser_matrix(m, root) for m in construction.L],
        "notes": list(construction.notes),
    }
    if construction.m is not None:
        payload["m"] = construction.m
    one = construction.field.one()
    checks = {}
    # L (1, .., 1) is the vector of row sums of L
    images = [
        [sum(row, construction.field.zero()) for row in mat.matrix]
        for mat in construction.L
    ]
    if construction.family == "pk":
        checks["fixes_ones"] = all(c == one for c in images[0])
    checks["row_sums"] = [
        [ser_scalar(c, root)["decimal"] for c in img] for img in images
    ]
    payload["self_check"] = checks
    return payload


def cmd_construct(args) -> int:
    construction = _build_construction(args)
    emit(_construction_payload(construction, args.precision), args.out)
    return EXIT_OK


def _condition_dicts(report):
    return [
        {
            "name": c.name,
            "passed": c.passed,
            "residual": c.residual,
            "detail": c.detail,
        }
        for c in report.conditions
    ]


def cmd_verify(args) -> int:
    construction = _build_construction(args)
    if args.family == "lines":
        rep = verify_lines_orbit(construction, args.backend, args.precision)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "family": "lines",
            "k": rep.k,
            "m": rep.m,
            "n": rep.n,
            "backend": args.backend,
            "seed": args.seed,
            "orbit_length": rep.orbit_length,
            "closes": rep.closes,
            "on_union": rep.on_union,
            "cyclic": rep.cyclic,
            "line_sequence": rep.line_sequence,
            "failure": rep.failure,
        }
        emit(payload, args.out)
        return EXIT_OK if (rep.closes and rep.on_union and rep.cyclic) else EXIT_VERIFY
    root = field_root(construction, args.precision)
    rep = verify_orbit(construction, args.backend, args.precision)
    params, endpoint = blown_point_params(construction)
    mult = rep.multiplier_measured
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "family": rep.family,
        "k": rep.k,
        "n": rep.n,
        "backend": rep.backend,
        "seed": args.seed,
        "conditions": _condition_dicts(rep),
        "orbit_parameters": [ser_scalar(t, root) for t in params],
        "orbit_endpoint": ser_scalar(endpoint, root),
        "distinct": rep.distinct,
        "curve_invariant": rep.curve_invariant,
        "multiplier": (
            None if mult is None
            else ser_scalar(mult, root) if is_exact(mult)
            else decimal_str(mult)
        ),
        "translation_detected": rep.translation_detected,
        "max_residual": max((c.residual for c in rep.conditions), default=0.0),
        "notes": rep.notes,
    }
    emit(payload, args.out)
    ok = rep.all_passed and rep.distinct and rep.curve_invariant
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_orbit_data(args) -> OrbitData:
    """--lengths or else the Coxeter (1,..,1,n); --sigma or else the cyclic
    shift i -> i+1."""
    def ints(text):
        return tuple(int(t) for t in text.split(","))

    if args.lengths:
        lengths = ints(args.lengths)
    else:
        lengths = OrbitData.coxeter(args.k, args.n).lengths
    if args.sigma:
        sigma = ints(args.sigma)
    else:
        sigma = tuple((i + 1) % len(lengths) for i in range(len(lengths)))
    return OrbitData(lengths=lengths, sigma=sigma)


def cmd_picard(args) -> int:
    orbit = _parse_orbit_data(args)
    k = args.k
    action, lat = coxeter_action(k, orbit)
    gram = lat.gram()
    roots = lat.roots()
    root_gram = congruence(transpose(roots), gram)
    radius, cp, salem = lattice_radius(action, args.precision)
    kk, kc = canonical_pairings(k, orbit)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "picard",
        "k": k,
        "orbit_lengths": list(orbit.lengths),
        "sigma": list(orbit.sigma),
        "rank": lat.rank,
        "gram": gram,
        "root_gram": root_gram,
        "action": action,
        "characteristic_polynomial": ser_poly(cp),
        "salem_factor": ser_poly(salem) if salem else None,
        "spectral_radius": decimal_str(radius),
        "K_self_intersection": kk,
        "K_dot_curve": kc,
        "preserves_form": preserves_form(action, gram),
    }
    # cross-check against the family characteristic polynomial when the data
    # is the cyclic (1,...,1,n) case it was derived for
    if orbit == OrbitData.coxeter(k, orbit.lengths[-1]):
        family_poly = char_poly_pk(k, orbit.lengths[-1])
        lifted = cp * IntegerPolynomial([-1, 1])
        payload["family_polynomial_matches"] = (
            lifted == family_poly or -lifted == family_poly
        )
    emit(payload, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    bundle = {
        "schema": SCHEMA_VERSION,
        "command": "report",
        "family": args.family,
        "k": args.k,
        "n": args.n,
    }
    rep = spectral_report(args.family, args.k, args.n, args.precision)
    bundle["degree"] = _degree_payload(rep)
    if rep.exceptional:
        bundle["exceptional_notice"] = (
            f"({args.k},{args.n}) is an exceptional pair: the multiplier would "
            "be a root of unity, so construction and verification are skipped"
        )
        emit(bundle, args.out)
        return EXIT_EXCEPTIONAL
    construction = _build_construction(args)
    root = field_root(construction, args.precision)
    bundle["construct"] = _construction_payload(construction, args.precision)
    verify_rep = verify_orbit(construction, args.backend, args.precision)
    bundle["verify"] = {
        "conditions": _condition_dicts(verify_rep),
        "all_passed": verify_rep.all_passed,
        "distinct": verify_rep.distinct,
        "curve_invariant": verify_rep.curve_invariant,
        "translation_detected": verify_rep.translation_detected,
    }
    cross = {}
    if args.family == "pk":
        orbit = OrbitData.coxeter(args.k, args.n)
        action, lat = coxeter_action(args.k, orbit)
        radius, cp, salem = lattice_radius(action, args.precision)
        bundle["picard"] = {
            "characteristic_polynomial": ser_poly(cp),
            "spectral_radius": decimal_str(radius),
        }
        # both are the monic minimal polynomials of their leading roots
        cross["lattice_radius_matches_delta"] = salem == construction.modulus
        trace_rep = trace_compatibility(
            construction, action=(action, lat), charpoly=cp
        )
        cross["trace_compatibility"] = [
            {"class": desc, "passed": ok} for desc, ok in trace_rep.checked
        ]
        cross["salem_divides_lattice_polynomial"] = trace_rep.salem_divides
    mult = verify_rep.multiplier_measured
    delta = embed(construction.delta, root if args.backend == "float" else None)
    cross["multiplier_equals_delta"] = mult is not None and close(mult, delta)
    bundle["cross_checks"] = cross
    emit(bundle, args.out)
    ok = (
        verify_rep.all_passed
        and verify_rep.distinct
        and verify_rep.curve_invariant
        and cross.get("multiplier_equals_delta", True)
    )
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cremona",
        description="Construct and verify pseudoautomorphism-inducing "
        "Cremona maps and their dynamical degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a malformed or too small environment value is refused like the flag
    precision = os.environ.get(PRECISION_ENV) or str(DEFAULT_PRECISION_BITS)

    def command(name, func, help, families=(), backend=False):
        p = sub.add_parser(name, help=help)
        if families:
            p.add_argument("--family", choices=families, default="pk")
        p.add_argument("-k", type=int, default=2)
        p.add_argument("-n", type=int, default=8)
        if "lines" in families:
            p.add_argument("-m", type=int, default=2, help="factor count (lines)")
        if backend:
            p.add_argument(
                "--backend", choices=("exact", "float"), default="exact"
            )
        p.add_argument("--precision", type=int, default=precision)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    spectral, every = ("pk", "biproj"), ("pk", "biproj", "lines")
    p_degree = command(
        "degree", cmd_degree, "spectral report for one cell", spectral
    )
    p_degree.add_argument(
        "--sweep",
        nargs=2,
        metavar=("KRANGE", "NRANGE"),
        default=None,
        help="evaluate a kmin..kmax nmin..nmax grid on forked workers "
        "(in this process where os.fork does not exist)",
    )
    command("construct", cmd_construct, "build the map data", every)
    p_verify = command(
        "verify", cmd_verify, "verify orbit-data conditions", every, backend=True
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="echoed as the 'seed' key"
    )
    p_picard = command("picard", cmd_picard, "lattice action report")
    p_picard.add_argument(
        "--lengths", default=None, help="comma-separated orbit lengths"
    )
    p_picard.add_argument(
        "--sigma", default=None, help="comma-separated permutation images"
    )
    command(
        "report", cmd_report, "full bundle with cross-checks", spectral,
        backend=True,
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 64:
        parser.error("--precision must be >= 64")
    try:
        return args.func(args)
    except ExceptionalPairError as exc:
        sys.stderr.write(
            f"exceptional pair: {exc}; the multiplier would be a root of "
            "unity and the construction is refused\n"
        )
        return EXIT_EXCEPTIONAL
    except RootOfUnityError as exc:
        sys.stderr.write(f"root-of-unity multiplier: {exc}\n")
        return EXIT_EXCEPTIONAL
    except (LatticeError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
