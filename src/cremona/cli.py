"""Command-line front end: machine-readable JSON reports and exit codes for
the spectral, construction, verification and lattice pipelines.

Exit codes, each from one source: 0 success and 4 verification failure are
the verdict ``all_passed`` of the orbit report (with ``report``'s
``multiplier_equals_delta``; 4 also for a ``verify.VerificationError``);
2 invalid input is a ``ValueError``; 3 is ``construct.ExceptionalPairError``,
a cell whose Coxeter element is periodic (``report`` prints its degree pass
first).  Exact field values are serialized as residue coefficient arrays
together with the modulus so they can be reconstructed losslessly; a
decimal prints 30 digits of the p-bit ``verify.embedding`` of the value,
which carries about 0.3 p of them (19 at 64 bits).
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd, inf

from .arith import (
    DEFAULT_PRECISION_BITS,
    BigFloat,
    NumberFieldElement,
    close,
    is_exact,
    to_str,
)
from .construct import (
    ExceptionalPairError,
    construct_biproj,
    construct_lines,
    construct_pk,
)
from .picard import (
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
    embedding,
    verify_lines_orbit,
    verify_orbit,
)

SCHEMA_VERSION = 1
DECIMAL_DIGITS = 30

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXCEPTIONAL = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# serialization helpers


def _ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms for den > 0, with one gcd."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def frac_str(f) -> str:
    f = Fraction(f)
    return _ratio_str(f.numerator, f.denominator)


def decimal_str(value: BigFloat) -> str:
    """Fixed-width decimal rendering; deterministic for a given value (the
    digits come from the value's own mantissa, not the working precision)."""
    return to_str(value.raw, DECIMAL_DIGITS, strip_zeros=False)


def ser_exact(x):
    """Lossless form of an exact scalar; a field element's residue is
    formatted from its integer numerators and common denominator."""
    if isinstance(x, NumberFieldElement):
        return {
            "residue": [_ratio_str(c, x.den) for c in x.num],
            "modulus": list(x.modulus.coeffs),
        }
    return frac_str(x)


def ser_scalar(x, lift):
    return {"exact": ser_exact(x), "decimal": decimal_str(lift(x))}


def ser_matrix(m, lift):
    return {
        "exact": [[ser_exact(c) for c in row] for row in m.matrix],
        "decimal": [[decimal_str(lift(c)) for c in row] for row in m.matrix],
    }


def ser_poly(p: IntegerPolynomial):
    """Coefficients, constant term first."""
    return list(p.coeffs)


def _key_json(key) -> str:
    """A dict key as json writes it: a string, or a scalar's JSON text as
    a string."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _json_text(key)
    return encode_basestring_ascii(key)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte: a
    list of only ints or only strings is one join, and a dict or any other
    list recurses, with ``indent`` the newline and spaces that open the
    value's own line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (inf, -inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = {type(x) for x in value}
        if kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        elif kinds == {str}:
            body = sep.join(map(encode_basestring_ascii, value))
        else:
            body = sep.join([_json_text(x, inner) for x in value])
        return f"[{inner}{body}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_key_json(key)}: {_json_text(x, inner)}"
                         for key, x in sorted(value.items())])
        return f"{{{inner}{body}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def emit(payload, out_path) -> None:
    text = _json_text(payload) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
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

    There are w = min(c, len(jobs)) workers for the c CPUs in this process's
    affinity set (``os.cpu_count()`` where it cannot be read).  Worker i
    takes the interleaved share ``jobs[i::w]``, so the cost that grows with
    k and n is spread evenly, and sends back one pickled reply through its
    own pipe (see ``_sweep_worker``).  Worker i is placed on the i-th CPU of
    the affinity set, so that no two workers share a CPU (the scheduler left
    forked workers on the parent's CPU); placement is a hint, skipped where
    ``os.sched_setaffinity`` does not exist or fails.
    The parent runs no cell: it reads every pipe to the end and reaps every
    worker before it raises anything.  It re-raises the exception of the
    first failing job, as a serial loop would, and reports a worker that
    ended without a reply.  Where ``os.fork`` does not exist the jobs run in
    this process.
    """
    if not hasattr(os, "fork"):
        return [_degree_cell(job) for job in jobs]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    w = min(len(cpus) or os.cpu_count() or 1, len(jobs))
    workers, replies = [], []
    try:
        for i in range(w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _sweep_worker(jobs, i, w, write_fd, cpus[i] if cpus else None)
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


def _sweep_worker(jobs, start, step, write_fd, cpu=None):
    """The body of a forked sweep worker for ``jobs[start::step]``.  It
    first moves itself to ``cpu`` when one is given, ignoring an
    ``OSError``; it then pickles ``("ok", payloads)``, or
    ``("error", (index, exception))`` for the first job that raised, to
    ``write_fd``, and leaves only by ``os._exit``: with code 0 once the
    reply is written."""
    code = 1
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
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


def _construction_payload(construction, lift):
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "construct",
        "family": construction.family,
        "k": construction.k,
        "n": construction.n,
        "modulus": ser_poly(construction.modulus),
        "delta": ser_scalar(construction.delta, lift),
        "tau": ser_scalar(construction.tau, lift),
        "t_plus": [ser_scalar(t, lift) for t in construction.t_plus],
        "s_params": [ser_scalar(s, lift) for s in construction.s_params],
        "L": [ser_matrix(m, lift) for m in construction.L],
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
        [decimal_str(lift(c)) for c in img] for img in images
    ]
    payload["self_check"] = checks
    return payload


def cmd_construct(args) -> int:
    construction = _build_construction(args)
    lift = embedding(construction, args.precision)
    emit(_construction_payload(construction, lift), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    construction = _build_construction(args)
    if args.family == "lines":
        rep = verify_lines_orbit(construction, args.backend, args.precision)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "family": "lines",
            "backend": args.backend,
            "seed": args.seed,
            **asdict(rep),
        }
    else:
        lift = embedding(construction, args.precision)
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
            "conditions": [asdict(c) for c in rep.conditions],
            "orbit_parameters": [ser_scalar(t, lift) for t in params],
            "orbit_endpoint": ser_scalar(endpoint, lift),
            "distinct": rep.distinct,
            "curve_invariant": rep.curve_invariant,
            "multiplier": (
                None if mult is None
                else ser_scalar(mult, lift) if is_exact(mult)
                else decimal_str(mult)
            ),
            "translation_detected": rep.translation_detected,
            "max_residual": max((c.residual for c in rep.conditions), default=0.0),
            "notes": rep.notes,
        }
    emit(payload, args.out)
    return EXIT_OK if rep.all_passed else EXIT_VERIFY


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
    # refuses an exceptional cell (exit 3) after its bundle is printed
    construction = _build_construction(args)
    lift = embedding(construction, args.precision)
    bundle["construct"] = _construction_payload(construction, lift)
    verify_rep = verify_orbit(construction, args.backend, args.precision)
    bundle["verify"] = {
        "conditions": [asdict(c) for c in verify_rep.conditions],
        "all_passed": verify_rep.all_passed,
        "distinct": verify_rep.distinct,
        "curve_invariant": verify_rep.curve_invariant,
        "translation_detected": verify_rep.translation_detected,
    }
    cross = {}
    if args.family == "pk":
        orbit = OrbitData.coxeter(args.k, args.n)
        action, lat = coxeter_action(args.k, orbit)
        # the degree pass isolated delta at this precision
        radius, cp, salem = lattice_radius(
            action, args.precision, known=(rep.salem_factor, rep.delta)
        )
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
    delta = construction.delta
    if args.backend == "float":
        delta = lift(delta)
    cross["multiplier_equals_delta"] = mult is not None and close(mult, delta)
    bundle["cross_checks"] = cross
    emit(bundle, args.out)
    ok = verify_rep.all_passed and cross["multiplier_equals_delta"]
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand's parse sets
    ``command``, and ``main`` runs ``cmd_<command>`` as it is bound when
    called, not a function the cached parser holds."""
    parser = argparse.ArgumentParser(
        prog="cremona",
        description="Construct and verify pseudoautomorphism-inducing "
        "Cremona maps and their dynamical degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, families=(), backend=False):
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
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS)
        p.add_argument("--out", default=None)
        return p

    spectral, every = ("pk", "biproj"), ("pk", "biproj", "lines")
    p_degree = command("degree", "spectral report for one cell", spectral)
    p_degree.add_argument(
        "--sweep",
        nargs=2,
        metavar=("KRANGE", "NRANGE"),
        default=None,
        help="evaluate a kmin..kmax nmin..nmax grid on forked workers, each "
        "placed on its own CPU of the affinity set (in this process where "
        "os.fork does not exist)",
    )
    command("construct", "build the map data", every)
    p_verify = command(
        "verify", "verify orbit-data conditions", every, backend=True
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="echoed as the 'seed' key"
    )
    p_picard = command("picard", "lattice action report")
    p_picard.add_argument(
        "--lengths", default=None, help="comma-separated orbit lengths"
    )
    p_picard.add_argument(
        "--sigma", default=None, help="comma-separated permutation images"
    )
    command("report", "full bundle with cross-checks", spectral, backend=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 64:
        parser.error("--precision must be >= 64")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ExceptionalPairError as exc:
        sys.stderr.write(f"exceptional cell: {exc}; the construction is refused\n")
        return EXIT_EXCEPTIONAL
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
