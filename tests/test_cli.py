"""Command-line interface: JSON output, exit codes, determinism."""

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import cremona
from cremona import cli
from cremona.arith import ArithmeticError_, InconsistentEmbeddingError, ZeroDivisorError
from cremona.cli import (
    EXIT_EXCEPTIONAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from cremona.construct import ExceptionalPairError, RootOfUnityError
from cremona.geometry import GeometryError, IndeterminacyError, NotOnCurveError
from cremona.picard import LatticeError
from cremona.verify import PrecisionExhaustedError, VerificationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_degree_pk_2_8(capsys):
    code, payload, _ = run_json(
        capsys, "degree", "--family", "pk", "-k", "2", "-n", "8"
    )
    assert code == EXIT_OK
    assert payload["schema"] == 1
    assert not payload["exceptional"]
    assert payload["delta"]["decimal"].startswith("1.17628")


def test_degree_exceptional_pair(capsys):
    code, payload, _ = run_json(
        capsys, "degree", "--family", "pk", "-k", "2", "-n", "7"
    )
    assert code == EXIT_OK
    assert payload["exceptional"]
    assert payload["delta"] is None


def test_degree_biproj_value(capsys):
    code, payload, _ = run_json(
        capsys, "degree", "--family", "biproj", "-k", "3", "-n", "4"
    )
    assert code == EXIT_OK
    assert abs(float(payload["delta"]["decimal"]) - 1.40127) < 5e-5


def test_construct_self_checks(capsys):
    code, payload, _ = run_json(
        capsys, "construct", "--family", "pk", "-k", "2", "-n", "8"
    )
    assert code == EXIT_OK
    assert payload["self_check"]["fixes_ones"]
    assert payload["modulus"] == [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def test_construct_exceptional_exit_3(capsys):
    code, _, err = run(
        capsys, "construct", "--family", "pk", "-k", "2", "-n", "7"
    )
    assert code == EXIT_EXCEPTIONAL
    assert "root of unity" in err


def test_verify_pass_exit_0(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--family", "pk", "-k", "2", "-n", "8"
    )
    assert code == EXIT_OK
    assert all(c["passed"] for c in payload["conditions"])
    assert payload["distinct"] and payload["curve_invariant"]
    assert payload["max_residual"] == 0.0


@pytest.mark.parametrize("family,k,n", [("pk", 3, 12), ("biproj", 2, 10)])
def test_float_and_exact_decimals_agree(capsys, family, k, n):
    # both backends embed the exact orbit parameters at the same root
    decimals = {}
    for backend in ("exact", "float"):
        code, payload, _ = run_json(
            capsys, "verify", "--family", family, "-k", str(k), "-n", str(n),
            "--backend", backend, "--precision", "256",
        )
        assert code == EXIT_OK
        decimals[backend] = (
            [p["decimal"] for p in payload["orbit_parameters"]],
            payload["orbit_endpoint"]["decimal"],
        )
    assert decimals["float"] == decimals["exact"]
    assert decimals["float"][0]


def test_verify_lines(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--family", "lines", "-k", "2", "-m", "2", "-n", "2"
    )
    assert code == EXIT_OK
    assert payload["closes"] and payload["cyclic"] and payload["on_union"]


@pytest.mark.parametrize("extra", [["--precision", "512"], ["--backend", "float"]])
def test_lines_verify_isolates_no_second_root(capsys, monkeypatch, extra):
    # the lines report prints no decimals, and at the default precision the
    # float backend reuses the root the construction's spectral radius gave
    import cremona.verify

    def refuse(*args):
        raise AssertionError("Salem root isolated a second time")

    monkeypatch.setattr(cremona.verify, "leading_salem_root", refuse)
    code, payload, _ = run_json(
        capsys, "verify", "--family", "lines", "-k", "2", "-m", "2", "-n", "2",
        *extra,
    )
    assert code == EXIT_OK
    assert payload["closes"]


def test_lines_n1_exceptional_exit_3(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "lines", "-k", "2", "-m", "2", "-n", "1"
    )
    assert code == EXIT_EXCEPTIONAL


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("k, m, message", [
    ("2", "0", "m must be >= 1, got 0"),
    ("2", "-1", "m must be >= 1, got -1"),
    ("1", "2", "k must be >= 2, got 1"),
    ("0", "3", "k must be >= 2, got 0"),
], ids=["m0", "m-1", "k1", "k0"])
def test_lines_parameters_out_of_range_exit_2(capsys, command, k, m, message):
    # m = 0, (k, m) = (1, 2) and k = 0 once reached a periodic Coxeter
    # element, T(1, 3, 6), T(3, 2, 4) and T(4, 1, 4), and were reported as
    # a root-of-unity multiplier (exit 3)
    code, out, err = run(
        capsys, command, "--family", "lines", "-k", k, "-m", m, "-n", "2"
    )
    assert code == EXIT_INVALID
    assert not out
    assert message in err


def test_picard_report(capsys):
    code, payload, _ = run_json(capsys, "picard", "-k", "2", "-n", "8")
    assert code == EXIT_OK
    assert payload["preserves_form"]
    assert payload["family_polynomial_matches"]
    assert payload["spectral_radius"].startswith("1.17628")
    assert payload["K_self_intersection"] == -1
    assert payload["rank"] == 11


def test_picard_general_orbit_data(capsys):
    code, payload, _ = run_json(
        capsys, "picard", "-k", "2", "--lengths", "1,1,8", "--sigma", "1,2,0"
    )
    assert code == EXIT_OK
    assert payload["orbit_lengths"] == [1, 1, 8]


def test_picard_sigma_applies_without_lengths(capsys):
    code, payload, _ = run_json(
        capsys, "picard", "-k", "2", "-n", "8", "--sigma", "0,1,2"
    )
    assert code == EXIT_OK
    assert payload["orbit_lengths"] == [1, 1, 8]
    assert payload["sigma"] == [0, 1, 2]
    # not the Coxeter data, so no family-polynomial cross-check
    assert "family_polynomial_matches" not in payload


def test_picard_invalid_sigma_exit_2(capsys):
    code, _, err = run(
        capsys, "picard", "-k", "2", "--lengths", "1,1,8", "--sigma", "0,0,2"
    )
    assert code == EXIT_INVALID


def test_report_bundle(capsys):
    code, payload, _ = run_json(
        capsys, "report", "--family", "pk", "-k", "2", "-n", "8"
    )
    assert code == EXIT_OK
    cross = payload["cross_checks"]
    assert cross["lattice_radius_matches_delta"]
    assert cross["multiplier_equals_delta"]
    assert cross["salem_divides_lattice_polynomial"]
    assert all(entry["passed"] for entry in cross["trace_compatibility"])


def test_report_builds_the_lattice_action_once(capsys, monkeypatch):
    import cremona.cli
    import cremona.picard

    calls = {"coxeter_action": 0, "berkowitz_charpoly": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cremona.cli, "coxeter_action",
                        counted(cremona.cli, "coxeter_action"))
    monkeypatch.setattr(cremona.picard, "coxeter_action",
                        counted(cremona.picard, "coxeter_action"))
    monkeypatch.setattr(cremona.picard, "berkowitz_charpoly",
                        counted(cremona.picard, "berkowitz_charpoly"))
    code, payload, _ = run_json(capsys, "report", "-k", "3", "-n", "12")
    assert code == EXIT_OK
    assert calls == {"coxeter_action": 1, "berkowitz_charpoly": 1}
    cross = payload["cross_checks"]
    assert cross["salem_divides_lattice_polynomial"]
    assert all(entry["passed"] for entry in cross["trace_compatibility"])


@pytest.mark.parametrize("k, n", [(2, 8), (4, 8)])
def test_report_lattice_radius_compares_salem_factors(capsys, monkeypatch, k, n):
    import cremona.cli
    import cremona.picard
    from cremona.polynomials import IntegerPolynomial

    code, payload, _ = run_json(capsys, "report", "-k", str(k), "-n", str(n))
    assert code == EXIT_OK
    assert payload["cross_checks"]["lattice_radius_matches_delta"]
    assert payload["degree"]["salem_factor"] == payload["construct"]["modulus"]
    # the same radius from another polynomial is not a match
    radius_of = cremona.picard.spectral_radius

    def other_salem(matrix, precision_bits):
        radius, cp, salem = radius_of(matrix, precision_bits)
        return radius, cp, salem * IntegerPolynomial([-1, 1])

    monkeypatch.setattr(cremona.cli, "lattice_radius", other_salem)
    _, payload, _ = run_json(capsys, "report", "-k", str(k), "-n", str(n))
    assert payload["cross_checks"]["lattice_radius_matches_delta"] is False


def test_report_exceptional_stops_early(capsys):
    code, payload, _ = run_json(
        capsys, "report", "--family", "pk", "-k", "2", "-n", "7"
    )
    assert code == EXIT_EXCEPTIONAL
    assert "exceptional_notice" in payload
    assert "construct" not in payload


def test_determinism(capsys):
    _, out1, _ = run(capsys, "degree", "--family", "pk", "-k", "3", "-n", "6")
    _, out2, _ = run(capsys, "degree", "--family", "pk", "-k", "3", "-n", "6")
    assert out1 == out2


def test_schema_roundtrip(capsys):
    _, payload, _ = run_json(
        capsys, "degree", "--family", "biproj", "-k", "2", "-n", "5"
    )
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_sweep_merged_in_order(capsys):
    code, payload, _ = run_json(
        capsys, "degree", "--family", "pk", "--sweep", "2..3", "4..6"
    )
    assert code == EXIT_OK
    cells = [(c["k"], c["n"]) for c in payload["cells"]]
    assert cells == [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]


def sweep_stdout(family, cells):
    """What ``degree --sweep`` prints: the serial payload of every cell."""
    payload = {
        "schema": 1,
        "command": "degree-sweep",
        "family": family,
        "cells": [cli._degree_cell((family, k, n, 256)) for k, n in cells],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("family", ["pk", "biproj"])
def test_sweep_on_workers_prints_the_serial_payloads(capsys, monkeypatch, family, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, err = run(
        capsys, "degree", "--family", family, "--sweep", "2..3", "4..6",
        "--precision", "256",
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == sweep_stdout(family, [(k, n) for k in (2, 3) for n in (4, 5, 6)])


def test_sweep_without_fork_runs_in_process(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, _ = run(
        capsys, "degree", "--family", "pk", "--sweep", "2..3", "4..6",
        "--precision", "256",
    )
    assert code == EXIT_OK
    assert out == sweep_stdout("pk", [(k, n) for k in (2, 3) for n in (4, 5, 6)])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("ranges, message", [
    (("1..2", "5..6"), "k must be >= 2, got 1"),
    (("2..3", "0..2"), "n must be >= 1, got 0"),
])
def test_sweep_worker_error_exit_2(capsys, monkeypatch, cpus, ranges, message):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, err = run(capsys, "degree", "--sweep", *ranges)
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {message}\n")


def test_sweep_raises_the_first_failing_cell(capsys, monkeypatch):
    # on two workers (2,5) is the second worker's first cell and (3,5) the
    # first worker's last; a serial loop meets (2,5) first
    serial = cli._degree_cell

    def cell(job):
        if job[2] == 5:
            raise ValueError(f"cell ({job[1]},{job[2]})")
        return serial(job)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_degree_cell", cell)
    code, _, err = run(capsys, "degree", "--sweep", "2..3", "4..6")
    assert (code, err) == (EXIT_INVALID, "invalid input: cell (2,5)\n")


def test_sweep_worker_that_dies_is_reported_and_reaped(monkeypatch):
    serial = cli._degree_cell

    def cell(job):
        if job[1:3] == (2, 5):
            os._exit(3)
        return serial(job)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_degree_cell", cell)
    with pytest.raises(RuntimeError, match="exit code 3 before sending its cells"):
        main(["degree", "--sweep", "2..3", "4..6"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_starts_without_a_process_pool():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import sys, cremona.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


EXCEPTIONS = [
    ExceptionalPairError("pk", 2, 7),
    RootOfUnityError("alpha must not be a root of unity"),
    LatticeError("k must be >= 2"),
    VerificationError("lines-family construction required"),
    PrecisionExhaustedError("coordinates collapsed"),
    GeometryError("degenerate"),
    IndeterminacyError("output factor degenerated to zero"),
    NotOnCurveError(3),
    NotOnCurveError(None, "factor 1 off the curve"),
    ArithmeticError_("no inverse"),
    ZeroDivisorError((Fraction(-1), Fraction(0), Fraction(1))),
    InconsistentEmbeddingError("root does not match"),
]


def test_exceptions_cover_the_package():
    defined = set()
    for info in pkgutil.iter_modules(cremona.__path__):
        module = importlib.import_module(f"cremona.{info.name}")
        defined |= {
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
    assert defined == {type(exc) for exc in EXCEPTIONS}


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_exceptions_survive_pickling(exc):
    # a sweep worker's exception reaches the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "degree", "--family", "pk", "-k", "2", "-n", "8", "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "degree"


def test_precision_floor_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["degree", "--family", "pk", "-k", "2", "-n", "8",
              "--precision", "16"])


@pytest.mark.parametrize("argv", [
    ["picard", "--family", "biproj", "-k", "2", "-n", "8"],
    ["degree", "--family", "lines", "-k", "2", "-n", "8"],
    ["report", "--family", "lines", "-k", "2", "-n", "8"],
    ["verify", "-k", "2", "-n", "8", "--samples", "3"],
    ["degree", "-k", "2", "-n", "8", "--backend", "float"],
    ["picard", "-k", "2", "-n", "8", "-m", "2"],
])
def test_flags_a_subcommand_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "16"])
def test_precision_env_validated_like_the_flag(monkeypatch, value):
    monkeypatch.setenv("CREMONA_PRECISION_BITS", value)
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--family", "pk", "-k", "2", "-n", "8"])
    assert exc.value.code == 2


def test_precision_env_sets_the_default(monkeypatch, capsys):
    monkeypatch.setenv("CREMONA_PRECISION_BITS", "128")
    code, payload, _ = run_json(
        capsys, "verify", "-k", "2", "-n", "8", "--backend", "float"
    )
    assert code == EXIT_OK
    assert payload["backend"] == "float(128)"
