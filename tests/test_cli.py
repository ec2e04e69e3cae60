"""Command-line interface: JSON output, exit codes, determinism."""

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cremona
from cremona import cli, verify
from cremona.arith import InconsistentEmbeddingError, ZeroDivisorError
from cremona.cli import (
    EXIT_EXCEPTIONAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from cremona.construct import (
    ExceptionalPairError,
    construct_biproj,
    construct_lines,
    construct_pk,
)
from cremona.geometry import IndeterminacyError
from cremona.verify import VerificationError


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
    # both backends print the exact orbit parameters through the same lift
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


def test_float_verify_of_tiny_images(capsys):
    # at (12, 30) J maps normalized points to images whose every coordinate
    # lies below the float zero threshold at 256 bits; the point is still
    # nonzero and the orbit closes with the exact multiplier
    code, payload, err = run_json(
        capsys, "verify", "-k", "12", "-n", "30", "--backend", "float"
    )
    assert code == EXIT_OK, err
    _, degree, _ = run_json(capsys, "degree", "-k", "12", "-n", "30")
    assert payload["multiplier"] == degree["delta"]["decimal"]


@pytest.mark.parametrize("argv", [
    ["-n", "60", "--precision", "64"], ["-n", "200"],
], ids=["2-60-p64", "2-200-p256"])
def test_float_verify_embeds_L_through_the_guard_root(capsys, argv):
    # entries of L whose large coefficients cancel at delta lose too many
    # bits when embedded at p bits; through the root at p + 64 bits and
    # rounded, both orbits close
    code, payload, err = run_json(
        capsys, "verify", "-k", "2", *argv, "--backend", "float"
    )
    assert code == EXIT_OK, err
    assert all(c["passed"] for c in payload["conditions"])


def _decimals(payload):
    """Every decimal a construct payload prints, in payload order."""
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            if key in ("decimal", "row_sums"):
                yield from _flat(value)
            else:
                yield from _decimals(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _decimals(value)


def _flat(value):
    if isinstance(value, list):
        for v in value:
            yield from _flat(v)
    else:
        yield Decimal(value)


def _worst_relative_gap(capsys, argv, precision, reference):
    got, ref = (list(_decimals(run_json(capsys, *argv, "--precision", str(p))[1]))
                for p in (precision, reference))
    assert got and len(got) == len(ref)
    return max(abs(a - b) / max(abs(b), Decimal(1) / 10 ** 40)
               for a, b in zip(got, ref))


@pytest.mark.parametrize("argv, precision, bound", [
    (["--family", "biproj", "-k", "12", "-n", "25"], 64, Decimal(2) ** -60),
    (["-k", "2", "-n", "200"], 256, Decimal("1e-29")),
], ids=["biproj-12-25-p64", "pk-2-200-p256"])
def test_construct_decimals_come_from_the_guard_root(capsys, argv, precision,
                                                      bound):
    # an entry whose large coefficients cancel at delta loses bits when it
    # is embedded at p bits: printed that way, an L entry of biproj (12,25)
    # was 10.6 % off at 64 bits, and pk (2,200) was 3.6e-29 off at 256 bits
    with localcontext() as ctx:
        ctx.prec = 60
        assert _worst_relative_gap(
            capsys, ["construct", *argv], precision, 1024) <= bound


def count_isolations(monkeypatch):
    """The list that every call of ``leading_salem_root``, through any
    ``cremona`` module attribute bound to it, is appended to."""
    from cremona import spectra

    calls = []
    isolate = spectra.leading_salem_root

    def counted(*args):
        calls.append(args)
        return isolate(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("cremona") and getattr(
                module, "leading_salem_root", None) is isolate:
            monkeypatch.setattr(module, "leading_salem_root", counted)
    return calls


@pytest.mark.parametrize("precision, isolations", [(256, 1), (512, 1)])
def test_float_verify_isolates_the_root_once_per_precision(
        capsys, monkeypatch, precision, isolations):
    # the construction is exact data; the float backend and the printed
    # decimals lift through one root, at p + 64 bits
    calls = count_isolations(monkeypatch)
    code, _, err = run(capsys, "verify", "-k", "3", "-n", "12", "--backend",
                       "float", "--precision", str(precision))
    assert code == EXIT_OK, err
    assert len(calls) == isolations


def test_constructions_isolate_no_root(monkeypatch):
    calls = count_isolations(monkeypatch)
    construct_pk(2, 8)
    construct_biproj(3, 8)
    construct_lines(2, 2, 2)
    assert calls == []


def test_verify_lines(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--family", "lines", "-k", "2", "-m", "2", "-n", "2"
    )
    assert code == EXIT_OK
    assert payload["closes"] and payload["cyclic"] and payload["on_union"]


@pytest.mark.parametrize("extra", [["--precision", "512"], ["--backend", "float"]])
def test_lines_verify_isolates_no_second_root(capsys, monkeypatch, extra):
    # the lines report prints no decimals, so the exact backend isolates no
    # root at any precision, and the float backend isolates one to embed at
    calls = count_isolations(monkeypatch)
    code, payload, _ = run_json(
        capsys, "verify", "--family", "lines", "-k", "2", "-m", "2", "-n", "2",
        *extra,
    )
    assert code == EXIT_OK
    assert payload["closes"]
    assert len(calls) == (1 if "float" in extra else 0)


def test_lines_n1_exceptional_exit_3(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "lines", "-k", "2", "-m", "2", "-n", "1"
    )
    assert code == EXIT_EXCEPTIONAL


def test_every_family_refuses_an_exceptional_cell_alike(capsys):
    # a periodic Coxeter element is one refusal, one exception and one
    # message, whichever family's cell it is
    errs = []
    for argv in (("-k", "2", "-n", "7"),
                 ("--family", "lines", "-k", "2", "-m", "1", "-n", "1")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_EXCEPTIONAL, "")
        assert err.count("root of unity") == 1
        errs.append(err.partition("(")[0])
    assert errs == ["exceptional cell: "] * 2


def test_picard_invalid_input_exit_2(capsys):
    code, out, err = run(capsys, "picard", "-k", "1")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "invalid input: k must be >= 2\n"


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


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_lines_n0_exit_2(capsys, command):
    # the Coxeter polynomial takes an arm of length 0, so n = 0 is refused
    # with k and m, before the field, and not reported as exceptional
    code, out, err = run(
        capsys, command, "--family", "lines", "-k", "2", "-m", "2", "-n", "0"
    )
    assert code == EXIT_INVALID
    assert not out
    assert "n must be >= 1, got 0" in err


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

    def other_salem(matrix, precision_bits, known=None):
        radius, cp, salem = radius_of(matrix, precision_bits, known)
        return radius, cp, salem * IntegerPolynomial([-1, 1])

    monkeypatch.setattr(cremona.cli, "lattice_radius", other_salem)
    _, payload, _ = run_json(capsys, "report", "-k", str(k), "-n", str(n))
    assert payload["cross_checks"]["lattice_radius_matches_delta"] is False


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_report_isolates_delta_once_per_precision(capsys, monkeypatch, backend):
    # the degree pass isolates delta at p bits and the lattice radius reuses
    # it; the one lift of the construction isolates it at p + 64 bits
    _, plain, _ = run(capsys, "report", "-k", "3", "-n", "10",
                      "--backend", backend)
    calls = count_isolations(monkeypatch)
    code, out, err = run(capsys, "report", "-k", "3", "-n", "10",
                         "--backend", backend)
    assert (code, err) == (EXIT_OK, "")
    assert sorted(precision for _, precision in calls) == [256, 320]
    assert out == plain


def test_lattice_radius_isolates_a_factor_it_is_not_given():
    from cremona.picard import OrbitData, coxeter_action, spectral_radius
    from cremona.spectra import leading_salem_root
    from cremona.polynomials import IntegerPolynomial

    action, _ = coxeter_action(3, OrbitData.coxeter(3, 10))
    radius, _, salem = spectral_radius(action, 256)
    coarse = leading_salem_root(salem, 64)  # told apart from the 256-bit root
    assert coarse.value != radius
    assert spectral_radius(action, 256, known=(salem, coarse))[0] == coarse.value
    other = salem * IntegerPolynomial([-1, 1])
    assert spectral_radius(action, 256, known=(other, coarse))[0] == radius


def test_report_exceptional_stops_early(capsys):
    code, payload, _ = run_json(
        capsys, "report", "--family", "pk", "-k", "2", "-n", "7"
    )
    assert code == EXIT_EXCEPTIONAL
    assert "exceptional_notice" in payload
    assert "construct" not in payload


def test_report_all_passed_is_the_exit_verdict(capsys, monkeypatch):
    # a curve that fails its check fails the verdict report prints, which
    # is the verdict its exit code gives
    checked = verify.verify_curve_invariance

    def cusp_moved(*args, **kwargs):
        rep = checked(*args, **kwargs)
        rep.cusp_fixed = False
        return rep

    monkeypatch.setattr(verify, "verify_curve_invariance", cusp_moved)
    code, payload, _ = run_json(capsys, "report", "-k", "3", "-n", "10")
    assert code == EXIT_VERIFY
    assert payload["verify"]["curve_invariant"] is False
    assert payload["verify"]["all_passed"] is False


def test_determinism(capsys):
    _, out1, _ = run(capsys, "degree", "--family", "pk", "-k", "3", "-n", "6")
    _, out2, _ = run(capsys, "degree", "--family", "pk", "-k", "3", "-n", "6")
    assert out1 == out2


def test_schema_roundtrip(capsys):
    _, payload, _ = run_json(
        capsys, "degree", "--family", "biproj", "-k", "2", "-n", "5"
    )
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | st.text() | st.text(alphabet="a\u00e9\u03b4\u2202\U0001f600\"\\\n\x00")
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.integers()) | st.lists(st.text()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_refuses_what_json_refuses():
    for value in ({1, 2}, {"a": [1, {2}]}, {(1, 2): 3}, object()):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)


_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "reference.json")
with open(_REFERENCE) as _fh:
    _REFERENCE_COMMANDS = list(json.load(_fh))


@pytest.mark.parametrize("command", _REFERENCE_COMMANDS + [
    "degree -k 3 -n 12", "construct -k 3 -n 12",
    "construct --family lines -k 3 -m 2 -n 2", "verify -k 3 -n 12",
    "picard -k 3 -n 10", "report -k 3 -n 10",
])
def test_every_payload_is_written_as_json_dumps(capsys, monkeypatch, command):
    payloads = []
    real = cli.emit

    def recording(payload, out_path):
        payloads.append(payload)
        real(payload, out_path)

    monkeypatch.setattr(cli, "emit", recording)
    _, out, _ = run(capsys, *command.split())
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], sort_keys=True, indent=2) + "\n"


def test_sweep_merged_in_order(capsys):
    code, payload, _ = run_json(
        capsys, "degree", "--family", "pk", "--sweep", "2..3", "4..6"
    )
    assert code == EXIT_OK
    cells = [(c["k"], c["n"]) for c in payload["cells"]]
    assert cells == [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]


def pool_width(monkeypatch, cpus):
    """Give the sweep pool ``cpus`` workers: the affinity set it is sized
    from holds that many CPUs, as does ``os.cpu_count`` where there is no
    affinity set; a worker placed on a CPU that does not exist stays put."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


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
    pool_width(monkeypatch, cpus)
    code, out, err = run(
        capsys, "degree", "--family", family, "--sweep", "2..3", "4..6",
        "--precision", "256",
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == sweep_stdout(family, [(k, n) for k in (2, 3) for n in (4, 5, 6)])


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and at least two CPUs in the affinity set",
)
def test_sweep_places_each_worker_on_its_own_cpu(capsys, monkeypatch):
    affinity = os.sched_getaffinity
    full = sorted(affinity(0))
    cpus = full[:2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(cli, "_degree_cell", lambda job: {
        "cell": list(job[1:3]), "cpus": sorted(affinity(0))})
    code, payload, _ = run_json(capsys, "degree", "--sweep", "2..3", "4..6")
    assert code == EXIT_OK
    cells = payload["cells"]
    assert [c["cell"] for c in cells] == [[k, n] for k in (2, 3) for n in (4, 5, 6)]
    # worker i runs cells i, i + 2, i + 4
    assert [c["cpus"] for c in cells] == [[cpus[i % 2]] for i in range(6)]
    assert sorted(affinity(0)) == full


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_sweep_pool_is_sized_from_the_affinity_set(capsys, monkeypatch):
    # sized from cpu_count, a sweep under `taskset -c 0` forked two workers
    # onto its one CPU
    one = min(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {one})
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    code, out, err = run(
        capsys, "degree", "--family", "pk", "--sweep", "2..3", "4..6",
        "--precision", "256",
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == sweep_stdout("pk", [(k, n) for k in (2, 3) for n in (4, 5, 6)])
    assert len(forked) == 1


def _refuse_affinity(pid, mask):
    raise OSError(1, "Operation not permitted")


@pytest.mark.parametrize("placement", ["missing", "refused"])
def test_sweep_placement_never_fails_a_sweep(capsys, monkeypatch, placement):
    if placement == "missing":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    elif hasattr(os, "sched_setaffinity"):
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
    else:
        pytest.skip("no CPU affinity on this platform")
    pool_width(monkeypatch, 2)
    code, out, err = run(
        capsys, "degree", "--family", "pk", "--sweep", "2..3", "4..6",
        "--precision", "256",
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == sweep_stdout("pk", [(k, n) for k in (2, 3) for n in (4, 5, 6)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    pool_width(monkeypatch, cpus)
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

    pool_width(monkeypatch, 2)
    monkeypatch.setattr(cli, "_degree_cell", cell)
    code, _, err = run(capsys, "degree", "--sweep", "2..3", "4..6")
    assert (code, err) == (EXIT_INVALID, "invalid input: cell (2,5)\n")


def test_sweep_worker_that_dies_is_reported_and_reaped(monkeypatch):
    serial = cli._degree_cell

    def cell(job):
        if job[1:3] == (2, 5):
            os._exit(3)
        return serial(job)

    pool_width(monkeypatch, 2)
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


# every subcommand, both backends and all three families, a sweep among them
NO_MPMATH_COMMANDS = (
    "degree -k 3 -n 10",
    "degree --family biproj -k 2 -n 10",
    "degree --sweep 2..3 9..11",
    "construct -k 3 -n 10",
    "construct --family lines -k 3 -m 2 -n 2",
    "verify -k 3 -n 10",
    "verify -k 3 -n 10 --backend float",
    "verify --family biproj -k 2 -n 10",
    "verify --family biproj -k 2 -n 10 --backend float --precision 128",
    "verify --family lines -k 2 -m 2 -n 2",
    "verify --family lines -k 2 -m 2 -n 3 --backend float",
    "picard -k 3 -n 10",
    "report -k 3 -n 10",
    "report --family biproj -k 2 -n 10 --backend float",
)


def test_cli_runs_every_subcommand_without_mpmath():
    # BigFloat runs on its own kernel; mpmath is loaded only to read a
    # BigFloat's value as an mpf, which no command does
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import contextlib, io, sys\n"
        "from cremona import cli\n"
        f"for argv in {NO_MPMATH_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    assert code == 0, (argv, code)\n"
        "print('mpmath' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout == "False\n"



def test_parser_is_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in (["verify", "-k", "3", "-n", "8", "--backend", "float"],
                 ["degree", "--sweep", "2..3", "7..9"],
                 ["picard", "-k", "3", "-n", "10"]):
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "cremona.cli", *argv], env=env,
            capture_output=True, text=True,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_residues_are_formatted_from_the_integers():
    field = construct_pk(3, 10).field
    for coeffs in ([], [0, 5], [Fraction(-3, 4), 0, 2, Fraction(7, 6)],
                   [Fraction(-10, 3), Fraction(1, 12), -4, Fraction(5, 2)]):
        x = field.element(coeffs)
        assert cli.ser_exact(x)["residue"] == [cli.frac_str(c) for c in x.residue]


EXCEPTIONS = [
    ExceptionalPairError("pk", 2, 7),
    VerificationError("lines-family construction required"),
    IndeterminacyError("output factor degenerated to zero"),
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


def test_out_file_unwritable_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "degree", "-k", "2", "-n", "8", "--out", str(target),
    )
    assert code == EXIT_INVALID
    assert not out
    assert f"invalid input: cannot write {target}" in err
    assert "Traceback" not in err


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


def test_float_orbit_keeps_factors_near_zero(capsys):
    # at 64 bits the reciprocal factor at step 9 is about 1e-20 in every
    # coordinate; it is not 0, so the orbit goes on and closes
    code, payload, _ = run_json(
        capsys, "verify", "--family", "biproj", "-k", "9", "-n", "10",
        "--backend", "float", "--precision", "64",
    )
    assert code == EXIT_OK
    passed = {c["name"]: c["passed"] for c in payload["conditions"]}
    assert passed["long orbit closes at e0"]
    assert passed["no premature indeterminacy"]
