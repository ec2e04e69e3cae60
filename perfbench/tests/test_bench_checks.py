"""The output checker accepts the program's real outputs and catches wrong
ones (negative controls), and a wrong output lowers ``ok_frac``."""

import contextlib
import copy
import io
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from cremona import cli  # noqa: E402

LINES = ["verify", "--family", "lines", "-k", "2", "-n", "2", "-m", "2",
         "--backend", "exact", "--precision", "256"]
BIPROJ = ["verify", "--family", "biproj", "-k", "2", "-n", "20",
          "--backend", "float", "--precision", "256"]
REPORT = ["report", "--family", "pk", "-k", "3", "-n", "10", "--precision", "256"]


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference(run.REFERENCE)


def output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def lines_output():
    return output(LINES)


def test_real_output_passes(reference, lines_output):
    code, text = lines_output
    assert checks.check(reference[checks.key(LINES)], code, text) == []


def test_dead_keys_may_be_dropped(reference, lines_output):
    code, text = lines_output
    payload = json.loads(text)
    del payload["seed"], payload["schema"]
    assert checks.check(reference[checks.key(LINES)], code, json.dumps(payload)) == []


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(closes=False),
    lambda p: p["line_sequence"].reverse(),
    lambda p: p.pop("cyclic"),
    lambda p: p.update(orbit_length=p["orbit_length"] + 1),
])
def test_corrupted_verdict_fails(reference, lines_output, corrupt):
    code, text = lines_output
    payload = json.loads(text)
    corrupt(payload)
    assert checks.check(reference[checks.key(LINES)], code, json.dumps(payload))


def test_wrong_exit_code_fails(reference, lines_output):
    code, text = lines_output
    assert checks.check(reference[checks.key(LINES)], code + 4, text)


def test_float_multiplier_must_match_exact_delta(reference):
    entry = reference[checks.key(BIPROJ)]
    payload = {"multiplier": entry["delta"], **copy.deepcopy(entry["fields"])}
    assert checks.check(entry, entry["exit"], json.dumps(payload)) == []
    payload["multiplier"] = str(Decimal(entry["delta"]) + Decimal("1e-20"))
    assert any("multiplier" in p for p in
               checks.check(entry, entry["exit"], json.dumps(payload)))


def test_interval_is_certified_not_compared(reference):
    """A different but valid interval passes; one that misses the root or
    is too wide fails."""
    entry = reference[checks.key(REPORT)]
    code, text = output(REPORT)
    payload = json.loads(text)
    assert checks.check(entry, code, text) == []
    delta = payload["degree"]["delta"]
    low, high = (Fraction(s) for s in delta["interval"])
    width = high - low
    delta["interval"] = [str(low - width / 3), str(high + width / 5)]
    assert checks.check(entry, code, json.dumps(payload)) == []
    delta["interval"] = [str(high + width), str(high + 2 * width)]
    assert any("sign change" in p for p in
               checks.check(entry, code, json.dumps(payload)))
    delta["interval"] = [str(low - 1), str(high)]
    assert any("wider" in p for p in
               checks.check(entry, code, json.dumps(payload)))


def test_corrupted_output_lowers_ok_frac(reference, lines_output):
    code, text = lines_output
    payload = json.loads(text)
    payload["on_union"] = False
    good = {"argv": LINES, "exit": code, "stdout": text, "wall_s": 1.0,
            "setup_s": 0.1, "peak_rss_mb": 20.0}
    bad = dict(good, stdout=json.dumps(payload))
    clean = [{"reports": [good, good]}]
    broken = [{"reports": [good, bad]}]
    assert run.failures(clean, reference) == {}
    failed = run.failures(broken, reference)
    assert list(failed) == [(0, 1)]
    assert run.end_to_end(clean, 0, 2)["ok_frac"][0] == 1.0
    assert run.end_to_end(broken, len(failed), 2)["ok_frac"][0] == 0.5
