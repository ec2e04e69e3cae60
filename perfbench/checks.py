"""Output checks against ``reference.json``.

The reference holds, for every command the workloads run, the exit code and
the output fields that the mathematics fixes: polynomials, factor lists,
exact residues, verdict booleans, 30-digit decimals.  ``checked_fields``
drops the rest (labels, residuals, notes, dead flags echoed back), so outputs
are compared field by field and a later change may add or drop such keys.

Two fields are checked by their meaning instead of literally:

- a Salem-root ``interval`` must be certified by an exact sign change of the
  Salem factor (evaluated by sympy) and must pin the reference decimal;
- a float-backend ``multiplier`` must agree with the exact delta of the
  reference to 25 significant digits.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

# keys whose values are not fixed by the mathematics
UNCHECKED = {
    "schema", "seed", "backend", "notes", "detail", "residual",
    "max_residual", "failure", "exceptional_notice",
}
MULTIPLIER_DIGITS = 25


def key(argv) -> str:
    return " ".join(argv)


def checked_fields(payload, path=()):
    """The payload without unchecked keys and without certified fields."""
    if isinstance(payload, dict):
        out = {}
        for k, v in payload.items():
            if k in UNCHECKED:
                continue
            if k == "interval" and path[-1:] == ("delta",):
                continue
            if k == "multiplier" and isinstance(v, str):
                continue
            out[k] = checked_fields(v, path + (k,))
        return out
    if isinstance(payload, list):
        return [checked_fields(v, path + (str(i),)) for i, v in enumerate(payload)]
    return payload


def _compare(ref, got, path, problems):
    where = "/".join(path) or "(root)"
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{where}: expected an object")
            return
        for k, v in ref.items():
            if k not in got:
                problems.append(f"{where}/{k}: missing")
            else:
                _compare(v, got[k], path + (k,), problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, path + (str(i),), problems)
    elif ref != got or type(ref) is not type(got):
        problems.append(f"{where}: expected {ref!r}, got {got!r}")


def _intervals(payload, path=()):
    """(path, salem factor, delta) for every degree payload inside."""
    if isinstance(payload, dict):
        delta = payload.get("delta")
        if isinstance(delta, dict) and "interval" in delta:
            yield path, payload.get("salem_factor"), delta
        for k, v in payload.items():
            yield from _intervals(v, path + (k,))
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            yield from _intervals(v, path + (str(i),))


def _certify_interval(salem, delta, where, problems):
    import sympy

    try:
        low, high = (Fraction(s) for s in delta["interval"])
        ref = Fraction(Decimal(delta["decimal"]))
        poly = sympy.Poly(list(reversed(salem)), sympy.Symbol("x"))
    except (TypeError, ValueError, ArithmeticError, KeyError) as exc:
        problems.append(f"{where}/delta: unreadable ({exc})")
        return

    def value(q):
        return poly.eval(sympy.Rational(q.numerator, q.denominator))

    if not value(low) * value(high) < 0:
        problems.append(f"{where}/delta/interval: no sign change of the Salem factor")
    if high - low > Fraction(1, 10 ** 30):
        problems.append(f"{where}/delta/interval: wider than the printed digits")
    if abs((low + high) / 2 - ref) > Fraction(1, 10 ** 29) * max(1, abs(ref)):
        problems.append(f"{where}/delta/interval: does not contain the decimal")


def _check_multiplier(got, delta, problems):
    try:
        measured = Decimal(got)
    except (TypeError, ArithmeticError):
        problems.append(f"multiplier: not a decimal: {got!r}")
        return
    exact = Decimal(delta)
    if abs(measured - exact) > abs(exact) * Decimal(10) ** -MULTIPLIER_DIGITS:
        problems.append(f"multiplier: {got} differs from delta {delta}")


def check(entry: dict, exit_code, stdout: str) -> list:
    """Problems found in one command's result; empty when it is correct.

    ``entry`` is the command's reference: ``exit``, ``fields`` and, for
    float-backend runs, ``delta``."""
    problems = []
    if exit_code != entry["exit"]:
        problems.append(f"exit code {exit_code}, expected {entry['exit']}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        return problems + ["output is not a JSON object"]
    _compare(entry["fields"], checked_fields(payload), (), problems)
    for path, salem, delta in _intervals(payload):
        _certify_interval(salem, delta, "/".join(path), problems)
    if "delta" in entry:
        _check_multiplier(payload.get("multiplier"), entry["delta"], problems)
    return problems


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
