"""Span tracing of the ``cremona`` package from outside it.

``instrument()`` wraps every public function of every ``cremona`` module and
a few hot methods, rebinding each wrapped name in every ``cremona`` module
that imported it, so that no file of the program changes.  Each call becomes
a span with a name, a start, an end and a parent; spans are kept in flat
arrays (hundreds of thousands of them fit in a few MB) and reduced to
per-name counts, total time and self time (span time minus the time of its
child spans) by ``Tracer.summary``.

Processes forked by the program (the ``degree --sweep`` pool) inherit the
wrappers.  The tracer clears its spans in each fork and, whenever a sweep
cell finishes in a worker, appends that cell's summary, tagged with the cell,
to ``<trace_dir>/worker-<pid>.jsonl``; ``merge_worker_files`` reads them back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "polynomials",
    "arith",
    "spectra",
    "geometry",
    "construct",
    "verify",
    "picard",
    "cli",
)

# Spans whose outermost occurrence is summed into one group time: the time
# spent turning results into JSON, and the time spent building a map.
GROUPS = {
    "cli.serialize": (
        "cli.emit",
        "cli.ser_exact",
        "cli.ser_scalar",
        "cli.ser_matrix",
        "cli.ser_poly",
        "cli.decimal_str",
        "cli.frac_str",
    ),
    "construct": (
        "construct.construct_pk",
        "construct.construct_biproj",
        "construct.construct_lines",
    ),
}


class Tracer:
    """Span recorder for one process; a fork starts with an empty record."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.names: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # counts read from arguments and return values at span boundaries
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # cleared in place: the wrappers hold references to these objects
        for a in (self.name_id, self.parent, self.start, self.end):
            del a[:]
        self.stack.clear()
        self.counters.clear()
        self.maxima.clear()
        self.keys.clear()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(tracer, args,
        result)`` runs after the span closes and may update the counters."""
        nid = self.names.setdefault(name, len(self.names))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(end)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def parent_is(self, name: str) -> bool:
        """Whether the innermost open span has this name."""
        return bool(self.stack) and self.name_id[self.stack[-1]] == self.names[name]

    def summary(self) -> dict:
        """Per-name [calls, total_s, self_s], group times and counters for
        the spans closed so far."""
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_id: dict[int, list] = {}
        for i in range(n):
            row = by_id.setdefault(self.name_id[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        id_name = {i: name for name, i in self.names.items()}
        groups = {}
        for group, members in GROUPS.items():
            ids = {self.names[m] for m in members if m in self.names}
            inside = [False] * n  # an ancestor span belongs to the group
            total = 0.0
            for i in range(n):  # a parent's id is smaller than its child's
                p = self.parent[i]
                inside[i] = p >= 0 and (inside[p] or self.name_id[p] in ids)
                if self.name_id[i] in ids and not inside[i]:
                    total += dur[i]
            groups[group] = total
        return {
            "spans": {id_name[i]: row for i, row in by_id.items()},
            "groups": groups,
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }

    def flush_cell(self, cell) -> None:
        """Append this worker's spans for one finished cell to its file."""
        record = {"pid": os.getpid(), "cell": list(cell), **self.summary()}
        path = os.path.join(self.trace_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self._reset()


def merge(summaries) -> dict:
    """Sum span rows, group times and counters; take maxima of maxima."""
    out = {"spans": {}, "groups": Counter(), "counters": Counter(),
           "maxima": Counter(), "distinct": Counter()}
    for s in summaries:
        for name, (calls, total, self_s) in s["spans"].items():
            row = out["spans"].setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        out["groups"].update(s["groups"])
        out["counters"].update(s["counters"])
        out["distinct"].update(s["distinct"])
        for k, v in s["maxima"].items():
            out["maxima"][k] = max(out["maxima"][k], v)
    return {k: dict(v) for k, v in out.items()}


def merge_worker_files(trace_dir: str) -> list:
    """Every cell record the sweep workers of one command wrote."""
    records = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as fh:
                records.extend(json.loads(line) for line in fh)
    return records


# ---------------------------------------------------------------------------
# observers: size and waste counts read from arguments and return values


def _count_cyclotomic_trial(tracer, args, result):
    if tracer.parent_is("spectra.strip_cyclotomic"):
        tracer.counters["cyclotomic_trials"] += 1
        tracer.counters["cyclotomic_hits"] += result is not None


def _key_linmap_inverse(tracer, args, result):
    tracer.keys["linmap_inverse"].add(hash(args[0].matrix))


def _key_field_root(tracer, args, result):
    construction, precision = args[0], args[1]
    tracer.keys["field_root"].add((construction.modulus.coeffs, precision))


def _field_degree(tracer, args, result):
    tracer.maxima["field_degree"] = max(
        tracer.maxima["field_degree"], result.field.degree
    )


def _coeff_bits(tracer, args, result):
    """Largest numerator or denominator bit length over the exact orbit."""
    top = tracer.maxima["coeff_bits"]
    for _, coords_list in result.orbit_points:
        for coords in coords_list:
            for c in coords:
                for r in getattr(c, "residue", ()):
                    top = max(top, r.numerator.bit_length(),
                              r.denominator.bit_length())
    tracer.maxima["coeff_bits"] = top


OBSERVERS = {
    "polynomials.try_divide": _count_cyclotomic_trial,
    "geometry.linmap_inverse": _key_linmap_inverse,
    "verify.field_root": _key_field_root,
    "construct.construct_pk": _field_degree,
    "construct.construct_biproj": _field_degree,
    "construct.construct_lines": _field_degree,
    "verify.verify_orbit": _coeff_bits,
}


def _methods():
    """(class, attribute names, span name) for the traced methods."""
    from cremona.arith import BigFloat, NumberFieldElement
    from cremona.geometry import LinearMap, ProjectivePoint
    from cremona.polynomials import IntegerPolynomial

    return [
        (IntegerPolynomial, ("sign_at",), "polynomials.sign_at"),
        (IntegerPolynomial, ("try_divide",), "polynomials.try_divide"),
        (NumberFieldElement, ("__mul__", "__rmul__"), "arith.nf_mul"),
        (BigFloat, ("_binop", "__neg__", "__pow__", "__abs__"), "arith.bigfloat"),
        (LinearMap, ("inverse",), "geometry.linmap_inverse"),
        (ProjectivePoint, ("normalized",), "geometry.normalized"),
    ]


def _is_traced_function(obj, module_name: str) -> bool:
    return (
        (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
        and getattr(obj, "__module__", None) == module_name
    )


def instrument(trace_dir: str) -> Tracer:
    """Wrap the package in place and return the tracer that records it."""
    import importlib

    modules = {m: importlib.import_module(f"cremona.{m}") for m in MODULES}
    tracer = Tracer(trace_dir)
    replaced = {}  # id(original) -> wrapper
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _is_traced_function(obj, mod.__name__):
                continue
            name = f"{short}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, obj, OBSERVERS.get(name))

    cell_fn = modules["cli"]._degree_cell
    traced_cell = tracer.wrap("cli.degree_cell", cell_fn)

    @functools.wraps(cell_fn)
    def degree_cell(job):
        result = traced_cell(job)
        if os.getpid() != tracer.main_pid:
            tracer.flush_cell(job[:3])
        return result

    replaced[id(cell_fn)] = degree_cell

    for mod in [m for n, m in sys.modules.items() if n.startswith("cremona")]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    for cls, attrs, name in _methods():
        wrapped = {}  # one wrapper per function object (__rmul__ is __mul__)
        for attr in attrs:
            fn = vars(cls)[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.wrap(name, fn, OBSERVERS.get(name))
            setattr(cls, attr, wrapped[id(fn)])
    return tracer
