"""Span recording for the traced benchmark run.

The tracer wraps banddet's public functions and ring methods from outside
the program: every binding site of a wrapped function (``oracle.det_bareiss``
and the copies that ``permcount``, ``cli`` and the package itself bind at
import time) is replaced, and methods are replaced on their class.  Each
call appends one span (name, start, end, parent, op_id, work) to flat
in-memory arrays; nothing is written until :meth:`Tracer.write` at the end
of the run.  ``work`` is an exact per-call count whose meaning depends on
the span (see ``WORK``).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# Every span the tracer records, by layer (module).
SPANS = (
    "rings.poly_mul",
    "rings.poly_add",
    "rings.poly_pow",
    "rings.int_pow",
    "band.det_factored",
    "band.expand",
    "band.materialize",
    "band.det_recurrence",
    "oracle.det_laplace",
    "oracle.det_bareiss",
    "oracle.ryser_int",
    "oracle.ryser_poly",
    "permcount.family_table",
    "permcount.parity_counts",
    "permcount.excedance_census",
    "permcount.to_dense",
    "checks.run_checks",
    "cli.main",
)

# Span name -> name of the exact count its `work` column sums to.
WORK = {
    "rings.poly_mul": "coeff_products",
    "rings.poly_pow": "result_degree",
    "band.materialize": "entries",
    "oracle.det_bareiss": "result_bits",
    "oracle.ryser_int": "subsets",
    "oracle.ryser_poly": "subsets",
}


def _mul_products(args, result) -> int:
    left, right = args
    return len(left.coeffs) * (1 if isinstance(right, int) else len(right.coeffs))


def _ryser_name(args) -> str:
    return "oracle.ryser_int" if args[0].is_integer() else "oracle.ryser_poly"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.work = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        return self.names.index(name)

    def wrap(self, fn, name, work=None):
        """A wrapper around fn recording one span per call.  `name` is a
        span name or a function of the call's positional arguments that
        returns one; `work(args, result)` gives the call's exact count."""
        names, starts, ends = self.name, self.start, self.end
        parents, ops, works, stack = self.parent, self.op, self.work, self._stack
        clock = time.perf_counter_ns
        fixed = None if callable(name) else self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else tracer._name_id(name(args)))
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            works.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch banddet.  Functions are replaced at every module attribute
        that holds them; methods are replaced on the class that defines them."""
        from banddet import band, checks, cli, oracle, permcount, rings

        methods = [
            (rings.Poly, "__mul__", "rings.poly_mul", _mul_products),
            (rings.Poly, "__add__", "rings.poly_add", None),
            # Integer overrides __pow__, so the generic power runs for Poly only
            (rings.RingElement, "__pow__", "rings.poly_pow", lambda a, r: max(r.degree, 0)),
            (rings.Integer, "__pow__", "rings.int_pow", None),
            (band.FactoredDet, "expand", "band.expand", None),
            (permcount.CharMatrix, "to_dense", "permcount.to_dense", None),
        ]
        functions = [
            (band.materialize, "band.materialize", lambda a, r: r.n * r.n),
            (band.det_factored, "band.det_factored", None),
            (band.det_recurrence, "band.det_recurrence", None),
            (oracle.det_laplace, "oracle.det_laplace", None),
            (oracle.det_bareiss, "oracle.det_bareiss", lambda a, r: abs(r.value).bit_length()),
            (oracle.permanent_ryser, _ryser_name, lambda a, r: (1 << a[0].n) - 1),
            (permcount.family_table, "permcount.family_table", None),
            (permcount.parity_counts, "permcount.parity_counts", None),
            (permcount.excedance_census, "permcount.excedance_census", None),
            (checks.run_checks, "checks.run_checks", None),
            (cli.main, "cli.main", None),
        ]
        for cls, attr, name, work in methods:
            self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, work))
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "banddet" or key.startswith("banddet.")
        ]
        for fn, name, work in functions:
            wrapper = self.wrap(fn, name, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def rows(self) -> list[list[int]]:
        """Spans as [name_id, start, end, parent, work] rows (for a child
        process to hand its spans to the harness)."""
        return [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.work[i]]
            for i in range(len(self.start))
        ]

    def merge(self, rows: list[list[int]], op_id: int) -> None:
        """Append spans recorded by a child process under one op_id."""
        offset = len(self.start)
        for name, start, end, parent, work in rows:
            self.name.append(name)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op.append(op_id)
            self.work.append(work)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time in seconds (duration minus the
        time covered by direct child spans) and the summed work count."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "work": 0} for name in SPANS}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["self_s"] += (self.end[i] - self.start[i] - covered[i]) / 1e9
            agg["work"] += self.work[i]
        return out

    def write(self, path) -> None:
        """All spans, one per line: name, start_ns, end_ns, parent, op_id,
        work.  parent is the line index (0-based, header excluded) or -1."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\top_id\twork\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\t{self.work[i]}\n"
                )
