"""Command-line front end.

Verbs: det (closed-form or oracle determinant of a band spec), perm
(permanent of the materialized spec), table (the three census tables),
census (full weak-excedance census for one order), check (differential
suites), bench (closed form vs elimination timings).

Exit codes: 0 success, 1 check failure, 2 usage error, 3 size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import band, checks, oracle, permcount
from .errors import MixedRingError, SizeLimitError
from .rings import _int_parse, element_to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _spec_line(spec) -> str:
    return f"spec: n={spec.n} k={spec.k} l={spec.l} a={spec.a} b={spec.b}"


def _cmd_det(args) -> int:
    spec = band.BandSpec(args.n, args.k, args.l, args.a, args.b)
    res = band.residue(spec)
    factored = None
    if args.method == "closed":
        factored = band.det_factored(spec)
        value = factored.expand()
    elif args.method == "recurrence":
        if spec.l != 1:
            raise ValueError("--method recurrence applies only to l = 1 specs")
        value = band.det_recurrence(spec.n, spec.k, spec.a, spec.b)
    elif args.method == "laplace":
        oracle.check_size("LAPLACE", spec.n, "det_laplace")
        value = oracle.det_laplace(band.materialize(spec))
    else:
        value = oracle.det_bareiss(band.materialize(spec))
    # the whole answer is rendered before anything is printed, so a
    # render error leaves stdout empty
    if args.format == "json":
        out = band.spec_to_json(spec)
        out.update(
            case=res.case,
            p=res.p,
            quotient=res.quotient,
            method=args.method,
            det=element_to_json(value),
        )
        if factored is not None:
            out["factored"] = str(factored)
        print(json.dumps(out))
        return EXIT_OK
    lines = [
        _spec_line(spec),
        f"case: {res.case} (l{'=' if res.case == 1 else '>'}1), p={res.p}, quotient={res.quotient}",
        f"method: {args.method}",
    ]
    if factored is not None:
        lines.append(f"factored: {factored}")
    lines.append(f"det: {value}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_perm(args) -> int:
    spec = band.BandSpec(args.n, args.k, args.l, args.a, args.b)
    # the oracle's size guard runs before the matrix is built, with the
    # oracle's own name and label: a refusal costs nothing and reads the same
    if args.method == "ryser":
        oracle.check_size("RYSER_INT", spec.n, "permanent_ryser")
        value = oracle.permanent_ryser(band.materialize(spec))
    else:
        oracle.check_size("EXPANSION", spec.n, "permanent_expansion")
        value = oracle.permanent_expansion(band.materialize(spec))
    if args.format == "json":
        out = band.spec_to_json(spec)
        out.update(method=args.method, per=element_to_json(value))
        print(json.dumps(out))
    else:
        print(f"{_spec_line(spec)}\nmethod: {args.method}\nper: {value}")
    return EXIT_OK


def _emit_rows(keys, rows, fmt: str, **fixed) -> None:
    """Print rows as CSV under a header of keys, or as JSON lines that
    start with the `fixed` fields; in JSON the first column stays a number
    and the others are decimal strings.  Printed once, after rendering."""
    if fmt == "json":
        lines = []
        for row in rows:
            obj = {**fixed, keys[0]: row[0]}
            for key, value in zip(keys[1:], row[1:]):
                obj[key] = str(value)
            lines.append(json.dumps(obj))
    else:
        lines = [",".join(keys)] + [",".join(str(v) for v in row) for row in rows]
    print("\n".join(lines))


def _cmd_table(args) -> int:
    rows = permcount.family_table(args.family, args.n_max)
    _emit_rows(permcount._FAMILIES[args.family][1], rows, args.format)
    return EXIT_OK


def _cmd_census(args) -> int:
    c = permcount.excedance_census(args.n)
    rows = zip(range(1, c.n + 1), c.per_coeffs, c.det_coeffs, c.even, c.odd)
    _emit_rows(("k", "T", "c", "even", "odd"), rows, args.format, n=c.n)
    return EXIT_OK


def _cmd_check(args) -> int:
    report = checks.run_checks(args.level)
    for suite in report.suites:
        print(f"{suite.name}: {suite.cases} cases, {len(suite.failures)} failures")
    print(f"total: {report.cases} cases at level {report.level}")
    if not report.ok:
        print(f"FAIL {report.failures[0]}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = [_int_parse(s) for s in args.sizes.split(",") if s]
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive integers, comma-separated")
    if args.method == "laplace":
        oracle.check_size("LAPLACE", max(sizes), "det_laplace")
    # printed once, after every order agrees: a disagreement leaves stdout empty
    lines = ["n,closed_seconds,method,method_seconds,agree"]
    for n in sizes:
        # the window saturates at the matrix edge, so clamping keeps the matrix
        spec = band.BandSpec(n, min(args.k, n), min(args.l, n), args.a, args.b)
        t0 = time.perf_counter()
        closed = band.det_closed(spec)
        t_closed = time.perf_counter() - t0
        m = band.materialize(spec)
        t0 = time.perf_counter()
        if args.method == "laplace":
            other = oracle.det_laplace(m)
        else:
            other = oracle.det_bareiss(m)
        t_other = time.perf_counter() - t0
        if closed != other:
            print(f"error: methods disagree at n={n}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        lines.append(f"{n},{t_closed:.6f},{args.method},{t_other:.6f},true")
    print("\n".join(lines))
    return EXIT_OK


def _add_spec_flags(p, methods) -> None:
    """The flags of a verb that reads one band spec: the spec itself, the
    method (the first one is the default) and the output format."""
    for flag in ("--n", "--k", "--l"):
        p.add_argument(flag, type=_int_parse, required=True)
    p.add_argument("--a", type=_int_parse, required=True, help="off-band value")
    p.add_argument("--b", type=_int_parse, required=True, help="in-band value")
    p.add_argument("--method", choices=methods, default=methods[0])
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banddet",
        description="Closed-form determinants of binary band Toeplitz matrices "
        "and even/odd restricted-permutation censuses, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("det", help="determinant of a band spec")
    _add_spec_flags(p, ("closed", "recurrence", "laplace", "bareiss"))
    p.set_defaults(handler=_cmd_det)

    p = sub.add_parser("perm", help="permanent of a band spec")
    _add_spec_flags(p, ("ryser", "expansion"))
    p.set_defaults(handler=_cmd_perm)

    p = sub.add_parser("table", help="census table of a named family")
    p.add_argument("family", choices=permcount._FAMILIES)
    p.add_argument("n_max", type=_int_parse)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("census", help="full weak-excedance census for one order")
    p.add_argument("--n", type=_int_parse, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("check", help="run the differential suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("bench", help="time the closed form against elimination")
    p.add_argument("sizes", help="comma-separated orders, e.g. 64,256,1024")
    p.add_argument("--method", choices=("bareiss", "laplace"), default="bareiss")
    p.add_argument("--k", type=_int_parse, default=2)
    p.add_argument("--l", type=_int_parse, default=1)
    p.add_argument("--a", type=_int_parse, default=1)
    p.add_argument("--b", type=_int_parse, default=2)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SizeLimitError, ValueError, MixedRingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD if isinstance(exc, SizeLimitError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
