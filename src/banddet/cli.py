"""Command-line front end.

Verbs: det (closed-form or oracle determinant of a band spec), perm
(permanent of the materialized spec), table (the three census tables),
census (full weak-excedance census for one order), check (differential
suites), bench (closed form vs elimination timings).

Exit codes: 0 success, 1 check failure, 2 usage error, 3 size guard,
141 (128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import os
import sys

# census and check code, and json, load in the verbs that use them
from . import band, oracle
from .errors import MixedRingError, SizeLimitError
from .rings import _int_parse, _int_str, element_to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141


def _dumps(obj) -> str:
    import json

    return json.dumps(obj)


def _spec_line(spec) -> str:
    return f"spec: n={spec.n} k={spec.k} l={spec.l} a={spec.a} b={spec.b}"


def integer(text: str) -> int:
    """Every integer flag's type: its name is what argparse's usage error prints."""
    return _int_parse(text)


def integers(text: str) -> list[int]:
    """bench's comma-separated sizes, each item read by `integer` and a bad
    one reported in `integer`'s words, under the usage line."""
    sizes = []
    for item in text.split(","):
        try:
            sizes.append(integer(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer value: {item!r}") from None
    return sizes


# dense --method -> (its oracle's name in `oracle`, its size guard): the
# oracle's own, or DENSE for Bareiss, which has none of its own
_DENSE = {
    "laplace": ("det_laplace", "LAPLACE"),
    "bareiss": ("det_bareiss", "DENSE"),
    "ryser": ("permanent_ryser", "RYSER_INT"),
    "expansion": ("permanent_expansion", "ENUM"),
}


def _dense(method: str, spec, order: int):
    """The oracle of a dense method, looked up on `oracle` now, and spec's
    matrix, built only once the method's guard admits `order` (and, for
    Bareiss, DENSE_BITS `order` times the bits of the larger entry): a
    refusal costs nothing and names the oracle."""
    name, guard = _DENSE[method]
    oracle.check_size(guard, order, name)
    if method == "bareiss":
        bits = max(abs(spec.a.value), abs(spec.b.value)).bit_length()
        oracle.check_size("DENSE_BITS", order * bits, name, "n * entry bits")
    return getattr(oracle, name), band.materialize(spec)


def _cmd_det(args) -> int:
    spec = band.BandSpec(args.n, args.k, args.l, args.a, args.b)
    res = band.residue(spec)
    factored = None
    if args.method in ("closed", "recurrence"):
        if args.method == "recurrence" and spec.l != 1:
            raise ValueError("--method recurrence applies only to l = 1 specs")
        # the answer's size from its factored form, checked before any power
        f = band.det_factored(spec)
        bits = f.exponent * f.base.value.bit_length() + f.tail.value.bit_length()
        oracle.check_size("OUTPUT_BITS", bits, f"det_{args.method}", "output bits")
        if args.method == "closed":
            factored, value = f, f.expand()
        else:
            value = band.det_recurrence(spec.n, spec.k, spec.a, spec.b)
    else:
        run, m = _dense(args.method, spec, spec.n)
        value = run(m)
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
        print(_dumps(out))
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
    run, m = _dense(args.method, spec, spec.n)
    value = run(m)
    if args.format == "json":
        out = band.spec_to_json(spec)
        out.update(method=args.method, per=element_to_json(value))
        print(_dumps(out))
    else:
        print(f"{_spec_line(spec)}\nmethod: {args.method}\nper: {value}")
    return EXIT_OK


def _emit_rows(keys, rows, fmt: str, **fixed) -> None:
    """Print rows as CSV under a header of keys, or as JSON lines that
    start with the `fixed` fields; in JSON the first column stays a number
    and the others are decimal strings.  Values of any size render, by
    _int_str.  Printed once, after rendering."""
    if fmt == "json":
        lines = []
        for row in rows:
            obj = {**fixed, keys[0]: row[0]}
            for key, value in zip(keys[1:], row[1:]):
                obj[key] = _int_str(value)
            lines.append(_dumps(obj))
    else:
        lines = [",".join(keys)] + [",".join(map(_int_str, row)) for row in rows]
    print("\n".join(lines))


def _cmd_table(args) -> int:
    from . import permcount

    rows = permcount.family_table(args.family, args.n_max)
    _emit_rows(permcount._FAMILIES[args.family][-1], rows, args.format)
    return EXIT_OK


def _cmd_census(args) -> int:
    from . import permcount

    c = permcount.excedance_census(args.n)
    rows = ((k, r.permanent, r.determinant, r.even, r.odd) for k, r in enumerate(c.rows, 1))
    _emit_rows(("k", "T", "c", "even", "odd"), rows, args.format, n=c.n)
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import checks

    report = checks.run_checks(args.level)
    for suite in report.suites:
        print(f"{suite.name}: {suite.cases} cases, {len(suite.failures)} failures")
    print(f"total: {report.cases} cases at level {report.level}")
    if not report.ok:
        print(f"FAIL {report.failures[0]}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_bench(args) -> int:
    import time

    # every spec first, so a bad order or width is refused before any work
    specs = [band.BandSpec(n, args.k, args.l, args.a, args.b) for n in args.sizes]
    # printed once, after every order agrees: a disagreement leaves stdout empty
    lines = ["n,closed_seconds,method,method_seconds,agree"]
    for spec in specs:
        # the guard checks the largest order, so it refuses before any work
        run, m = _dense(args.method, spec, max(args.sizes))
        t0 = time.perf_counter()
        closed = band.det_closed(spec)
        t_closed = time.perf_counter() - t0
        t0 = time.perf_counter()
        other = run(m)
        t_other = time.perf_counter() - t0
        if closed != other:
            print(f"error: methods disagree at n={spec.n}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        lines.append(f"{spec.n},{t_closed:.6f},{args.method},{t_other:.6f},true")
    print("\n".join(lines))
    return EXIT_OK


def _add_spec_flags(p, methods) -> None:
    """The flags of a verb that reads one band spec: the spec itself, the
    method (the first one is the default) and the output format."""
    for flag in ("--n", "--k", "--l"):
        p.add_argument(flag, type=integer, required=True)
    p.add_argument("--a", type=integer, required=True, help="off-band value")
    p.add_argument("--b", type=integer, required=True, help="in-band value")
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
    p.add_argument("family", choices=band._FAMILY_NAMES)
    p.add_argument("n_max", type=integer)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("census", help="full weak-excedance census for one order")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("check", help="run the differential suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("bench", help="time the closed form against elimination")
    p.add_argument("sizes", type=integers, help="comma-separated orders, e.g. 32,72,160")
    p.add_argument("--method", choices=("bareiss", "laplace"), default="bareiss")
    for flag, default in (("--k", 2), ("--l", 1), ("--a", 1), ("--b", 2)):
        p.add_argument(flag, type=integer, default=default)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # interpreter's last flush stays silent, and the status is a filter's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (SizeLimitError, ValueError, MixedRingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD if isinstance(exc, SizeLimitError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
