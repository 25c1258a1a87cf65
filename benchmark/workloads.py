"""The four seeded workloads: how their operations are drawn, run and checked.

An operation is a plain tuple whose first item is its kind.  The stream for
a (workload, seed) pair is a sequence of rounds; every round holds one
operation of each of the workload's kinds, in a seeded order.  Sizes are
stratified: each kind walks through its whole size range (every integer, or
every slice of a log-uniform range) once per pass, in a fresh seeded order
per pass.  A run of a few passes therefore covers each range evenly, which
keeps medians and percentiles steady from seed to seed.

In-process workloads call banddet through module attributes
(``band.det_closed``, not a name bound at import), so a patched function
is what the benchmark measures.  Expected values come from
:mod:`checker`, which imports nothing from banddet.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from banddet import band, oracle, permcount, rings

import checker

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("closed-form", "census", "verify", "cli")
INT_STR_LIMIT = 4300  # CPython's default limit for int -> str conversion
CLI_TIMEOUT_S = 120
_DIGIT_LIMIT = re.compile(r"Exceeds the limit \(\d+ digits\) for integer string conversion")


def _cycle(rng: random.Random, values):
    """Endless draws from `values`, each full pass in a fresh seeded order."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _log_sizes(rng: random.Random, lo: int, hi: int, strata: int = 8):
    """Log-uniform integers in [lo, hi], one from each of `strata` equal
    slices of the log range per pass."""
    width = math.log(hi / lo) / strata
    for s in _cycle(rng, range(strata)):
        yield round(lo * math.exp(width * (s + rng.random())))


def _strip(cs) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


_STEPS = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if abs(x - y) == 1]
# a, b of degree <= 1 with b - a = +-1 +- x: every power (b - a)^(n-1) is a
# dense polynomial with binomial coefficients, so cost depends on n alone
POLY_PAIRS = [
    (_strip((a0, a1)), _strip((b0, b1))) for a0, b0 in _STEPS for a1, b1 in _STEPS
]
INT_PAIRS = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a != b]
EXCEDANCE_A, EXCEDANCE_B = (1,), (0, 1)


def _closed_form_round(rng):
    # two integer specs to three polynomial ones: the median then falls
    # inside the polynomial sizes, not in the sparse gap between the rings.
    # Every cycle's length divides PASS_ROUNDS["closed-form"] = 16.
    n_l1, n_l2 = _log_sizes(rng, 10**3, 10**6), _log_sizes(rng, 10**3, 10**6)
    n_poly, n_exc = _log_sizes(rng, 100, 1500, 16), _log_sizes(rng, 100, 1500, 16)
    # |b - a| sets the cost of (b - a)^(n-1) over the integers
    gaps_l1, gaps_l2 = (_cycle(rng, (1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(2))
    offsets = _cycle(rng, range(-2, 2))
    poly_pairs = _cycle(rng, POLY_PAIRS)
    k_l1 = _cycle(rng, range(1, 5))
    kl_l2 = _cycle(rng, [(2, 2), (3, 2), (4, 2), (4, 4)])
    k_poly = _cycle(rng, range(1, 5))

    def int_spec(n, k, l, gap):
        a = next(offsets)
        return ("closed", n, k, l, a, a + gap)

    def round_():
        n_e = next(n_exc)
        return [
            int_spec(next(n_l1), next(k_l1), 1, next(gaps_l1)),
            int_spec(next(n_l2), *next(kl_l2), next(gaps_l2)),
            ("closed", next(n_poly), next(k_poly), 1, *next(poly_pairs)),
            ("closed", next(n_poly), next(k_poly), 1, *next(poly_pairs)),
            # the weak-excedance spec: b on and above the diagonal, 1 below
            ("closed", n_e, n_e, 1, EXCEDANCE_A, EXCEDANCE_B),
        ]

    return round_


def _census_round(rng):
    parity_n = {f: _cycle(rng, range(8, 18)) for f in ("menage-a", "menage-b")}
    # every size cycle has length 10 = PASS_ROUNDS["census"]
    table_n = {
        "menage-a": _cycle(rng, range(8, 18)),
        "menage-b": _cycle(rng, range(8, 18)),
        "excedance-k2": _cycle(rng, range(3, 13)),
    }
    census_n = _cycle(rng, range(3, 13))

    def round_():
        return (
            [("parity", f, next(ns)) for f, ns in parity_n.items()]
            + [("table", f, next(ns)) for f, ns in table_n.items()]
            + [("census", next(census_n))]
        )

    return round_


def _verify_round(rng):
    # every cycle's length divides PASS_ROUNDS["verify"] = 16
    lap_int_n, lap_poly_n = _cycle(rng, range(5, 13)), _cycle(rng, range(5, 13))
    bareiss_n, rec_n = _log_sizes(rng, 32, 160), _log_sizes(rng, 10**3, 2 * 10**4)
    shapes = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 3)]
    lap_int_shapes, lap_poly_shapes = _cycle(rng, shapes), _cycle(rng, shapes)
    bareiss_shapes = _cycle(rng, shapes[:6] + [(4, 1), (4, 3)])
    rec_k = _cycle(rng, range(2, 6))
    offsets = _cycle(rng, range(-2, 2))
    gaps = _cycle(rng, (1, 2, 3, 4, -1, -2, -3, -4))
    poly_pairs = _cycle(rng, POLY_PAIRS)

    def ints():
        a = next(offsets)
        return a, a + next(gaps)

    def round_():
        return [
            ("laplace", next(lap_int_n), *next(lap_int_shapes), *ints()),
            ("laplace", next(lap_poly_n), *next(lap_poly_shapes), *next(poly_pairs)),
            ("bareiss", next(bareiss_n), *next(bareiss_shapes), *ints()),
            ("recurrence", next(rec_n), next(rec_k), 1, *ints()),
        ]

    return round_


def _cli_round(rng):
    # the costly operations (large det, recurrence, table, check) draw from
    # cycles whose length divides PASS_ROUNDS["cli"] = 8
    det_n, rec_n = _log_sizes(rng, 100, 3 * 10**4), _log_sizes(rng, 100, 3 * 10**4)
    # |b - a| in {2, 3}: large n then overflows the default int -> str limit
    gaps = _cycle(rng, (2, 3, -2, -3))
    offsets = _cycle(rng, range(-2, 2))
    det_shapes = _cycle(rng, [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 3)])
    rec_k = _cycle(rng, range(2, 6))
    perm_n, table_n, census_n = (
        _cycle(rng, range(3, 11)),
        _cycle(rng, range(3, 11)),
        _cycle(rng, range(1, 9)),
    )
    perm_shapes = _cycle(rng, [(k, l) for k in range(1, 4) for l in range(1, k + 1)])
    int_pairs = _cycle(rng, INT_PAIRS)
    # excedance-k2 twice: its table is the one that runs polynomial Ryser
    families = _cycle(rng, ("menage-a", "menage-b", "excedance-k2", "excedance-k2"))

    def spec_args(n, k, l, a, b):
        return ["--n", str(n), "--k", str(k), "--l", str(l), "--a", str(a), "--b", str(b)]

    def det(n, k, l):
        a = next(offsets)
        return ["det", *spec_args(n, k, l, a, a + next(gaps))]

    def round_():
        argvs = [
            det(next(det_n), *next(det_shapes)),
            det(next(det_n), *next(det_shapes)) + ["--format", "json"],
            det(next(rec_n), next(rec_k), 1) + ["--method", "recurrence"],
            ["perm", *spec_args(next(perm_n), *next(perm_shapes), *next(int_pairs))],
            ["table", next(families), str(next(table_n))],
            ["census", "--n", str(next(census_n))],
            ["check", "--level", "quick"],
        ]
        return [("cli", tuple(argv)) for argv in argvs]

    return round_


_ROUNDS = {
    "closed-form": _closed_form_round,
    "census": _census_round,
    "verify": _verify_round,
    "cli": _cli_round,
}


# Rounds per pass: after a whole pass every size stratum (and, for census,
# every size) of the workload's dominant kinds has come up equally often.
# A run ends on a pass boundary, so its mix of sizes does not depend on
# where the clock stopped it.
PASS_ROUNDS = {"closed-form": 16, "census": 10, "verify": 16, "cli": 8}


def round_size(workload: str) -> int:
    return len(_ROUNDS[workload](random.Random(0))())


def pass_size(workload: str) -> int:
    return PASS_ROUNDS[workload] * round_size(workload)


def op_stream(workload: str, seed: int):
    """Endless seeded operation stream for a workload."""
    rng = random.Random(f"{workload}/{seed}")
    make_round = _ROUNDS[workload](rng)
    while True:
        ops = make_round()
        rng.shuffle(ops)
        yield from ops


# ---- in-process operations -------------------------------------------------


def _elem(v):
    return rings.Poly(v) if isinstance(v, tuple) else v


def _plain(x):
    """A ring element as checker data: int, or coefficient tuple."""
    if isinstance(x, rings.Integer):
        return x.value
    if isinstance(x, rings.Poly):
        return x.coeffs
    raise TypeError(f"not a ring element: {type(x).__name__}")


def _spec(n, k, l, a, b):
    return band.BandSpec(n, k, l, _elem(a), _elem(b))


def _menage_matrix(family, n):
    if family == "menage-a":
        return permcount.menage_a_matrix(n)
    return permcount.menage_b_matrix(n)


def execute(op):
    """Run one in-process operation through banddet's public API and return
    its result as plain data.  Verify operations return (oracle, closed)."""
    kind = op[0]
    if kind == "closed":
        return _plain(band.det_closed(_spec(*op[1:])))
    if kind == "parity":
        pc = permcount.parity_counts(_menage_matrix(op[1], op[2]))
        return (pc.permanent, pc.determinant, pc.even, pc.odd)
    if kind == "table":
        return permcount.family_table(op[1], op[2])
    if kind == "census":
        c = permcount.excedance_census(op[1])
        return (c.per_coeffs, c.det_coeffs, c.even, c.odd)
    spec = _spec(*op[1:])
    if kind == "laplace":
        got = oracle.det_laplace(band.materialize(spec))
    elif kind == "bareiss":
        got = oracle.det_bareiss(band.materialize(spec))
    elif kind == "recurrence":
        got = band.det_recurrence(spec.n, spec.k, spec.a, spec.b)
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return _plain(got), _plain(band.det_closed(spec))


def _band_value(n, k, l, a, b):
    if isinstance(a, tuple):
        return checker.band_det_poly(n, k, l, a, b)
    return checker.band_det(n, k, l, a, b)


def expected(op):
    """The checker's answer for an in-process operation."""
    kind = op[0]
    if kind == "parity":
        rows = checker.family_rows(op[1], op[2])
        n, per, det, even, odd = rows[-1]
        return (per, det, even, odd)
    if kind == "table":
        return checker.family_rows(op[1], op[2])
    if kind == "census":
        return checker.excedance_census(op[1])
    return _band_value(*op[1:])


def verdict(op, result, want) -> str:
    """'ok' or 'wrong', given the checker's answer `want`.  A verify
    operation is wrong when the oracle and the closed form disagree, or
    when either differs from the checker."""
    if op[0] in ("laplace", "bareiss", "recurrence"):
        got, closed = result
        return "ok" if got == closed == want else "wrong"
    return "ok" if result == want else "wrong"


# ---- cli operations --------------------------------------------------------


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's src on the path and
    the default int -> str digit limit (PYTHONINTMAXSTRDIGITS unset)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(op, spans_path=None) -> list[str]:
    """The child command for a cli operation; with spans_path it runs
    through the tracing launcher instead of ``python -m banddet.cli``."""
    if spans_path is None:
        return [sys.executable, "-m", "banddet.cli", *op[1]]
    return [sys.executable, str(ROOT / "benchmark" / "launch.py"), str(spans_path), *op[1]]


def run_cli(op, env, spans_path=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        cli_command(op, spans_path),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def _flags(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _spec_ints(argv):
    f = _flags(argv)
    return tuple(int(f[key]) for key in ("n", "k", "l", "a", "b"))


def cli_expected(op):
    """What a correct child prints, as data: an int for det and perm, a
    list of row tuples for table and census, None for check."""
    argv = op[1]
    verb = argv[0]
    if verb == "det":
        return checker.band_det(*_spec_ints(argv))
    if verb == "perm":
        return checker.band_permanent(*_spec_ints(argv))
    if verb == "table":
        return checker.family_rows(argv[1], int(argv[2]))
    if verb == "census":
        n = int(_flags(argv)["n"])
        per, det, even, odd = checker.excedance_census(n)
        return [(k + 1, per[k], det[k], even[k], odd[k]) for k in range(n)]
    return None


def exceeds_digit_limit(op) -> bool:
    """Whether the op's correct answer has more decimal digits than a
    child may convert to a string."""
    return op[1][0] == "det" and len(str(abs(cli_expected(op)))) > INT_STR_LIMIT


def _parse(argv, stdout: str):
    verb = argv[0]
    lines = stdout.splitlines()
    if verb in ("det", "perm"):
        key = "det" if verb == "det" else "per"
        if "--format" in argv:
            return int(json.loads(lines[-1])[key])
        (line,) = [x for x in lines if x.startswith(f"{key}: ")]
        return int(line[len(key) + 2 :])
    if verb in ("table", "census"):
        return [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    raise ValueError(f"no parser for {verb!r}")


def _check_report_ok(stdout: str) -> bool:
    lines = stdout.splitlines()
    suites = [re.fullmatch(r"[\w-]+: (\d+) cases, (\d+) failures", x) for x in lines[:-1]]
    total = re.fullmatch(r"total: (\d+) cases at level quick", lines[-1]) if lines else None
    return (
        bool(suites)
        and all(m and m.group(2) == "0" for m in suites)
        and total is not None
        and int(total.group(1)) == sum(int(m.group(1)) for m in suites)
    )


def cli_verdict(op, proc: subprocess.CompletedProcess, want) -> str:
    """'ok', 'wrong' (exit 0 with a wrong or unreadable answer),
    'render_digits' (the digit-limit error from int -> str) or 'other'."""
    if proc.returncode != 0:
        return "render_digits" if _DIGIT_LIMIT.search(proc.stderr) else "other"
    argv = op[1]
    if argv[0] == "check":
        return "ok" if _check_report_ok(proc.stdout) else "wrong"
    try:
        got = _parse(argv, proc.stdout)
    except (ValueError, IndexError, KeyError):
        return "wrong"
    return "ok" if got == want else "wrong"
