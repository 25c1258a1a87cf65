"""Tests of the benchmark itself: seeding, output checks, failure
classification and span coverage.

    python3 -m pytest benchmark/tests -q
"""

import subprocess
from itertools import islice, permutations, product

import pytest

import checker
import run
import workloads
from banddet import band

# The layer spans each workload must exercise, as the benchmark's README maps them.
SPANS_BY_WORKLOAD = {
    "closed-form": [
        "rings.poly_mul", "rings.poly_pow", "rings.int_pow",
        "band.det_factored", "band.expand",
    ],
    "census": [
        "rings.poly_mul", "rings.poly_add", "oracle.ryser_int", "oracle.ryser_poly",
        "permcount.family_table", "permcount.parity_counts",
        "permcount.excedance_census", "permcount.to_dense",
    ],
    "verify": [
        "rings.poly_mul", "band.materialize", "band.det_recurrence",
        "oracle.det_laplace", "oracle.det_bareiss",
    ],
    "cli": ["checks.run_checks", "cli.main"],
}


def first_ops(workload, seed, count):
    return list(islice(workloads.op_stream(workload, seed), count))


def runner_for(workload):
    return (run.Cli if workload == "cli" else run.InProcess)(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_operation_list(workload):
    assert first_ops(workload, 7, 60) == first_ops(workload, 7, 60)
    assert first_ops(workload, 7, 60) != first_ops(workload, 8, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_holds_every_kind(workload):
    size = workloads.round_size(workload)
    ops = first_ops(workload, 3, 4 * size)

    def kind(op):
        return op[1][0] if op[0] == "cli" else op[:2] if op[0] in ("parity", "table") else op[0]

    rounds = [sorted(map(str, map(kind, ops[i : i + size]))) for i in range(0, len(ops), size)]
    assert all(r == rounds[0] for r in rounds)


@pytest.mark.parametrize("workload", ["closed-form", "verify"])
def test_corrupted_closed_form_raises_fail_ratio(workload, monkeypatch):
    runner = runner_for(workload)
    ops = first_ops(workload, 5, 2 * workloads.round_size(workload))
    assert run.fail_ratio([runner.run(op) for op in ops]) == 0

    det_closed = band.det_closed

    def off_by_one(spec):
        value = det_closed(spec)
        return value + value.ring_one()

    monkeypatch.setattr(band, "det_closed", off_by_one)
    records = [runner.run(op) for op in ops]
    assert run.fail_ratio(records) == 1
    assert {r.status for r in records} == {"wrong"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_span_is_called(workload):
    runner = runner_for(workload)
    ops = first_ops(workload, 11, workloads.round_size(workload))
    tracer, replayed = run.traced_replay(runner, workload, ops)
    calls = {name: agg["calls"] for name, agg in tracer.aggregate().items()}
    assert {name: calls[name] for name in SPANS_BY_WORKLOAD[workload] if calls[name] == 0} == {}
    assert all(r.status in ("ok", "render_digits") for r in replayed)
    # the wrappers are gone again
    assert band.det_factored.__module__ == "banddet.band"
    assert not hasattr(band.det_factored, "__wrapped__")


def det_op(n, a, b, *extra):
    return ("cli", ("det", "--n", str(n), "--k", "2", "--l", "1", "--a", str(a), "--b", str(b), *extra))


@pytest.mark.parametrize("extra", [(), ("--format", "json"), ("--method", "recurrence")])
def test_digit_limit_failure_is_render_digits(extra):
    runner = run.Cli(workloads)
    big, small = det_op(20000, 0, 3, *extra), det_op(300, 0, 3, *extra)
    assert workloads.exceeds_digit_limit(big)
    assert not workloads.exceeds_digit_limit(small)
    assert runner.run(big).status == "render_digits"
    assert runner.run(small).status == "ok"


def test_cli_failures_are_exactly_the_oversized_det_outputs():
    runner = run.Cli(workloads)
    for op in first_ops("cli", 2, 2 * workloads.round_size("cli")):
        want = "render_digits" if workloads.exceeds_digit_limit(op) else "ok"
        assert runner.run(op).status == want, op


def completed(op, rc, stdout, stderr=""):
    return subprocess.CompletedProcess(list(op[1]), rc, stdout, stderr)


def test_cli_verdicts():
    op = det_op(5, 1, 0)
    right = checker.band_det(5, 2, 1, 1, 0)
    assert workloads.cli_expected(op) == right

    def verdict(rc, stdout, stderr=""):
        return workloads.cli_verdict(op, completed(op, rc, stdout, stderr), right)

    assert verdict(0, f"method: closed\ndet: {right}\n") == "ok"
    assert verdict(0, f"det: {right + 1}\n") == "wrong"
    assert verdict(0, "spec: truncated\n") == "wrong"
    assert verdict(3, "", "error: refuses order 30") == "other"
    check = ("cli", ("check", "--level", "quick"))
    good = "a-suite: 3 cases, 0 failures\nb: 2 cases, 0 failures\ntotal: 5 cases at level quick\n"
    bad = good.replace("0 failures", "1 failures", 1)
    assert workloads.cli_verdict(check, completed(check, 0, good), None) == "ok"
    assert workloads.cli_verdict(check, completed(check, 0, bad), None) == "wrong"


# ---- the checker against brute force, with no banddet code involved ------


def band_matrix(n, k, l, a, b):
    return [[b if -l < j - i < k else a for j in range(n)] for i in range(n)]


def sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def brute_det_per(m):
    det = per = 0
    for perm in permutations(range(len(m))):
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
        det += sign(perm) * prod
        per += prod
    return det, per


def test_checker_band_values_match_expansion():
    for n in range(1, 7):
        for k, l in product(range(1, n + 3), range(1, 4)):
            for a, b in ((1, 0), (2, -1), (0, 3), (-2, 1)):
                det, per = brute_det_per(band_matrix(n, k, l, a, b))
                assert checker.band_det(n, k, l, a, b) == det, (n, k, l, a, b)
                assert checker.band_permanent(n, k, l, a, b) == per, (n, k, l, a, b)


def test_checker_polynomial_det_matches_integer_points():
    def at(coeffs, x):
        return sum(c * x**i for i, c in enumerate(coeffs))

    for n, k, l in ((1, 1, 1), (5, 2, 1), (7, 3, 2), (9, 9, 1), (8, 2, 2)):
        for a, b in (((1,), (0, 1)), ((-1, 1), (1,)), ((0, -1), (1, 1))):
            coeffs = checker.band_det_poly(n, k, l, a, b)
            for x in (-2, 3):
                assert at(coeffs, x) == checker.band_det(n, k, l, at(a, x), at(b, x))


def test_checker_censuses_match_enumeration():
    for n in range(1, 8):
        per_a = sum(all(p[i] not in (i, i + 1) for i in range(n)) for p in permutations(range(n)))
        per_b = sum(all(abs(p[i] - i) > 1 for i in range(n)) for p in permutations(range(n)))
        assert checker.family_rows("menage-a", n)[-1][1] == per_a
        assert checker.family_rows("menage-b", n)[-1][1] == per_b
        even = [0] * n
        odd = [0] * n
        for p in permutations(range(n)):
            wex = sum(v >= i for i, v in enumerate(p))
            (even if sign(p) > 0 else odd)[wex - 1] += 1
        per, det, ev, od = checker.excedance_census(n)
        assert (list(ev), list(od)) == (even, odd)
        assert per == tuple(e + o for e, o in zip(even, odd))
