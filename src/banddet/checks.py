"""Differential and invariant suites behind the `check` CLI verb.

Each suite is a generator of cases: it walks a parameter grid
smallest-first and compares a closed form against an independent
computation.  One sweep counts the cases and keeps every failure, the
first (smallest) one first.  Closed forms are looked up through the
module object so a corrupted implementation is observable here.
"""

from __future__ import annotations

from . import band, permcount
from .errors import _Record
from .oracle import det_laplace

__all__ = ["SuiteResult", "CheckReport", "run_checks"]

AB_PAIRS = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a != b]


class SuiteResult(_Record):
    __slots__ = ("name", "cases", "failures")


class CheckReport(_Record):
    __slots__ = ("level", "suites")

    cases = property(lambda self: sum(s.cases for s in self.suites))
    failures = property(lambda self: [f"{s.name}: {f}" for s in self.suites for f in s.failures])
    ok = property(lambda self: not self.failures)


def _sweep(name: str, cases) -> SuiteResult:
    """Run a suite's (label, got, want, ok) cases and count them."""
    cases = list(cases)
    # suites run smallest-first, so the first failure kept is the minimal one
    bad = (f"{label} expected={want} got={got}" for label, got, want, ok in cases if not ok)
    return SuiteResult(name, len(cases), tuple(bad))


def _pair_dets(n: int, k: int, l: int) -> dict:
    """det(aJ + (b-a)B) of shape (n, k, l) for every pair in AB_PAIRS, by the
    matrix determinant lemma det(aJ + cB) = c^n d + a c^(n-1) s from two
    Laplace determinants: d = det B and s = 1^T adj(B) 1 = det(J + B) - d."""
    d = det_laplace(band.materialize(band.BandSpec(n, k, l, 0, 1)))
    s = det_laplace(band.materialize(band.BandSpec(n, k, l, 1, 2))) - d
    return {(a, b): d * (b - a) ** n + s * (a * (b - a) ** (n - 1)) for a, b in AB_PAIRS}


def _case1_cases(n_max: int):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            want = _pair_dets(n, k, 1)
            for a, b in AB_PAIRS:
                got = band.det_case1(n, k, a, b)
                yield f"n={n} k={k} l=1 a={a} b={b}", got, want[a, b], got == want[a, b]


def _case2_cases(n_max: int):
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            for l in range(2, k + 1):
                p = n % (k + l - 1)
                want = _pair_dets(n, k, l)
                for a, b in AB_PAIRS:
                    got = band.det_case2(n, k, l, a, b)
                    # the paper's claim, apart from agreement: 1 < p < k+l-1 gives 0
                    ok = got == want[a, b] and (p <= 1 or got.is_zero())
                    yield f"n={n} k={k} l={l} a={a} b={b}", got, want[a, b], ok


def _recurrence_cases(n_max: int):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for a, b in ((1, 0), (0, 1), (2, 5), (-1, 2)):
                got = band.det_recurrence(n, k, a, b)
                want = band.det_case1(n, k, a, b)
                yield f"n={n} k={k} l=1 a={a} b={b}", got, want, got == want


def _fg_cases(n_max: int):
    for n in range(1, n_max + 1):
        for a, b in ((2, 5), (1, 0), (-1, 2)):
            got = band.g_closed(n, a, b)
            want = det_laplace(band.materialize(band.BandSpec(n, n, 1, a, b)))
            yield f"g: n={n} a={a} b={b}", got, want, got == want
            for k in range(1, n) if n > 1 else (1,):
                got = band.f_closed(n, a, b)
                want = det_laplace(band.bordered_matrix(n, k, a, b))
                yield f"f: n={n} k={k} a={a} b={b}", got, want, got == want


def _row_count_cases(n_max: int):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for l in range(1, k + 1):
                # the rows with no outside entry: 1 inside the window, 0 outside
                scan = sum(0 not in row for row in band.band_rows(n, k, l, 1, 0))
                got = band.all_b_row_count(band.BandSpec(n, k, l, 1, 0))
                yield f"n={n} k={k} l={l}", got, scan, got == scan


def _parity_cases(n_max: int):
    for n in range(1, n_max + 1):
        for name, mk in (("A", permcount.menage_a_matrix), ("B", permcount.menage_b_matrix)):
            A = mk(n)
            got = permcount.parity_counts(A)
            want = permcount.brute_force_parity(A)
            yield f"family={name} n={n}", got, want, got == want


def _census_cases(n_max: int):
    for n in range(1, n_max + 1):
        got = permcount.excedance_census(n)
        want = permcount.brute_force_excedance_census(n)
        yield f"n={n}", got, want, got == want


# orders per level: closed forms vs Laplace, f/g lemmas, parity and census enumeration
_LEVELS = {"quick": (7, 6, 6, 5), "full": (9, 8, 9, 9)}


def run_checks(level: str = "quick") -> CheckReport:
    """Run every suite at the requested depth and collect the results."""
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}")
    t_max, fg_max, enum_max, census_max = _LEVELS[level]
    suites = (
        _sweep("case1-vs-laplace", _case1_cases(t_max)),
        _sweep("case2-vs-laplace", _case2_cases(t_max)),
        _sweep("recurrence-vs-case1", _recurrence_cases(12)),
        _sweep("fg-closed-vs-laplace", _fg_cases(fg_max)),
        _sweep("all-b-rows-vs-scan", _row_count_cases(10)),
        _sweep("parity-vs-enumeration", _parity_cases(enum_max)),
        _sweep("excedance-census-vs-enumeration", _census_cases(census_max)),
    )
    return CheckReport(level, suites)
