import operator

import pytest

from banddet import ExcedanceCensus, Integer, ParityCount, band, checks, permcount
from banddet.checks import run_checks
from banddet.cli import main
from banddet.oracle import det_laplace

QUICK_CASES = {
    "case1-vs-laplace": 560,
    "case2-vs-laplace": 1120,
    "recurrence-vs-case1": 312,
    "fg-closed-vs-laplace": 66,
    "all-b-rows-vs-scan": 220,
    "parity-vs-enumeration": 12,
    "excedance-census-vs-enumeration": 5,
}


def test_quick_level_is_clean():
    report = run_checks("quick")
    assert report.ok
    assert report.cases > 2000
    names = [s.name for s in report.suites]
    assert "case1-vs-laplace" in names
    assert "case2-vs-laplace" in names
    assert {s.name: s.cases for s in report.suites} == QUICK_CASES


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("exhaustive")


def _one_more(value):
    return value + value.ring_one()


def _two_more_members(pc):
    # one more even and one more odd member keeps the census self-consistent
    return ParityCount(pc.even + 1, pc.odd + 1, pc.permanent + 2, pc.determinant)


def _two_more_at_each_k(census):
    return ExcedanceCensus(census.n, tuple(map(_two_more_members, census.rows)))


# corrupted function: (its module, the change to its result, the suite that
# must catch it, the smallest case that suite must report)
CORRUPTIONS = {
    "det_case1": (band, _one_more, "case1-vs-laplace", "n=1 k=1 l=1 a=-2 b=-1"),
    # flip the sign whenever it matters
    "det_case2": (band, operator.neg, "case2-vs-laplace", "n=3 k=2 l=2 a=-2 b=-1"),
    "det_recurrence": (band, _one_more, "recurrence-vs-case1", "n=1 k=1 l=1 a=1 b=0"),
    "f_closed": (band, _one_more, "fg-closed-vs-laplace", "f: n=1 k=1 a=2 b=5"),
    "all_b_row_count": (band, lambda c: c + 1, "all-b-rows-vs-scan", "n=1 k=1 l=1"),
    "parity_counts": (
        permcount, _two_more_members, "parity-vs-enumeration", "family=A n=1"
    ),
    "excedance_census": (
        permcount, _two_more_at_each_k, "excedance-census-vs-enumeration", "n=1"
    ),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_suite_is_caught(monkeypatch, name):
    module, change, suite, smallest = CORRUPTIONS[name]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(real(*args)))
    report = run_checks("quick")
    assert not report.ok
    assert any(s.name == suite and s.failures for s in report.suites)
    assert report.failures[0].startswith(f"{suite}: {smallest} expected=")


def test_case2_zero_residues_must_vanish(monkeypatch):
    # closed form and oracle agree on 1 everywhere, but 1 < p < k+l-1 must give 0
    monkeypatch.setattr(band, "det_case2", lambda *args: Integer(1))
    ones = dict.fromkeys(checks.AB_PAIRS, Integer(1))
    monkeypatch.setattr(checks, "_pair_dets", lambda *shape: ones)
    (case2,) = [s for s in run_checks("quick").suites if s.name == "case2-vs-laplace"]
    assert case2.failures[0] == "n=2 k=2 l=2 a=-2 b=-1 expected=1 got=1"
    zero_shapes = [
        (n, k, l)
        for n in range(2, 8)
        for k in range(2, n + 1)
        for l in range(2, k + 1)
        if n % (k + l - 1) > 1
    ]
    assert len(case2.failures) == len(zero_shapes) * len(checks.AB_PAIRS) == 780


def _case_shapes(n_max):
    """Every (n, k, l) the case1 and case2 suites sweep up to order n_max."""
    case1 = [(n, k, 1) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    case2 = [
        (n, k, l) for n in range(2, n_max + 1) for k in range(2, n + 1) for l in range(2, k + 1)
    ]
    return case1 + case2


def test_pair_dets_matches_laplace_for_every_pair():
    # the determinant lemma behind _pair_dets, on every quick-level case
    shapes = _case_shapes(7)
    assert len(shapes) * len(checks.AB_PAIRS) == (
        QUICK_CASES["case1-vs-laplace"] + QUICK_CASES["case2-vs-laplace"]
    )
    for n, k, l in shapes:
        want = checks._pair_dets(n, k, l)
        assert list(want) == checks.AB_PAIRS
        for a, b in checks.AB_PAIRS:
            spec = band.BandSpec(n, k, l, a, b)
            assert want[a, b] == det_laplace(band.materialize(spec)), (n, k, l, a, b)


def test_case_suites_take_two_laplace_calls_per_shape(monkeypatch):
    calls = []
    real = checks.det_laplace
    monkeypatch.setattr(checks, "det_laplace", lambda m: calls.append(m.n) or real(m))
    run_checks("quick")
    case_calls = 2 * len(_case_shapes(7))
    assert case_calls == 168
    assert len(calls) == case_calls + QUICK_CASES["fg-closed-vs-laplace"]


def test_every_failing_case_is_counted(monkeypatch, capsys):
    real = band.det_case1
    monkeypatch.setattr(band, "det_case1", lambda *args: _one_more(real(*args)))
    failures = {s.name: len(s.failures) for s in run_checks("quick").suites}
    assert failures["case1-vs-laplace"] == QUICK_CASES["case1-vs-laplace"] == 560
    assert failures["recurrence-vs-case1"] == QUICK_CASES["recurrence-vs-case1"] == 312
    assert main(["check", "--level", "quick"]) == 1
    out = capsys.readouterr().out
    assert "case1-vs-laplace: 560 cases, 560 failures\n" in out
    assert "\nFAIL case1-vs-laplace: n=1 k=1 l=1 a=-2 b=-1 expected=" in out
