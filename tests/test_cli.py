import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from banddet import BandSpec, band, det_closed, menage_a_permanent_rec, oracle, rings
from banddet.cli import main

from reference_tables import MENAGE_A, MENAGE_B, EXCEDANCE_K2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_closed(self, capsys):
        code, out, _ = run(capsys, "det", "--n", "10", "--k", "2", "--l", "2", "--a", "1", "--b", "0")
        assert code == 0
        assert "det: 3" in out
        assert "case: 2" in out

    def test_factored_all_b(self, capsys):
        code, out, _ = run(capsys, "det", "--n", "5", "--k", "5", "--l", "1", "--a", "1", "--b", "0")
        assert code == 0
        assert "factored: (-1)^4 * 0" in out
        assert "det: 0" in out

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("closed", "recurrence", "laplace", "bareiss"):
            code, out, _ = run(
                capsys, "det", "--n", "8", "--k", "3", "--l", "1",
                "--a", "1", "--b", "2", "--method", method,
            )
            assert code == 0
            values[method] = [l for l in out.splitlines() if l.startswith("det: ")][0]
        assert len(set(values.values())) == 1

    def test_case2_methods_agree(self, capsys):
        for method in ("closed", "bareiss"):
            code, out, _ = run(
                capsys, "det", "--n", "8", "--k", "3", "--l", "2",
                "--a", "1", "--b", "2", "--method", method,
            )
            assert code == 0
            assert "det: -3" in out or "det: " in out
        code1, out1, _ = run(capsys, "det", "--n", "8", "--k", "3", "--l", "2", "--a", "1", "--b", "2")
        code2, out2, _ = run(capsys, "det", "--n", "8", "--k", "3", "--l", "2", "--a", "1", "--b", "2", "--method", "bareiss")
        det1 = [l for l in out1.splitlines() if l.startswith("det: ")]
        det2 = [l for l in out2.splitlines() if l.startswith("det: ")]
        assert det1 == det2

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "det", "--n", "10", "--k", "2", "--l", "2",
            "--a", "1", "--b", "0", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["det"] == "3"
        assert obj["case"] == 2
        assert obj["a"] == "1"

    def test_render_error_prints_no_partial_answer(self, capsys, monkeypatch):
        def fail(x):
            raise ValueError("cannot render")

        monkeypatch.setattr(rings, "_int_str", fail)
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "det", "--n", "20000", "--k", "2", "--l", "1",
                "--a", "1", "--b", "3", "--format", fmt,
            )
            assert code != 0
            assert out == ""
            assert "error" in err

    def test_exact_beyond_the_digit_limit(self, capsys):
        # det = 2^19999 * 10002 has 6025 digits, more than int -> str allows at 4300
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            (code, text, _), (code_json, js, _) = [
                run(
                    capsys, "det", "--n", "20000", "--k", "2", "--l", "1",
                    "--a", "1", "--b", "3", "--format", fmt,
                )
                for fmt in ("text", "json")
            ]
            sys.set_int_max_str_digits(0)
            want = str(2**19999 * 10002)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == code_json == 0
        assert text.splitlines()[-1] == f"det: {want}"
        assert json.loads(js)["det"] == want

    def test_recurrence_requires_l1(self, capsys):
        code, _, err = run(
            capsys, "det", "--n", "6", "--k", "2", "--l", "2",
            "--a", "1", "--b", "0", "--method", "recurrence",
        )
        assert code == 2
        assert "error" in err

    def test_invalid_spec(self, capsys):
        code, _, err = run(capsys, "det", "--n", "4", "--k", "2", "--l", "1", "--a", "1", "--b", "1")
        assert code == 2
        assert "differ" in err

    def test_guard_violation(self, capsys):
        code, _, err = run(
            capsys, "det", "--n", "20", "--k", "2", "--l", "1",
            "--a", "1", "--b", "0", "--method", "laplace",
        )
        assert code == 3
        assert "limit" in err

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--n", "4", "--k", "2", "--l", "1", "--a", "1", "--b", "0", "--frobnicate"])
        assert exc.value.code == 2


class TestPerm:
    def test_menage_a5(self, capsys):
        code, out, _ = run(capsys, "perm", "--n", "5", "--k", "2", "--l", "1", "--a", "1", "--b", "0")
        assert code == 0
        assert "per: 16" in out

    def test_expansion_agrees(self, capsys):
        _, out_r, _ = run(capsys, "perm", "--n", "6", "--k", "2", "--l", "2", "--a", "1", "--b", "0")
        _, out_e, _ = run(capsys, "perm", "--n", "6", "--k", "2", "--l", "2", "--a", "1", "--b", "0", "--method", "expansion")
        per_r = [l for l in out_r.splitlines() if l.startswith("per: ")]
        per_e = [l for l in out_e.splitlines() if l.startswith("per: ")]
        assert per_r == per_e == ["per: 29"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "perm", "--n", "10", "--k", "2", "--l", "2", "--a", "1", "--b", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["per"] == "159737"


class TestTable:
    def test_menage_a_csv(self, capsys):
        code, out, _ = run(capsys, "table", "menage-a", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,per,det,even,odd"
        assert lines[-1] == "10,488592,-4,244294,244298"
        for row, line in zip(MENAGE_A, lines[1:]):
            assert line == ",".join(str(v) for v in row)

    def test_menage_b_csv(self, capsys):
        _, out, _ = run(capsys, "table", "menage-b", "10")
        assert out.splitlines()[-1] == "10,159737,3,79870,79867"

    def test_excedance_csv(self, capsys):
        _, out, _ = run(capsys, "table", "excedance-k2", "10")
        lines = out.splitlines()
        assert lines[0] == "n,T,c,even,odd"
        assert lines[-1] == "10,1013,9,511,502"
        for row, line in zip(EXCEDANCE_K2, lines[1:]):
            assert line == ",".join(str(v) for v in row)

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "table", "menage-b", "9")
        _, second, _ = run(capsys, "table", "menage-b", "9")
        assert first == second

    def test_json_rows_use_decimal_strings(self, capsys):
        _, out, _ = run(capsys, "table", "menage-b", "10", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[-1] == {"n": 10, "per": "159737", "det": "3", "even": "79870", "odd": "79867"}
        for row, want in zip(rows, MENAGE_B):
            assert (row["n"], int(row["per"]), int(row["det"]), int(row["even"]), int(row["odd"])) == want

    def test_guard_exit(self, capsys):
        over = oracle.size_limit("TRANSFER") + 1
        code, _, err = run(capsys, "table", "menage-a", str(over))
        assert code == 3
        assert "limit" in err

    def test_menage_a_past_the_ryser_limit(self, capsys):
        code, out, _ = run(capsys, "table", "menage-a", "25")
        assert code == 0
        rows = [tuple(int(v) for v in line.split(",")) for line in out.splitlines()[1:]]
        assert [row[1] for row in rows] == [menage_a_permanent_rec(n) for n in range(1, 26)]
        assert [row[0] for row in rows] == list(range(1, 26))

    # the family names reach argparse before any census code is loaded;
    # these pin what argparse makes of them, byte for byte
    TABLE_USAGE = (
        "usage: banddet table [-h] [--format {csv,json}]\n"
        "                     {menage-a,menage-b,excedance-k2} n_max\n"
    )

    def test_help_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["table", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == self.TABLE_USAGE + (
            "\n"
            "positional arguments:\n"
            "  {menage-a,menage-b,excedance-k2}\n"
            "  n_max\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {csv,json}\n"
        )

    def test_unknown_family_usage_error_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["table", "bogus", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", self.TABLE_USAGE + (
            "banddet table: error: argument family: invalid choice: 'bogus' "
            "(choose from 'menage-a', 'menage-b', 'excedance-k2')\n"
        ))


class TestCensus:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,T,c,even,odd"
        assert lines[1:] == ["1,1,-1,0,1", "2,11,3,7,4", "3,11,-3,4,7", "4,1,1,1,0"]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "census", "--n", "4", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1] == {"n": 4, "k": 2, "T": "11", "c": "3", "even": "7", "odd": "4"}


class TestCheck:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--level", "quick")
        assert code == 0
        assert "0 failures" in out

    def test_corruption_fails_with_located_case(self, capsys, monkeypatch):
        real = band.det_case2

        def corrupted(n, k, l, a, b):
            return -real(n, k, l, a, b)

        monkeypatch.setattr(band, "det_case2", corrupted)
        code, out, _ = run(capsys, "check", "--level", "quick")
        assert code == 1
        fail_line = [l for l in out.splitlines() if l.startswith("FAIL")][0]
        assert "n=" in fail_line and "k=" in fail_line and "l=" in fail_line


class TestBench:
    def test_order_one(self, capsys):
        code, out, _ = run(capsys, "bench", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,closed_seconds,method,method_seconds,agree"
        assert lines[1].startswith("1,") and lines[1].endswith(",true")

    def test_small_sizes_agree(self, capsys):
        code, out, _ = run(capsys, "bench", "4,9,16")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith(",true")

    def test_laplace_guard(self, capsys):
        code, _, err = run(capsys, "bench", "20", "--method", "laplace")
        assert code == 3
        assert "limit" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "0")
        assert code == 2

    @pytest.mark.parametrize("sizes", ["4,,9", "4,", ",4"])
    def test_empty_size_field_is_a_usage_error(self, capsys, sizes):
        with pytest.raises(SystemExit) as exc:
            main(["bench", sizes])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: banddet bench")
        assert err.splitlines()[-1] == "banddet bench: error: argument sizes: invalid integer value: ''"

    def test_disagreement_prints_no_rows(self, capsys, monkeypatch):
        real = band.det_closed

        def corrupted(spec):
            value = real(spec)
            return value + value.ring_one() if spec.n == 9 else value

        monkeypatch.setattr(band, "det_closed", corrupted)
        code, out, err = run(capsys, "bench", "4,9")
        assert code == 1
        assert out == ""
        assert err == "error: methods disagree at n=9\n"


def _no_matrix(spec):
    raise AssertionError("a refused run must not build the matrix")


class TestGuardsBeforeMatrix:
    @pytest.fixture(autouse=True)
    def default_limits(self, monkeypatch):
        for name in ("LAPLACE", "RYSER_INT", "ENUM", "DENSE", "DENSE_BITS"):
            monkeypatch.delenv(f"BANDDET_LIMIT_{name}", raising=False)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("perm", "--method", "ryser"),
                "permanent_ryser refuses order 3000 (limit 20; "
                "set BANDDET_LIMIT_RYSER_INT to override)",
            ),
            (
                ("perm", "--method", "expansion"),
                "permanent_expansion refuses order 3000 (limit 9; "
                "set BANDDET_LIMIT_ENUM to override)",
            ),
            (
                ("det", "--method", "laplace"),
                "det_laplace refuses order 3000 (limit 12; "
                "set BANDDET_LIMIT_LAPLACE to override)",
            ),
            (
                ("det", "--method", "bareiss"),
                "det_bareiss refuses order 3000 (limit 200; "
                "set BANDDET_LIMIT_DENSE to override)",
            ),
        ],
        ids=["perm-ryser", "perm-expansion", "det-laplace", "det-bareiss"],
    )
    def test_refuses_without_building_the_matrix(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(band, "materialize", _no_matrix)
        spec = ("--n", "3000", "--k", "2", "--l", "1", "--a", "1", "--b", "0")
        code, out, err = run(capsys, *argv, *spec)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    def test_bench_bareiss_refuses_without_building_a_matrix(self, capsys, monkeypatch):
        monkeypatch.setattr(band, "materialize", _no_matrix)
        code, out, err = run(capsys, "bench", "4,3000")
        assert code == 3
        assert out == ""
        assert err == (
            "error: det_bareiss refuses order 3000 (limit 200; "
            "set BANDDET_LIMIT_DENSE to override)\n"
        )

    # 200 * 251 bits is over the DENSE_BITS default of 50,000, 200 * 250 exactly at it
    @pytest.mark.parametrize("verb", ["det", "bench"])
    def test_bareiss_refuses_large_entries_without_building_a_matrix(self, capsys, monkeypatch, verb):
        monkeypatch.setattr(band, "materialize", _no_matrix)
        args = ("det", "--n", "200", "--k", "2", "--l", "1") if verb == "det" else ("bench", "4,200")
        code, out, err = run(capsys, *args, "--a", "1", "--b", str(-(2**250)), "--method", "bareiss")
        assert code == 3
        assert out == ""
        assert err == (
            "error: det_bareiss refuses n * entry bits 50200 (limit 50000; "
            "set BANDDET_LIMIT_DENSE_BITS to override)\n"
        )

    def test_bareiss_admits_entries_at_the_bits_limit(self, capsys):
        b = -(2**250 - 1)
        spec = ("--n", "200", "--k", "2", "--l", "1", "--a", "1", "--b", str(b))
        code, out, _ = run(capsys, "det", *spec, "--method", "bareiss")
        assert code == 0
        assert out.splitlines()[-1] == f"det: {det_closed(BandSpec(200, 2, 1, 1, b))}"

    def test_bench_refuses_before_printing(self, capsys):
        code, out, err = run(capsys, "bench", "4,20", "--method", "laplace")
        assert code == 3
        assert out == ""
        assert err == (
            "error: det_laplace refuses order 20 (limit 12; "
            "set BANDDET_LIMIT_LAPLACE to override)\n"
        )


def _no_power(*args):
    raise AssertionError("a refused run must not raise any power")


class TestOutputBits:
    """det --method closed and recurrence check the answer's estimated bits,
    (n-1) * bits(b-a) + bits(tail), before any power is taken."""

    @pytest.fixture(autouse=True)
    def default_limit(self, monkeypatch):
        monkeypatch.delenv("BANDDET_LIMIT_OUTPUT_BITS", raising=False)

    @pytest.mark.parametrize("method", ["closed", "recurrence"])
    def test_refuses_before_any_power(self, capsys, monkeypatch, method):
        monkeypatch.setattr(rings.Integer, "__pow__", _no_power)
        monkeypatch.setattr(band, "det_recurrence", _no_power)
        # 99,999,999 * bits(2) + bits(3 + 49,999,999 * 1) = 199,999,998 + 26
        spec = ("--n", "100000000", "--k", "2", "--l", "1", "--a", "1", "--b", "3")
        code, out, err = run(capsys, "det", *spec, "--method", method)
        assert (code, out) == (3, "")
        assert err == (
            f"error: det_{method} refuses output bits 200000024 (limit 5000000; "
            "set BANDDET_LIMIT_OUTPUT_BITS to override)\n"
        )

    @pytest.mark.parametrize("method", ["closed", "recurrence"])
    def test_limit_is_inclusive(self, capsys, monkeypatch, method):
        # 10 * bits(2) + bits(3 + 5 * 1) = 24
        spec = ("--n", "11", "--k", "2", "--l", "1", "--a", "1", "--b", "3", "--method", method)
        monkeypatch.setenv("BANDDET_LIMIT_OUTPUT_BITS", "24")
        assert run(capsys, "det", *spec)[0] == 0
        monkeypatch.setenv("BANDDET_LIMIT_OUTPUT_BITS", "23")
        assert run(capsys, "det", *spec)[:2] == (3, "")

    @pytest.mark.parametrize("method", ["closed", "recurrence"])
    @pytest.mark.parametrize("a, b", [(-2, 1), (1, -2), (1, 4)])
    def test_admits_the_largest_cli_workload_det(self, capsys, method, a, b):
        spec = ("--n", "30000", "--k", "2", "--l", "1", "--a", str(a), "--b", str(b))
        code, out, _ = run(capsys, "det", *spec, "--method", method)
        assert code == 0
        assert out.splitlines()[-1] == f"det: {det_closed(BandSpec(30000, 2, 1, a, b))}"

    def test_the_library_is_not_guarded(self, monkeypatch):
        monkeypatch.setenv("BANDDET_LIMIT_OUTPUT_BITS", "0")
        assert det_closed(BandSpec(11, 2, 1, 1, 3)) == rings.Integer(2**10 * 8)
        assert band.det_recurrence(11, 2, 1, 3) == rings.Integer(2**10 * 8)


# exact stdout and exit code of successful runs, pinned byte for byte
GOLDEN = [
    ("det --n 8 --k 3 --l 1 --a 1 --b 2", 0,
     "spec: n=8 k=3 l=1 a=1 b=2\ncase: 1 (l=1), p=2, quotient=2\nmethod: closed\n"
     "factored: (1)^7 * 4\ndet: 4\n"),
    ("det --n 8 --k 3 --l 1 --a 1 --b 2 --format json", 0,
     '{"n": 8, "k": 3, "l": 1, "a": "1", "b": "2", "case": 1, "p": 2, "quotient": 2, '
     '"method": "closed", "det": "4", "factored": "(1)^7 * 4"}\n'),
    ("det --n 5 --k 5 --l 1 --a 1 --b 0", 0,
     "spec: n=5 k=5 l=1 a=1 b=0\ncase: 1 (l=1), p=5, quotient=0\nmethod: closed\n"
     "factored: (-1)^4 * 0\ndet: 0\n"),
    ("det --n 7 --k 3 --l 1 --a -3 --b 2", 0,
     "spec: n=7 k=3 l=1 a=-3 b=2\ncase: 1 (l=1), p=1, quotient=2\nmethod: closed\n"
     "factored: (5)^6 * -4\ndet: -62500\n"),
    ("det --n 10 --k 2 --l 2 --a 1 --b 0", 0,
     "spec: n=10 k=2 l=2 a=1 b=0\ncase: 2 (l>1), p=1, quotient=3\nmethod: closed\n"
     "factored: -1 * (-1)^9 * 3\ndet: 3\n"),
    ("det --n 10 --k 2 --l 2 --a 1 --b 0 --format json", 0,
     '{"n": 10, "k": 2, "l": 2, "a": "1", "b": "0", "case": 2, "p": 1, "quotient": 3, '
     '"method": "closed", "det": "3", "factored": "-1 * (-1)^9 * 3"}\n'),
    ("det --n 8 --k 3 --l 2 --a 1 --b 2", 0,
     "spec: n=8 k=3 l=2 a=1 b=2\ncase: 2 (l>1), p=0, quotient=2\nmethod: closed\n"
     "factored: (1)^7 * 3\ndet: 3\n"),
    ("det --n 9 --k 3 --l 2 --a 1 --b 0", 0,
     "spec: n=9 k=3 l=2 a=1 b=0\ncase: 2 (l>1), p=1, quotient=2\nmethod: closed\n"
     "factored: (-1)^8 * 2\ndet: 2\n"),
    ("det --n 7 --k 2 --l 3 --a -2 --b 1", 0,
     "spec: n=7 k=3 l=2 a=-2 b=1\ncase: 2 (l>1), p=3, quotient=1\nmethod: closed\n"
     "factored: (3)^6 * 0\ndet: 0\n"),
    ("det --n 7 --k 2 --l 3 --a -2 --b 1 --format json", 0,
     '{"n": 7, "k": 3, "l": 2, "a": "-2", "b": "1", "case": 2, "p": 3, "quotient": 1, '
     '"method": "closed", "det": "0", "factored": "(3)^6 * 0"}\n'),
    ("det --n 8 --k 3 --l 1 --a 1 --b 2 --method recurrence", 0,
     "spec: n=8 k=3 l=1 a=1 b=2\ncase: 1 (l=1), p=2, quotient=2\nmethod: recurrence\n"
     "det: 4\n"),
    ("det --n 8 --k 3 --l 1 --a 1 --b 2 --method recurrence --format json", 0,
     '{"n": 8, "k": 3, "l": 1, "a": "1", "b": "2", "case": 1, "p": 2, "quotient": 2, '
     '"method": "recurrence", "det": "4"}\n'),
    ("det --n 8 --k 3 --l 1 --a 1 --b 2 --method laplace", 0,
     "spec: n=8 k=3 l=1 a=1 b=2\ncase: 1 (l=1), p=2, quotient=2\nmethod: laplace\n"
     "det: 4\n"),
    ("det --n 8 --k 3 --l 2 --a 1 --b 2 --method laplace --format json", 0,
     '{"n": 8, "k": 3, "l": 2, "a": "1", "b": "2", "case": 2, "p": 0, "quotient": 2, '
     '"method": "laplace", "det": "3"}\n'),
    ("det --n 8 --k 3 --l 2 --a 1 --b 2 --method bareiss", 0,
     "spec: n=8 k=3 l=2 a=1 b=2\ncase: 2 (l>1), p=0, quotient=2\nmethod: bareiss\n"
     "det: 3\n"),
    ("det --n 8 --k 3 --l 2 --a 1 --b 2 --method bareiss --format json", 0,
     '{"n": 8, "k": 3, "l": 2, "a": "1", "b": "2", "case": 2, "p": 0, "quotient": 2, '
     '"method": "bareiss", "det": "3"}\n'),
    ("perm --n 6 --k 2 --l 2 --a 1 --b 0", 0,
     "spec: n=6 k=2 l=2 a=1 b=0\nmethod: ryser\nper: 29\n"),
    ("perm --n 6 --k 2 --l 2 --a 1 --b 0 --method expansion", 0,
     "spec: n=6 k=2 l=2 a=1 b=0\nmethod: expansion\nper: 29\n"),
    ("perm --n 5 --k 2 --l 1 --a -1 --b 2 --format json", 0,
     '{"n": 5, "k": 2, "l": 1, "a": "-1", "b": "2", "method": "ryser", "per": "-66"}\n'),
    ("table menage-a 6", 0,
     "n,per,det,even,odd\n1,0,0,0,0\n2,0,0,0,0\n3,1,1,1,0\n4,3,-1,1,2\n"
     "5,16,2,9,7\n6,96,-2,47,49\n"),
    ("table menage-b 6", 0,
     "n,per,det,even,odd\n1,0,0,0,0\n2,0,0,0,0\n3,0,0,0,0\n4,1,1,1,0\n"
     "5,4,0,2,2\n6,29,-1,14,15\n"),
    ("table excedance-k2 6", 0,
     "n,T,c,even,odd\n1,0,0,0,0\n2,1,1,1,0\n3,4,-2,1,3\n4,11,3,7,4\n"
     "5,26,-4,11,15\n6,57,5,31,26\n"),
    ("table menage-a 5 --format json", 0,
     '{"n": 1, "per": "0", "det": "0", "even": "0", "odd": "0"}\n'
     '{"n": 2, "per": "0", "det": "0", "even": "0", "odd": "0"}\n'
     '{"n": 3, "per": "1", "det": "1", "even": "1", "odd": "0"}\n'
     '{"n": 4, "per": "3", "det": "-1", "even": "1", "odd": "2"}\n'
     '{"n": 5, "per": "16", "det": "2", "even": "9", "odd": "7"}\n'),
    ("census --n 5", 0,
     "k,T,c,even,odd\n1,1,1,1,0\n2,26,-4,11,15\n3,66,6,36,30\n4,26,-4,11,15\n5,1,1,1,0\n"),
    ("census --n 4 --format json", 0,
     '{"n": 4, "k": 1, "T": "1", "c": "-1", "even": "0", "odd": "1"}\n'
     '{"n": 4, "k": 2, "T": "11", "c": "3", "even": "7", "odd": "4"}\n'
     '{"n": 4, "k": 3, "T": "11", "c": "-3", "even": "4", "odd": "7"}\n'
     '{"n": 4, "k": 4, "T": "1", "c": "1", "even": "1", "odd": "0"}\n'),
    ("check --level quick", 0,
     "case1-vs-laplace: 560 cases, 0 failures\ncase2-vs-laplace: 1120 cases, 0 failures\n"
     "recurrence-vs-case1: 312 cases, 0 failures\nfg-closed-vs-laplace: 66 cases, 0 failures\n"
     "all-b-rows-vs-scan: 220 cases, 0 failures\nparity-vs-enumeration: 12 cases, 0 failures\n"
     "excedance-census-vs-enumeration: 5 cases, 0 failures\ntotal: 2295 cases at level quick\n"),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(capsys, argv, code, stdout):
    assert run(capsys, *argv.split())[:2] == (code, stdout)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv, code",
    [
        ("det --n 8 --k 3 --l 1 --a 1 --b 2", 0),
        ("census --n 0", 2),
        ("perm --n 30 --k 2 --l 1 --a 1 --b 0", 3),
        ("det --n 20000 --k 2 --l 1 --a 1 --b 3", 0),
    ],
    ids=["det", "census-n0", "perm-guard", "det-over-4300-digits"],
)
def test_process_exit_codes(argv, code):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BANDDET_LIMIT_")}
    env["PYTHONINTMAXSTRDIGITS"] = "4300"  # the interpreter's default
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "banddet.cli", *argv.split()],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr


def test_closed_pipe_exits_141_silently():
    # the census at the TRANSFER limit is about 196 KB, more than a pipe
    # holds, so the child is still writing when the reader closes the pipe
    env = {k: v for k, v in os.environ.items() if not k.startswith("BANDDET_LIMIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "banddet.cli", "census", "--n", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"k,T,c,even,odd\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")
