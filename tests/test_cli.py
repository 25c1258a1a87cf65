import json
import sys

import pytest

from banddet import band
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

    def test_render_error_prints_no_partial_answer(self, capsys):
        # det = 2^19999 * 10002 has more digits than int -> str allows at 4300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for fmt in ("text", "json"):
                code, out, err = run(
                    capsys, "det", "--n", "20000", "--k", "2", "--l", "1",
                    "--a", "1", "--b", "3", "--format", fmt,
                )
                assert code != 0
                assert out == ""
                assert "error" in err
        finally:
            sys.set_int_max_str_digits(limit)

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
        code, _, err = run(capsys, "table", "menage-a", "25")
        assert code == 3
        assert "limit" in err


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
