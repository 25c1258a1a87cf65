"""Bad input is refused before any work, with one message per rule: the
order rule at every entry point that takes an order, the integer rule for
every integer parameter (orders, band widths, positions, counts and
exponents), the one rule for integer values and the one for integer text
(JSON, the size-guard overrides, the CLI), and the refusals the other
suites never reach."""

import json
import re
import sys

import pytest

from banddet import (
    BandSpec,
    CharMatrix,
    DenseMatrix,
    ExcedanceCensus,
    Integer,
    ParityCount,
    ParityError,
    Poly,
    band_rows,
    bordered_matrix,
    brute_force_excedance_census,
    det_case1,
    det_case2,
    det_recurrence,
    element_from_json,
    element_to_json,
    entry,
    excedance_census,
    f_closed,
    family_table,
    g_closed,
    menage_a_det,
    menage_a_matrix,
    menage_a_permanent_rec,
    menage_a_permanent_sum,
    menage_b_det,
    menage_b_matrix,
    spec_from_json,
    spec_to_json,
    weak_excedance_class,
    weak_excedance_count,
)
from banddet.cli import main

# every entry point that takes an order, called at order n
BY_ORDER = {
    "BandSpec": lambda n: BandSpec(n, 1, 1, 1, 0),
    "f_closed": lambda n: f_closed(n, 1, 0),
    "g_closed": lambda n: g_closed(n, 1, 0),
    "bordered_matrix": lambda n: bordered_matrix(n, 1, 1, 0),
    "DenseMatrix": lambda n: DenseMatrix(((1,) * n,) * n),
    "CharMatrix": lambda n: CharMatrix(((1,) * n,) * n),
    "menage_a_matrix": menage_a_matrix,
    "menage_b_matrix": menage_b_matrix,
    "menage_a_permanent_rec": menage_a_permanent_rec,
    "menage_a_permanent_sum": menage_a_permanent_sum,
    "menage_a_det": menage_a_det,
    "menage_b_det": menage_b_det,
    "ExcedanceCensus": lambda n: ExcedanceCensus(n, ()),
    "excedance_census": excedance_census,
    "brute_force_excedance_census": brute_force_excedance_census,
    "weak_excedance_class": lambda n: weak_excedance_class(n, 0),
}
# a matrix's order is its row count, which is always an int
TYPED_ORDER = [name for name in BY_ORDER if name not in ("DenseMatrix", "CharMatrix")]


@pytest.mark.parametrize("call", BY_ORDER.values(), ids=BY_ORDER.keys())
def test_order_zero_is_refused_with_one_message(call):
    with pytest.raises(ValueError, match=r"^order n must be positive$"):
        call(0)


@pytest.mark.parametrize("order", [4.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", TYPED_ORDER)
def test_non_int_order_is_refused_with_one_message(name, order):
    # BandSpec names its field, as it does for k and l
    what = "n" if name == "BandSpec" else "order n"
    with pytest.raises(TypeError, match=f"^{re.escape(f'{what} must be an int, got {order!r}')}$"):
        BY_ORDER[name](order)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: family_table("menage-a", 0), ValueError, "n_max must be positive"),
        (lambda: det_case1(0, 1, 1, 0), ValueError, "need n >= 1 and k >= 1, got n=0 k=1"),
        (lambda: bordered_matrix(4, 4, 1, 0), ValueError, "need 1 <= k <= n-1, got k=4 n=4"),
        (lambda: det_recurrence(3, 4, 1, 0), ValueError, "need 1 <= k <= n, got k=4 n=3"),
        (lambda: ParityCount(2, 1, 3, 2), ParityError, "even - odd != det (2-1 != 2)"),
        (
            lambda: ExcedanceCensus(2, (ParityCount(0, 1, 1, -1),)),
            ValueError,
            "census must have one row for each k = 1..n",
        ),
        (lambda: Integer(1.5), TypeError, "Integer wraps a Python int"),
        (lambda: Poly((1,)).coeff(-1), ValueError, "power must be non-negative"),
        (lambda: element_to_json(3), TypeError, "not a ring element: int"),
        (lambda: element_from_json(3), TypeError, "cannot decode ring element from int"),
        (lambda: Integer(True), TypeError, "Integer wraps a Python int"),
        (lambda: BandSpec(3, 1, 1, True, False), TypeError, "Integer wraps a Python int"),
        (lambda: DenseMatrix([[True, 0], [0, 1]]), TypeError, "Integer wraps a Python int"),
        (lambda: DenseMatrix([[1.0, 0], [0, 1]]), TypeError, "Integer wraps a Python int"),
        (lambda: CharMatrix(((True, False), (False, True))), ValueError, "entries must be 0 or 1"),
        (lambda: CharMatrix(((1.0, 0.0), (0.0, 1.0))), ValueError, "entries must be 0 or 1"),
        (lambda: Poly((0.5, 1)), TypeError, "Poly coefficients must be Python ints"),
        (lambda: Poly((True,)), TypeError, "Poly coefficients must be Python ints"),
        (lambda: Poly.constant(1.0), TypeError, "Poly coefficients must be Python ints"),
        (
            lambda: element_from_json(["1", "0.5"]),
            ValueError,
            "not a canonical decimal integer: '0.5'",
        ),
        (lambda: element_from_json([True]), ValueError, "not a canonical decimal integer: True"),
        (lambda: family_table("menage-a", True), TypeError, "n_max must be an int, got True"),
        (lambda: det_case1(5, 2.5, 1, 0), TypeError, "k must be an int, got 2.5"),
        (lambda: det_case2(5, 2.0, 2, 1, 0), TypeError, "k must be an int, got 2.0"),
        (lambda: det_recurrence(6, 2.0, 1, 2), TypeError, "k must be an int, got 2.0"),
        (lambda: bordered_matrix(3, True, 1, 2), TypeError, "k must be an int, got True"),
        (lambda: entry(BandSpec(3, 1, 1, 1, 0), 1.5, 1), TypeError, "i must be an int, got 1.5"),
        (lambda: Poly((1, 2)).coeff(True), TypeError, "power must be an int, got True"),
        (lambda: weak_excedance_class(3, 1.5), TypeError, "count must be an int, got 1.5"),
        (lambda: ParityCount(0.5, 0.5, 1, 0), TypeError, "even must be an int, got 0.5"),
        (lambda: ParityCount(True, False, 1, 1), TypeError, "even must be an int, got True"),
        (lambda: Integer(4) ** 0.5, TypeError, "exponent must be an int, got 0.5"),
        (lambda: Integer(4) ** True, TypeError, "exponent must be an int, got True"),
        (lambda: Poly((1, 2)) ** 2.0, TypeError, "exponent must be an int, got 2.0"),
        (lambda: Integer(4) ** -1, ValueError, "exponent must be non-negative"),
        (lambda: Poly((1, 2)) ** -1, ValueError, "exponent must be non-negative"),
        (lambda: band_rows(True, 1, 1, 1, 0), TypeError, "n must be an int, got True"),
        (lambda: band_rows(2.0, 1, 1, 1, 0), TypeError, "n must be an int, got 2.0"),
        (lambda: band_rows(3, 1.5, 1, 1, 0), TypeError, "k must be an int, got 1.5"),
        (lambda: band_rows(3, 2, True, 1, 0), TypeError, "l must be an int, got True"),
        (lambda: Integer(3) * True, TypeError, "scalar must be an int, got True"),
        (lambda: True * Integer(3), TypeError, "scalar must be an int, got True"),
        (lambda: Integer(3) * 1.5, TypeError, "scalar must be an int, got 1.5"),
        (lambda: 1.5 * Integer(3), TypeError, "scalar must be an int, got 1.5"),
        (lambda: Poly((1, 2)) * False, TypeError, "scalar must be an int, got False"),
        (lambda: False * Poly((1, 2)), TypeError, "scalar must be an int, got False"),
        (lambda: Poly((1, 2)) * 2.0, TypeError, "scalar must be an int, got 2.0"),
        (lambda: 2.0 * Poly((1, 2)), TypeError, "scalar must be an int, got 2.0"),
    ],
    ids=[
        "family_table", "det_case1", "bordered_matrix-width", "det_recurrence-width",
        "ParityCount", "ExcedanceCensus-short", "Integer-float", "Poly.coeff-negative",
        "element_to_json-int", "element_from_json-int", "Integer-bool", "BandSpec-bool-entries",
        "DenseMatrix-bool", "DenseMatrix-float", "CharMatrix-bool", "CharMatrix-float",
        "Poly-float", "Poly-bool", "Poly.constant-float", "element_from_json-poly-float",
        "element_from_json-poly-bool", "family_table-bool", "det_case1-float-width",
        "det_case2-float-width", "det_recurrence-float-width", "bordered_matrix-bool-width",
        "entry-float-position", "Poly.coeff-bool", "weak_excedance_class-float-count",
        "ParityCount-float", "ParityCount-bool", "Integer-pow-float", "Integer-pow-bool",
        "Poly-pow-float", "Integer-pow-negative", "Poly-pow-negative",
        "band_rows-bool-order", "band_rows-float-order", "band_rows-float-width",
        "band_rows-bool-width", "Integer-times-bool", "bool-times-Integer",
        "Integer-times-float", "float-times-Integer", "Poly-times-bool", "bool-times-Poly",
        "Poly-times-float", "float-times-Poly",
    ],
)
def test_refusal(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


class TestSpecIntegerFields:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n": 7.9, "k": "2", "l": True}, "n must be an int, got 7.9"),
            ({"n": " 1_0 ", "k": 2, "l": 1}, "n must be an int, got ' 1_0 '"),
            ({"n": 7, "k": "2", "l": 1}, "k must be an int, got '2'"),
            ({"n": 7, "k": 2, "l": True}, "l must be an int, got True"),
            ({"n": 7, "k": 2.0, "l": 1}, "k must be an int, got 2.0"),
        ],
    )
    def test_json_non_integer_refused(self, fields, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            spec_from_json({**fields, "a": "1", "b": "0"})

    def test_bool_order_refused(self):
        with pytest.raises(TypeError, match=r"^n must be an int, got True$"):
            BandSpec(True, 1, 1, 1, 0)

    def test_round_trip_through_json_text(self):
        spec = BandSpec(9, 2, 3, -4, 7)
        assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


class TestCliIntegers:
    """Every integer the CLI reads is canonical digits, -?[0-9]+, at any
    length, the same rule as JSON and the limit overrides."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "--n", " 1_0", "--k", "1", "--l", "1", "--a", "1", "--b", "0"],
            ["det", "--n", "3", "--k", "1", "--l", "1", "--a", "+1", "--b", "0"],
            ["table", "menage-a", "1_0"],
            ["census", "--n", " 3"],
            ["bench", " 4,1_0"],
        ],
        ids=["det-n", "det-a-plus", "table-n_max", "census-n", "bench-sizes"],
    )
    def test_non_canonical_is_a_usage_error(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the flag itself
            code = exc.code
        assert (code, capsys.readouterr().out) == (2, "")

    def test_any_length_reads_back(self, capsys):
        b = "7" * 5000
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            code = main(["det", "--n", "3", "--k", "1", "--l", "1", "--a", "0", "--b", b,
                         "--format", "json"])
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["b"] == b


class TestLimitOverride:
    PERM = ("perm", "--n", "4", "--k", "2", "--l", "1", "--a", "1", "--b", "0")

    def run(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BANDDET_LIMIT_RYSER_INT", value)
        code = main(list(self.PERM))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("value", ["abc", "-1", " 12", "1e3", ""])
    def test_bad_value_is_a_usage_error_naming_the_variable(self, capsys, monkeypatch, value):
        assert self.run(capsys, monkeypatch, value) == (
            2,
            "",
            "error: BANDDET_LIMIT_RYSER_INT must be a non-negative integer, "
            f"got {value!r}\n",
        )

    def test_zero_refuses_every_order(self, capsys, monkeypatch):
        code, out, err = self.run(capsys, monkeypatch, "0")
        assert (code, out) == (3, "")
        assert err.startswith("error: permanent_ryser refuses order 4 (limit 0;")

    def test_valid_override_applies(self, capsys, monkeypatch):
        assert self.run(capsys, monkeypatch, "3")[0] == 3
        code, out, _ = self.run(capsys, monkeypatch, "4")
        assert code == 0
        assert out.endswith("per: 3\n")


def test_bench_laplace_success(capsys):
    assert main(["bench", "4,9", "--method", "laplace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,closed_seconds,method,method_seconds,agree"
    assert [line.split(",")[0::2] for line in lines[1:]] == [
        ["4", "laplace", "true"],
        ["9", "laplace", "true"],
    ]


@pytest.mark.parametrize("n, k, l", [(3, 0, 0), (3, -2, 1), (3, 1, 0), (-2, 1, 1)])
def test_band_rows_refuses_a_width_below_one_or_a_negative_order(n, k, l):
    # unrefused, each of these would build rows that are not square, or no rows
    with pytest.raises(ValueError, match=f"^need n >= 0 and k, l >= 1, got n={n} k={k} l={l}$"):
        band_rows(n, k, l, 1, 0)


# the range is tested before l > k is swapped, so the message shows the
# widths as they were passed
WIDTHS_OUT_OF_RANGE = [(0, 1), (1, 0), (1, 5), (5, 1), (0, 0)]


@pytest.mark.parametrize("k, l", WIDTHS_OUT_OF_RANGE)
def test_band_spec_range_error_names_the_widths_as_passed(k, l):
    with pytest.raises(ValueError, match=f"^need 1 <= k, l <= n, got n=3 k={k} l={l}$"):
        BandSpec(3, k, l, 0, 1)


@pytest.mark.parametrize("k, l", WIDTHS_OUT_OF_RANGE)
def test_cli_range_error_names_the_widths_as_passed(capsys, k, l):
    code = main(["det", "--n", "3", "--k", str(k), "--l", str(l), "--a", "0", "--b", "1"])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: need 1 <= k, l <= n, got n=3 k={k} l={l}\n"
    )


@pytest.mark.parametrize(
    "perm, bad",
    [((True, 2), True), ((1, 2.0), 2.0), ((2.0, 1), 2.0), ((1, "a"), "a"), ((1, 2, False), False)],
)
def test_permutation_entries_follow_the_integer_rule(perm, bad):
    message = f"permutation entry must be an int, got {bad!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        weak_excedance_count(perm)
