"""The package's value classes: equal fields make equal values with equal
hashes, a field cannot be reassigned, repr shows the fields, copy and pickle
rebuild them, and a method replaced on the class (as the benchmark's tracer
does) is the one that runs."""

import copy
import pickle

import pytest

from banddet import (
    BandResidue,
    BandSpec,
    CharMatrix,
    DenseMatrix,
    ExcedanceCensus,
    FactoredDet,
    Integer,
    ParityCount,
    Poly,
    RingElement,
    band_rows,
    det_closed,
    parity_counts,
)
from banddet.checks import CheckReport, SuiteResult

# class -> (a builder of one value, a builder of a different one, the repr
# of the first)
VALUES = {
    Integer: (lambda: Integer(-7), lambda: Integer(7), "Integer(value=-7)"),
    Poly: (lambda: Poly([1, 0, 2, 0]), lambda: Poly((1, 0, 3)), "Poly(coeffs=(1, 0, 2))"),
    DenseMatrix: (
        lambda: DenseMatrix([[1, 2], [3, 4]]),
        lambda: DenseMatrix([[1, 2], [3, 5]]),
        "DenseMatrix(rows=((Integer(value=1), Integer(value=2)), "
        "(Integer(value=3), Integer(value=4))))",
    ),
    BandSpec: (
        lambda: BandSpec(5, 2, 3, 1, 0),
        lambda: BandSpec(5, 3, 2, 1, 2),
        "BandSpec(n=5, k=3, l=2, a=Integer(value=1), b=Integer(value=0))",
    ),
    BandResidue: (
        lambda: BandResidue(1, 2, 2),
        lambda: BandResidue(0, 2, 2),
        "BandResidue(p=1, quotient=2, case=2)",
    ),
    FactoredDet: (
        lambda: FactoredDet(-1, Integer(3), 4, Integer(5)),
        lambda: FactoredDet(1, Integer(3), 4, Integer(5)),
        "FactoredDet(sign=-1, base=Integer(value=3), exponent=4, tail=Integer(value=5))",
    ),
    CharMatrix: (
        lambda: CharMatrix([[1, 0], [0, 1]]),
        lambda: CharMatrix([[1, 1], [0, 1]]),
        "CharMatrix(bits=((1, 0), (0, 1)))",
    ),
    ParityCount: (
        lambda: ParityCount(3, 1, 4, 2),
        lambda: ParityCount(1, 3, 4, -2),
        "ParityCount(even=3, odd=1, permanent=4, determinant=2)",
    ),
    ExcedanceCensus: (
        lambda: ExcedanceCensus(1, (ParityCount(1, 0, 1, 1),)),
        lambda: ExcedanceCensus(1, (ParityCount(2, 1, 3, 1),)),
        "ExcedanceCensus(n=1, rows=(ParityCount(even=1, odd=0, permanent=1, determinant=1),))",
    ),
    SuiteResult: (
        lambda: SuiteResult("s", 2, ("x",)),
        lambda: SuiteResult("s", 2, ()),
        "SuiteResult(name='s', cases=2, failures=('x',))",
    ),
    CheckReport: (
        lambda: CheckReport("quick", (SuiteResult("s", 0, ()),)),
        lambda: CheckReport("full", (SuiteResult("s", 0, ()),)),
        "CheckReport(level='quick', suites=(SuiteResult(name='s', cases=0, failures=()),))",
    ),
}
CLASSES = pytest.mark.parametrize("cls", VALUES, ids=[c.__name__ for c in VALUES])


@CLASSES
def test_equal_fields_make_equal_values_with_equal_hashes(cls):
    make, _, _ = VALUES[cls]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@CLASSES
def test_different_fields_make_different_values(cls):
    make, other, _ = VALUES[cls]
    assert make() != other() and not make() == other()


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    make, other, _ = VALUES[cls]
    x = make()
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(other(), name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == make()


@CLASSES
def test_repr_names_each_field(cls):
    make, _, text = VALUES[cls]
    assert repr(make()) == text


@CLASSES
def test_copy_and_pickle_rebuild_an_equal_value(cls):
    make, _, _ = VALUES[cls]
    x = make()
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is cls and clone == x


def test_values_of_different_classes_are_unequal():
    assert Integer(1) != 1 and 1 != Integer(1) and not Integer(1) == 1
    assert Integer(1) != Poly((1,)) and Poly((1,)) != Integer(1)
    assert Poly(()) != 0 and Poly(()) != ()
    assert BandResidue(1, 2, 2) != (1, 2, 2)


def test_a_wrong_number_of_fields_is_refused():
    with pytest.raises(ValueError):
        BandResidue(1, 2)
    with pytest.raises(ValueError):
        FactoredDet(1, Integer(2), 3, Integer(4), 5)


# the methods the benchmark's tracer replaces on their class, each with a
# call that must reach the replacement
TRACED = [
    (Poly, "__mul__", lambda: Poly((1, 1)) * Poly((1, 2))),
    (Poly, "__add__", lambda: Poly((1, 1)) + Poly((1, 2))),
    (RingElement, "__pow__", lambda: Poly((1, 1, 1)) ** 3),
    (Integer, "__pow__", lambda: Integer(3) ** 4),
    (FactoredDet, "expand", lambda: det_closed(BandSpec(9, 2, 1, 1, 3))),
    # a zero band of profile width 9, past the transfer DPs: the one route that builds a dense matrix
    (CharMatrix, "to_dense", lambda: parity_counts(CharMatrix(band_rows(10, 6, 5, 0, 1)))),
]


@pytest.mark.parametrize(
    "cls, attr, call", TRACED, ids=[f"{c.__name__}.{a}" for c, a, _ in TRACED]
)
def test_a_method_replaced_on_its_class_runs(monkeypatch, cls, attr, call):
    real = cls.__dict__[attr]
    calls = []

    def traced(*args):
        calls.append(attr)
        return real(*args)

    want = call()
    monkeypatch.setattr(cls, attr, traced)
    assert call() == want
    assert calls
