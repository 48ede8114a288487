"""The contracts of the package's value records.

``Grade``, ``GradeTriple``, ``CellAudit``, ``ScoreVector``, ``ReferenceMatrix``,
``MatrixDiff`` and ``SelectionReport`` are frozen records compared by their
fields: built by position or keyword, equal only to records of their own
class, hashable, printed field by field, and copied and pickled whole.
"""

import copy
import pickle

import pytest

from inss import (
    CellAudit,
    ConstraintViolation,
    Grade,
    GradeTriple,
    MatrixDiff,
    OutOfRange,
    Parameter,
    ReferenceMatrix,
    ScoreVector,
    SelectionReport,
    SoftSet,
    select_best,
)


def triple(t, i, f):
    return GradeTriple(Grade(t), Grade(i), Grade(f))


def small_report(reference=None):
    p, q = Parameter("p"), Parameter("q")
    family = {p: {"a": triple(5000, 0, 0), "b": triple(0, 0, 0)}, q: {"a": triple(0, 0, 0), "b": triple(0, 0, 1000)}}
    return select_best(SoftSet(("a", "b"), [p, q], family), reference=reference)


REPORT = small_report()
DIFF_REPORT = small_report(ReferenceMatrix(("a", "b"), ("p", "q"), ((1, 0), (0, 1))))
T = (
    "GradeTriple(truth=Grade(ten_thousandths={}), indeterminacy=Grade(ten_thousandths={}), "
    "falsity=Grade(ten_thousandths={}))"
)
MATRIX_REPR = (
    "ComparisonMatrix(objects=('a', 'b'), parameters=(Parameter(name='p', negated=False), "
    "Parameter(name='q', negated=False)), audits=((CellAudit(truth_wins=1, indeterminacy_wins=1, falsity_wins=1), "
    "CellAudit(truth_wins=1, indeterminacy_wins=1, falsity_wins=0)), (CellAudit(truth_wins=0, indeterminacy_wins=1, "
    "falsity_wins=1), CellAudit(truth_wins=1, indeterminacy_wins=1, falsity_wins=1))))"
)
REPORT_REPR = (
    f"SelectionReport(table=DecisionTable(2 objects, 2 parameters), matrix={MATRIX_REPR}, "
    "scores=ScoreVector(objects=('a', 'b'), scores=(3, 1), ranking=('a', 'b')), best='a', tied=False, "
    "reference_diff={})"
)

# Per record: its class, its field names, the values of a sample, values that
# differ in one field, and the sample's repr.
RECORDS = {
    "Grade": (Grade, ("ten_thousandths",), (3000,), (3001,), "Grade(ten_thousandths=3000)"),
    "GradeTriple": (
        GradeTriple,
        ("truth", "indeterminacy", "falsity"),
        (Grade(3000), Grade(5000), Grade(4000)),
        (Grade(3000), Grade(5000), Grade(4001)),
        T.format(3000, 5000, 4000),
    ),
    "CellAudit": (
        CellAudit,
        ("truth_wins", "indeterminacy_wins", "falsity_wins"),
        (3, 1, 2),
        (3, 1, 1),
        "CellAudit(truth_wins=3, indeterminacy_wins=1, falsity_wins=2)",
    ),
    "ScoreVector": (
        ScoreVector,
        ("objects", "scores", "ranking"),
        (("a", "b"), (2, 1), ("a", "b")),
        (("a", "b"), (2, 2), ("a", "b")),
        "ScoreVector(objects=('a', 'b'), scores=(2, 1), ranking=('a', 'b'))",
    ),
    "ReferenceMatrix": (
        ReferenceMatrix,
        ("objects", "parameter_labels", "entries"),
        (("a", "b"), ("p",), ((1,), (-2,))),
        (("a", "b"), ("p",), ((1,), (2,))),
        "ReferenceMatrix(objects=('a', 'b'), parameter_labels=('p',), entries=((1,), (-2,)))",
    ),
    "MatrixDiff": (
        MatrixDiff,
        ("object_id", "parameter", "computed", "reference"),
        ("a", Parameter("p"), 1, 2),
        ("a", Parameter("p", True), 1, 2),
        "MatrixDiff(object_id='a', parameter=Parameter(name='p', negated=False), computed=1, reference=2)",
    ),
    "SelectionReport": (
        SelectionReport,
        ("table", "matrix", "scores", "best", "tied", "reference_diff"),
        (REPORT.table, REPORT.matrix, REPORT.scores, "a", False, None),
        (REPORT.table, REPORT.matrix, REPORT.scores, "a", True, None),
        REPORT_REPR.format("None"),
    ),
}
CASES = pytest.mark.parametrize("name", list(RECORDS))


def sample(name, values=None):
    cls, _, given, _, _ = RECORDS[name]
    return cls(*(given if values is None else values))


def same_contents(name, copied, original):
    """Equal, or for a report (whose table compares by identity) equal apart from its table."""
    if name != "SelectionReport":
        return copied == original
    return repr(copied) == repr(original) and copied.matrix == original.matrix and copied.scores == original.scores


@CASES
def test_positional_and_keyword_construction_agree(name):
    cls, fields, values, _, text = RECORDS[name]
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword) == text
    assert tuple(getattr(by_keyword, field) for field in fields) == values


@CASES
def test_equality_is_field_by_field_within_one_class(name):
    cls, fields, values, other_values, _ = RECORDS[name]
    record = sample(name)
    assert record == sample(name) and not record != sample(name)
    assert record != cls(*other_values) and not record == cls(*other_values)
    assert record != values and not record == values
    lookalike = type("Lookalike", (), dict(zip(fields, values)))()
    assert record != lookalike and lookalike != record
    subclass = type("Sub" + name, (cls,), {})
    assert record != subclass(*values) and subclass(*values) != record


def test_records_of_different_classes_are_unequal():
    records = [sample(name) for name in RECORDS]
    for left in records:
        assert [left == right for right in records] == [left is right for right in records]


@CASES
def test_equal_records_hash_alike(name):
    assert hash(sample(name)) == hash(sample(name))
    assert {sample(name): 1}[sample(name)] == 1


@CASES
def test_fields_cannot_be_assigned_or_deleted(name):
    _, fields, _, other_values, _ = RECORDS[name]
    record = sample(name)
    for field, value in zip(fields, other_values):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == sample(name)


@CASES
def test_copies_are_equal(name):
    record = sample(name)
    assert copy.copy(record) == record
    assert same_contents(name, copy.deepcopy(record), record)


@CASES
def test_pickles_round_trip(name):
    record = sample(name)
    # A report holds a DecisionTable, whose slots pickle from protocol 2 on.
    first = 2 if name == "SelectionReport" else 0
    for protocol in range(first, pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert loaded.__class__ is record.__class__
        assert same_contents(name, loaded, record), protocol


@CASES
def test_positional_patterns_match_fields_in_order(name):
    cls, fields, values, _, _ = RECORDS[name]
    match sample(name):
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail("no pattern matched")
    assert cls.__match_args__ == fields


def test_report_diff_defaults_to_none_and_prints_its_diffs():
    table, matrix, vector = REPORT.table, REPORT.matrix, REPORT.scores
    assert SelectionReport(table, matrix, vector, "a", False) == REPORT
    assert SelectionReport(table=table, matrix=matrix, scores=vector, best="a", tied=False).reference_diff is None
    diff = "(MatrixDiff(object_id='a', parameter=Parameter(name='q', negated=False), computed=2, reference=0),)"
    assert repr(DIFF_REPORT) == REPORT_REPR.format(diff)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert repr(pickle.loads(pickle.dumps(DIFF_REPORT, protocol))) == repr(DIFF_REPORT)
    assert repr(copy.deepcopy(DIFF_REPORT)) == repr(DIFF_REPORT)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Grade(),
        lambda: Grade(1, 2),
        lambda: GradeTriple(Grade(0), Grade(0)),
        lambda: CellAudit(1, 2),
        lambda: CellAudit(1, 2, 3, 4),
        lambda: ScoreVector(objects=(), scores=(), ranking=(), extra=()),
        lambda: MatrixDiff("a", Parameter("p"), 1, 2, object_id="b"),
        lambda: ReferenceMatrix((), ()),
        lambda: SelectionReport(REPORT.table, REPORT.matrix, REPORT.scores, "a"),
    ],
)
def test_wrong_arguments_are_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_cell_audit_value():
    assert CellAudit(truth_wins=3, indeterminacy_wins=1, falsity_wins=2).value == 2


def test_grades_order_by_count_against_grades_only():
    low, high = Grade(1000), Grade(2000)
    assert (low < high, low <= high, low > high, low >= high) == (True, True, False, False)
    assert (high < low, high <= low, high > low, high >= low) == (False, False, True, True)
    assert (low < Grade(1000), low <= Grade(1000), low >= Grade(1000)) == (False, True, True)
    assert sorted([Grade(3), Grade(1), Grade(2)]) == [Grade(1), Grade(2), Grade(3)]
    assert low != 1000
    for compare in (lambda: low < 2000, lambda: low <= 2000, lambda: low > 0, lambda: low >= 0, lambda: 0 < low):
        with pytest.raises(TypeError, match="not supported between instances of"):
            compare()


def test_grade_triples_do_not_order():
    with pytest.raises(TypeError):
        triple(0, 0, 0) < triple(1, 0, 0)


def test_an_unchecked_invalid_triple_survives_copies_and_pickles():
    bad = GradeTriple.unchecked(Grade(1000), Grade(6000), Grade(7000))
    copies = [copy.copy(bad), copy.deepcopy(bad)]
    copies += [pickle.loads(pickle.dumps(bad, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert copied == bad and copied.__class__ is GradeTriple
        assert str(copied) == "(0.1, 0.6, 0.7)"
        assert repr(copied) == T.format(1000, 6000, 7000)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Grade(True), OutOfRange, "grade count must be an integer, got True"),
        (lambda: Grade(10001), OutOfRange, "grade = 1.0001 outside [0, 1]"),
        (lambda: Grade(-1), OutOfRange, "grade = -0.0001 outside [0, 1]"),
        (lambda: triple(6000, 6000, 2000), ConstraintViolation, "min(truth, indeterminacy) = 0.6 exceeds 0.5"),
        (
            lambda: GradeTriple(truth=Grade(6000), indeterminacy=Grade(0), falsity=Grade(7000)),
            ConstraintViolation,
            "min(truth, falsity) = 0.6 exceeds 0.5",
        ),
        (lambda: ReferenceMatrix(("a", "b"), ("p",), ((1,),)), ValueError, "entries: need exactly one row per object"),
        (
            lambda: ReferenceMatrix(("a", "b"), ("p", "q"), ((1, 2), (3,))),
            ValueError,
            "entries[1]: need exactly one value per parameter",
        ),
    ],
)
def test_checks_raise_their_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
