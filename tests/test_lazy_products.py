"""AND/OR products build their compound parameters only when read.

A product keeps its two factor tuples and an index from label to row, and
builds a row's ``CompoundParameter`` the first time something reads that
row; its complement negates the factors and builds no compound at all.
These tests hold every observable result of a product, in whatever order
it is read, to the same set built eagerly through the ``SoftSet``
constructor from the oracle's own dict-of-tuples products, and count the
compounds a product builds.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inss import (
    CompoundParameter,
    ConstraintViolation,
    DuplicateParameter,
    Grade,
    GradeTriple,
    Parameter,
    SoftSet,
    and_op,
    canonicalize,
    complement,
    or_op,
    select_best,
    serialize_soft_set,
)
from inss.oracle import _join_cells, _meet_cells, _raw, _raw_complement, _raw_product

UNIVERSE = ("x", "y")
# Names that look like labels, so that pairs of different parameters share one.
NAMES = ("a", "b", "c", "a, b", "b, c", "not a", "not b")
CELLS = ((0, 0, 0), (3000, 2000, 4000), (5000, 5000, 5000), (10000, 0, 0), (0, 1000, 10000))


def eager(raw) -> SoftSet:
    """The soft set holding a dict-of-tuples result, through the constructor."""
    params, values = raw
    family = {p: {e: GradeTriple(*map(Grade, values[p][e])) for e in UNIVERSE} for p in params}
    return SoftSet(UNIVERSE, params, family)


def eager_and(a, b):
    return eager(_raw_product(_raw(a), _raw(b), _meet_cells))


def eager_or(a, b):
    return eager(_raw_product(_raw(a), _raw(b), _join_cells))


def eager_complement(a):
    return eager(_raw_complement(_raw(a)))


# Each case: a name, then the same expression over the lazy operations and over the eager ones.
EXPRESSIONS = [
    ("a and b", lambda a, b, c: and_op(a, b), lambda a, b, c: eager_and(a, b)),
    ("a or b", lambda a, b, c: or_op(a, b), lambda a, b, c: eager_or(a, b)),
    ("not (a and b)", lambda a, b, c: complement(and_op(a, b)), lambda a, b, c: eager_complement(eager_and(a, b))),
    ("not (a or b)", lambda a, b, c: complement(or_op(a, b)), lambda a, b, c: eager_complement(eager_or(a, b))),
    (
        "not not (a and b)",
        lambda a, b, c: complement(complement(and_op(a, b))),
        lambda a, b, c: eager_complement(eager_complement(eager_and(a, b))),
    ),
    ("(a and b) or c", lambda a, b, c: or_op(and_op(a, b), c), lambda a, b, c: eager_or(eager_and(a, b), c)),
    ("a and (b or c)", lambda a, b, c: and_op(a, or_op(b, c)), lambda a, b, c: eager_and(a, eager_or(b, c))),
    (
        "(not (a and b)) and (not c)",
        lambda a, b, c: and_op(complement(and_op(a, b)), complement(c)),
        lambda a, b, c: eager_and(eager_complement(eager_and(a, b)), eager_complement(c)),
    ),
]


@st.composite
def operands(draw):
    """A soft set of one to three parameters over UNIVERSE, labels distinct."""
    params = draw(
        st.lists(st.builds(Parameter, st.sampled_from(NAMES), st.booleans()), min_size=1, max_size=3,
                 unique_by=lambda p: p.label)
    )
    cells = st.sampled_from(CELLS)
    family = {p: {e: GradeTriple(*map(Grade, draw(cells))) for e in UNIVERSE} for p in params}
    return SoftSet(UNIVERSE, params, family)


def outcome(build):
    """``build()``, or the class and text of what it raised."""
    try:
        return build()
    except DuplicateParameter as err:
        return (type(err), str(err))


@settings(max_examples=150, deadline=None)
@given(a=operands(), b=operands(), c=operands(), case=st.sampled_from(EXPRESSIONS))
def test_a_lazy_product_reads_as_the_same_set_built_eagerly(a, b, c, case):
    _, lazy, built = case
    expected = outcome(lambda: built(a, b, c))
    if isinstance(expected, tuple):
        assert outcome(lambda: lazy(a, b, c)) == expected
        return

    def fresh():
        return lazy(a, b, c)

    params, labels = expected.parameters, [p.label for p in expected.parameters]
    assert fresh().parameters == params and [p.label for p in fresh().parameters] == labels

    # The object a label finds is the one ``parameters`` hands out, whichever is read first.
    found_first = fresh()
    found = [found_first.find_parameter(label) for label in reversed(labels)][::-1]
    assert all(f is p for f, p in zip(found, found_first.parameters))
    listed_first = fresh()
    listed = listed_first.parameters
    assert all(listed_first.find_parameter(label) is p for label, p in zip(labels, listed))

    # Value sets, asked for by parameters built apart, before anything else is read.
    unread = fresh()
    for p in reversed(params):
        assert unread.has_parameter(p) and dict(unread.value_set(p)) == dict(expected.value_set(p))

    assert fresh() == expected and expected == fresh()
    order = params[::-1]
    assert fresh().restrict(order) == expected.restrict(order)
    assert canonicalize(fresh()) == canonicalize(expected)

    for copied in (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh())):
        assert copied == expected
        assert [copied.find_parameter(label) for label in labels] == list(params)
        assert all(copied.find_parameter(label) is p for label, p in zip(labels, copied.parameters))

    assert serialize_soft_set(fresh()) == serialize_soft_set(expected)
    chosen = labels[::2]
    assert select_best(fresh(), chosen).to_dict() == select_best(expected, chosen).to_dict()
    assert select_best(fresh()).to_dict() == select_best(expected).to_dict()


def test_an_invalid_cell_is_refused_before_a_shared_label():
    # The pairs ('a, b', 'c') and ('a', 'b, c') share the label '(a, b, c)',
    # and every cell was made without the joint bounds check.
    def over(names, cell):
        params = [Parameter(name) for name in names]
        return SoftSet(("x",), params, {p: {"x": cell} for p in params})

    bad, good = GradeTriple.unchecked(Grade(6000), Grade(0), Grade(7000)), GradeTriple.unchecked(*[Grade(0)] * 3)
    for op in (and_op, or_op):
        with pytest.raises(ConstraintViolation):
            op(over(["a, b", "a"], bad), over(["c", "b, c"], bad))
        with pytest.raises(DuplicateParameter, match=r"^parameters\[3\]: .* share label '\(a, b, c\)'$"):
            op(over(["a, b", "a"], good), over(["c", "b, c"], good))


def operand(names):
    params = [Parameter(name) for name in names]
    return SoftSet(UNIVERSE, params, {p: {e: GradeTriple(*map(Grade, CELLS[1])) for e in UNIVERSE} for p in params})


@pytest.fixture
def built(monkeypatch):
    """The number of CompoundParameters made so far, as a one-item list."""
    count = [0]
    init = CompoundParameter.__init__

    def counting(self, left, right):
        count[0] += 1
        init(self, left, right)

    monkeypatch.setattr(CompoundParameter, "__init__", counting)
    return count


@pytest.mark.parametrize("op", [and_op, or_op])
def test_a_product_builds_only_the_compounds_a_decision_reads(built, op):
    left, right = operand([f"p{k}" for k in range(6)]), operand([f"q{k}" for k in range(8)])
    product = op(left, right)
    assert built[0] == 0 and repr(product) == "SoftSet(2 elements, 48 parameters)"
    labels = [f"(p{k % 6}, q{k % 8})" for k in range(0, 35, 7)]
    report = select_best(product, labels)
    assert built[0] == len(labels) == 5
    assert [p.label for p in report.matrix.parameters] == labels
    product.parameters
    assert built[0] == 48


def test_a_complement_of_a_product_builds_no_compound_until_a_row_is_read(built):
    product = and_op(operand(["p", "q"]), operand(["r", "s", "t"]))
    product.parameters
    built[0] = 0
    negated = complement(product)
    assert built[0] == 0
    found = negated.find_parameter("(not q, not s)")
    assert built[0] == 1
    assert found == CompoundParameter(Parameter("q", True), Parameter("s", True))
    assert complement(negated) == product
