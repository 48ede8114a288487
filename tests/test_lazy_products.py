"""AND/OR products build their compound parameters and grades only when read.

A product keeps its two factor tuples and each factor's label index, finds
a row's label by splitting it between the two, and builds a row's
``CompoundParameter`` the first time something reads that row; its
complement negates the factors and builds no compound at all.  A
product of valid sets keeps its operands' tick matrices and its rule, and
runs the full-product kernel when its matrix is first read; a restriction
to few rows computes only those rows, and its complement is the product of
the swapped factor matrices under the dual rule.  These tests hold every
observable result of a product, in whatever order it is read, to the same
set built eagerly through the ``SoftSet`` constructor from the oracle's own
dict-of-tuples products, and count the compounds and kernel runs a product
makes.
"""

import copy
import json
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from helpers import EXTRA_FRAMES, beneath
from hypothesis import given, settings
from hypothesis import strategies as st

from inss import (
    CompoundParameter,
    ConstraintViolation,
    DuplicateParameter,
    EmptyUniverse,
    Grade,
    GradeTriple,
    InssError,
    Parameter,
    SoftSet,
    UnknownParameter,
    and_op,
    canonicalize,
    complement,
    equals,
    intersection,
    is_null,
    is_subset,
    or_op,
    select_best,
    serialize_soft_set,
    union,
)
from inss import algebra
from inss.algebra import tick_rows
from inss.oracle import _join_cells, _meet_cells, _raw, _raw_complement, _raw_product

UNIVERSE = ("x", "y")
# Names that look like labels, so that pairs of different parameters share one, and
# names that open or close a parenthesis, so that a label splits at every ", ".
NAMES = ("a", "b", "c", "a, b", "b, c", "not a", "not b", "(a", "b)", "(a, b)")
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


def found(soft_set, label):
    """``soft_set.find_parameter(label)``, or the class and text of what it raised."""
    try:
        return soft_set.find_parameter(label)
    except UnknownParameter as err:
        return (type(err), str(err))


@settings(max_examples=150, deadline=None)
@given(a=operands(), b=operands(), negate=st.booleans(), op=st.sampled_from([and_op, or_op]))
def test_an_unread_product_finds_a_label_where_an_eager_label_index_does(a, b, negate, op):
    def fresh():
        product = op(a, b)
        return complement(product) if negate else product

    built = eager_and if op is and_op else eager_or
    expected = outcome(lambda: eager_complement(built(a, b)) if negate else built(a, b))
    if isinstance(expected, tuple):  # two pairs share a label: the same refusal, word for word
        assert outcome(fresh) == expected
        return
    for param in expected.parameters:
        label = param.label
        assert found(fresh(), label) == param
        assert fresh().has_parameter(param) and dict(fresh().value_set(param)) == dict(expected.value_set(param))
        assert fresh().restrict([param]) == expected.restrict([param])
        # Near misses: cut short, unwrapped, a parenthesis swapped, wrapped twice, a comma unspaced;
        # then a plain parameter so named.
        for near in (label[:-1], label[1:-1], f"[{label[1:]}", f"{label[:-1]}]", f"({label})",
                     label.replace(", ", ",")):
            assert found(fresh(), near) == found(expected, near)
        assert not fresh().has_parameter(Parameter(label))
        with pytest.raises(UnknownParameter):
            fresh().value_set(Parameter(label))
    for stranger in (None, 5, ("a", "b"), [expected.parameters[0].label], b"(a, b)", expected.parameters[0]):
        assert found(fresh(), stranger) == found(expected, stranger)
        assert found(fresh(), stranger)[0] is UnknownParameter


# Factors whose pairs would share a label: two left labels apart by ", m" against two right
# labels apart by "m, " (m empty too), or a label that repeats on one side once complement
# negates the factors ("not b" negated is "b"-named and negated, "b" negated is "not b").
CLASHES = [
    ([("a, b", False), ("a", False)], [("c", False), ("b, c", False)], False),
    ([("a", False), ("a, ", False)], [(", b", False), ("b", False)], False),
    ([("not b", True), ("b", False)], [("c", False)], True),
    ([("c", False)], [("b", False), ("not b", True)], True),
]


@pytest.mark.parametrize("left, right, negate", CLASHES)
@pytest.mark.parametrize("op", [and_op, or_op])
def test_pairs_that_would_share_a_label_are_refused_as_an_eager_build_is(op, left, right, negate):
    def over(specs):
        params = [Parameter(*spec) for spec in specs]
        return SoftSet(UNIVERSE, params, {p: {e: GradeTriple(*map(Grade, CELLS[1])) for e in UNIVERSE} for p in params})

    a, b = over(left), over(right)
    built = eager_and if op is and_op else eager_or
    expected = outcome(lambda: eager_complement(built(a, b)) if negate else built(a, b))
    assert isinstance(expected, tuple) and expected[0] is DuplicateParameter
    assert outcome(lambda: complement(op(a, b)) if negate else op(a, b)) == expected


def test_labels_that_only_nearly_clash_build_no_compound(built):
    # "a" + ", c" is a left label and "c, " starts a right one, but "d" is no right label.
    for left, right in ((["a", "a, c"], ["c, d"]), (["a", "a, c"], ["c, d", "e"]), (["x, y"], ["y, z", "z"])):
        product = and_op(operand(left), operand(right))
        assert complement(product).find_parameter(f"(not {left[-1]}, not {right[0]})")
        assert built[0] == 1
        built[0] = 0


def test_an_unread_product_holds_no_label_per_pair():
    left, right = varied([f"p{k:02d}" for k in range(40)]), varied([f"q{k:02d}" for k in range(40)], shift=1)
    and_op(left, right)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        product = and_op(left, right)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 32 * 1024, held
    assert product.find_parameter("(p39, q00)") == CompoundParameter(Parameter("p39"), Parameter("q00"))


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


# --- grades computed when read ------------------------------------------------


def varied(names, universe=UNIVERSE, shift=0):
    """A valid soft set over ``universe`` whose cells run through CELLS."""
    params = [Parameter(name) for name in names]
    family = {
        p: {e: GradeTriple(*map(Grade, CELLS[(j * len(universe) + k + shift) % len(CELLS)]))
            for k, e in enumerate(universe)}
        for j, p in enumerate(params)
    }
    return SoftSet(universe, params, family)


@pytest.fixture
def kernels(monkeypatch):
    """The number of full-product kernel runs so far, as a one-item list."""
    count = [0]
    full = algebra._product_matrix

    def counting(*args):
        count[0] += 1
        return full(*args)

    monkeypatch.setattr(algebra, "_product_matrix", counting)
    return count


@pytest.mark.parametrize("op", [and_op, or_op])
def test_a_decision_over_a_product_runs_no_full_kernel(kernels, op):
    left, right = varied([f"p{k}" for k in range(6)]), varied([f"q{k}" for k in range(8)], shift=2)
    product, eager_product = op(left, right), (eager_and if op is and_op else eager_or)(left, right)
    for labels in ([f"(p{k % 6}, q{k % 8})" for k in range(0, 35, 7)], ["(p5, q0)", "(p0, q7)", "(p3, q3)"]):
        assert select_best(product, labels).to_dict() == select_best(eager_product, labels).to_dict()
    chosen = product.parameters[::3]
    assert product.restrict(chosen) == eager_product.restrict(chosen)
    assert kernels[0] == 0
    assert select_best(product).to_dict() == select_best(eager_product).to_dict()  # every row: the whole matrix
    assert kernels[0] == 1


FIRST_READS = {
    "value_set": lambda s: dict(s.value_set(s.parameters[-1])),
    "family": lambda s: dict(s.family[s.parameters[0]]),
    "triple": lambda s: s.triple(s.parameters[1], "y"),
    "==": lambda s: s == s,
    "serialize_soft_set": serialize_soft_set,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "pickle, protocol 0": lambda s: pickle.loads(pickle.dumps(s, protocol=0)),
    "pickle, protocol 2": lambda s: pickle.loads(pickle.dumps(s, protocol=2)),
    "deepcopy": copy.deepcopy,
    "tick_rows": lambda s: list(tick_rows(s)),
    "and_op operand": lambda s: and_op(s, varied(["r"])),
    "or_op operand": lambda s: or_op(varied(["r"]), s),
    "union": lambda s: union(s, varied(["r"])),
    "intersection": lambda s: intersection(s, s),
    "is_subset": lambda s: is_subset(s, s),
    "is_null": is_null,
    "restrict to most rows": lambda s: s.restrict(s.parameters[1:]),
    "select_best over every row": select_best,
}


@pytest.mark.parametrize("read", FIRST_READS.values(), ids=FIRST_READS)
@pytest.mark.parametrize("op", [and_op, or_op])
def test_each_full_read_runs_the_kernel_once(kernels, op, read):
    product = op(varied(["a", "b"]), varied(["c", "d", "e"], shift=1))
    expected = (eager_and if op is and_op else eager_or)(varied(["a", "b"]), varied(["c", "d", "e"], shift=1))
    read(product)
    assert kernels[0] == 1
    read(product)
    assert kernels[0] == 1
    assert product == expected and kernels[0] == 1


@pytest.mark.parametrize("op", [and_op, or_op])
def test_the_complement_of_an_unread_product_is_unread(kernels, op):
    left, right = varied(["a", "not b", "b, c"]), varied(["c", "a, b"], shift=3)
    built = (eager_and if op is and_op else eager_or)(left, right)
    negated, twice = complement(op(left, right)), complement(complement(op(left, right)))
    assert kernels[0] == 0
    pairs = ((negated, eager_complement(built)), (twice, eager_complement(eager_complement(built))))
    for reads, (lazy, expected) in enumerate(pairs):
        small = lazy.parameters[::4]
        assert lazy.restrict(small) == expected.restrict(small) and kernels[0] == reads
        for p in expected.parameters:
            for e in UNIVERSE:
                assert lazy.triple(p, e) == expected.triple(p, e)
    assert kernels[0] == 2
    assert complement(negated) == built and kernels[0] == 2  # read already: swaps the kept matrix


def restricted(soft_set, choice):
    """``soft_set.restrict(choice)``, or the class and text of what it raised."""
    try:
        return soft_set.restrict(choice)
    except (InssError, TypeError) as err:
        return (type(err), str(err))


def decided(soft_set, labels):
    """``select_best(soft_set, labels)`` as a dict, or the class and text of what it raised."""
    try:
        return select_best(soft_set, labels).to_dict()
    except InssError as err:
        return (type(err), str(err))


STRANGERS = [Parameter("zz"), CompoundParameter(Parameter("a"), Parameter("zz")), Parameter("a, b")]


@settings(max_examples=150, deadline=None)
@given(a=operands(), b=operands(), negate=st.booleans(), op=st.sampled_from([and_op, or_op]), data=st.data())
def test_restricting_an_unread_product_gives_what_reading_it_first_gives(a, b, negate, op, data):
    def fresh():
        product = op(a, b)
        return complement(product) if negate else product

    try:
        params = list(fresh().parameters)
    except DuplicateParameter:
        return
    # Rows of the product and parameters it lacks, repeats allowed, up to more than it has.
    choice = data.draw(st.lists(st.sampled_from(params + STRANGERS), max_size=len(params) + 2))
    read = fresh()
    read.family
    assert restricted(fresh(), choice) == restricted(read, choice)
    labels = [p.label for p in choice] + data.draw(st.lists(st.sampled_from(["zz", "(a, zz)", "a"]), max_size=1))
    assert decided(fresh(), labels) == decided(read, labels)


def test_an_unchecked_operand_with_a_bad_cell_still_raises_from_the_product(kernels):
    bad = GradeTriple.unchecked(Grade(6000), Grade(0), Grade(7000))
    # Cells that keep (0.6, 0, 0.7) under each rule, so the product holds a bad cell too.
    for op, cell in ((and_op, (10000, 0, 0)), (or_op, (0, 1000, 10000))):
        c = Parameter("c")
        good = SoftSet(UNIVERSE, [c], {c: {e: GradeTriple(*map(Grade, cell)) for e in UNIVERSE}})
        for first in UNIVERSE:
            params = [Parameter("a"), Parameter("b")]
            cells = {p: {e: good.triple(c, e) for e in UNIVERSE} for p in params}
            cells[params[1]][first] = bad
            unchecked = SoftSet(UNIVERSE, params, cells)
            for left, right in ((unchecked, good), (good, unchecked)):
                with pytest.raises(ConstraintViolation, match=r"^min\(truth, falsity\) = 0\.6 exceeds 0\.5$"):
                    op(left, right)
    assert kernels[0] == 8  # each one computed and checked when made


@pytest.mark.parametrize("depth", [1000, 5000])
def test_chains_of_products_read_without_recursion(kernels, depth):
    leaf, other = varied(["a"], universe=("x",)), varied(["b"], universe=("x",), shift=1)

    def chain():
        s = leaf
        for level in range(depth):
            s = (or_op if level % 2 else and_op)(s, other)
        return s

    cell = tuple(grade.ten_thousandths for grade in leaf.triple(Parameter("a"), "x").components())
    for level in range(depth):  # the same chain, one triple at a time
        rule = (max, min, min) if level % 2 else (min, min, max)
        cell = tuple(pick(ours, theirs) for pick, ours, theirs in zip(rule, cell, CELLS[1]))

    def check(s):
        top = s.parameters[0]
        assert kernels[0] == depth - 1  # each level read its operand, the last level is unread
        negated = complement(s)
        assert negated.triple(negated.parameters[0], "x").components()[::-1] == s.triple(top, "x").components()
        assert s.triple(top, "x") == GradeTriple(*map(Grade, cell)) and kernels[0] == depth + 1
        assert select_best(s, [top.label]).best == "x" and not is_null(s)

    beneath(EXTRA_FRAMES, check, beneath(EXTRA_FRAMES, chain))


@pytest.mark.parametrize("op", [and_op, or_op])
def test_empty_universes_and_parameterless_operands(op):
    empty = ()
    for left, right in (
        (varied(["a", "b"], universe=empty), varied(["c"], universe=empty)),
        (varied([]), varied(["c", "d"])),
        (varied(["a"]), varied([])),
    ):
        universe = left.universe
        product, negated = op(left, right), complement(op(left, right))
        rows = len(left.parameters) * len(right.parameters)
        expected = SoftSet(
            universe,
            [CompoundParameter(p, q) for p in left.parameters for q in right.parameters],
            {CompoundParameter(p, q): dict(op(left, right).value_set(CompoundParameter(p, q)))
             for p in left.parameters for q in right.parameters},
        )
        assert repr(product) == f"SoftSet({len(universe)} elements, {rows} parameters)"
        assert op(left, right).restrict(expected.parameters[:1]) == expected.restrict(expected.parameters[:1])
        assert op(left, right).restrict([]) == expected.restrict([])
        assert product == expected and equals(product, expected)
        assert complement(negated) == expected and serialize_soft_set(negated) == serialize_soft_set(
            complement(expected)
        )
        if rows and not universe:
            with pytest.raises(EmptyUniverse):
                select_best(op(left, right), [expected.parameters[0].label])


# Corner grades of the four-decimal grid, drawn more often than the rest.
CORNERS = (0, 1, 4999, 5000, 5001, 9999, 10000)


def text_of(ticks):
    """A grade's minimal decimal text, as the format writes it."""
    return "0" if ticks == 0 else "1" if ticks == 10000 else f"0.{ticks:04d}".rstrip("0")


def label_of(param):
    """The display label of ``(name, negated)`` or ``(left, right)``."""
    if isinstance(param[0], str):
        return f"not {param[0]}" if param[1] else param[0]
    return f"({label_of(param[0])}, {label_of(param[1])})"


def spec_of(param):
    if isinstance(param[0], str):
        return {"name": param[0], "negated": param[1]}
    return {"left": spec_of(param[0]), "right": spec_of(param[1])}


def negation_of(param):
    return (param[0], not param[1]) if isinstance(param[0], str) else (negation_of(param[0]), negation_of(param[1]))


def complemented(soft_set, times):
    for _ in range(times):
        soft_set = complement(soft_set)
    return soft_set


@pytest.mark.parametrize("size", [0, 1, 2, 15, 16, 17])
def test_products_at_lane_boundaries_write_what_int_tuples_give(size):
    """Universes about one lane block (15 lanes fill eight 30-bit digits), both factor shapes, both
    rules, up to two complements, and restrictions either side of the factor-row path, held byte
    for byte to documents built from plain int tuples."""
    rng = random.Random(size)
    universe = tuple(f"e{k:02d}" for k in range(size))

    def cell():
        while True:
            t, i, f = (rng.choice(CORNERS) if rng.random() < 0.5 else rng.randint(0, 10000) for _ in range(3))
            if min(t, f) <= 5000 and min(t, i) <= 5000 and min(f, i) <= 5000:
                return t, i, f

    def operand(prefix, count):
        rows = [((f"{prefix}{k}", k % 2 == 1), [cell() for _ in universe]) for k in range(count)]
        params = [Parameter(*param) for param, _ in rows]
        family = {
            p: {e: GradeTriple(*map(Grade, c)) for e, c in zip(universe, cells)} for p, (_, cells) in zip(params, rows)
        }
        return SoftSet(universe, params, family), rows

    def document(rows):
        return json.dumps(
            {
                "format_version": 1,
                "universe": list(universe),
                "parameters": [spec_of(param) for param, _ in rows],
                "grades": {
                    label_of(param): {e: list(map(text_of, c)) for e, c in zip(universe, cells)}
                    for param, cells in rows
                },
            },
            indent=2,
            sort_keys=True,
        ) + "\n"

    for left_count, right_count in ((3, 4), (4, 3)):
        (left, ours), (right, theirs) = operand("p", left_count), operand("q", right_count)
        for op, rule in ((and_op, (min, min, max)), (or_op, (max, min, min))):
            rows = [
                ((a, b), [tuple(pick(x, y) for pick, x, y in zip(rule, c, d)) for c, d in zip(xs, ys)])
                for a, xs in ours
                for b, ys in theirs
            ]
            for times in range(3):
                assert serialize_soft_set(complemented(op(left, right), times)) == document(rows)
                half = len(rows) // 2
                for count in (half, half + 1):  # the factor rows alone, then the whole matrix first
                    chosen = rng.sample(range(len(rows)), count)
                    product = complemented(op(left, right), times)
                    picked = product.restrict([product.find_parameter(label_of(rows[k][0])) for k in chosen])
                    assert serialize_soft_set(picked) == document([rows[k] for k in chosen])
                rows = [(negation_of(param), [c[::-1] for c in cells]) for param, cells in rows]


def test_threads_reading_one_unread_product_all_see_its_grades():
    # More threads than cores, switching often, all making the first read of the same products.
    left, right = varied([f"p{k}" for k in range(6)]), varied([f"q{k}" for k in range(8)], shift=2)
    expected = eager_and(left, right)
    chosen, most = list(expected.parameters[::5]), list(expected.parameters[1:])
    reads = [
        lambda s: s.restrict(chosen) == expected.restrict(chosen),
        lambda s: s == expected,
        lambda s: dict(s.value_set(chosen[-1])) == dict(expected.value_set(chosen[-1])),
        lambda s: complement(s) == eager_complement(expected),
        lambda s: s.triple(chosen[1], "y") == expected.triple(chosen[1], "y"),
        lambda s: pickle.loads(pickle.dumps(s)) == expected,
        lambda s: is_null(s) == is_null(expected),
        lambda s: s.restrict(most) == expected.restrict(most),
        lambda s: complement(complement(s)) == expected,
        lambda s: [s.find_parameter(p.label) for p in chosen] == chosen,
        lambda s: s.parameters == expected.parameters,
    ]
    products = [and_op(left, right) for _ in range(150)]
    results, switch = [], sys.getswitchinterval()

    def work(k):
        for product in products:
            results.append(reads[k % len(reads)](product))

    workers = [threading.Thread(target=work, args=(k,)) for k in range(len(reads))]  # one per read
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert len(results) == len(workers) * len(products) and all(results)
