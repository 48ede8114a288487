"""The tick-column core against the oracle, at sizes the other suites skip.

Grades come from the four-decimal grid (or a small sample of it, so ties
are common) and universes have hundreds of elements.  Every operation, both
predicates, the comparison matrix and the load/serialize round trip are
checked against the oracle's independent dict-of-tuples algebra or the
generic JSON writer.
"""

import json
import random
from decimal import Decimal

import pytest
from helpers import FOUR_DECIMAL, PARAM_POOL, fine_soft_set, fixture, large_universe

from inss import (
    GRADE_SCALE,
    ConstraintViolation,
    DecisionTable,
    Grade,
    GradeTriple,
    Parameter,
    ParseError,
    SoftSet,
    and_op,
    comparison_matrix,
    complement,
    equals,
    intersection,
    is_subset,
    load_soft_set,
    or_op,
    serialize_soft_set,
    soft_set_to_document,
    union,
)
from inss import grades
from inss.cli import main
from inss.grades import GRADE_TEXTS, TICKS_BY_TEXT, grade_ticks
from inss.oracle import (
    _join_cells,
    _meet_cells,
    _raw,
    _raw_complement,
    _raw_intersection,
    _raw_product,
    _raw_union,
    oracle_equals,
    oracle_is_subset,
    oracle_matrix,
)

SEEDS = range(8)


def operands(seed: int, min_elements: int = 100, max_elements: int = 400):
    """Two soft sets on one large universe sharing at least one parameter.

    Odd seeds draw every grade from 15 grid values, so components tie often.
    """
    rng = random.Random(seed)
    universe = large_universe(rng, min_elements, max_elements)
    pool = rng.sample(FOUR_DECIMAL, 15) if seed % 2 else FOUR_DECIMAL
    core = rng.choice(PARAM_POOL)

    def side():
        names = [core] + [n for n in rng.sample(PARAM_POOL, rng.randint(0, 3)) if n != core]
        rng.shuffle(names)
        params = [Parameter(n, n != core and rng.random() < 0.3) for n in names]
        return fine_soft_set(rng, universe, params, pool)

    return side(), side()


def nudged(soft_set: SoftSet) -> SoftSet:
    """The same set with one positive falsity lowered by one tick."""
    param = soft_set.parameters[0]
    cells = dict(soft_set.value_set(param))
    element = next(e for e, t in cells.items() if t.falsity.ten_thousandths > 0)
    old = cells[element]
    cells[element] = GradeTriple(old.truth, old.indeterminacy, Grade(old.falsity.ten_thousandths - 1))
    family = {p: cells if p == param else soft_set.value_set(p) for p in soft_set.parameters}
    return SoftSet(soft_set.universe, soft_set.parameters, family)


@pytest.mark.parametrize("seed", SEEDS)
def test_set_operations_match_the_oracle(seed):
    a, b = operands(seed)
    ra, rb = _raw(a), _raw(b)
    assert _raw(union(a, b)) == _raw_union(ra, rb)
    assert _raw(union(b, a)) == _raw_union(rb, ra)
    assert _raw(intersection(a, b)) == _raw_intersection(ra, rb)
    assert _raw(complement(a)) == _raw_complement(ra)


@pytest.mark.parametrize("seed", SEEDS)
def test_products_match_the_oracle(seed):
    a, b = operands(seed)
    ra, rb = _raw(a), _raw(b)
    for op, rule in ((and_op, _meet_cells), (or_op, _join_cells)):
        product = op(a, b)
        assert _raw(product) == _raw_product(ra, rb, rule)
        for param in product.parameters:
            assert product.find_parameter(param.label) is param


@pytest.mark.parametrize("seed", SEEDS)
def test_subset_and_equals_match_the_oracle(seed):
    a, b = operands(seed)
    near = nudged(a)
    pairs = [(a, b), (b, a), (a, a), (a, near), (near, a), (intersection(a, b), a), (a, union(a, b))]
    for left, right in pairs:
        assert is_subset(left, right) == oracle_is_subset(left, right)
        assert equals(left, right) == oracle_equals(left, right)
    assert is_subset(a, near) and not is_subset(near, a)
    assert is_subset(intersection(a, b), a)


@pytest.mark.parametrize("seed", range(4))
def test_comparison_matrix_matches_the_oracle(seed):
    a, _ = operands(seed, 100, 200)
    table = DecisionTable(a)
    expected = oracle_matrix(table)
    matrix = comparison_matrix(table)
    assert matrix == expected
    assert matrix.audits == expected.audits
    assert matrix.entries == expected.entries


@pytest.mark.parametrize("seed", range(4))
def test_load_then_serialize_is_byte_exact(seed, tmp_path):
    a, b = operands(seed)
    for soft_set in (a, complement(b), and_op(a, b)):
        text = serialize_soft_set(soft_set)
        assert text == json.dumps(soft_set_to_document(soft_set), indent=2, sort_keys=True) + "\n"
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_soft_set(path)
        assert loaded == soft_set
        assert serialize_soft_set(loaded) == text


def test_serialization_escapes_labels_and_ids_like_json(tmp_path):
    odd = Parameter('qu"oted \\ ünïcode\tname')
    universe = ("zeta", "Älpha", 'a"b', "a")
    cells = {e: GradeTriple(Grade(1), Grade(5000), Grade(GRADE_SCALE)) for e in universe}
    for soft_set in (
        SoftSet(universe, [odd], {odd: cells}),
        SoftSet((), [odd], {odd: {}}),
        SoftSet(universe, [], {}),
    ):
        text = serialize_soft_set(soft_set)
        assert text == json.dumps(soft_set_to_document(soft_set), indent=2, sort_keys=True) + "\n"
        path = tmp_path / "odd.json"
        path.write_text(text, encoding="utf-8")
        assert load_soft_set(path) == soft_set


def test_every_grade_spelling_loads_as_grade_parse_reads_it(tmp_path):
    spellings = [Grade(t).text for t in range(GRADE_SCALE + 1)]
    spellings += ["0.50000", ".5", "5e-1", "+0.5", " 0.25 ", "0.", "1.0", "1.0000", "00.5", "٠.٥", "１"]
    universe = [f"e{k}" for k in range(len(spellings))]
    doc = {
        "format_version": 1,
        "universe": universe,
        "parameters": [{"name": "p", "negated": False}],
        "grades": {"p": {e: [text, "0", 0] for e, text in zip(universe, spellings)}},
    }
    path = tmp_path / "spellings.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_soft_set(path)
    p = Parameter("p")
    for element, text in zip(universe, spellings):
        assert loaded.triple(p, element).truth == Grade.parse(text)


@pytest.mark.parametrize("text", ["1.5", "0.12345", "-0", "-0.5", "0.5.", "1e1", "0x1", "²", "", "NaN"])
def test_rejected_grade_spellings_fail_as_grade_parse_does(tmp_path, text):
    try:
        Grade.parse(text, "truth")
    except Exception as err:
        expected = (type(err), f"grades['p']['e']: {err}")
    else:
        expected = None
    doc = {
        "format_version": 1,
        "universe": ["e"],
        "parameters": [{"name": "p", "negated": False}],
        "grades": {"p": {"e": [text, "0", "0"]}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if expected is None:
        assert load_soft_set(path).triple(Parameter("p"), "e").truth == Grade.parse(text)
        return
    with pytest.raises(expected[0]) as caught:
        load_soft_set(path)
    assert str(caught.value) == expected[1]


def test_operations_on_unchecked_sets_raise_for_the_first_bad_result():
    b = load_soft_set(fixture("distributive_b.json"), check_grades=False)
    cases = [
        (complement, (b,), "min(truth, indeterminacy) = 0.6 exceeds 0.5"),
        (union, (b, b), "min(falsity, indeterminacy) = 0.6 exceeds 0.5"),
        (intersection, (b, b), "min(falsity, indeterminacy) = 0.6 exceeds 0.5"),
        (and_op, (b, b), "min(falsity, indeterminacy) = 0.6 exceeds 0.5"),
        (or_op, (b, b), "min(falsity, indeterminacy) = 0.6 exceeds 0.5"),
    ]
    for op, args, message in cases:
        with pytest.raises(ConstraintViolation) as caught:
            op(*args)
        assert str(caught.value) == message


def test_unchecked_operands_still_combine_when_every_result_is_valid():
    a = load_soft_set(fixture("distributive_a.json"))
    b = load_soft_set(fixture("distributive_b.json"), check_grades=False)
    for op, raw_op in ((union, _raw_union), (intersection, _raw_intersection)):
        assert _raw(op(a, b)) == raw_op(_raw(a), _raw(b))
        assert _raw(op(b, a)) == raw_op(_raw(b), _raw(a))
    assert _raw(and_op(a, b)) == _raw_product(_raw(a), _raw(b), _meet_cells)
    assert _raw(or_op(b, a)) == _raw_product(_raw(b), _raw(a), _join_cells)


def product_operands(seed: int, objects: int, left_count: int, right_count: int):
    """Two soft sets on one universe with distinct, partly negated parameters."""
    rng = random.Random(seed)
    universe = [f"e{k}" for k in range(objects)]
    pool = rng.sample(FOUR_DECIMAL, 15) if seed % 2 else FOUR_DECIMAL

    def side(prefix, count):
        params = [Parameter(f"{prefix}{k}", rng.random() < 0.3) for k in range(count)]
        return fine_soft_set(rng, universe, params, pool)

    return side("a", left_count), side("b", right_count)


@pytest.mark.parametrize(
    "seed, objects, left_count, right_count",
    [(0, 20, 20, 40), (1, 20, 40, 20), (2, 1, 60, 45), (3, 0, 5, 7), (4, 20, 3, 0), (5, 20, 0, 3)],
)
def test_products_match_the_oracle_at_many_parameters(seed, objects, left_count, right_count):
    a, b = product_operands(seed, objects, left_count, right_count)
    ra, rb = _raw(a), _raw(b)
    for op, rule in ((and_op, _meet_cells), (or_op, _join_cells)):
        product = op(a, b)
        assert _raw(product) == _raw_product(ra, rb, rule)
        assert len(product.parameters) == left_count * right_count


@pytest.mark.parametrize(
    "op, passes", [(and_op, (GRADE_SCALE, GRADE_SCALE, 0)), (or_op, (0, GRADE_SCALE, GRADE_SCALE))]
)
def test_a_product_reports_the_first_bad_pair_in_row_major_order(op, passes):
    # Left cells either pass the right cell through unchanged or hide it behind
    # zeros, so exactly the pairs (l1, r2) at e2 and (l2, r1) at e1 come out
    # bad.  Row-major order reaches (l1, r2) first; pair-column order, or
    # element order across pairs, would reach (l2, r1) and report 0.6.
    def triple(t, i, f):
        return GradeTriple.unchecked(Grade(t), Grade(i), Grade(f))

    hides = triple(0, 0, 0)
    l1, l2, r1, r2 = (Parameter(name) for name in ("l1", "l2", "r1", "r2"))
    left = SoftSet(("e1", "e2"), [l1, l2], {
        l1: {"e1": hides, "e2": triple(*passes)},
        l2: {"e1": triple(*passes), "e2": hides},
    })
    right = SoftSet(("e1", "e2"), [r1, r2], {
        r1: {"e1": triple(6000, 6000, 0), "e2": triple(2000, 2000, 2000)},
        r2: {"e1": triple(2000, 2000, 2000), "e2": triple(0, 7000, 7000)},
    })
    with pytest.raises(ConstraintViolation) as caught:
        op(left, right)
    assert str(caught.value) == "min(falsity, indeterminacy) = 0.7 exceeds 0.5"


@pytest.mark.parametrize("op, valid", [(and_op, (GRADE_SCALE, 0, 0)), (or_op, (0, 0, GRADE_SCALE))])
def test_a_product_with_one_unchecked_operand_is_checked(op, valid):
    p, q = Parameter("p"), Parameter("q")
    good = SoftSet(("e",), [p], {p: {"e": GradeTriple(*map(Grade, valid))}})
    bad_cell = GradeTriple.unchecked(Grade(6000), Grade(0), Grade(7000))
    bad = SoftSet(("e",), [p, q], {p: {"e": GradeTriple(Grade(0), Grade(0), Grade(0))}, q: {"e": bad_cell}})
    for left, right in ((good, bad), (bad, good)):
        with pytest.raises(ConstraintViolation, match=r"^min\(truth, falsity\) = 0\.6 exceeds 0\.5$"):
            op(left, right)


def test_operations_leave_their_operands_unchanged():
    # Value sets share their tick lists with the operands and results they
    # came from, so no operation may change a list in place.
    a, b = operands(6, 20, 40)
    results = [op(a, b) for op in (and_op, or_op, union, intersection)] + [complement(a), complement(b)]
    sets = [a, b, *results]
    written = [serialize_soft_set(s) for s in sets]
    for result in results:
        for other in (result, a, b):
            for op in (and_op, or_op, union):
                op(result, other)
                op(other, result)
        complement(complement(result))
    assert [serialize_soft_set(s) for s in sets] == written


def test_decide_audit_agrees_with_the_oracle_on_a_large_document(tmp_path, capsys):
    a, _ = operands(3, 150, 150)
    path = tmp_path / "large.json"
    path.write_text(serialize_soft_set(a), encoding="utf-8")
    assert main(["decide", str(path), "--audit"]) == 0
    assert "oracle recount agrees with production matrix" in capsys.readouterr().out


@pytest.mark.parametrize(
    "first, second, error, element",
    [
        (["0.6", "0.6", "0"], ["0.5", "oops", "0"], ConstraintViolation, "b1"),
        (["0.5", "oops", "0"], ["0.6", "0.6", "0"], ParseError, "b1"),
        (["0.6", "0.6", "0"], "not a cell", ConstraintViolation, "b1"),
        (["0.1", "0.1", "0"], ["0.6", "0", "0.7"], ConstraintViolation, "b2"),
    ],
)
def test_the_first_bad_cell_in_reading_order_is_reported(tmp_path, first, second, error, element):
    doc = {
        "format_version": 1,
        "universe": ["b1", "b2"],
        "parameters": [{"name": "p", "negated": False}],
        "grades": {"p": {"b1": first, "b2": second}},
    }
    path = tmp_path / "two_errors.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error, match=rf"grades\['p'\]\['{element}'\]"):
        load_soft_set(path)


def test_the_grade_tables_hold_every_canonical_text_once():
    assert len(GRADE_TEXTS) == len(TICKS_BY_TEXT) == GRADE_SCALE + 1
    for k in FOUR_DECIMAL:
        text = GRADE_TEXTS[k]
        assert text == Grade(k).text == str(Decimal(k) / GRADE_SCALE)
        assert TICKS_BY_TEXT[text] == k == grade_ticks(text)


def test_fixed_width_spellings_skip_decimal(monkeypatch):
    spellings = {
        f"{Decimal(k) / GRADE_SCALE:.{width}f}": k
        for width in (1, 2, 3, 4)
        for k in range(0, GRADE_SCALE, 10 ** (4 - width))
    }
    monkeypatch.setattr(grades, "Decimal", None)  # any text that reached Decimal would raise TypeError
    for text, k in spellings.items():
        assert grade_ticks(text) == k


def test_the_grade_tables_never_learn_from_input(tmp_path):
    spellings = ["0.50", "1.0", "0.2500", " 0.3", "+0.1", "5e-1", ".75", "0.0"]
    universe = [f"e{k}" for k in range(len(spellings))]
    doc = {
        "format_version": 1,
        "universe": universe,
        "parameters": [{"name": "p", "negated": False}],
        "grades": {"p": {e: [text, 0.25, 0] for e, text in zip(universe, spellings)}},
    }
    path = tmp_path / "spellings.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_soft_set(path)
    assert [loaded.triple(Parameter("p"), e).truth.text for e in universe] == [
        "0.5", "1", "0.25", "0.3", "0.1", "0.5", "0.75", "0"
    ]
    assert len(TICKS_BY_TEXT) == GRADE_SCALE + 1
    assert all(text not in TICKS_BY_TEXT for text in spellings)
    with pytest.raises(TypeError):
        TICKS_BY_TEXT["0.50"] = 5000


def test_repeated_spellings_in_one_value_set_read_alike(tmp_path):
    # The loader remembers the non-canonical texts it has read in a value
    # set; a repeat, in any component, must read as the first one did.
    rows = [["0.50", "0.50", "1.00"], ["1.00", "0.0", "0.50"], [" 0.25", 1, "0.0"], ["0.50", " 0.25", 1.0]]
    universe = [f"e{k}" for k in range(len(rows))]
    doc = {
        "format_version": 1,
        "universe": universe,
        "parameters": [{"name": "p", "negated": False}],
        "grades": {"p": dict(zip(universe, rows))},
    }
    path = tmp_path / "repeats.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_soft_set(path, check_grades=False)
    for element, row in zip(universe, rows):
        assert loaded.triple(Parameter("p"), element).components() == tuple(map(Grade.parse, row))
    doc["grades"]["p"]["e3"] = ["0.50", " 0.25", True]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=r"^grades\['p'\]\['e3'\]: falsity True is not a decimal number$"):
        load_soft_set(path, check_grades=False)


@pytest.mark.parametrize(
    "cell, message",
    [
        ([True, "0", "0"], "truth True is not a decimal number"),
        ([False, "0", "0"], "truth False is not a decimal number"),
        (["0.5", [0.5], "0"], "indeterminacy [0.5] is not a decimal number"),
        (["0.5", "0", {"a": 1}], "falsity {'a': 1} is not a decimal number"),
    ],
)
def test_json_booleans_and_unhashable_grades_miss_the_table(tmp_path, cell, message):
    doc = {
        "format_version": 1,
        "universe": ["e"],
        "parameters": [{"name": "p", "negated": False}],
        "grades": {"p": {"e": cell}},
    }
    path = tmp_path / "odd_grades.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_soft_set(path)
    assert str(caught.value) == f"grades['p']['e']: {message}"
