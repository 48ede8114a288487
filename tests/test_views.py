"""A soft set's value sets are views of its tick matrix.

A soft set holds no GradeTriple and no view.  Each call of ``value_set``,
``family`` or ``triple`` makes a new view of a row of the matrix, which
builds a cell's triple when that cell is first read through it and keeps it
for as long as the caller keeps the view.  These tests hold every cell of
every view to the oracle's dict-of-tuples results, computed from the
documents' own cells, and pin what a view shares, keeps, lets go of and
carries into a copy or a pickle.
"""

import copy
import gc
import json
import pickle
import random
import sys

import pytest

from inss import (
    CompoundParameter,
    GradeTriple,
    InsSet,
    Parameter,
    SoftSet,
    and_op,
    complement,
    load_soft_set,
    or_op,
)
from inss.grades import GRADE_TEXTS, RowTriples
from inss.oracle import _join_cells, _meet_cells, _raw_complement, _raw_product

from helpers import fixture, random_triple

BAD_CELLS = ((6000, 7000, 0), (0, 5001, 9000), (8000, 0, 5500), (5001, 5001, 5001))


def draw(rng, universe, names, bad_share=0.0):
    """A document's cells, ``cells[name][element]``, as tick triples."""
    def cell():
        if rng.random() < bad_share:
            return rng.choice(BAD_CELLS)
        triple = random_triple(rng)
        return (triple.truth.ten_thousandths, triple.indeterminacy.ten_thousandths, triple.falsity.ten_thousandths)

    return {name: {e: cell() for e in universe} for name in names}


def written(path, universe, cells, check_grades=True):
    """The soft set loaded from a document of ``cells``, and the same cells in the oracle's raw form."""
    doc = {
        "format_version": 1,
        "universe": universe,
        "parameters": [{"name": name, "negated": False} for name in cells],
        "grades": {name: {e: [GRADE_TEXTS[c] for c in row[e]] for e in universe} for name, row in cells.items()},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    params = tuple(Parameter(name) for name in cells)
    return load_soft_set(path, check_grades=check_grades), (params, dict(zip(params, cells.values())))


def ticks(triple):
    return (triple.truth.ten_thousandths, triple.indeterminacy.ten_thousandths, triple.falsity.ten_thousandths)


def assert_views_match(soft_set, raw):
    params, values = raw
    assert soft_set.parameters == tuple(params)
    for param in reversed(params):  # rows out of order, and each row's cells too
        view = soft_set.value_set(param)
        for element in reversed(soft_set.universe):
            assert ticks(view[element]) == values[param][element], (param, element)
        assert list(view) == list(soft_set.universe)


@pytest.mark.parametrize("seed", range(8))
def test_every_cell_of_every_view_is_the_oracles(tmp_path, seed):
    rng = random.Random(seed)
    universe = [f"e{k}" for k in range(rng.randint(1, 7))]
    left, raw_left = written(tmp_path / "l.json", universe, draw(rng, universe, ["a", "b", "c"][: rng.randint(1, 3)]))
    right, raw_right = written(tmp_path / "r.json", universe, draw(rng, universe, ["p", "q"][: rng.randint(1, 2)]))
    assert_views_match(left, raw_left)
    assert_views_match(right, raw_right)
    for op, rule in ((and_op, _meet_cells), (or_op, _join_cells)):
        raw = _raw_product(raw_left, raw_right, rule)
        assert_views_match(op(left, right), raw)
        assert_views_match(complement(op(left, right)), _raw_complement(raw))
        assert_views_match(op(op(left, right), left), _raw_product(raw, raw_left, rule))


@pytest.mark.parametrize("seed", range(4))
def test_views_of_a_set_loaded_unchecked_read_its_bad_cells(tmp_path, seed):
    rng = random.Random(seed)
    universe = [f"e{k}" for k in range(rng.randint(2, 7))]
    loaded, raw = written(tmp_path / "bad.json", universe, draw(rng, universe, ["a", "b"], 0.4), check_grades=False)
    assert_views_match(loaded, raw)


def product():
    left = load_soft_set(fixture("qualities_a.json"))
    return and_op(left, load_soft_set(fixture("qualities_b.json")))


def test_a_held_view_is_the_value_set_and_keeps_each_triple():
    s = product()
    param = s.parameters[1]
    view = s.value_set(param)
    element = s.universe[-1]
    assert view[element] is view[element] == s.triple(param, element)
    for again in (s.value_set(param), s.family[param], s.value_set(CompoundParameter(param.left, param.right))):
        assert again == view and again is not view
        assert again[element] == view[element] and again[element] is not view[element]


def test_a_dropped_view_goes_and_the_next_read_makes_an_equal_one():
    s = product()
    param, element = s.parameters[0], s.universe[0]
    view = s.value_set(param)
    first = view[element]
    again = s.value_set(param)
    assert again is not view and again[element] == first and again[element] is not first
    count = sys.getrefcount(first)
    del view  # nothing else holds it, so its triple loses its one other holder
    assert sys.getrefcount(first) == count - 1


def test_family_builds_no_triple(monkeypatch):
    built = []
    missing = RowTriples.__missing__

    def counted(cells, element):
        built.append(element)
        return missing(cells, element)

    monkeypatch.setattr(RowTriples, "__missing__", counted)
    s = product()
    family = s.family
    assert len(family) == len(s.parameters) and built == []
    view = family[s.parameters[0]]
    view["b3"], view["b3"]
    assert built == ["b3"]
    assert s.value_set(s.parameters[0])["b3"] == view["b3"] and built == ["b3", "b3"]
    assert s.triple(s.parameters[0], "b3") == view["b3"] and built == ["b3", "b3", "b3"]


def test_a_soft_set_holds_no_view_and_no_triple():
    s = product()
    held = [s.value_set(p) for p in s.parameters] + list(s.family.values())
    for view in held:
        dict(view)
    held.append(s.triple(s.parameters[0], s.universe[0]))
    reached, todo = [], gc.get_referents(s)
    while todo:  # what the set holds, and what the containers among that hold
        ref = todo.pop()
        reached.append(ref)
        if isinstance(ref, (tuple, list, dict)):
            todo += gc.get_referents(ref)
    assert not [ref for ref in reached if isinstance(ref, (InsSet, RowTriples, GradeTriple))]


def test_an_unknown_element_is_a_key_error():
    view = product().value_set(CompoundParameter(Parameter("Cheap"), Parameter("Costly")))
    with pytest.raises(KeyError) as caught:
        view["nope"]
    assert caught.value.args == ("nope",)
    assert "nope" not in view and view.get("nope") is None
    assert "b1" in view and len(view) == len(view.universe) == 5


def test_a_view_prints_compares_copies_and_pickles_as_the_set_of_its_triples():
    s = product()
    view = s.value_set(s.parameters[2])
    view[s.universe[3]]  # one cell read first, out of universe order
    built = InsSet(s.universe, dict(view))
    assert repr(view) == repr(built)
    assert view == built and built == view and view == dict(view)
    other = next(triple for triple in s.value_set(s.parameters[0]).values() if triple != view["b1"])
    assert view != InsSet(s.universe, {**dict(view), "b1": other})
    for copied in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
        assert copied.__class__ is InsSet
        assert copied == built and repr(copied) == repr(built) and copied.universe == built.universe


def test_a_pickled_value_set_does_not_grow_with_the_parameter_count():
    # Every cell holds the same triple, so the first row's value set is the same in both products.
    cell = random_triple(random.Random(5))
    universe = [f"item{k:02d}" for k in range(20)]

    def operand(prefix, count):
        params = [Parameter(f"{prefix}{k:02d}") for k in range(count)]
        return SoftSet(universe, params, {p: dict.fromkeys(universe, cell) for p in params})

    sizes = []
    for left_count, right_count in ((1, 1), (2, 2), (20, 40)):
        s = and_op(operand("a", left_count), operand("b", right_count))
        view = s.value_set(s.find_parameter("(a00, b00)"))
        sizes.append(len(pickle.dumps(view)))
    assert sizes[0] == sizes[1] == sizes[2] == len(pickle.dumps(InsSet(universe, dict(view))))


def test_a_set_with_views_held_copies_and_pickles():
    for s in (product(), load_soft_set(fixture("qualities_a.json"))):
        view = s.value_set(s.parameters[0])
        pickled = [pickle.loads(pickle.dumps(s, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (copy.copy(s), copy.deepcopy(s), *pickled):
            assert copied == s
            assert copied.value_set(s.parameters[0]) == view


def test_the_family_rebuilds_the_set():
    s = product()
    assert SoftSet(s.universe, s.parameters, s.family) == s
    assert SoftSet(s.universe, s.parameters, s.family).family == s.family
