"""The packed-lane kernels against naive per-cell min, max and >=, and the
products built on them at their edges: an empty universe and operands loaded
without the joint bounds check."""

import json
import random
from array import array

import pytest

from inss import ConstraintViolation, and_op, load_soft_set, or_op
from inss.grades import (
    GRADE_TEXTS,
    _violation,
    at_least,
    first_violation,
    guards,
    in_every_lane,
    larger,
    pack,
    smaller,
    unpack,
)

LENGTHS = (0, 1, 20, 32001)
EDGE_TICKS = (0, 5000, 5001, 10000)
BAD_CELLS = ((6000, 7000, 0), (0, 5001, 9000), (8000, 0, 5500), (5001, 5001, 5001))


def column_pair(rng, length):
    """Two tick columns mixing edge values, random values and equal lanes."""
    def tick():
        return rng.choice(EDGE_TICKS) if rng.random() < 0.5 else rng.randrange(10001)

    x = [tick() for _ in range(length)]
    y = [a if rng.random() < 0.3 else tick() for a in x]
    return array("H", x), array("H", y)


def is_bad(t, i, f):
    return (t > 5000) + (i > 5000) + (f > 5000) > 1


@pytest.mark.parametrize("length", LENGTHS)
def test_lane_max_and_min_match_the_naive_ones(length):
    rng = random.Random(length)
    x, y = column_pair(rng, length)
    lanes = guards(length)
    assert unpack(pack(x), length) == x
    assert unpack(larger(pack(x), pack(y), lanes), length) == array("H", map(max, x, y))
    assert unpack(smaller(pack(x), pack(y), lanes), length) == array("H", map(min, x, y))


@pytest.mark.parametrize("length", LENGTHS)
def test_lane_comparison_matches_the_naive_one(length):
    rng = random.Random(length + 1)
    x, y = column_pair(rng, length)
    lanes = guards(length)
    assert at_least(pack(x), pack(x), lanes)
    assert at_least(pack(x), pack(y), lanes) == all(a >= b for a, b in zip(x, y))
    high = array("H", map(max, x, y))
    assert at_least(pack(high), pack(x), lanes) and at_least(pack(high), pack(y), lanes)
    if length:
        # One lane one tick short, anywhere, breaks the comparison.
        for position in {0, length // 2, length - 1}:
            lower = array("H", high)
            lower[position] = 0
            assert not at_least(pack(lower), in_every_lane(1, length), lanes)


@pytest.mark.parametrize("ticks", EDGE_TICKS)
def test_edge_ticks_in_every_lane(ticks):
    for length in LENGTHS:
        lanes = guards(length)
        same = in_every_lane(ticks, length)
        assert unpack(same, length) == array("H", [ticks] * length)
        assert larger(same, same, lanes) == smaller(same, same, lanes) == same
        for other in EDGE_TICKS:
            them = in_every_lane(other, length)
            assert unpack(larger(same, them, lanes), length) == array("H", [max(ticks, other)] * length)
            assert unpack(smaller(same, them, lanes), length) == array("H", [min(ticks, other)] * length)
            assert at_least(same, them, lanes) == (ticks >= other or length == 0)


@pytest.mark.parametrize("length", LENGTHS)
def test_first_violation_finds_the_naive_first_bad_cell(length):
    rng = random.Random(length + 2)
    for bad_share in (0.0, 0.001, 0.3):
        columns = [array("H"), array("H"), array("H")]
        for _ in range(length):
            if rng.random() < bad_share:
                cell = rng.choice(BAD_CELLS + ((10000, 0, 10000),))
            else:
                cell = rng.choice([(5000, 5000, 5000), (10000, 5000, 0), (0, 0, 10000), (5001, 5000, 0)])
            for column, tick in zip(columns, cell):
                column.append(tick)
        naive = next((k for k, cell in enumerate(zip(*columns)) if is_bad(*cell)), None)
        found = first_violation(*columns)
        if naive is None:
            assert found is None
        else:
            assert found == (naive, _violation(*(column[naive] for column in columns)))


@pytest.mark.parametrize("length", [1, 20, 32001])
def test_first_violation_at_each_end(length):
    for position in {0, length - 1}:
        truth, indeterminacy, falsity = (array("H", [5000] * length) for _ in range(3))
        truth[position] = indeterminacy[position] = 10000
        assert first_violation(truth, indeterminacy, falsity) == (
            position,
            "min(truth, indeterminacy) = 1 exceeds 0.5",
        )


def write_document(path, universe, params, cells):
    """A document whose ``cells[p][e]`` are (truth, indeterminacy, falsity) ticks."""
    doc = {
        "format_version": 1,
        "universe": universe,
        "parameters": [{"name": p, "negated": False} for p in params],
        "grades": {p: {e: [GRADE_TEXTS[c] for c in cells[p][e]] for e in universe} for p in params},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("op", [and_op, or_op])
def test_products_over_an_empty_universe(tmp_path, op):
    left = load_soft_set(write_document(tmp_path / "l.json", [], ["a", "b"], {"a": {}, "b": {}}))
    right = load_soft_set(write_document(tmp_path / "r.json", [], ["c", "d", "e"], {p: {} for p in "cde"}))
    product = op(left, right)
    assert product.universe == ()
    assert [p.label for p in product.parameters] == [f"({a}, {b})" for a in "ab" for b in "cde"]
    assert all(len(product.value_set(p)) == 0 for p in product.parameters)
    assert op(right, right).parameters[0].label == "(c, c)"


@pytest.mark.parametrize("op, rule", [(and_op, (min, min, max)), (or_op, (max, min, min))])
@pytest.mark.parametrize("seed", range(12))
def test_a_product_of_unchecked_operands_names_the_first_bad_pair(tmp_path, op, rule, seed):
    # Random cells, some of them breaking the bounds; the naive product is
    # walked pair by pair in row-major order, each pair's cells in universe
    # order, and the first bad cell found must be the one reported.
    rng = random.Random(seed)
    universe = [f"e{k}" for k in range(rng.randint(2, 6))]

    def cells(params):
        def cell():
            if rng.random() < 0.3:
                return rng.choice(BAD_CELLS)
            ticks = [rng.randrange(5001) for _ in range(3)]
            ticks[rng.randrange(3)] = rng.choice(EDGE_TICKS)  # at most one component above one half
            return tuple(ticks)

        return {p: {e: cell() for e in universe} for p in params}

    left_params = [f"l{k}" for k in range(rng.randint(2, 5))]
    right_params = [f"r{k}" for k in range(rng.randint(2, 5))]
    left_cells, right_cells = cells(left_params), cells(right_params)
    left = load_soft_set(write_document(tmp_path / "l.json", universe, left_params, left_cells), check_grades=False)
    right = load_soft_set(write_document(tmp_path / "r.json", universe, right_params, right_cells), check_grades=False)

    first = None
    for a in left_params:
        for b in right_params:
            for e in universe:
                cell = tuple(f(x, y) for f, x, y in zip(rule, left_cells[a][e], right_cells[b][e]))
                if first is None and is_bad(*cell):
                    first = cell
    if first is None:
        product = op(left, right)
        assert len(product.parameters) == len(left_params) * len(right_params)
    else:
        with pytest.raises(ConstraintViolation) as caught:
            op(left, right)
        assert str(caught.value) == _violation(*first)
