"""The document and CLI boundary: one owner per invariant, strict JSON, and a
mutation fuzz over the bundled fixtures."""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from helpers import EXTRA_FRAMES, beneath, fixture
from hypothesis import given, settings
from hypothesis import strategies as st

from inss import (
    CompoundParameter,
    ConstraintViolation,
    DecisionTable,
    DuplicateElement,
    DuplicateParameter,
    InssError,
    OutOfRange,
    Parameter,
    ParseError,
    PrecisionLoss,
    ReferenceMatrix,
    SoftSet,
    and_op,
    complement,
    intersection,
    load_reference_matrix,
    load_soft_set,
    or_op,
    save_soft_set,
    serialize_soft_set,
    union,
)
from inss.cli import main
from inss.errors import QUOTE_LIMIT, clipped
from inss.grades import ZERO_TRIPLE, grade_ticks
from inss.oracle import _join_cells, _raw, _raw_complement, _raw_intersection, _raw_product, _raw_union

FIXTURES = sorted(fixture("shopping.json").parent.glob("*.json"))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, text, name="doc.json"):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


def doc_with(universe, parameters, grades):
    return {"format_version": 1, "universe": universe, "parameters": parameters, "grades": grades}


BRIGHT = {"name": "bright", "negated": False}


# A one-cell document over one long element id, and the ids and labels of fixtures/shopping.json.
LONG_DOC = json.dumps(doc_with(["LONG"], [BRIGHT], {"bright": {"LONG": ["0", "0", "0"]}}))
SHOPPING_IDS = "['b1', 'b2', 'b3', 'b4', 'b5']"
SHOPPING_LABELS = "['Bright', 'Costly', 'Polystyreneing', 'Colorful', 'Cheap']"

ALL_COMMANDS = ("validate", "show", "complement", "union", "intersect", "subset", "equals", "and", "or", "decide")
ONE_FILE_COMMANDS = {"validate", "show", "complement", "decide"}
def chained_product_document(depth):
    """One parameter ``depth`` products deep, along the left, over two elements."""
    spec = '{"name": "a", "negated": false}'
    spec = '{"left": ' * depth + spec + ', "right": {"name": "b", "negated": false}}' * depth
    label = "(" * depth + "a" + ", b)" * depth
    grades = f'{{"{label}": {{"x": ["0", "0", "0"], "y": ["1", "0", "0"]}}}}'
    return f'{{"format_version": 1, "universe": ["x", "y"], "parameters": [{spec}], "grades": {grades}}}'


def chained_product(depth):
    """A one-element soft set of one parameter ``depth`` products deep, along the left."""
    param = Parameter("a")
    for _ in range(depth):
        param = CompoundParameter(param, Parameter("b"))
    return SoftSet(("x",), [param], {param: {"x": ZERO_TRIPLE}})


class TestRepeatedChoices:
    def test_restrict_rejects_a_repeated_parameter(self):
        shopping = load_soft_set(fixture("shopping.json"))
        bright = shopping.find_parameter("Bright")
        with pytest.raises(DuplicateParameter):
            shopping.restrict([bright, bright])

    def test_decision_table_rejects_a_repeated_label(self):
        with pytest.raises(DuplicateParameter):
            DecisionTable(load_soft_set(fixture("shopping.json")), ["Bright", "Bright"])

    def test_decide_reports_a_repeated_label(self):
        code, out, err = run("decide", fixture("shopping.json"), "--params", "Bright,Bright")
        assert code == 1
        assert out == ""
        assert err.startswith("error: DuplicateParameter:")


class TestErrorOrder:
    def test_duplicate_element_before_bad_grade(self, tmp_path):
        doc = doc_with(["b1", "b1"], [BRIGHT], {"bright": {"b1": ["2", "0", "0"]}})
        with pytest.raises(DuplicateElement, match=r"universe\[1\]"):
            load_soft_set(write(tmp_path, json.dumps(doc)))

    def test_duplicate_parameter_before_bad_grade(self, tmp_path):
        doc = doc_with(["b1"], [BRIGHT, BRIGHT], {"bright": {"b1": ["2", "0", "0"]}})
        with pytest.raises(DuplicateParameter, match=r"parameters\[1\]"):
            load_soft_set(write(tmp_path, json.dumps(doc)))

    def test_json_true_is_not_the_grade_one(self, tmp_path):
        grades = {"bright": {"b1": [1, 0, 0], "b2": [True, 0, 0]}}
        with pytest.raises(ParseError, match=r"grades\['bright'\]\['b2'\]: truth True"):
            load_soft_set(write(tmp_path, json.dumps(doc_with(["b1", "b2"], [BRIGHT], grades))))

    @pytest.mark.parametrize(
        "later",
        [
            None,  # no entry at all
            "not an object",
            {"b1": ["0", "0", "0"], "b2": ["0", "0", "0"], "b9": ["0", "0", "0"]},
            {"b1": ["0", "0", "0"]},
            {"b1": "not a cell", "b2": ["0", "0", "0"]},
            {"b1": ["oops", "0", "0"], "b2": ["0", "0", "0"]},
        ],
    )
    def test_bounds_in_an_earlier_value_set_win_over_a_later_structural_error(self, tmp_path, later):
        grades = {"bright": {"b1": ["0", "0", "0"], "b2": ["0.6", "0.7", "0"]}}
        if later is not None:
            grades["cheap"] = later
        doc = doc_with(["b1", "b2"], [BRIGHT, {"name": "cheap", "negated": False}], grades)
        with pytest.raises(ConstraintViolation) as caught:
            load_soft_set(write(tmp_path, json.dumps(doc)))
        assert str(caught.value) == "grades['bright']['b2']: min(truth, indeterminacy) = 0.6 exceeds 0.5"

    @pytest.mark.parametrize(
        "first, error, message",
        [
            (["0.6", "0.7", "0"], ConstraintViolation, "min(truth, indeterminacy) = 0.6 exceeds 0.5"),
            (["oops", "0", "0"], ParseError, "truth 'oops' is not a decimal number"),
            (["0", "2", "0"], OutOfRange, "indeterminacy = 2 outside [0, 1]"),
            ("not a cell", ParseError, "expected [truth, indeterminacy, falsity]"),
        ],
    )
    def test_a_bad_cell_wins_over_a_later_missing_element(self, tmp_path, first, error, message):
        doc = doc_with(["b1", "b2", "b3"], [BRIGHT], {"bright": {"b1": ["0", "0", "0"], "b2": first}})
        with pytest.raises(error) as caught:
            load_soft_set(write(tmp_path, json.dumps(doc)))
        assert str(caught.value) == f"grades['bright']['b2']: {message}"


def unchecked_operands(tmp_path):
    """Two soft sets on one universe loaded without the joint bounds check.

    ``bad`` breaks the bounds in ``q`` (shared with ``good``) and ``r`` (its
    own); ``good`` breaks none and has ``s`` to itself.
    """
    params = {name: {"name": name, "negated": False} for name in "pqrs"}
    bad = doc_with(["e1", "e2"], [params["p"], params["q"], params["r"]], {
        "p": {"e1": ["0.2", "0.2", "0.2"], "e2": ["0.3", "0.1", "0.4"]},
        "q": {"e1": ["0.1", "0.2", "0.3"], "e2": ["0.6", "0.6", "0"]},
        "r": {"e1": ["0", "0.7", "0.8"], "e2": ["0", "0", "0"]},
    })
    good = doc_with(["e1", "e2"], [params["p"], params["q"], params["s"]], {
        "p": {"e1": ["0.5", "0", "0.5"], "e2": ["0", "0", "0"]},
        "q": {"e1": ["0", "0", "1"], "e2": ["0", "0.4", "0"]},
        "s": {"e1": ["0", "0.9", "0"], "e2": ["0.5", "0.5", "0.5"]},
    })
    return tuple(
        load_soft_set(write(tmp_path, json.dumps(doc), f"{name}.json"), check_grades=False)
        for name, doc in (("bad", bad), ("good", good))
    )


@pytest.mark.parametrize(
    "op, operands, outcome",
    [
        (union, "bad good", None),
        (union, "good bad", None),
        (union, "bad bad", "min(truth, indeterminacy) = 0.6 exceeds 0.5"),
        (intersection, "bad good", None),
        (intersection, "good bad", None),
        (intersection, "bad bad", "min(truth, indeterminacy) = 0.6 exceeds 0.5"),
        (complement, "bad", "min(falsity, indeterminacy) = 0.6 exceeds 0.5"),
        (complement, "good", None),
        (and_op, "bad good", "min(falsity, indeterminacy) = 0.7 exceeds 0.5"),
        (and_op, "good bad", "min(falsity, indeterminacy) = 0.7 exceeds 0.5"),
        (or_op, "bad good", None),
        (or_op, "good bad", None),
        (or_op, "bad bad", "min(truth, indeterminacy) = 0.6 exceeds 0.5"),
    ],
)
def test_operations_on_unchecked_operands_raise_only_for_a_bad_result(tmp_path, op, operands, outcome):
    sets = dict(zip(("bad", "good"), unchecked_operands(tmp_path)))
    args = [sets[name] for name in operands.split()]
    if outcome is not None:
        with pytest.raises(ConstraintViolation) as caught:
            op(*args)
        assert str(caught.value) == outcome
        return
    result = op(*args)
    raw = [_raw(arg) for arg in args]
    expected = {
        union: lambda: _raw_union(*raw),
        intersection: lambda: _raw_intersection(*raw),
        complement: lambda: _raw_complement(*raw),
        or_op: lambda: _raw_product(*raw, _join_cells),
    }[op]()
    assert _raw(result) == expected


def test_an_unchecked_value_set_carried_by_union_is_checked_by_the_next_operation(tmp_path):
    bad, good = unchecked_operands(tmp_path)
    carried = union(good, bad)  # r comes over from bad unchanged
    with pytest.raises(ConstraintViolation) as caught:
        complement(carried)
    assert str(caught.value) == "min(truth, indeterminacy) = 0.7 exceeds 0.5"


class TestOneOwnerPerInvariant:
    def test_constructor_and_loader_share_element_messages(self, tmp_path):
        p = Parameter("p")
        with pytest.raises(DuplicateElement) as built:
            SoftSet(("x", "x"), [p], {p: {"x": ZERO_TRIPLE}})
        doc = doc_with(["x", "x"], [{"name": "p", "negated": False}], {"p": {"x": ["0", "0", "0"]}})
        with pytest.raises(DuplicateElement) as loaded:
            load_soft_set(write(tmp_path, json.dumps(doc)))
        assert str(built.value) == str(loaded.value) == "universe[1]: duplicate element id 'x'"

    def test_loader_keeps_the_universe_location_of_a_bad_id(self, tmp_path):
        doc = doc_with(["x", 7], [], {})
        with pytest.raises(ParseError, match=r"^universe\[1\]: element id must be a non-empty string, got 7"):
            load_soft_set(write(tmp_path, json.dumps(doc)))
        with pytest.raises(ValueError, match=r"^universe\[1\]: "):
            SoftSet(("x", 7), [], {})

    def test_constructors_and_loader_share_lone_surrogate_messages(self, tmp_path):
        with pytest.raises(ValueError) as built:
            SoftSet(("x", "\ud800"), [], {})
        with pytest.raises(ParseError) as loaded:
            load_soft_set(write(tmp_path, json.dumps(doc_with(["x", "\ud800"], [], {}))))
        assert str(built.value) == str(loaded.value)
        assert str(loaded.value) == r"universe[1]: element id must not contain a lone surrogate, got '\ud800'"

        with pytest.raises(ValueError) as built:
            Parameter("a\udc80b")
        doc = doc_with(["x"], [{"name": "a\udc80b", "negated": True}], {})
        with pytest.raises(ParseError) as loaded:
            load_soft_set(write(tmp_path, json.dumps(doc)))
        assert str(loaded.value) == f"parameters[0].name: {built.value}"
        assert str(built.value) == r"parameter name must not contain a lone surrogate, got 'a\udc80b'"

    def test_surrogate_pairs_are_one_character_and_load(self, tmp_path):
        grades = {"\U0001f34e": {"\U0001f600": ["0.5", "0", "0"]}}
        doc = doc_with(["\U0001f600"], [{"name": "\U0001f34e", "negated": False}], grades)
        text = json.dumps(doc)
        assert "\\ud83d\\ude00" in text  # the ASCII JSON spells the id as a surrogate pair
        loaded = load_soft_set(write(tmp_path, text))
        assert loaded.universe == ("\U0001f600",)
        assert loaded.parameters == (Parameter("\U0001f34e"),)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[1]], "entries: need exactly one row per object"),
            ([[1], [0, 0]], "entries[1]: need exactly one value per parameter"),
        ],
    )
    def test_reference_matrix_shape_has_one_owner(self, tmp_path, entries, message):
        with pytest.raises(ValueError) as built:
            ReferenceMatrix(("a", "b"), ("p",), tuple(map(tuple, entries)))
        doc = {"format_version": 1, "objects": ["a", "b"], "parameters": ["p"], "entries": entries}
        with pytest.raises(ParseError) as loaded:
            load_reference_matrix(write(tmp_path, json.dumps(doc)))
        assert str(built.value) == str(loaded.value) == message

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"a": [1]}, "entries: must be a list of rows of integers"),
            ([[1], 0], "entries[1]: must be a list of integers"),
            ([[1], "0"], "entries[1]: must be a list of integers"),
            ([0, [1]], "entries[0]: must be a list of integers"),
        ],
    )
    def test_reference_matrix_rows_must_be_lists(self, tmp_path, entries, message):
        doc = {"format_version": 1, "objects": ["a", "b"], "parameters": ["p"], "entries": entries}
        with pytest.raises(ParseError) as loaded:
            load_reference_matrix(write(tmp_path, json.dumps(doc)))
        assert str(loaded.value) == message

    def test_label_clash_names_its_position(self, tmp_path):
        pair = {"left": {"name": "a", "negated": False}, "right": {"name": "b", "negated": False}}
        doc = doc_with(["x"], [{"name": "(a, b)", "negated": False}, pair], {})
        with pytest.raises(DuplicateParameter, match=r"^parameters\[1\]: .* share label '\(a, b\)'$"):
            load_soft_set(write(tmp_path, json.dumps(doc)))

    @pytest.mark.parametrize("text", ["0", "1", "0.5", "0.1234", " 0.5", "0.50", "1.0", "5e-1", "0.5000"])
    def test_grade_text_has_one_parser(self, text):
        assert grade_ticks(text) == int(Decimal(text.strip()) * 10000)


class TestNumberGrades:
    @pytest.mark.parametrize(
        "grade, message",
        [
            ("0.12340000000000000001", "PrecisionLoss: truth = 0.12340000000000000001 has more than four decimal places"),
            ("0.00005", "PrecisionLoss: truth = 0.00005 has more than four decimal places"),
            ("1e5", "OutOfRange: truth = 1E+5 outside [0, 1]"),
            ("1.5", "OutOfRange: truth = 1.5 outside [0, 1]"),
            ("-0.5", "OutOfRange: truth = -0.5 outside [0, 1]"),
        ],
    )
    def test_a_number_grade_is_read_exactly(self, tmp_path, grade, message):
        doc = json.dumps(doc_with(["b1"], [BRIGHT], {"bright": {"b1": ["MARK", "0", "0"]}}))
        code, out, err = run("validate", write(tmp_path, doc.replace('"MARK"', grade)))
        error, text = message.split(": ", 1)
        assert (code, out, err) == (1, "", f"error: {error}: grades['bright']['b1']: {text}\n")

    def test_number_grades_on_the_grid_load_as_their_text_does(self, tmp_path):
        cells = '{"b1": [0.5, 1e-4, 0.25e0], "b2": [1.0, 0, 0.0], "b3": [0.1230, 5E-1, 0]}'
        doc = json.dumps(doc_with(["b1", "b2", "b3"], [BRIGHT], {"bright": "MARK"}))
        loaded = load_soft_set(write(tmp_path, doc.replace('"MARK"', cells)))
        rows = [tuple(g.text for g in loaded.triple(Parameter("bright"), e).components()) for e in loaded.universe]
        assert rows == [("0.5", "0.0001", "0.25"), ("1", "0", "0"), ("0.123", "0.5", "0")]

    def test_numbers_elsewhere_are_quoted_as_written(self, tmp_path):
        for field, value, message in (
            ("format_version", "1.5", "unsupported format_version 1.5"),
            ("universe", "[1.5]", "universe[0]: element id must be a non-empty string, got 1.5"),
            ("parameters", "[2.5]", "parameters[0]: parameter must be an object, got 2.5"),
        ):
            doc = {"format_version": 1, "universe": ["b1"], "parameters": [BRIGHT], "grades": {}}
            doc[field] = "MARK"
            with pytest.raises(ParseError) as caught:
                load_soft_set(write(tmp_path, json.dumps(doc).replace('"MARK"', value)))
            assert str(caught.value).endswith(message)

    @pytest.mark.parametrize(
        "value, quoted", [("1.5", "1.5"), ("1e5", "100000.0"), ("0.12340000000000000001", "0.1234")]
    )
    def test_reference_matrix_messages_keep_their_float_text(self, tmp_path, value, quoted):
        doc = '{"format_version": 1, "objects": ["a"], "parameters": ["p"], "entries": [[MARK]]}'
        with pytest.raises(ParseError) as caught:
            load_reference_matrix(write(tmp_path, doc.replace("MARK", value)))
        assert str(caught.value) == f"entries[0]: values must be integers, got {quoted}"


class TestStrictJson:
    def test_duplicate_top_level_key(self, tmp_path):
        text = json.dumps(doc_with(["b1"], [BRIGHT], {"bright": {"b1": ["0", "0", "0"]}}))
        path = write(tmp_path, text.replace("{", '{"format_version": 1, ', 1))
        with pytest.raises(ParseError, match="duplicate key 'format_version'"):
            load_soft_set(path)
        code, _, err = run("validate", path)
        assert code == 1 and "duplicate key 'format_version'" in err

    def test_duplicate_nested_key(self, tmp_path):
        text = json.dumps(doc_with(["b1"], [BRIGHT], {"bright": {"b1": ["0", "0", "0"]}}))
        text = text.replace('"b1": ["0"', '"b1": ["1", "0", "0"], "b1": ["0"')
        with pytest.raises(ParseError, match="duplicate key 'b1'"):
            load_soft_set(write(tmp_path, text))

    def test_duplicate_key_in_reference_matrix(self, tmp_path):
        text = fixture("shopping_matrix_printed.json").read_text().replace("{", '{"objects": [], ', 1)
        with pytest.raises(ParseError, match="duplicate key 'objects'"):
            load_reference_matrix(write(tmp_path, text))

    def test_undecodable_file_is_an_io_error(self, tmp_path):
        path = write(tmp_path, b'{"format_version": 1, "universe": ["b\xe91"]}')
        with pytest.raises(OSError, match="not UTF-8"):
            load_soft_set(path)
        code, out, err = run("validate", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not UTF-8" in err
        code, _, err = run("decide", fixture("shopping.json"), "--reference-matrix", path)
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("depth", [20_000, 100_000])
    def test_nesting_too_deep_for_the_decoder(self, tmp_path, depth):
        path = write(tmp_path, '{"format_version": 1, "universe": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(ParseError, match="nested too deeply"):
            load_soft_set(path)
        code, _, err = run("validate", path)
        assert code == 1 and err.startswith("error: ParseError:")

    @pytest.mark.parametrize(
        "grade, error",
        [
            ('"1' + "0" * 99_999 + '"', "OutOfRange"),
            ('"0.' + "0" * 99_998 + '1"', "PrecisionLoss"),
            ('"' + "x" * 100_000 + '"', "ParseError"),
            ("[" + "0, " * 50_000 + "0]", "ParseError"),
            # Read as an integer by the JSON decoder, which refuses more than
            # sys.get_int_max_str_digits() digits where that limit exists.
            ("1" + "0" * 99_999, "ParseError" if hasattr(sys, "get_int_max_str_digits") else "OutOfRange"),
        ],
    )
    def test_a_huge_grade_gives_a_short_error_line(self, tmp_path, grade, error):
        doc = json.dumps(doc_with(["b1"], [BRIGHT], {"bright": {"b1": ["MARK", "0", "0"]}}))
        code, out, err = run("validate", write(tmp_path, doc.replace('"MARK"', grade)))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize(
        "spec", [[0] * 50_000, {"name": [0] * 50_000, "negated": False}, {"name": "a", "negated": "no" * 50_000}]
    )
    def test_a_huge_parameter_gives_a_short_error_line(self, tmp_path, spec):
        code, out, err = run("validate", write(tmp_path, json.dumps(doc_with(["b1"], [spec], {}))))
        assert (code, out) == (1, "")
        assert err.startswith("error: ParseError: parameters[0]") and len(err) < 200

    def test_parameters_sharing_a_huge_label_give_a_short_error_line(self, tmp_path):
        # Both parameters are quoted, each clipped at twice the usual length.
        long = "x" * 5000
        specs = [{"name": "not " + long, "negated": False}, {"name": long, "negated": True}]
        code, out, err = run("validate", write(tmp_path, json.dumps(doc_with(["b1"], specs, {}))))
        assert (code, out) == (1, "")
        known = clipped(f"Parameter(name='not {long}', negated=False)", 2 * QUOTE_LIMIT)
        other = clipped(f"Parameter(name='{long}', negated=True)", 2 * QUOTE_LIMIT)
        assert err == (
            f"error: DuplicateParameter: parameters[1]: {known} and {other} share label '{clipped('not ' + long)}'\n"
        )
        assert len(err) < 500

    @pytest.mark.parametrize(
        "universe, names, grades, message",
        [
            (["LONG"], ["bright"], {"bright": {"LONG": ["2", "0", "0"]}},
             "OutOfRange: grades['bright']['CLIP']: truth = 2 outside [0, 1]"),
            (["b1"], ["LONG"], {"LONG": {"b1": ["oops", "0", "0"]}},
             "ParseError: grades['CLIP']['b1']: truth 'oops' is not a decimal number"),
            (["LONG"], ["LONG"], {"LONG": {"LONG": ["0.6", "0.7", "0"]}},
             "ConstraintViolation: grades['CLIP']['CLIP']: min(truth, indeterminacy) = 0.6 exceeds 0.5"),
            (["b1"], ["LONG"], {"LONG": {"b1": "not a cell"}},
             "ParseError: grades['CLIP']['b1']: expected [truth, indeterminacy, falsity]"),
            (["b1"], ["bright"], {"bright": {"b1": ["0", "0", "0"], "LONG": ["0", "0", "0"]}},
             "ParseError: grades['bright']: unknown element 'CLIP'"),
            (["b1", "LONG"], ["bright"], {"bright": {"b1": ["0", "0", "0"]}},
             "ParseError: grades['bright']: missing element 'CLIP'"),
            (["b1"], ["bright"], {"bright": {"b1": ["0", "0", "0"]}, "LONG": {}},
             "ParseError: grades: unknown parameter 'CLIP'"),
            (["b1"], ["LONG"], {}, "ParseError: grades: missing entry for parameter 'CLIP'"),
            (["LONG", "LONG"], ["bright"], {}, "DuplicateElement: universe[1]: duplicate element id 'CLIP'"),
            (["b1"], ["LONG", "LONG"], {}, "DuplicateParameter: parameters[1]: duplicate parameter 'CLIP'"),
        ],
    )
    def test_a_huge_id_or_label_is_clipped_in_error_locations(self, tmp_path, universe, names, grades, message):
        # Ids and labels of up to QUOTE_LIMIT characters are quoted whole, as the
        # exact-message tests elsewhere check.
        long = "x" * 100_000
        doc = json.dumps(
            doc_with(universe, [{"name": name, "negated": False} for name in names], grades)
        ).replace("LONG", long)
        code, out, err = run("validate", write(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"error: {message.replace('CLIP', clipped(long))}\n"

    @pytest.mark.parametrize(
        "argv, text, value, message",
        [
            (("validate", "SOURCE"), json.dumps(doc_with([["LONG"]], [BRIGHT], {})), ["LONG"],
             "ParseError: universe[0]: element id must be a non-empty string, got QUOTE"),
            (("validate", "SOURCE"), json.dumps(doc_with(["\ud800" * 300], [BRIGHT], {})), "\ud800" * 300,
             "ParseError: universe[0]: element id must not contain a lone surrogate, got QUOTE"),
            (("validate", "SOURCE"), '{"LONG": 0, "LONG": 1}', "LONG", "ParseError: SOURCE: duplicate key QUOTE"),
            (("validate", "SOURCE"), json.dumps({**doc_with(["b1"], [BRIGHT], {}), "LONG": 0}), ["LONG"],
             "ParseError: SOURCE: unexpected key(s) QUOTE"),
            (("validate", "SOURCE"), json.dumps(doc_with(["b1"], [{"LONG": 0}], {})), ["LONG"],
             "ParseError: parameters[0]: expected keys {'name', 'negated'} or {'left', 'right'}, got QUOTE"),
            (("decide", "SOURCE", "--params", "LONG"),
             json.dumps(doc_with(["b1"], [BRIGHT], {"bright": {"b1": ["0", "0", "0"]}})), None,
             "UnknownParameter: unknown parameter 'CLIP'"),
            (("union", "SOURCE", str(fixture("qualities_a.json"))), LONG_DOC, ["LONG"],
             f"UniverseMismatch: universes differ: QUOTE vs {SHOPPING_IDS}"),
            (("or", str(fixture("qualities_a.json")), "SOURCE"), LONG_DOC, ["LONG"],
             f"UniverseMismatch: universes differ: {SHOPPING_IDS} vs QUOTE"),
            (("decide", "SOURCE", "--reference-matrix", str(fixture("shopping_matrix_printed.json"))), LONG_DOC,
             ["LONG"], f"ReferenceMismatch: reference covers {SHOPPING_IDS} x {SHOPPING_LABELS}, "
             "computed matrix covers QUOTE x ['bright']"),
            (("decide", str(fixture("shopping.json")), "--reference-matrix", "SOURCE"),
             json.dumps({"format_version": 1, "objects": ["LONG"], "parameters": ["Bright"], "entries": [[0]]}),
             ["LONG"], f"ReferenceMismatch: reference covers QUOTE x ['Bright'], "
             f"computed matrix covers {SHOPPING_IDS} x {SHOPPING_LABELS}"),
            (("decide", str(fixture("shopping.json")), "--reference-matrix", "SOURCE"),
             json.dumps({"format_version": 1, "objects": ["b1"], "parameters": ["LONG"], "entries": [[0]]}),
             ["LONG"], f"ReferenceMismatch: reference covers ['b1'] x QUOTE, "
             f"computed matrix covers {SHOPPING_IDS} x {SHOPPING_LABELS}"),
        ],
        ids=[
            "non-string id", "lone surrogate id", "duplicate key", "unexpected key", "spec keys", "params label",
            "left universe", "right universe", "computed objects", "reference objects", "reference labels",
        ],
    )
    def test_a_huge_outside_value_is_clipped_in_messages(self, tmp_path, argv, text, value, message):
        # QUOTE stands for the clipped repr of value, CLIP for the clipped value.
        long = "x" * 100_000
        source = write(tmp_path, text.replace("LONG", long))
        code, out, err = run(*[{"SOURCE": source, "LONG": long}.get(arg, arg) for arg in argv])
        assert (code, out) == (1, "")
        quote = clipped(repr(value).replace("LONG", long))
        assert err == f"error: {message.replace('QUOTE', quote).replace('CLIP', clipped(long))}\n".replace(
            "SOURCE", str(source)
        )

    def test_quotes_keep_a_fixed_prefix(self):
        assert clipped("x" * QUOTE_LIMIT) == "x" * QUOTE_LIMIT
        assert clipped("x" * (QUOTE_LIMIT + 1)) == "x" * QUOTE_LIMIT + "..."
        with pytest.raises(PrecisionLoss) as caught:
            grade_ticks("0." + "1" * QUOTE_LIMIT)
        assert str(caught.value) == f"grade = 0.{'1' * (QUOTE_LIMIT - 2)}... has more than four decimal places"

    @pytest.mark.parametrize(
        "depth", [1, 50, 99, 100, 101, 200, 350, 400, 450, 500, 600, 800, 990, 1000, 1200, 3000]
    )
    def test_deep_compound_parameters_end_cleanly(self, tmp_path, depth):
        # A document nests compound parameters at most 100 levels; every command
        # reads it, or refuses it at load, even from deep in a caller's stack.
        # A product is one level deeper than its factors, and is refused at write.
        path = write(tmp_path, chained_product_document(depth))
        if depth <= 100:
            load_soft_set(path)
        else:
            with pytest.raises(ParseError, match="nested too deeply"):
                load_soft_set(path)
        for command in ALL_COMMANDS:
            args = [command, path] if command in ONE_FILE_COMMANDS else [command, path, path]
            code, _, err = beneath(EXTRA_FRAMES, run, *args)
            if depth + (command in ("and", "or")) <= 100:
                assert (command, code, err) == (command, 0, "")
            else:
                assert (command, code) == (command, 1)
                assert err.startswith("error: ParseError:") and "nested too deeply" in err

    @pytest.mark.parametrize("depth", [101, 1000, 5000])
    def test_writers_refuse_what_readers_refuse(self, tmp_path, depth):
        chain, out = chained_product(depth), tmp_path / "chain.json"
        for write_chain in (serialize_soft_set, lambda soft_set: save_soft_set(soft_set, out)):
            with pytest.raises(ParseError) as caught:
                beneath(EXTRA_FRAMES, write_chain, chain)
            assert str(caught.value) == "parameters[0]: compound parameters nested too deeply (limit 100 levels)"
        assert not out.exists()

    def test_the_deepest_writable_chain_round_trips(self, tmp_path):
        chain, out = chained_product(100), tmp_path / "chain.json"
        beneath(EXTRA_FRAMES, save_soft_set, chain, out)
        text = out.read_text(encoding="utf-8")
        assert text == serialize_soft_set(chain) == serialize_soft_set(beneath(EXTRA_FRAMES, load_soft_set, out))

    def test_product_of_two_deepest_documents_is_one_level_too_deep(self, tmp_path):
        # The writer refuses what a reader would, before any byte is written.
        path = write(tmp_path, chained_product_document(100))
        out = tmp_path / "product.json"
        assert beneath(EXTRA_FRAMES, run, "and", path, path, "--out", out) == (
            1, "", "error: ParseError: parameters[0]: compound parameters nested too deeply (limit 100 levels)\n"
        )
        assert not out.exists()


def test_empty_params_is_an_empty_parameter_set():
    code, out, err = run("decide", fixture("shopping.json"), "--params", "")
    assert (code, out) == (1, "")
    assert err.startswith("error: EmptyParameterSet:")


# --- Fuzz: mutate the bundled fixtures and require a clean outcome ----------

MARK = "\x00mark\x00"

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0.5", "1", "0.55555", "b1", "Bright", "x"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _with_text_at(doc, path, text):
    """The document's JSON with the value at ``path`` replaced by raw ``text``."""
    if not path:
        return text
    _at(doc, path[:-1])[path[-1]] = MARK
    return json.dumps(doc).replace(json.dumps(MARK), text, 1)


@st.composite
def mutated_fixtures(draw):
    """(fixture name, file bytes) for one fixture changed in one way."""
    source = draw(st.sampled_from(FIXTURES))
    raw = source.read_bytes()
    doc = json.loads(raw)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = _at(doc, path)
    kind = draw(st.sampled_from(["drop", "duplicate", "retype", "swap", "truncate", "undecodable", "nest"]))
    if kind == "truncate":
        return source.name, raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "undecodable":
        at = draw(st.integers(0, len(raw)))
        return source.name, raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:]
    if kind == "retype":
        text = json.dumps(draw(json_values))
    elif kind == "nest":
        depth = 3 ** draw(st.integers(0, 8))  # 1 to 6561 levels
        text = "[" * depth + json.dumps(value) + "]" * depth
    elif kind == "swap":
        other = draw(st.sampled_from(list(_paths(doc))))
        text = json.dumps(_at(doc, other))
    elif not path:
        return source.name, raw
    else:
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
            return source.name, json.dumps(doc).encode()
        if isinstance(parent, list):
            parent.insert(key, value)
            return source.name, json.dumps(doc).encode()
        text = f"{json.dumps(value)}, {json.dumps(key)}: {json.dumps(value)}"
    return source.name, _with_text_at(doc, path, text).encode()


@settings(max_examples=100, deadline=None)
@given(case=mutated_fixtures())
def test_mutated_fixtures_end_cleanly(case):
    name, data = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        path.write_bytes(data)
        reference = "matrix" in name
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(OSError):
                (load_reference_matrix if reference else load_soft_set)(path)
            allowed = {2}
        else:
            try:
                (load_reference_matrix if reference else load_soft_set)(path)
            except InssError:
                pass
            allowed = {0, 1}
        if reference:
            commands = [["decide", fixture("shopping.json"), "--reference-matrix", path]]
        else:
            commands = [
                ["validate", path],
                ["complement", path],
                ["union", path, fixture(name)],
                ["decide", path],
            ]
        for command in commands:
            code, _, err = run(*command)
            assert code in allowed
            assert code == 0 or err.startswith("error: ")
