import json
import random

import pytest
from helpers import fixture, random_soft_set
from hypothesis import given
from hypothesis import strategies as st

from inss import (
    ConstraintViolation,
    DuplicateElement,
    DuplicateParameter,
    Grade,
    GradeTriple,
    InssError,
    OutOfRange,
    ParseError,
    Parameter,
    PrecisionLoss,
    SoftSet,
    and_op,
    complement,
    intersection,
    load_reference_matrix,
    load_soft_set,
    or_op,
    render_table,
    save_soft_set,
    serialize_soft_set,
    soft_set_to_document,
    union,
)

ALL_SOFT_SET_FIXTURES = [
    "attractiveness.json",
    "not_attractiveness.json",
    "null_blouses.json",
    "sizes.json",
    "textures.json",
    "qualities_a.json",
    "qualities_b.json",
    "qualities_union.json",
    "qualities_intersection.json",
    "qualities_intersection_printed.json",
    "qualities_and.json",
    "qualities_or.json",
    "qualities_or_printed.json",
    "shopping.json",
    "distributive_a.json",
    "distributive_c.json",
]


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# Small operands for chains of operations, with names that look like labels,
# so that the labels of different parameters can collide once combined.
CHAIN_UNIVERSE = ("x", "y")
CHAIN_NAMES = st.sampled_from(["a", "b", "a, b", "b, c", "not a", "not a, b", "(a, b)"])
CHAIN_CELLS = st.sampled_from([(0, 0, 0), (3000, 2000, 4000), (10000, 0, 0), (0, 10000, 5000), (5000, 5000, 5000)])


@st.composite
def chain_operands(draw):
    parameters = st.builds(Parameter, CHAIN_NAMES, st.booleans())
    params = draw(st.lists(parameters, min_size=1, max_size=3, unique_by=lambda p: p.label))
    cells = {p: {e: GradeTriple(*map(Grade, draw(CHAIN_CELLS))) for e in CHAIN_UNIVERSE} for p in params}
    return SoftSet(CHAIN_UNIVERSE, params, cells)


def minimal_doc():
    return {
        "format_version": 1,
        "universe": ["b1", "b2"],
        "parameters": [{"name": "bright", "negated": False}],
        "grades": {"bright": {"b1": ["0.5", "0.6", "0.3"], "b2": ["0.4", "0.7", "0.2"]}},
    }


class TestRoundTrips:
    @pytest.mark.parametrize("name", ALL_SOFT_SET_FIXTURES)
    def test_fixture_files_are_canonical(self, name):
        loaded = load_soft_set(fixture(name))
        assert serialize_soft_set(loaded) == fixture(name).read_text(encoding="utf-8")

    def test_unchecked_fixture_round_trips_too(self):
        loaded = load_soft_set(fixture("distributive_b.json"), check_grades=False)
        assert serialize_soft_set(loaded) == fixture("distributive_b.json").read_text(
            encoding="utf-8"
        )
        quality = loaded.find_parameter("quality")
        assert str(loaded.triple(quality, "b3")) == "(0.1, 0.6, 0.7)"

    def test_strict_loading_rejects_the_out_of_bounds_cell(self):
        with pytest.raises(ConstraintViolation, match=r"grades\['quality'\]\['b3'\]"):
            load_soft_set(fixture("distributive_b.json"))

    def test_save_then_load_preserves_compound_parameters(self, tmp_path):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        product = or_op(a, b)
        target = tmp_path / "product.json"
        save_soft_set(product, target)
        assert load_soft_set(target) == product
        assert serialize_soft_set(load_soft_set(target)) == target.read_text(encoding="utf-8")

    def test_random_sets_round_trip(self, tmp_path):
        rng = random.Random(99)
        for k in range(20):
            s = random_soft_set(rng)
            target = tmp_path / f"s{k}.json"
            save_soft_set(s, target)
            assert load_soft_set(target) == s

    @given(
        start=chain_operands(),
        steps=st.lists(
            st.tuples(
                st.sampled_from([union, intersection, complement, and_op, or_op]),
                st.one_of(chain_operands(), st.integers(0, 6)),  # a fresh set, or an earlier result
            ),
            max_size=6,
        ),
    )
    def test_operation_chains_round_trip(self, tmp_path_factory, start, steps):
        # Each step raises a named error or gives a set that is written, read
        # back equal, and written again to the same bytes.
        path = tmp_path_factory.getbasetemp() / "chain.json"
        made = [start]
        for operation, other in steps:
            current = made[-1]
            if operation is complement:
                operands = (current,)
            else:
                right = other if isinstance(other, SoftSet) else made[other % len(made)]
                if len(current.parameters) * len(right.parameters) > 64:  # keep products of products small
                    continue
                operands = (current, right)
            try:
                result = operation(*operands)
            except InssError:
                continue
            text = serialize_soft_set(result)
            path.write_text(text, encoding="utf-8")
            loaded = load_soft_set(path)
            assert loaded == result and serialize_soft_set(loaded) == text
            made.append(result)

    def test_document_shape(self):
        doc = soft_set_to_document(load_soft_set(fixture("qualities_b.json")))
        assert doc["format_version"] == 1
        assert doc["universe"] == ["b1", "b2", "b3", "b4", "b5"]
        assert doc["parameters"] == [
            {"name": "Costly", "negated": False},
            {"name": "Colorful", "negated": False},
        ]
        assert doc["grades"]["Costly"]["b1"] == ["0.6", "0.2", "0.3"]

    def test_grades_emitted_in_minimal_decimal_form(self, tmp_path):
        doc = minimal_doc()
        doc["grades"]["bright"]["b1"] = [0.5, "0.60", 0]
        loaded = load_soft_set(write_doc(tmp_path, doc))
        emitted = soft_set_to_document(loaded)["grades"]["bright"]["b1"]
        assert emitted == ["0.5", "0.6", "0"]

    def test_empty_universe_and_no_parameters_round_trip(self, tmp_path):
        doc = {"format_version": 1, "universe": [], "parameters": [], "grades": {}}
        loaded = load_soft_set(write_doc(tmp_path, doc))
        assert loaded.universe == ()
        assert loaded.parameters == ()
        reloaded = write_doc(tmp_path, json.loads(serialize_soft_set(loaded)), "again.json")
        assert load_soft_set(reloaded) == loaded


class TestParsingErrors:
    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_soft_set(path)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_soft_set(tmp_path / "absent.json")

    def test_an_empty_path_is_a_missing_file_not_the_current_directory(self):
        for read in (load_soft_set, load_reference_matrix):
            with pytest.raises(FileNotFoundError):
                read("")
        with pytest.raises(FileNotFoundError):
            save_soft_set(load_soft_set(fixture("attractiveness.json")), "")
        with pytest.raises(TypeError):  # a path, never a file descriptor
            load_soft_set(987654)
        with pytest.raises(TypeError):
            save_soft_set(load_soft_set(fixture("attractiveness.json")), 987654)

    def test_document_must_be_an_object(self, tmp_path):
        with pytest.raises(ParseError, match="must be a JSON object"):
            load_soft_set(write_doc(tmp_path, [1, 2]))

    @pytest.mark.parametrize("version", [0, 2, "1", True, None])
    def test_unsupported_version(self, tmp_path, version):
        doc = minimal_doc()
        doc["format_version"] = version
        with pytest.raises(ParseError, match="format_version"):
            load_soft_set(write_doc(tmp_path, doc))

    def test_missing_and_extra_keys(self, tmp_path):
        doc = minimal_doc()
        del doc["universe"]
        with pytest.raises(ParseError, match="missing key"):
            load_soft_set(write_doc(tmp_path, doc))
        doc = minimal_doc()
        doc["comment"] = "hello"
        with pytest.raises(ParseError, match="unexpected key"):
            load_soft_set(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "universe, error, hint",
        [
            ("b1", ParseError, "must be a list"),
            ([""], ParseError, r"universe\[0\]"),
            ([1], ParseError, r"universe\[0\]"),
            (["b1", "b1"], DuplicateElement, "duplicate element"),
        ],
    )
    def test_bad_universe(self, tmp_path, universe, error, hint):
        doc = minimal_doc()
        doc["universe"] = universe
        if universe == ["b1", "b1"]:
            doc["grades"]["bright"] = {"b1": ["0.5", "0.6", "0.3"]}
        with pytest.raises(error, match=hint):
            load_soft_set(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "spec, hint",
        [
            ("bright", "must be an object"),
            ({"name": "bright"}, "expected keys"),
            ({"name": "bright", "negated": False, "extra": 1}, "expected keys"),
            ({"name": "", "negated": False}, "non-empty string"),
            ({"name": "bright", "negated": "no"}, "true or false"),
            ({"left": {"name": "a", "negated": False}, "right": "b"}, r"parameters\[0\].right"),
            ({"name": "bright", "negated": {}}, r"^parameters\[0\]\.negated: must be true or false$"),
            ({"name": "bright", "negated": 0}, r"^parameters\[0\]\.negated: must be true or false$"),
            ({"name": "", "negated": {}}, r"^parameters\[0\]\.name: parameter name must be a non-empty string"),
            ({"name": 7, "negated": "no"}, r"^parameters\[0\]\.name: parameter name must be a non-empty string"),
        ],
    )
    def test_bad_parameter_specs(self, tmp_path, spec, hint):
        doc = minimal_doc()
        doc["parameters"] = [spec]
        with pytest.raises(ParseError, match=hint):
            load_soft_set(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("parameters", [{"name": "bright", "negated": False}, "bright", None])
    def test_parameters_must_be_a_list(self, tmp_path, parameters):
        doc = minimal_doc()
        doc["parameters"] = parameters
        with pytest.raises(ParseError) as caught:
            load_soft_set(write_doc(tmp_path, doc))
        assert str(caught.value) == "parameters: must be a list"

    def test_duplicate_parameters_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["parameters"] = [
            {"name": "bright", "negated": False},
            {"name": "bright", "negated": False},
        ]
        with pytest.raises(DuplicateParameter):
            load_soft_set(write_doc(tmp_path, doc))

    def test_grades_coverage_is_exact(self, tmp_path):
        doc = minimal_doc()
        doc["grades"]["mystery"] = {}
        with pytest.raises(ParseError, match="unknown parameter 'mystery'"):
            load_soft_set(write_doc(tmp_path, doc))

        doc = minimal_doc()
        doc["grades"] = {}
        with pytest.raises(ParseError, match="missing entry for parameter 'bright'"):
            load_soft_set(write_doc(tmp_path, doc))

        doc = minimal_doc()
        del doc["grades"]["bright"]["b2"]
        with pytest.raises(ParseError, match=r"grades\['bright'\]: missing element 'b2'"):
            load_soft_set(write_doc(tmp_path, doc))

        doc = minimal_doc()
        doc["grades"]["bright"]["b9"] = ["0", "0", "0"]
        with pytest.raises(ParseError, match="unknown element 'b9'"):
            load_soft_set(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "cell, error",
        [
            (["0.5", "0.6"], ParseError),
            ("0.5", ParseError),
            (["0.5", "0.6", "oops"], ParseError),
            (["1.5", "0.6", "0.3"], OutOfRange),
            (["0.50001", "0.6", "0.3"], PrecisionLoss),
            (["0.6", "0.6", "0.6"], ConstraintViolation),
        ],
    )
    def test_cell_errors_carry_their_location(self, tmp_path, cell, error):
        doc = minimal_doc()
        doc["grades"]["bright"]["b2"] = cell
        with pytest.raises(error, match=r"grades\['bright'\]\['b2'\]"):
            load_soft_set(write_doc(tmp_path, doc))

    def test_check_grades_false_only_relaxes_the_joint_bounds(self, tmp_path):
        doc = minimal_doc()
        doc["grades"]["bright"]["b2"] = ["0.6", "0.6", "0.2"]
        loaded = load_soft_set(write_doc(tmp_path, doc), check_grades=False)
        assert str(loaded.triple(Parameter("bright"), "b2")) == "(0.6, 0.6, 0.2)"
        doc["grades"]["bright"]["b2"] = ["1.6", "0.6", "0.2"]
        with pytest.raises(OutOfRange):
            load_soft_set(write_doc(tmp_path, doc), check_grades=False)


class TestReferenceMatrixDocuments:
    def test_printed_matrix_fixture_loads(self):
        ref = load_reference_matrix(fixture("shopping_matrix_printed.json"))
        assert ref.objects == ("b1", "b2", "b3", "b4", "b5")
        assert ref.parameter_labels == (
            "Bright",
            "Costly",
            "Polystyreneing",
            "Colorful",
            "Cheap",
        )
        assert ref.entries[4] == (7, 2, 6, -1, 3)

    def base(self):
        return {
            "format_version": 1,
            "objects": ["a", "b"],
            "parameters": ["p"],
            "entries": [[1], [0]],
        }

    def test_happy_path(self, tmp_path):
        ref = load_reference_matrix(write_doc(tmp_path, self.base()))
        assert ref.entries == ((1,), (0,))

    @pytest.mark.parametrize(
        "mutate, hint",
        [
            (lambda d: d.update(entries=[[1]]), "one row per object"),
            (lambda d: d.update(entries=[[1, 2], [0, 0]]), "one value per parameter"),
            (lambda d: d.update(entries=[[1.5], [0]]), "must be integers"),
            (lambda d: d.update(entries=[[True], [0]]), "must be integers"),
            (lambda d: d.update(objects=["a", 2]), "non-empty strings"),
            (lambda d: d.update(parameters=[""]), "non-empty labels"),
            (lambda d: d.update(format_version=3), "format_version"),
            (lambda d: d.pop("objects"), "missing key"),
        ],
    )
    def test_malformed_documents(self, tmp_path, mutate, hint):
        doc = self.base()
        mutate(doc)
        with pytest.raises(ParseError, match=hint):
            load_reference_matrix(write_doc(tmp_path, doc))


class TestRendering:
    def test_table_layout_is_stable(self):
        rendered = render_table(load_soft_set(fixture("qualities_b.json")))
        assert rendered == (
            "U   Costly           Colorful\n"
            "b1  (0.6, 0.2, 0.3)  (0.4, 0.6, 0.2)\n"
            "b2  (0.2, 0.7, 0.2)  (0.2, 0.8, 0.3)\n"
            "b3  (0.3, 0.6, 0.5)  (0.6, 0.3, 0.4)\n"
            "b4  (0.8, 0.4, 0.1)  (0.2, 0.8, 0.3)\n"
            "b5  (0.7, 0.1, 0.4)  (0.5, 0.6, 0.4)"
        )

    def test_lines_carry_no_trailing_spaces(self):
        rendered = render_table(load_soft_set(fixture("shopping.json")))
        for line in rendered.splitlines():
            assert line == line.rstrip()

    def test_header_only_when_no_parameters(self):
        s = SoftSet(("x",), (), {})
        assert render_table(s) == "U"
