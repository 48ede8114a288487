import json
import random
from types import SimpleNamespace

import pytest
from helpers import FOUR_DECIMAL, PARAM_POOL, fine_soft_set, fixture, random_soft_set

from inss import (
    CellAudit,
    DecisionTable,
    EmptyParameterSet,
    EmptyUniverse,
    ComparisonMatrix,
    Grade,
    GradeTriple,
    Parameter,
    ReferenceMatrix,
    ReferenceMismatch,
    SoftSet,
    UnknownParameter,
    comparison_matrix,
    load_soft_set,
    scores,
    select_best,
)
from inss.errors import QUOTE_LIMIT, clipped
from inss.oracle import oracle_matrix

EXPECTED_MATRIX = {
    "b1": (0, -2, 3, 4, 2),
    "b2": (-1, 1, -2, 2, 2),
    "b3": (3, 5, 0, 4, -1),
    "b4": (6, 3, 3, 3, 4),
    "b5": (1, 2, 6, -1, 3),
}
EXPECTED_SCORES = (7, 2, 11, 19, 11)
SHOPPING_REPORT = {
    "objects": ["b1", "b2", "b3", "b4", "b5"],
    "parameters": ["Bright", "Costly", "Polystyreneing", "Colorful", "Cheap"],
    "matrix": [[0, -2, 3, 4, 2], [-1, 1, -2, 2, 2], [3, 5, 0, 4, -1], [6, 3, 3, 3, 4], [1, 2, 6, -1, 3]],
    "audits": [
        [[1, 2, 3], [2, 0, 4], [2, 3, 2], [4, 2, 2], [1, 3, 2]],
        [[3, 0, 4], [3, 1, 3], [1, 1, 4], [0, 4, 2], [4, 0, 2]],
        [[4, 2, 3], [4, 2, 1], [0, 4, 4], [2, 2, 0], [2, 1, 4]],
        [[3, 3, 0], [1, 4, 2], [4, 1, 2], [4, 3, 4], [4, 3, 3]],
        [[0, 4, 3], [0, 3, 1], [3, 3, 0], [1, 2, 4], [1, 4, 2]],
    ],
    "scores": [7, 2, 11, 19, 11],
    "ranking": ["b4", "b3", "b5", "b1", "b2"],
    "best": "b4",
    "tied": False,
    "reference_diff": None,
}


def triple(t, i, f):
    return GradeTriple(Grade(t), Grade(i), Grade(f))


def column(universe, cells, name="p"):
    p = Parameter(name)
    return SoftSet(universe, [p], {p: {e: c for e, c in zip(universe, cells)}})


@pytest.fixture(scope="module")
def shopping():
    return load_soft_set(fixture("shopping.json"))


@pytest.fixture(scope="module")
def shopping_matrix(shopping):
    return comparison_matrix(DecisionTable(shopping))


class TestWorkedExample:
    def test_matrix_entries(self, shopping_matrix):
        for object_id, row in EXPECTED_MATRIX.items():
            assert shopping_matrix.row(object_id) == row
        assert shopping_matrix.entries == tuple(
            EXPECTED_MATRIX[o] for o in ("b1", "b2", "b3", "b4", "b5")
        )

    def test_audit_counts_behind_the_winning_row(self, shopping_matrix):
        row = shopping_matrix.audits[shopping_matrix.objects.index("b4")]
        assert row[0] == CellAudit(truth_wins=3, indeterminacy_wins=3, falsity_wins=0)
        assert row[0].value == 6
        assert [cell.value for cell in row] == [6, 3, 3, 3, 4]

    def test_scores_and_ranking(self, shopping_matrix):
        vector = scores(shopping_matrix)
        assert vector.scores == EXPECTED_SCORES
        assert vector.ranking == ("b4", "b3", "b5", "b1", "b2")

    def test_select_best_end_to_end(self, shopping):
        report = select_best(shopping)
        assert report.best == "b4"
        assert not report.tied
        assert report.scores.scores == EXPECTED_SCORES

    def test_column_sums(self, shopping_matrix):
        assert shopping_matrix.column_sums == (9, 9, 10, 12, 10)

    def test_unknown_object_row_lookup(self, shopping_matrix):
        with pytest.raises(ValueError, match="unknown object"):
            shopping_matrix.row("b9")

    def test_a_huge_unknown_object_is_clipped(self, shopping_matrix):
        with pytest.raises(ValueError) as caught:
            shopping_matrix.row("z" * 500)
        assert str(caught.value) == f"unknown object '{clipped('z' * 500)}'"
        assert len(str(caught.value)) == len("unknown object ''...") + QUOTE_LIMIT

    def test_a_matrix_is_not_equal_to_an_int(self, shopping_matrix):
        assert (shopping_matrix == 5) is False
        assert shopping_matrix != 5

    def test_report_serializes(self, shopping):
        report = select_best(shopping)
        data = report.to_dict()
        assert data["best"] == "b4"
        assert data["matrix"][3] == [6, 3, 3, 3, 4]
        assert data["audits"][3][0] == [3, 3, 0]
        assert data["reference_diff"] is None
        json.dumps(data)

    def test_report_dict_in_full(self, shopping):
        assert select_best(shopping).to_dict() == SHOPPING_REPORT


class TestMatrixStorage:
    """The public constructor and ``comparison_matrix`` must build equal matrices."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = random.Random(20261018)
        universe = [f"e{k}" for k in range(200)]
        pool = rng.sample(FOUR_DECIMAL, 60)  # few distinct grades, so many ties
        return DecisionTable(fine_soft_set(rng, universe, [Parameter(n) for n in PARAM_POOL], pool))

    def test_oracle_and_production_matrices_are_equal_and_hash_alike(self, table):
        expected = oracle_matrix(table)
        matrix = comparison_matrix(table)
        assert len(matrix.objects) == 200 and len(matrix.parameters) == 6
        assert expected == matrix and matrix == expected
        assert hash(expected) == hash(matrix)
        assert expected.entries == matrix.entries
        assert expected.audits == matrix.audits
        assert expected.column_sums == matrix.column_sums
        assert len({expected, matrix}) == 1

    def test_constructor_round_trips_the_audits(self, table):
        matrix = comparison_matrix(table)
        rebuilt = ComparisonMatrix(matrix.objects, matrix.parameters, matrix.audits)
        assert rebuilt == matrix and hash(rebuilt) == hash(matrix)
        assert rebuilt.entries == tuple(tuple(cell.value for cell in row) for row in matrix.audits)

    def test_one_changed_count_breaks_equality(self, table):
        audits = [list(row) for row in comparison_matrix(table).audits]
        cell = audits[7][2]
        audits[7][2] = CellAudit(cell.truth_wins, cell.indeterminacy_wins, cell.falsity_wins + 1)
        changed = ComparisonMatrix(table.objects, table.parameters, tuple(map(tuple, audits)))
        assert changed != comparison_matrix(table)


class TestChoice:
    def test_choice_by_label_restricts_columns(self, shopping):
        table = DecisionTable(shopping, ["Cheap", "Bright"])
        assert [p.label for p in table.parameters] == ["Cheap", "Bright"]
        matrix = comparison_matrix(table)
        assert matrix.row("b4") == (4, 6)

    def test_choice_by_parameter_object(self, shopping):
        bright = shopping.find_parameter("Bright")
        table = DecisionTable(shopping, [bright])
        assert table.parameters == (bright,)

    def test_unknown_choice_label(self, shopping):
        with pytest.raises(UnknownParameter):
            DecisionTable(shopping, ["Sturdy"])

    def test_unknown_choice_parameter(self, shopping):
        with pytest.raises(UnknownParameter):
            DecisionTable(shopping, [Parameter("Sturdy")])

    def test_bad_choice_type(self, shopping):
        with pytest.raises(TypeError):
            DecisionTable(shopping, [42])

    @pytest.mark.parametrize("entry, text", [(42, "42"), (None, "None"), (b"Bright", "b'Bright'")])
    def test_a_choice_entry_that_is_no_parameter_is_named(self, shopping, entry, text):
        with pytest.raises(TypeError) as caught:
            select_best(shopping, ["Bright", entry])
        assert str(caught.value) == f"not a parameter: {text}"

    def test_labels_and_parameters_mix_in_one_choice(self, shopping):
        table = DecisionTable(shopping, ["Cheap", Parameter("Bright")])
        assert table.parameters == (Parameter("Cheap"), Parameter("Bright"))

    def test_empty_choice(self, shopping):
        with pytest.raises(EmptyParameterSet):
            DecisionTable(shopping, [])

    def test_empty_universe(self):
        p = Parameter("p")
        empty = SoftSet((), [p], {p: {}})
        with pytest.raises(EmptyUniverse):
            DecisionTable(empty)


class TestSmallCases:
    def test_single_object_scores_zero(self):
        s = column(["only"], [triple(3000, 2000, 4000)])
        report = select_best(s)
        assert report.matrix.entries == ((0,),)
        assert report.scores.scores == (0,)
        assert report.best == "only"
        assert not report.tied

    def test_identical_rows_tie_and_break_by_position(self):
        cells = [triple(3000, 2000, 4000), triple(3000, 2000, 4000)]
        report = select_best(column(["x", "y"], cells))
        assert report.scores.scores == (1, 1)
        assert report.tied
        assert report.best == "x"
        flipped = select_best(column(["y", "x"], cells))
        assert flipped.best == "y"

    def test_indeterminacy_counts_in_favor(self):
        cells = [triple(5000, 6000, 2000), triple(5000, 1000, 2000)]
        report = select_best(column(["hazy", "crisp"], cells))
        assert report.matrix.entries == ((1,), (0,))
        assert report.best == "hazy"

    def test_falsity_counts_against(self):
        cells = [triple(5000, 2000, 6000), triple(5000, 2000, 1000)]
        report = select_best(column(["worse", "better"], cells))
        assert report.best == "better"


class TestRanking:
    @pytest.mark.parametrize("seed", range(20))
    def test_ties_keep_universe_order(self, seed):
        rng = random.Random(seed)
        objects = tuple(rng.sample([f"o{k}" for k in range(1000)], 200))
        score = {o: rng.randint(0, 5) for o in objects}
        position = {o: k for k, o in enumerate(objects)}
        # scores() reads only the objects and the rows of the matrix it is given
        matrix = SimpleNamespace(objects=objects, entries=tuple((score[o],) for o in objects))
        expected = tuple(sorted(objects, key=lambda o: (-score[o], position[o])))
        assert scores(matrix).ranking == expected


class TestReference:
    def make_reference(self, matrix, tweak=()):
        entries = [list(row) for row in matrix.entries]
        for i, j, value in tweak:
            entries[i][j] = value
        return ReferenceMatrix(
            matrix.objects,
            tuple(p.label for p in matrix.parameters),
            tuple(tuple(row) for row in entries),
        )

    def test_matching_reference_produces_empty_diff(self, shopping, shopping_matrix):
        report = select_best(shopping, None, self.make_reference(shopping_matrix))
        assert report.reference_diff == ()

    def test_diff_pinpoints_cells(self, shopping, shopping_matrix):
        reference = self.make_reference(shopping_matrix, tweak=[(0, 3, 0), (4, 0, 7)])
        report = select_best(shopping, None, reference)
        listed = [
            (d.object_id, d.parameter.label, d.computed, d.reference)
            for d in report.reference_diff
        ]
        assert listed == [("b1", "Colorful", 4, 0), ("b5", "Bright", 1, 7)]
        assert report.to_dict()["reference_diff"] == [
            {"object": "b1", "parameter": "Colorful", "computed": 4, "reference": 0},
            {"object": "b5", "parameter": "Bright", "computed": 1, "reference": 7},
        ]

    def test_misaligned_reference_rejected(self, shopping, shopping_matrix):
        labels = tuple(p.label for p in shopping_matrix.parameters)
        wrong_objects = ReferenceMatrix(
            ("c1", "c2", "c3", "c4", "c5"), labels, shopping_matrix.entries
        )
        with pytest.raises(ReferenceMismatch):
            select_best(shopping, None, wrong_objects)
        wrong_labels = ReferenceMatrix(
            shopping_matrix.objects,
            ("A", "B", "C", "D", "E"),
            shopping_matrix.entries,
        )
        with pytest.raises(ReferenceMismatch):
            select_best(shopping, None, wrong_labels)

    def test_reference_shape_is_validated(self):
        with pytest.raises(ValueError):
            ReferenceMatrix(("a",), ("p",), ())
        with pytest.raises(ValueError):
            ReferenceMatrix(("a",), ("p",), ((1, 2),))

    def test_reference_built_from_lists_is_compared_as_tuples(self, shopping, shopping_matrix):
        objects, labels = list(shopping_matrix.objects), [p.label for p in shopping_matrix.parameters]
        rows = [list(row) for row in shopping_matrix.entries]
        assert select_best(shopping, reference=ReferenceMatrix(objects, labels, rows)).reference_diff == ()
        rows[1][2] += 1
        diff = select_best(shopping, reference=ReferenceMatrix(objects, labels, rows)).reference_diff
        assert [(d.object_id, d.parameter.label, d.computed, d.reference) for d in diff] == [
            ("b2", labels[2], rows[1][2] - 1, rows[1][2])
        ]


class TestInvariants:
    def test_a_table_keeps_only_its_soft_set_and_rows(self, shopping):
        table = DecisionTable(shopping, ["Cheap", "Bright"])
        assert DecisionTable.__slots__ == ("_soft_set", "_rows")
        assert table.objects is table.soft_set.universe and table.parameters == table.soft_set.parameters
        assert [p.label for p in table.parameters] == ["Cheap", "Bright"] and table.objects == shopping.universe

    def test_entries_ignore_object_names(self, shopping):
        renamed_ids = {old: f"cand_{k}" for k, old in enumerate(shopping.universe)}
        renamed = SoftSet(
            [renamed_ids[e] for e in shopping.universe],
            shopping.parameters,
            {
                p: {renamed_ids[e]: tr for e, tr in shopping.value_set(p).items()}
                for p in shopping.parameters
            },
        )
        assert comparison_matrix(DecisionTable(renamed)).entries == comparison_matrix(
            DecisionTable(shopping)
        ).entries

    def test_entry_bounds(self):
        rng = random.Random(20260819)
        for _ in range(50):
            s = random_soft_set(rng)
            n = len(s.universe)
            matrix = comparison_matrix(DecisionTable(s))
            for row in matrix.audits:
                for cell in row:
                    for count in (cell.truth_wins, cell.indeterminacy_wins, cell.falsity_wins):
                        assert 0 <= count <= n - 1
                    assert -(n - 1) <= cell.value <= 2 * (n - 1)

    def test_every_object_beats_nobody_in_a_constant_column(self):
        cells = [triple(4000, 4000, 4000)] * 3
        matrix = comparison_matrix(DecisionTable(column(["a", "b", "c"], cells)))
        # everyone ties everyone: counts are n-1 each, entry = (n-1)
        assert matrix.entries == ((2,), (2,), (2,))
