import copy
import pickle
import random

import pytest
from helpers import (
    fixture,
    overlapping_trio,
    random_soft_set,
    random_universe,
    shared_params_trio,
    soft_set_over,
)

from inss import (
    DecisionTable,
    EmptyParameterIntersection,
    Grade,
    GradeTriple,
    Parameter,
    SoftSet,
    UniverseMismatch,
    UnknownLaw,
    comparison_matrix,
    equals,
    is_subset,
    load_soft_set,
)
from inss.grades import Record
from inss.oracle import (
    LAW_IDS,
    LawCheckResult,
    LawCounterexample,
    check_triple,
    oracle_equals,
    oracle_is_subset,
    oracle_law_check,
    oracle_matrix,
)


def triple(t, i, f):
    return GradeTriple(Grade(t), Grade(i), Grade(f))


class TestCheckTriple:
    def test_valid_triples_pass(self):
        assert check_triple(triple(3000, 5000, 4000)) == []
        assert check_triple(triple(0, 0, 0)) == []
        assert check_triple(triple(5000, 5000, 5000)) == []

    def test_each_bound_reports(self):
        bad = GradeTriple.unchecked(Grade(6000), Grade(7000), Grade(1000))
        assert check_triple(bad) == ["truth and indeterminacy both above one half"]
        bad = GradeTriple.unchecked(Grade(6000), Grade(1000), Grade(7000))
        assert check_triple(bad) == ["truth and falsity both above one half"]
        bad = GradeTriple.unchecked(Grade(1000), Grade(6000), Grade(7000))
        assert check_triple(bad) == ["falsity and indeterminacy both above one half"]

    def test_multiple_violations_all_reported(self):
        bad = GradeTriple.unchecked(Grade(10000), Grade(10000), Grade(10000))
        assert check_triple(bad) == [
            "truth and falsity both above one half",
            "truth and indeterminacy both above one half",
            "falsity and indeterminacy both above one half",
            "component sum above two",
        ]


class TestOracleAgreement:
    def test_matrix_matches_production_on_the_worked_example(self):
        table = DecisionTable(load_soft_set(fixture("shopping.json")))
        assert oracle_matrix(table) == comparison_matrix(table)

    def test_matrix_matches_production_on_random_tables(self):
        rng = random.Random(404)
        for _ in range(100):
            table = DecisionTable(random_soft_set(rng))
            assert oracle_matrix(table) == comparison_matrix(table)

    def test_subset_and_equality_agree_with_production(self):
        sizes = load_soft_set(fixture("sizes.json"))
        textures = load_soft_set(fixture("textures.json"))
        assert oracle_is_subset(sizes, textures)
        assert not oracle_is_subset(textures, sizes)
        rng = random.Random(405)
        for _ in range(100):
            universe = random_universe(rng, 5)
            a = random_soft_set(rng, universe=universe)
            b = random_soft_set(rng, universe=universe)
            assert oracle_is_subset(a, b) == is_subset(a, b)
            assert oracle_equals(a, b) == equals(a, b)
        with pytest.raises(UniverseMismatch):
            oracle_is_subset(sizes, load_soft_set(fixture("attractiveness.json")))


class TestLawChecker:
    def test_known_law_ids(self):
        assert LAW_IDS == tuple(sorted(LAW_IDS))
        assert len(LAW_IDS) == 13
        assert "union-commutative" in LAW_IDS
        assert "union-null-identity" in LAW_IDS

    def test_unknown_law_rejected(self):
        s = load_soft_set(fixture("attractiveness.json"))
        with pytest.raises(UnknownLaw, match="union-commutative"):
            oracle_law_check("union-distributes-over-itself", [s])

    def test_arity_enforced(self):
        s = load_soft_set(fixture("attractiveness.json"))
        with pytest.raises(ValueError, match="takes 2"):
            oracle_law_check("union-commutative", [s])

    def test_results_are_frozen_records_printed_like_dataclasses(self):
        spot = LawCounterexample(Parameter("p"), "x", "truth")
        result = LawCheckResult("union-commutative", False, spot)
        assert isinstance(result, Record) and isinstance(spot, Record)
        assert LawCheckResult.__slots__ == ("law", "holds", "counterexample")
        assert LawCounterexample.__slots__ == ("parameter", "element", "component")
        assert repr(result) == (
            "LawCheckResult(law='union-commutative', holds=False, counterexample=LawCounterexample("
            "parameter=Parameter(name='p', negated=False), element='x', component='truth'))"
        )
        same = LawCheckResult(law="union-commutative", holds=False, counterexample=spot)
        assert result == same and hash(result) == hash(same)
        assert result != LawCheckResult("union-commutative", True, None)
        for copied in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
            assert copied == result and copied is not result
        with pytest.raises(AttributeError, match="^cannot assign to field 'holds'$"):
            result.holds = True
        s = load_soft_set(fixture("attractiveness.json"))
        assert oracle_law_check("union-commutative", [s, s]) == LawCheckResult("union-commutative", True, None)

    def test_operands_must_share_a_universe(self):
        a = load_soft_set(fixture("attractiveness.json"))
        b = load_soft_set(fixture("sizes.json"))
        with pytest.raises(UniverseMismatch):
            oracle_law_check("union-commutative", [a, b])

    def test_identities_hold_on_random_instances(self):
        rng = random.Random(406)
        for _ in range(60):
            a, b, c = overlapping_trio(rng)
            for law, operands in [
                ("union-idempotent", [a]),
                ("intersection-idempotent", [a]),
                ("union-commutative", [a, b]),
                ("intersection-commutative", [a, b]),
                ("union-associative", [a, b, c]),
                ("intersection-associative", [a, b, c]),
                ("and-complement-de-morgan", [a, b]),
                ("or-complement-de-morgan", [a, b]),
                ("complement-involution", [a]),
            ]:
                result = oracle_law_check(law, operands)
                assert result.holds, (law, result.counterexample)

    def test_distributive_laws_hold_on_shared_parameter_instances(self):
        rng = random.Random(407)
        for _ in range(60):
            trio = shared_params_trio(rng)
            for law in (
                "union-distributes-over-intersection",
                "intersection-distributes-over-union",
            ):
                result = oracle_law_check(law, list(trio))
                assert result.holds, (law, result.counterexample)

    def test_distributivity_worked_example_holds_even_with_out_of_bounds_input(self):
        a = load_soft_set(fixture("distributive_a.json"))
        b = load_soft_set(fixture("distributive_b.json"), check_grades=False)
        c = load_soft_set(fixture("distributive_c.json"))
        result = oracle_law_check("union-distributes-over-intersection", [a, b, c])
        assert result.holds

    def test_union_with_all_zero_grades_is_not_an_identity(self):
        s = load_soft_set(fixture("attractiveness.json"))
        result = oracle_law_check("union-null-identity", [s])
        assert not result.holds
        assert result.counterexample.component == "indeterminacy"
        assert result.counterexample.element == "b1"
        assert result.counterexample.parameter.label == "bright"

    def test_intersection_with_all_zero_grades_does_not_absorb(self):
        s = load_soft_set(fixture("attractiveness.json"))
        result = oracle_law_check("intersection-null-absorption", [s])
        assert not result.holds
        assert result.counterexample.component == "falsity"

    def test_union_distributivity_fails_across_different_parameter_sets(self):
        universe = ["x"]
        p, q = Parameter("p"), Parameter("q")
        a = SoftSet(universe, [p], {p: {"x": triple(3000, 5000, 4000)}})
        b = SoftSet(
            universe,
            [p, q],
            {p: {"x": triple(3000, 2000, 4000)}, q: {"x": triple(3000, 2000, 4000)}},
        )
        c = SoftSet(universe, [q], {q: {"x": triple(3000, 2000, 4000)}})
        result = oracle_law_check("union-distributes-over-intersection", [a, b, c])
        assert not result.holds
        assert result.counterexample.parameter == p
        assert result.counterexample.element == "x"
        assert result.counterexample.component == "indeterminacy"

    def test_intersection_distributivity_can_be_undefined_across_parameter_sets(self):
        # the right-hand side needs every pairwise intersection to exist
        universe = ["x"]
        p, q = Parameter("p"), Parameter("q")
        a = SoftSet(universe, [p], {p: {"x": triple(3000, 5000, 4000)}})
        b = SoftSet(
            universe,
            [p, q],
            {p: {"x": triple(3000, 2000, 4000)}, q: {"x": triple(3000, 2000, 4000)}},
        )
        c = SoftSet(universe, [q], {q: {"x": triple(3000, 2000, 4000)}})
        with pytest.raises(EmptyParameterIntersection):
            oracle_law_check("intersection-distributes-over-union", [a, b, c])


class TestRawAlgebraMirrorsProduction:
    def test_law_sides_match_production_results(self):
        # the oracle evaluates union(a, b) itself; production union must agree
        rng = random.Random(408)
        from inss import union

        for _ in range(40):
            universe = random_universe(rng, 5)
            a = random_soft_set(rng, universe=universe)
            b = random_soft_set(rng, universe=universe)
            combined = union(a, b)
            flipped = union(b, a)
            assert equals(combined, flipped) == oracle_law_check(
                "union-commutative", [a, b]
            ).holds

    def test_oracle_equals_on_soft_sets_from_ops(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        from inss import union

        assert oracle_equals(union(a, b), load_soft_set(fixture("qualities_union.json")))
