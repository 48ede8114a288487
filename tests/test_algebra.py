import copy
import pickle
import random

import pytest
from helpers import EXTRA_FRAMES, beneath, fixture, random_soft_set
from hypothesis import given
from hypothesis import strategies as st

from inss import (
    CompoundParameter,
    DuplicateElement,
    DuplicateParameter,
    EmptyParameterIntersection,
    Grade,
    GradeTriple,
    InsSet,
    Parameter,
    SoftSet,
    UniverseMismatch,
    UnknownParameter,
    and_op,
    canonicalize,
    complement,
    equals,
    intersection,
    is_null,
    is_subset,
    load_soft_set,
    not_parameters,
    or_op,
    save_soft_set,
    soft_set_to_document,
    union,
)
from inss.algebra import label_index
from inss.errors import QUOTE_LIMIT, clipped

T = GradeTriple
G = Grade


def triple(t, i, f):
    return T(G(t), G(i), G(f))


def tiny(universe=("x", "y"), names=("p", "q"), fill=(3000, 2000, 4000)):
    params = [Parameter(n) for n in names]
    family = {p: {e: triple(*fill) for e in universe} for p in params}
    return SoftSet(universe, params, family)


def parameter_trees(depth=6):
    """Parameters nested up to ``depth`` products deep, with names that look like labels."""
    names = st.sampled_from(["a", "b", "a, b", "b, c", "not a", "not a, b", "(a, b)"])
    trees = st.builds(Parameter, names, st.booleans())
    for _ in range(depth):
        trees = st.one_of(trees, st.builds(CompoundParameter, trees, trees))
    return trees


# Naive recursive references for the parameter classes' own loops.
def nested_key(p):
    if isinstance(p, CompoundParameter):
        return (1, nested_key(p.left), nested_key(p.right))
    return (0, p.name, p.negated)


def naive_repr(p):
    if isinstance(p, CompoundParameter):
        return f"CompoundParameter(left={naive_repr(p.left)}, right={naive_repr(p.right)})"
    return f"Parameter(name={p.name!r}, negated={p.negated!r})"


def rebuilt(p, flip=False):
    """The same tree built anew, every flag flipped when ``flip``."""
    if isinstance(p, CompoundParameter):
        return CompoundParameter(rebuilt(p.left, flip), rebuilt(p.right, flip))
    return Parameter(p.name, p.negated is not flip)


class TestParameters:
    def test_labels(self):
        assert Parameter("bright").label == "bright"
        assert Parameter("bright", negated=True).label == "not bright"
        pair = CompoundParameter(Parameter("Bright"), Parameter("Costly"))
        assert pair.label == "(Bright, Costly)"

    def test_negation(self):
        p = Parameter("bright")
        assert p.negate() == Parameter("bright", negated=True)
        assert p.negate().negate() == p
        pair = CompoundParameter(Parameter("a"), Parameter("b", negated=True))
        assert pair.negate() == CompoundParameter(
            Parameter("a", negated=True), Parameter("b")
        )
        assert pair.negate().label == "(not a, b)"

    def test_not_parameters_keeps_order(self):
        params = (Parameter("a"), Parameter("b", negated=True))
        assert [p.label for p in not_parameters(params)] == ["not a", "b"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Parameter("")

    def test_sort_order_simple_before_compound(self):
        a = Parameter("zeta")
        pair = CompoundParameter(Parameter("alpha"), Parameter("beta"))
        assert sorted([pair, a], key=lambda p: p.sort_key()) == [a, pair]

    def test_repr_text(self):
        assert repr(Parameter("bright")) == "Parameter(name='bright', negated=False)"
        pair = CompoundParameter(Parameter("a"), CompoundParameter(Parameter("b", True), Parameter("c")))
        assert repr(pair) == (
            "CompoundParameter(left=Parameter(name='a', negated=False), "
            "right=CompoundParameter(left=Parameter(name='b', negated=True), "
            "right=Parameter(name='c', negated=False)))"
        )

    @pytest.mark.parametrize("flag", [0, 1, None, "yes", {}, [True]])
    def test_negation_flag_must_be_a_bool(self, flag):
        with pytest.raises(TypeError, match="negation must be True or False"):
            Parameter("bright", flag)

    def test_a_bad_name_is_reported_before_a_bad_flag(self):
        with pytest.raises(ValueError, match="non-empty string"):
            Parameter("", {})

    def test_compounds_pair_parameters_only(self):
        with pytest.raises(TypeError, match="not a pair of parameters"):
            CompoundParameter(Parameter("a"), "b")

    def test_parameters_are_immutable(self):
        p = Parameter("a")
        pair = CompoundParameter(p, Parameter("b"))
        for target, field in ((pair, "left"), (pair, "right"), (pair, "label"), (p, "name"), (p, "label")):
            with pytest.raises(AttributeError):
                setattr(target, field, Parameter("z"))
            with pytest.raises(AttributeError):
                delattr(target, field)
        with pytest.raises(AttributeError):
            p.extra = 1
        assert pair.label == "(a, b)" and pair.left == p

    def test_equal_compounds_hash_alike(self):
        def build():
            return CompoundParameter(CompoundParameter(Parameter("a"), Parameter("b", True)), Parameter("c"))

        one, other = build(), build()
        assert one is not other and one == other and hash(one) == hash(other)
        assert {one: 1}[other] == 1
        assert one != CompoundParameter(one.right, one.left)
        assert one != CompoundParameter(CompoundParameter(Parameter("a"), Parameter("b")), Parameter("c"))
        assert Parameter("a") != CompoundParameter(Parameter("a"), Parameter("a"))

    def test_unequal_compounds_sharing_a_label_are_refused(self):
        one = CompoundParameter(Parameter("a, b"), Parameter("c"))
        other = CompoundParameter(Parameter("a"), Parameter("b, c"))
        assert one.label == other.label == "(a, b, c)" and one != other
        with pytest.raises(DuplicateParameter) as caught:
            SoftSet(("x",), [one, other], {})
        assert str(caught.value) == f"parameters[1]: {one!r} and {other!r} share label '(a, b, c)'"

    @pytest.mark.parametrize("product", [and_op, or_op])
    def test_a_product_label_collision_quotes_both_pairs(self, product):
        # Spelled out, so that a change in either class's repr shows here.
        with pytest.raises(DuplicateParameter) as caught:
            product(tiny(universe=("x",), names=("a, b", "a")), tiny(universe=("x",), names=("c", "b, c")))
        assert str(caught.value) == (
            "parameters[3]: CompoundParameter(left=Parameter(name='a, b', negated=False), "
            "right=Parameter(name='c', negated=False)) and "
            "CompoundParameter(left=Parameter(name='a', negated=False), "
            "right=Parameter(name='b, c', negated=False)) share label '(a, b, c)'"
        )

    def test_copies_and_pickles_are_equal(self):
        pair = CompoundParameter(Parameter("a", True), Parameter("b"))
        for copied in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
            assert copied == pair and hash(copied) == hash(pair) and copied.label == pair.label

    @given(params=st.lists(parameter_trees(), max_size=6))
    def test_parameters_behave_as_their_nested_structure(self, params):
        params += [rebuilt(p) for p in params]  # equal trees, built apart
        by_key, by_nested = sorted(params, key=lambda p: p.sort_key()), sorted(params, key=nested_key)
        assert list(map(id, by_key)) == list(map(id, by_nested))
        for p in params:
            assert repr(p) == naive_repr(p)
            assert nested_key(p.negate()) == nested_key(rebuilt(p, flip=True)) and p.negate().negate() == p
            for q in params:
                same = nested_key(p) == nested_key(q)
                assert (p == q) is same and (p != q) is not same and (not same or hash(p) == hash(q))
                assert (p.sort_key() < q.sort_key()) is (nested_key(p) < nested_key(q))

    @given(param=parameter_trees())
    def test_a_parameter_survives_save_and_load(self, tmp_path_factory, param):
        path = tmp_path_factory.getbasetemp() / "one_parameter.json"
        save_soft_set(SoftSet(("x",), [param], {param: {"x": triple(0, 0, 0)}}), path)
        (loaded,) = load_soft_set(path).parameters
        assert loaded == param and nested_key(loaded) == nested_key(param) and loaded.label == param.label

    def test_a_chain_of_a_thousand_products(self):
        # Labels and hashes come from the children's and every other walk over
        # a parameter is a loop, so nothing recurses, even deep in a caller's
        # stack; each level's label holds the whole chain, O(depth ** 2)
        # characters in all.
        def chain_of(depth):
            chain = tiny(universe=("x",), names=("a",))
            for _ in range(depth):
                chain = and_op(chain, tiny(universe=("x",), names=("b",)))
            return chain

        def check(chain, twin, depth):
            (top,), (other,) = chain.parameters, twin.parameters
            assert top is not other and top == other and not top != other
            assert hash(top) == hash(other) and {top: 1}[other] == 1
            assert top.label == "(" * depth + "a" + ", b)" * depth
            assert top.sort_key() == (1,) * depth + (0, "a", False) + (0, "b", False) * depth
            assert chain.find_parameter(top.label) is top
            assert chain.triple(top, "x") == triple(3000, 2000, 4000)
            assert equals(chain, twin) and canonicalize(chain) == twin
            assert complement(chain).parameters[0].label == "(" * depth + "not a" + ", not b)" * depth
            assert complement(complement(chain)) == twin
            assert repr(top) == (
                "CompoundParameter(left=" * depth
                + "Parameter(name='a', negated=False)"
                + ", right=Parameter(name='b', negated=False))" * depth
            )
            for copied in (pickle.loads(pickle.dumps(top)), copy.deepcopy(top)):
                assert copied is not top and copied == top and copied.label == top.label
            spec = soft_set_to_document(chain)["parameters"][0]
            for _ in range(depth):
                assert set(spec) == {"left", "right"} and spec["right"] == {"name": "b", "negated": False}
                spec = spec["left"]
            assert spec == {"name": "a", "negated": False}

        for depth in (1000, 5000):
            beneath(EXTRA_FRAMES, check, chain_of(depth), chain_of(depth), depth)


class TestConstruction:
    def test_value_set_must_cover_universe(self):
        with pytest.raises(ValueError, match="missing elements"):
            InsSet(("x", "y"), {"x": triple(0, 0, 0)})
        with pytest.raises(ValueError, match="unknown elements"):
            InsSet(("x",), {"x": triple(0, 0, 0), "z": triple(0, 0, 0)})

    def test_value_set_requires_grade_triples(self):
        with pytest.raises(TypeError):
            InsSet(("x",), {"x": (0.3, 0.2, 0.4)})

    def test_duplicate_element_rejected(self):
        p = Parameter("p")
        with pytest.raises(DuplicateElement):
            SoftSet(("x", "x"), [p], {p: {"x": triple(0, 0, 0)}})

    def test_duplicate_parameter_rejected(self):
        p = Parameter("p")
        with pytest.raises(DuplicateParameter):
            SoftSet(("x",), [p, p], {p: {"x": triple(0, 0, 0)}})

    def test_label_collision_rejected(self):
        # distinct parameters, identical display labels
        sneaky = Parameter("(a, b)")
        pair = CompoundParameter(Parameter("a"), Parameter("b"))
        with pytest.raises(DuplicateParameter, match="share label"):
            SoftSet(("x",), [sneaky, pair], {})

    def test_family_must_match_parameters(self):
        p, q = Parameter("p"), Parameter("q")
        with pytest.raises(ValueError, match="family mismatch"):
            SoftSet(("x",), [p, q], {p: {"x": triple(0, 0, 0)}})

    def test_lookup_by_label_and_by_parameter(self):
        s = tiny()
        p = s.find_parameter("p")
        assert p == Parameter("p")
        assert s.value_set(p)["x"] == triple(3000, 2000, 4000)
        assert s.triple(p, "y") == triple(3000, 2000, 4000)
        with pytest.raises(UnknownParameter):
            s.find_parameter("nope")
        with pytest.raises(UnknownParameter):
            s.value_set(Parameter("nope"))

    def test_restrict_narrows_and_reorders(self):
        s = tiny(names=("p", "q"))
        q = s.find_parameter("q")
        narrowed = s.restrict([q])
        assert narrowed.parameters == (q,)
        assert narrowed.universe == s.universe
        with pytest.raises(UnknownParameter):
            s.restrict([Parameter("other")])

    def test_family_reads_every_value_set_in_order(self):
        s = tiny(names=("q", "p"))
        family = s.family
        assert list(family) == list(s.parameters) == [Parameter("q"), Parameter("p")]
        assert all(family[p] == s.value_set(p) and family[p] is not s.value_set(p) for p in s.parameters)
        with pytest.raises(TypeError):
            family[Parameter("r")] = family[Parameter("p")]

    def test_repr_gives_the_sizes(self):
        assert repr(tiny(universe=("x", "y", "z"))) == "SoftSet(3 elements, 2 parameters)"

    def test_constructor_errors_name_the_culprit(self):
        p = Parameter("p")
        with pytest.raises(TypeError) as caught:
            SoftSet(("o1",), ["p"], {})
        assert str(caught.value) == "not a parameter: 'p'"
        with pytest.raises(ValueError) as caught:
            SoftSet(("o1",), [p], {p: {"o1": triple(0, 0, 0)}, Parameter("q"): {}})
        assert str(caught.value) == "family mismatch: value sets for undeclared parameters ['q']"
        with pytest.raises(ValueError) as caught:
            SoftSet(("o1",), [p], {p: {}})
        assert str(caught.value) == "parameter 'p': value set missing elements ['o1']"

    def test_constructor_errors_clip_long_lists(self):
        # Lists and labels past QUOTE_LIMIT characters are quoted up to it.
        ids, long = tuple(f"e{k:03d}" for k in range(1000)), "p" * 1000
        p, q = Parameter(long), Parameter("q")
        missing = clipped(str(list(ids)))
        with pytest.raises(ValueError) as caught:
            SoftSet(ids, [p], {p: {}})
        assert str(caught.value) == f"parameter '{clipped(long)}': value set missing elements {missing}"
        with pytest.raises(ValueError) as caught:
            InsSet(("o1",), {"o1": triple(0, 0, 0), **dict.fromkeys(ids, triple(0, 0, 0))})
        assert str(caught.value) == f"value set unknown elements {missing}"
        with pytest.raises(ValueError) as caught:
            SoftSet(ids, [q], {Parameter(name): {} for name in ids})
        assert str(caught.value) == (
            f"family mismatch: missing value sets for ['q'], value sets for undeclared parameters {missing}"
        )
        with pytest.raises(ValueError) as caught:
            SoftSet(ids, [Parameter(name) for name in ids], {})
        assert str(caught.value) == f"family mismatch: missing value sets for {missing}"
        with pytest.raises(TypeError) as caught:
            InsSet((long,), {long: (0, 0, 0)})
        assert str(caught.value) == f"value for {clipped(repr(long))} is not a GradeTriple"


class TestValueSets:
    CELLS = {"y": triple(1, 2, 3), "x": triple(5000, 0, 0)}
    REPR = (
        "InsSet({'x': GradeTriple(truth=Grade(ten_thousandths=5000), indeterminacy=Grade(ten_thousandths=0), "
        "falsity=Grade(ten_thousandths=0)), 'y': GradeTriple(truth=Grade(ten_thousandths=1), "
        "indeterminacy=Grade(ten_thousandths=2), falsity=Grade(ten_thousandths=3))})"
    )

    def test_equality_is_by_element_and_triple(self):
        built = InsSet(("x", "y"), self.CELLS)
        assert built == InsSet(("x", "y"), dict(self.CELLS))
        assert built == InsSet(("y", "x"), self.CELLS)
        assert built == self.CELLS and self.CELLS == built
        assert built != InsSet(("x", "y"), {**self.CELLS, "y": triple(1, 2, 4)})
        assert built != {"x": self.CELLS["x"]}

    def test_a_built_value_set_keeps_the_given_triples(self):
        built = InsSet(("x", "y"), self.CELLS)
        assert all(built[element] is triple for element, triple in self.CELLS.items())
        assert built.universe == tuple(built) == ("x", "y") and len(built) == 2

    def test_a_value_set_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(InsSet(("x", "y"), self.CELLS))

    def test_repr_lists_the_triples_in_universe_order(self):
        p = Parameter("p")
        built = InsSet(("x", "y"), self.CELLS)
        assert repr(built) == self.REPR
        assert repr(SoftSet(("x", "y"), [p], {p: self.CELLS}).value_set(p)) == self.REPR

    def test_views_rebuild_the_soft_set(self):
        s = random_soft_set(random.Random(11))
        rebuilt = SoftSet(s.universe, s.parameters, {p: s.value_set(p) for p in s.parameters})
        assert rebuilt == s
        assert all(rebuilt.value_set(p) == s.value_set(p) for p in s.parameters)


class TestParameterLookup:
    """Every method that takes a parameter finds its row through one lookup."""

    @pytest.mark.parametrize("bad, text", [("p", "'p'"), (7, "7"), (None, "None")])
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, bad: s.value_set(bad),
            lambda s, bad: s.triple(bad, "x"),
            lambda s, bad: s.restrict([s.parameters[0], bad]),
            lambda s, bad: s.has_parameter(bad),
        ],
        ids=["value_set", "triple", "restrict", "has_parameter"],
    )
    def test_anything_but_a_parameter_is_refused(self, call, bad, text):
        with pytest.raises(TypeError) as caught:
            call(tiny(), bad)
        assert str(caught.value) == f"not a parameter: {text}"

    def test_a_huge_non_parameter_is_clipped(self):
        with pytest.raises(TypeError) as caught:
            tiny().has_parameter("p" * 500)
        assert str(caught.value) == f"not a parameter: {clipped(repr('p' * 500))}"

    def test_equal_parameters_built_apart_share_one_value_set(self):
        a, b = Parameter("a"), Parameter("b")
        s = and_op(tiny(names=("a",)), union(tiny(names=("b",)), tiny(names=("c",), fill=(1000, 0, 6000))))
        pair, twin = CompoundParameter(a, b), CompoundParameter(Parameter("a"), Parameter("b"))
        assert pair is not twin and pair == twin
        own, neighbour = s._view(0), s._view(1)  # rows (a, b) and (a, c)
        assert own != neighbour
        assert s.value_set(pair) == s.value_set(twin) == own
        assert s.has_parameter(twin) and s.triple(twin, "x") == own["x"] != neighbour["x"]

    def test_union_of_sets_built_apart_keeps_both_orders(self):
        left, right = tiny(names=("p", "q", "r")), tiny(names=("s", "q", "t", "p"), fill=(5000, 0, 0))
        joined = union(left, right)
        assert [p.label for p in joined.parameters] == ["p", "q", "r", "s", "t"]
        assert joined.triple(Parameter("q"), "y") == triple(5000, 0, 0)
        assert joined.triple(Parameter("r"), "y") == triple(3000, 2000, 4000)


class TestLabelCollisions:
    """Parameters that differ but share a label, one on each side."""

    LEFT = CompoundParameter(Parameter("a"), Parameter("b, c"))
    RIGHT = CompoundParameter(Parameter("a, b"), Parameter("c"))

    def over(self, param):
        return SoftSet(("x",), [param], {param: {"x": triple(1000, 2000, 3000)}})

    def test_a_same_label_is_not_the_same_parameter(self):
        left, right = self.over(self.LEFT), self.over(self.RIGHT)
        assert self.LEFT.label == self.RIGHT.label == "(a, b, c)"
        assert not is_subset(left, right) and not equals(left, right)
        assert not left.has_parameter(self.RIGHT)
        with pytest.raises(UnknownParameter) as caught:
            left.value_set(self.RIGHT)
        assert str(caught.value) == "unknown parameter '(a, b, c)'"
        with pytest.raises(EmptyParameterIntersection):
            intersection(left, right)
        with pytest.raises(DuplicateParameter) as caught:
            union(left, right)
        assert str(caught.value) == (
            "parameters[1]: CompoundParameter(left=Parameter(name='a', negated=False), "
            "right=Parameter(name='b, c', negated=False)) and "
            "CompoundParameter(left=Parameter(name='a, b', negated=False), "
            "right=Parameter(name='c', negated=False)) share label '(a, b, c)'"
        )

    def test_a_complement_can_collide(self):
        # Valid as given: the labels 'not x' and 'x' differ until both are negated.
        params = [Parameter("not x", True), Parameter("x")]
        s = SoftSet(("x",), params, {p: {"x": triple(0, 0, 0)} for p in params})
        with pytest.raises(DuplicateParameter) as caught:
            complement(s)
        assert str(caught.value) == (
            "parameters[1]: Parameter(name='not x', negated=False) and "
            "Parameter(name='x', negated=True) share label 'not x'"
        )

    def test_reprs_alike_past_the_clip_are_quoted_from_where_they_differ(self):
        long = "x" * 200
        known = CompoundParameter(Parameter(long + ", y"), Parameter("z"))
        other = CompoundParameter(Parameter(long), Parameter("y, z"))
        with pytest.raises(DuplicateParameter) as caught:
            SoftSet(("e",), [known, other], {p: {"e": triple(0, 0, 0)} for p in (known, other)})
        assert str(caught.value) == (
            "parameters[1]: ...xxxxxxxxxx, y', negated=False), right=Parameter(name='z', negated=False)) and "
            "...xxxxxxxxxx', negated=False), right=Parameter(name='y, z', negated=False)) "
            f"share label '{clipped(known.label)}'"
        )
        tail = CompoundParameter(Parameter(long), Parameter("y, z" + "w" * 400))
        twin = CompoundParameter(Parameter(long + ", y"), Parameter("z" + "w" * 400))
        with pytest.raises(DuplicateParameter) as caught:
            label_index([twin, tail])
        quotes = str(caught.value).removeprefix("parameters[1]: ").split(" share label ")[0].split(" and ")
        assert quotes[0] != quotes[1] and all(len(q) == 3 + 2 * QUOTE_LIMIT + 3 for q in quotes)


class TestGoldenTables:
    def test_union_matches_golden(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        assert union(a, b) == load_soft_set(fixture("qualities_union.json"))

    def test_intersection_matches_golden(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        assert intersection(a, b) == load_soft_set(fixture("qualities_intersection.json"))

    def test_and_matches_golden(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        result = and_op(a, b)
        assert result == load_soft_set(fixture("qualities_and.json"))
        labels = [p.label for p in result.parameters]
        assert labels[:3] == ["(Bright, Costly)", "(Bright, Colorful)", "(Cheap, Costly)"]

    def test_or_matches_golden(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        assert or_op(a, b) == load_soft_set(fixture("qualities_or.json"))

    def test_complement_matches_golden(self):
        attr = load_soft_set(fixture("attractiveness.json"))
        expected = load_soft_set(fixture("not_attractiveness.json"))
        assert complement(attr) == expected
        assert complement(expected) == attr

    def test_containment_pair(self):
        sizes = load_soft_set(fixture("sizes.json"))
        textures = load_soft_set(fixture("textures.json"))
        assert is_subset(sizes, textures)
        assert not is_subset(textures, sizes)
        assert not equals(sizes, textures)

    def test_published_intersection_differs_in_exactly_two_cells(self):
        computed = load_soft_set(fixture("qualities_intersection.json"))
        printed = load_soft_set(fixture("qualities_intersection_printed.json"))
        colorful = computed.find_parameter("Colorful")
        diffs = [
            e
            for e in computed.universe
            if computed.triple(colorful, e) != printed.triple(colorful, e)
        ]
        assert diffs == ["b3", "b4"]
        assert str(computed.triple(colorful, "b3")) == "(0.5, 0.3, 0.4)"
        assert str(printed.triple(colorful, "b3")) == "(0.6, 0.3, 0.4)"
        assert str(computed.triple(colorful, "b4")) == "(0.2, 0.2, 0.3)"
        assert str(printed.triple(colorful, "b4")) == "(0.8, 0.2, 0.3)"

    def test_published_or_differs_in_exactly_two_cells(self):
        computed = load_soft_set(fixture("qualities_or.json"))
        printed = load_soft_set(fixture("qualities_or_printed.json"))
        diffs = [
            (e, p.label)
            for p in computed.parameters
            for e in computed.universe
            if computed.triple(p, e) != printed.triple(p, e)
        ]
        assert sorted(diffs) == [
            ("b3", "(Colorful, Colorful)"),
            ("b5", "(Bright, Colorful)"),
        ]


class TestOperationShape:
    def test_union_keeps_left_then_new_right_parameters(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        labels = [p.label for p in union(a, b).parameters]
        assert labels == ["Bright", "Cheap", "Colorful", "Costly"]

    def test_intersection_requires_shared_parameters(self):
        with pytest.raises(EmptyParameterIntersection):
            intersection(tiny(names=("p",)), tiny(names=("q",)))

    def test_operations_require_identical_universes(self):
        a = tiny(universe=("x", "y"))
        b = tiny(universe=("y", "x"))
        for op in (union, intersection, and_op, or_op, is_subset, equals):
            with pytest.raises(UniverseMismatch):
                op(a, b)

    def test_and_with_single_parameter_side_mirrors_intersection(self):
        a = load_soft_set(fixture("qualities_a.json"))
        b = load_soft_set(fixture("qualities_b.json"))
        colorful = a.find_parameter("Colorful")
        anded = and_op(a.restrict([colorful]), b.restrict([b.find_parameter("Colorful")]))
        meet = intersection(a, b)
        pair = anded.parameters[0]
        assert pair.label == "(Colorful, Colorful)"
        for e in a.universe:
            assert anded.triple(pair, e) == meet.triple(colorful, e)

    def test_product_sizes_multiply(self):
        a = tiny(names=("p", "q"))
        b = tiny(names=("r", "s", "t"))
        assert len(and_op(a, b).parameters) == 6
        assert len(or_op(a, b).parameters) == 6

    def test_null_detection(self):
        assert is_null(load_soft_set(fixture("null_blouses.json")))
        assert not is_null(load_soft_set(fixture("attractiveness.json")))

    def test_subset_is_reflexive_and_antisymmetric_up_to_equality(self):
        s = load_soft_set(fixture("attractiveness.json"))
        assert is_subset(s, s)
        assert equals(s, s)

    def test_canonicalize_sorts_parameters_without_touching_values(self):
        s = load_soft_set(fixture("qualities_union.json"))
        canon = canonicalize(s)
        assert sorted(p.label for p in s.parameters) == [p.label for p in canon.parameters]
        for p in s.parameters:
            assert canon.value_set(p)[s.universe[0]] == s.value_set(p)[s.universe[0]]
        assert equals(s, canon)

    def test_equality_is_structural(self):
        rng = random.Random(7)
        s = random_soft_set(rng)
        same = SoftSet(s.universe, s.parameters, {p: dict(s.value_set(p)) for p in s.parameters})
        assert s == same
        assert not (s == "something else")
