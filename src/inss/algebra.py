"""Soft sets over a fixed universe, and the family operations on them.

A soft set maps each parameter in an ordered list to a value set: a total
assignment of grade triples over the universe.  Binary operations require
both operands to share the same universe, ids and order alike; a mismatch is
always an error, never a quiet ``False``.

Combination rules on shared parameters:

* union / OR product:  truth = max, indeterminacy = min, falsity = min
* intersection / AND product: truth = min, indeterminacy = min, falsity = max

These rules (and complement's swap of truth with falsity) preserve the
triple validity bounds, so closure holds by construction.

Each value set is stored as three aligned ``array("H")`` columns of tick
counts (truth, indeterminacy, falsity) in universe order, and every
operation packs each column into one int and works on all its cells at once
with the lane kernels of :mod:`inss.grades`.  Columns are never changed once
built, so value sets share them freely: complement reuses its operand's
arrays, and a product's value sets are slices of one result array per
component.  A value set also records whether its cells are known to be
valid: a result computed from valid value sets is valid without a check,
and any other result is checked in bulk, raising ConstraintViolation for its
first bad cell.  GradeTriple objects are built from the columns only when a
caller looks a cell up.

Parameters are small immutable objects compared by structure.  Each
computes its label and hash once, at construction, from its children's, so
a product's new compound parameters cost the same at any nesting depth.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType

from .errors import (
    ConstraintViolation,
    DuplicateElement,
    DuplicateParameter,
    EmptyParameterIntersection,
    UniverseMismatch,
    UnknownParameter,
    clipped,
)
from .grades import (
    COMPONENTS,
    GradeTriple,
    at_least,
    first_violation,
    guards,
    larger,
    pack,
    smaller,
    triples_from_ticks,
    unpack,
)

__all__ = [
    "Parameter",
    "CompoundParameter",
    "ParamLike",
    "InsSet",
    "SoftSet",
    "not_parameters",
    "is_subset",
    "equals",
    "complement",
    "is_null",
    "union",
    "intersection",
    "and_op",
    "or_op",
    "canonicalize",
]

# Code points U+D800-U+DFFF: JSON can spell them, but no UTF-8 output can carry them.
_lone_surrogate = re.compile("[\ud800-\udfff]").search


class _Immutable:
    """Instances refuse attribute assignment and deletion once built."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Parameter(_Immutable):
    """A named attribute, possibly carrying a negation flag.

    ``negated`` must be a real bool, since the hash is taken at construction.
    """

    __slots__ = ("name", "negated", "label", "_hash")

    def __init__(self, name: str, negated: bool = False) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError(f"parameter name must be a non-empty string, got {clipped(repr(name))}")
        if _lone_surrogate(name):
            raise ValueError(f"parameter name must not contain a lone surrogate, got {clipped(repr(name))}")
        if negated.__class__ is not bool:
            raise TypeError(f"parameter negation must be True or False, got {clipped(repr(negated))}")
        init = object.__setattr__
        init(self, "name", name)
        init(self, "negated", negated)
        init(self, "label", f"not {name}" if negated else name)
        init(self, "_hash", hash((name, negated)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.negated == other.negated

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, negated={self.negated!r})"

    def __reduce__(self) -> tuple:
        return Parameter, (self.name, self.negated)

    def negate(self) -> "Parameter":
        return Parameter(self.name, not self.negated)

    def sort_key(self) -> tuple:
        return (0, self.name, self.negated)


class CompoundParameter(_Immutable):
    """A pair of parameters produced by the AND / OR products.

    Negation distributes over the pair, so a compound never carries its own
    flag.  ``label`` and the hash are built from the pair's own at
    construction, so building, hashing and indexing a compound never
    recurses (each level of a chain keeps its own label: O(depth²)
    characters in all).  Equality between separately built trees,
    ``negate`` and ``sort_key`` do recurse down the pair, so products
    chained in Python far past a document's 100 levels (about 500 on
    CPython 3.11) reach the interpreter's recursion limit there.
    """

    __slots__ = ("left", "right", "label", "_hash")

    def __init__(self, left: "ParamLike", right: "ParamLike") -> None:
        try:
            label, digest = f"({left.label}, {right.label})", hash((left._hash, right._hash))
        except AttributeError:
            raise TypeError(f"not a pair of parameters: {clipped(repr(left))}, {clipped(repr(right))}") from None
        init = object.__setattr__
        init(self, "left", left)
        init(self, "right", right)
        init(self, "label", label)
        init(self, "_hash", digest)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.left == other.left and self.right == other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CompoundParameter(left={self.left!r}, right={self.right!r})"

    def __reduce__(self) -> tuple:
        return CompoundParameter, (self.left, self.right)

    def negate(self) -> "CompoundParameter":
        return CompoundParameter(self.left.negate(), self.right.negate())

    def sort_key(self) -> tuple:
        return (1, self.left.sort_key(), self.right.sort_key())


_PARAMETERS = (Parameter, CompoundParameter)
ParamLike = Parameter | CompoundParameter


def not_parameters(parameters: Iterable[ParamLike]) -> tuple[ParamLike, ...]:
    """Negate every parameter, keeping order."""
    return tuple(p.negate() for p in parameters)


Columns = tuple  # (truth, indeterminacy, falsity) array("H") tick columns, each in universe order


class InsSet(Mapping):
    """A total assignment of grade triples over an ordered universe.

    The grades are held as three ``array("H")`` columns of tick counts,
    never changed once built; the GradeTriple objects are built the first
    time an element is looked up.
    """

    __slots__ = ("_universe", "_columns", "_valid", "_cells")

    def __init__(self, universe: Sequence[str], triples: Mapping[str, GradeTriple]):
        self._universe = tuple(universe)
        known = set(self._universe)
        missing = [e for e in self._universe if e not in triples]
        extra = sorted(e for e in triples if e not in known)
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing elements {missing}")
            if extra:
                parts.append(f"unknown elements {extra}")
            raise ValueError("value set " + ", ".join(parts))
        for element in self._universe:
            if not isinstance(triples[element], GradeTriple):
                raise TypeError(f"value for {element!r} is not a GradeTriple")
        given = [triples[e] for e in self._universe]
        self._columns = tuple(
            array("H", [getattr(triple, name).ten_thousandths for triple in given]) for name in COMPONENTS
        )
        self._valid = first_violation(*self._columns) is None
        self._cells = None

    @classmethod
    def _of(cls, universe: tuple[str, ...], columns: Columns, valid: bool) -> "InsSet":
        """A value set over ``universe`` holding the given tick columns,
        which it keeps without copying; ``valid`` says whether every cell is
        known to meet the joint bounds."""
        self = cls.__new__(cls)
        self._universe = universe
        self._columns = columns
        self._valid = valid
        self._cells = None
        return self

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    def _triples(self) -> dict[str, GradeTriple]:
        if self._cells is None:
            self._cells = triples_from_ticks(self._universe, *self._columns)
        return self._cells

    def __getitem__(self, element: str) -> GradeTriple:
        cells = self._cells
        if cells is None:
            cells = self._triples()
        return cells[element]

    def __iter__(self):
        return iter(self._universe)

    def __len__(self) -> int:
        return len(self._universe)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, InsSet) and other._universe == self._universe:
            return other._columns == self._columns
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return f"InsSet({self._triples()!r})"


def checked_universe(elements: Iterable) -> tuple[str, ...]:
    """The element ids as a universe: distinct non-empty strings without lone surrogates, in order."""
    universe = tuple(elements)
    seen: set[str] = set()
    for index, element in enumerate(universe):
        if not isinstance(element, str) or not element:
            raise ValueError(f"universe[{index}]: element id must be a non-empty string, got {element!r}")
        if _lone_surrogate(element):
            raise ValueError(f"universe[{index}]: element id must not contain a lone surrogate, got {element!r}")
        if element in seen:
            raise DuplicateElement(f"universe[{index}]: duplicate element id '{element}'")
        seen.add(element)
    return universe


def label_index(parameters: Iterable[ParamLike]) -> dict[str, ParamLike]:
    """Parameters by display label, in order; no parameter or label may repeat."""
    by_label: dict[str, ParamLike] = {}
    for index, param in enumerate(parameters):
        if not isinstance(param, _PARAMETERS):
            raise TypeError(f"not a parameter: {clipped(repr(param))}")
        label = param.label
        if label in by_label:
            known = by_label[label]
            if known == param:
                raise DuplicateParameter(f"parameters[{index}]: duplicate parameter '{label}'")
            raise DuplicateParameter(f"parameters[{index}]: {known!r} and {param!r} share label '{label}'")
        by_label[label] = param
    return by_label


class SoftSet:
    """An ordered family of value sets, one per parameter."""

    __slots__ = ("_universe", "_parameters", "_family", "_by_label")

    def __init__(
        self,
        universe: Sequence[str],
        parameters: Sequence[ParamLike],
        family: Mapping[ParamLike, Mapping[str, GradeTriple]],
    ):
        self._universe = checked_universe(universe)
        self._parameters = tuple(parameters)
        self._by_label = label_index(self._parameters)
        declared, given = set(self._parameters), set(family)
        if given != declared:
            missing = sorted(p.label for p in declared - given)
            extra = sorted(p.label for p in given - declared)
            parts = []
            if missing:
                parts.append(f"missing value sets for {missing}")
            if extra:
                parts.append(f"value sets for undeclared parameters {extra}")
            raise ValueError("family mismatch: " + ", ".join(parts))

        built = {}
        for param in self._parameters:
            value_set = family[param]
            if isinstance(value_set, InsSet) and value_set.universe == self._universe:
                built[param] = value_set
                continue
            try:
                built[param] = InsSet(self._universe, value_set)
            except ValueError as err:
                raise ValueError(f"parameter '{param.label}': {err}") from None
        self._family = built

    @classmethod
    def _of(cls, universe: tuple[str, ...], parameters: tuple[ParamLike, ...], family: dict) -> "SoftSet":
        """Value sets over a checked ``universe``, one per parameter; only the parameters are checked."""
        self = cls.__new__(cls)
        self._universe = universe
        self._parameters = parameters
        self._family = family
        self._by_label = label_index(parameters)
        return self

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    @property
    def parameters(self) -> tuple[ParamLike, ...]:
        return self._parameters

    @property
    def family(self) -> Mapping[ParamLike, InsSet]:
        return MappingProxyType(self._family)

    def has_parameter(self, param: ParamLike) -> bool:
        return param in self._family

    def value_set(self, param: ParamLike) -> InsSet:
        try:
            return self._family[param]
        except KeyError:
            raise UnknownParameter(f"unknown parameter '{param.label}'") from None

    def triple(self, param: ParamLike, element: str) -> GradeTriple:
        return self.value_set(param)[element]

    def find_parameter(self, label: str) -> ParamLike:
        """Look a parameter up by its display label."""
        try:
            return self._by_label[label]
        except (KeyError, TypeError):
            raise UnknownParameter(f"unknown parameter '{label}'") from None

    def restrict(self, parameters: Sequence[ParamLike]) -> "SoftSet":
        """The same universe, narrowed to the given parameters in the given order."""
        for param in parameters:
            if param not in self._family:
                raise UnknownParameter(f"unknown parameter '{param.label}'")
        return SoftSet._of(self._universe, tuple(parameters), {p: self._family[p] for p in parameters})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoftSet):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._parameters == other._parameters
            and all(self._family[p] == other._family[p] for p in self._parameters)
        )

    def __repr__(self) -> str:
        return f"SoftSet({len(self._universe)} elements, {len(self._parameters)} parameters)"


def _require_same_universe(left: SoftSet, right: SoftSet) -> None:
    if left.universe != right.universe:
        raise UniverseMismatch(
            f"universes differ: {list(left.universe)} vs {list(right.universe)}"
        )


def _join(a: tuple, b: tuple, guard: int) -> tuple:
    """Max truth, min indeterminacy, min falsity of packed columns."""
    return (larger(a[0], b[0], guard), smaller(a[1], b[1], guard), smaller(a[2], b[2], guard))


def _meet(a: tuple, b: tuple, guard: int) -> tuple:
    """Min truth, min indeterminacy, max falsity of packed columns."""
    return (smaller(a[0], b[0], guard), smaller(a[1], b[1], guard), larger(a[2], b[2], guard))


def _checked(columns: Columns, from_valid: bool) -> Columns:
    """Computed columns; unless their inputs were all valid, check them."""
    if not from_valid:
        problem = first_violation(*columns)
        if problem is not None:
            raise ConstraintViolation(problem[1])
    return columns


def _combined(ours: tuple, theirs: tuple, count: int, rule) -> Columns:
    """``rule`` applied to two triples of packed columns of ``count`` cells, unpacked."""
    return tuple(unpack(lanes, count) for lanes in rule(ours, theirs, guards(count)))


def _combine(ours: InsSet, theirs: InsSet, rule) -> InsSet:
    universe = ours._universe
    columns = _combined(tuple(map(pack, ours._columns)), tuple(map(pack, theirs._columns)), len(universe), rule)
    return InsSet._of(universe, _checked(columns, ours._valid and theirs._valid), True)


def is_subset(left: SoftSet, right: SoftSet) -> bool:
    """Containment: parameters included, truth and indeterminacy no larger,
    falsity no smaller, elementwise.  Not strict: equal sets contain each other."""
    _require_same_universe(left, right)
    if any(not right.has_parameter(p) for p in left.parameters):
        return False
    guard = guards(len(left.universe))
    for param in left.parameters:
        ta, ia, fa = map(pack, left._family[param]._columns)
        tb, ib, fb = map(pack, right._family[param]._columns)
        if not (at_least(tb, ta, guard) and at_least(ib, ia, guard) and at_least(fa, fb, guard)):
            return False
    return True


def equals(left: SoftSet, right: SoftSet) -> bool:
    """Mutual containment: same parameter set (order aside) and identical triples."""
    return is_subset(left, right) and is_subset(right, left)


def complement(soft_set: SoftSet) -> SoftSet:
    """Negate every parameter and swap truth with falsity in every triple."""
    family = {}
    for param, value_set in soft_set._family.items():
        truth, indeterminacy, falsity = value_set._columns
        columns = _checked((falsity, indeterminacy, truth), value_set._valid)
        family[param.negate()] = InsSet._of(soft_set.universe, columns, True)
    return SoftSet._of(soft_set.universe, tuple(family), family)


def is_null(soft_set: SoftSet) -> bool:
    """True when every triple is (0, 0, 0)."""
    return not any(any(column) for value_set in soft_set._family.values() for column in value_set._columns)


def union(left: SoftSet, right: SoftSet) -> SoftSet:
    """Join on shared parameters (max/min/min); unshared value sets carry over.

    Result parameters: left's, then right's that left lacks, orders kept.
    """
    _require_same_universe(left, right)
    family = {}
    for param, ours in left._family.items():
        theirs = right._family.get(param)
        family[param] = ours if theirs is None else _combine(ours, theirs, _join)
    for param, theirs in right._family.items():
        family.setdefault(param, theirs)
    return SoftSet._of(left.universe, tuple(family), family)


def intersection(left: SoftSet, right: SoftSet) -> SoftSet:
    """Meet on shared parameters (min/min/max); requires at least one."""
    _require_same_universe(left, right)
    family = {
        param: _combine(ours, right._family[param], _meet)
        for param, ours in left._family.items()
        if param in right._family
    }
    if not family:
        raise EmptyParameterIntersection("the parameter sets share no member")
    return SoftSet._of(left.universe, tuple(family), family)


def _product(left: SoftSet, right: SoftSet, rule) -> SoftSet:
    """One lane operation per component over every pair at once.

    Each left column is repeated once per right parameter, and right's
    columns, laid end to end, are repeated once per left parameter, so lane
    block ``a * len(right) + b`` holds pair (a, b) and each pair's value set
    is a slice of the result.  The result is checked as a whole, so its first bad
    cell is also the first in row-major pair order: pairs of valid value
    sets are valid by closure.
    """
    _require_same_universe(left, right)
    universe, size = left.universe, len(left.universe)
    ours, theirs = left._family.values(), right._family.values()
    count = len(theirs)
    left_lanes = tuple(pack(b"".join([vs._columns[k].tobytes() * count for vs in ours])) for k in range(3))
    right_lanes = tuple(pack(b"".join([vs._columns[k].tobytes() for vs in theirs]) * len(ours)) for k in range(3))
    valid = all(vs._valid for vs in ours) and all(vs._valid for vs in theirs)
    t, i, f = _checked(_combined(left_lanes, right_lanes, size * len(ours) * count, rule), valid)
    pairs = tuple([CompoundParameter(a, b) for a in left._family for b in right._family])
    starts = [k * size for k in range(len(pairs))]
    value_sets = [InsSet._of(universe, (t[s : s + size], i[s : s + size], f[s : s + size]), True) for s in starts]
    return SoftSet._of(universe, pairs, dict(zip(pairs, value_sets)))


def and_op(left: SoftSet, right: SoftSet) -> SoftSet:
    """Pairwise product with the meet rule; columns in row-major pair order."""
    return _product(left, right, _meet)


def or_op(left: SoftSet, right: SoftSet) -> SoftSet:
    """Pairwise product with the join rule; columns in row-major pair order."""
    return _product(left, right, _join)


def canonicalize(soft_set: SoftSet) -> SoftSet:
    """Reorder parameters into the canonical sort, leaving values untouched.

    Makes order-insensitive identities (commutativity above all) literal
    structural equality.
    """
    ordered = sorted(soft_set.parameters, key=lambda p: p.sort_key())
    return SoftSet._of(soft_set.universe, tuple(ordered), {p: soft_set._family[p] for p in ordered})
