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

Each value set is stored as three aligned columns of tick counts (truth,
indeterminacy, falsity) in universe order, plain lists of ints, and every
operation works column-wise on those integers.  Columns are never changed
once built, so value sets share them freely: complement reuses its
operand's lists, and a product's value sets are slices of one result per
left parameter.  A value set also records whether its cells are known to
be valid: a result computed from valid value sets is valid without a
check, and any other result is checked in bulk, raising
ConstraintViolation for its first bad cell.  GradeTriple objects are built
from the columns only when a caller looks a cell up.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import gt, lt
from types import MappingProxyType

from .errors import (
    ConstraintViolation,
    DuplicateElement,
    DuplicateParameter,
    EmptyParameterIntersection,
    UniverseMismatch,
    UnknownParameter,
)
from .grades import COMPONENTS, GradeTriple, first_violation, triples_from_ticks

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


@dataclass(frozen=True)
class Parameter:
    """A named attribute, possibly carrying a negation flag."""

    name: str
    negated: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"parameter name must be a non-empty string, got {self.name!r}")
        if _lone_surrogate(self.name):
            raise ValueError(f"parameter name must not contain a lone surrogate, got {self.name!r}")

    def negate(self) -> "Parameter":
        return Parameter(self.name, not self.negated)

    @property
    def label(self) -> str:
        return f"not {self.name}" if self.negated else self.name

    def sort_key(self) -> tuple:
        return (0, self.name, self.negated)


@dataclass(frozen=True)
class CompoundParameter:
    """A pair of parameters produced by the AND / OR products.

    Negation distributes over the pair, so a compound never carries its own
    flag.  Equality, hashing, ``label`` and ``negate`` recurse down the pair:
    products chained in Python far past a document's 100 levels (about 500
    on CPython 3.11) reach the interpreter's recursion limit.
    """

    left: "Parameter | CompoundParameter"
    right: "Parameter | CompoundParameter"

    def negate(self) -> "CompoundParameter":
        return CompoundParameter(self.left.negate(), self.right.negate())

    @property
    def label(self) -> str:
        return f"({self.left.label}, {self.right.label})"

    def sort_key(self) -> tuple:
        return (1, self.left.sort_key(), self.right.sort_key())


ParamLike = Parameter | CompoundParameter


def not_parameters(parameters: Iterable[ParamLike]) -> tuple[ParamLike, ...]:
    """Negate every parameter, keeping order."""
    return tuple(p.negate() for p in parameters)


Columns = tuple  # (truth, indeterminacy, falsity) tick counts, each in universe order


class InsSet(Mapping):
    """A total assignment of grade triples over an ordered universe.

    The grades are held as three lists of tick counts, never changed once
    built; the GradeTriple objects are built the first time an element is
    looked up.
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
            [getattr(triple, name).ten_thousandths for triple in given] for name in COMPONENTS
        )
        self._valid = first_violation(*self._columns) is None
        self._cells = None

    @classmethod
    def _of(cls, universe: tuple[str, ...], columns: Columns, valid: bool) -> "InsSet":
        """A value set over ``universe`` holding the given lists of ticks,
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
        if not isinstance(param, (Parameter, CompoundParameter)):
            raise TypeError(f"not a parameter: {param!r}")
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


def _larger(a, b) -> list[int]:
    return [x if x >= y else y for x, y in zip(a, b)]


def _smaller(a, b) -> list[int]:
    return [x if x <= y else y for x, y in zip(a, b)]


def _join(a: Columns, b: Columns) -> Columns:
    return (_larger(a[0], b[0]), _smaller(a[1], b[1]), _smaller(a[2], b[2]))


def _meet(a: Columns, b: Columns) -> Columns:
    return (_smaller(a[0], b[0]), _smaller(a[1], b[1]), _larger(a[2], b[2]))


def _checked(columns: Columns, from_valid: bool) -> Columns:
    """Computed columns; unless their inputs were all valid, check them."""
    if not from_valid:
        problem = first_violation(*columns)
        if problem is not None:
            raise ConstraintViolation(problem[1])
    return columns


def _result(universe: tuple[str, ...], columns: Columns, from_valid: bool) -> InsSet:
    return InsSet._of(universe, _checked(columns, from_valid), True)


def _combine(ours: InsSet, theirs: InsSet, rule) -> InsSet:
    return _result(ours.universe, rule(ours._columns, theirs._columns), ours._valid and theirs._valid)


def is_subset(left: SoftSet, right: SoftSet) -> bool:
    """Containment: parameters included, truth and indeterminacy no larger,
    falsity no smaller, elementwise.  Not strict: equal sets contain each other."""
    _require_same_universe(left, right)
    if any(not right.has_parameter(p) for p in left.parameters):
        return False
    for param in left.parameters:
        (ta, ia, fa), (tb, ib, fb) = left._family[param]._columns, right._family[param]._columns
        if any(map(gt, ta, tb)) or any(map(gt, ia, ib)) or any(map(lt, fa, fb)):
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
        family[param.negate()] = _result(soft_set.universe, (falsity, indeterminacy, truth), value_set._valid)
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
    """One pass per left parameter against all of right's columns laid end to
    end; each pair's value set is a slice of that row's result.

    A row is checked as a whole, so its first bad cell is also the first in
    row-major pair order: pairs of valid value sets are valid by closure.
    """
    _require_same_universe(left, right)
    universe, size = left.universe, len(left.universe)
    theirs = right._family.values()
    count = len(theirs)
    flat = tuple([tick for value_set in theirs for tick in value_set._columns[k]] for k in range(3))
    all_valid = all(value_set._valid for value_set in theirs)
    spans = [(k * size, (k + 1) * size) for k in range(count)]
    family = {}
    for a, ours in left._family.items():
        repeated = tuple(column * count for column in ours._columns)
        t, i, f = _checked(rule(repeated, flat), ours._valid and all_valid)
        for b, (start, stop) in zip(right._family, spans):
            columns = (t[start:stop], i[start:stop], f[start:stop])
            family[CompoundParameter(a, b)] = InsSet._of(universe, columns, True)
    return SoftSet._of(universe, tuple(family), family)


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
