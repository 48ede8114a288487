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

Each soft set holds its grades as one tick matrix: three ``array("H")``
columns of tick counts (truth, indeterminacy, falsity), each with one row of
universe-many ticks per parameter, rows in parameter order.  Every operation
packs whole columns into ints and works on all their cells at once with the
lane kernels of :mod:`inss.grades`: complement swaps the truth and falsity
columns; union, intersection and is_subset gather the shared rows of each
side and make one kernel call.  A product of valid sets computes its grades
when they are read: its ``_ticks`` holds a source, its operands' two
matrices and its rule, so an unread product holds P + Q factor rows, not P·Q
rows.  The first read of the whole matrix (:meth:`SoftSet._matrix`) runs the
full-product kernel once and stores the result in the source's place; a
restriction to at most half the rows gathers only the chosen rows' factor
rows and makes one kernel call; complement swaps the factor matrices and the
rule.  Matrices are never changed once built, so soft sets share them
freely.  A soft set also records whether its cells are known to be valid: a
result computed from valid sets is valid without a check, and any other
result is checked in bulk, raising ConstraintViolation for its first bad
cell in row order.  The matrix is the only store of grades: a soft set
holds no GradeTriple and no view.  A value set (``InsSet``) is a function
of its row, so each read of one makes a new view of the row, which builds
an element's triple when that element is first read and keeps it for as
long as the caller keeps the view.

Parameters are small immutable objects compared by structure.  Each
computes its label and hash once, at construction, from its children's.  A
soft set finds its rows through one index: a :class:`_Labels` of its
parameter tuple, or a product's :class:`_Pairs` of its two factor tuples,
which builds a row's compound parameter only when something reads that row.
Each negates into an index of its own kind, so a product's complement
negates the factors and builds no compound.
"""

from __future__ import annotations

import itertools
import re
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from os.path import commonprefix
from types import MappingProxyType

from .errors import (
    QUOTE_LIMIT,
    ConstraintViolation,
    DuplicateElement,
    DuplicateParameter,
    EmptyParameterIntersection,
    UniverseMismatch,
    UnknownParameter,
    clipped,
)
from .grades import (
    GradeTriple,
    RowTriples,
    at_least,
    first_violation,
    guards,
    larger,
    pack,
    smaller,
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


class _Param:
    """Immutability, and comparison, order, negation, text and pickling
    through :meth:`sort_key`, a flat key built on demand, never stored."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.sort_key() == other.sort_key())

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        leaf, pair = "Parameter(name={name!r}, negated={negated!r})", "CompoundParameter(left={left}, right={right})"
        return _fold(self.sort_key(), leaf.format, pair.format)

    def __reduce__(self) -> tuple:
        return _fold, (self.sort_key(), Parameter, CompoundParameter)

    def negate(self) -> "ParamLike":
        return _fold(self.sort_key(), lambda name, negated: Parameter(name, not negated), CompoundParameter)

    def sort_key(self) -> tuple:
        """Pre-order: ``0, name, negated`` per plain parameter, ``1`` before each product's two
        parts.  Prefix-free, so it orders trees as nested ``(1, left key, right key)`` keys would."""
        key, stack = [], [self]
        while stack:
            param = stack.pop()
            if isinstance(param, CompoundParameter):
                key.append(1)
                stack += (param.right, param.left)
            else:
                key += (0, param.name, param.negated)
        return tuple(key)


def _fold(key: tuple, leaf, pair):
    """The tree with sort key ``key``, built by ``leaf(name=, negated=)`` and ``pair(left=, right=)``."""
    lefts, at = [], 0  # per open product, innermost last: its left part once built, else None
    while True:
        while key[at]:  # a product opens
            lefts.append(None)
            at += 1
        node, at = leaf(name=key[at + 1], negated=key[at + 2]), at + 3
        while lefts and lefts[-1] is not None:
            node = pair(left=lefts.pop(), right=node)
        if not lefts:
            return node
        lefts[-1] = node


class Parameter(_Param):
    """A named attribute, possibly carrying a negation flag.

    ``negated`` must be a real bool, since the hash is taken at construction.
    """

    __slots__ = ("name", "negated", "label", "_hash")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.name == other.name and self.negated is other.negated)

    __hash__ = _Param.__hash__

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


class CompoundParameter(_Param):
    """A pair of parameters produced by the AND / OR products.

    Negation distributes over the pair, so a compound never carries its own
    flag.  Label and hash are built from the pair's own at construction
    (O(depth²) label characters in all down a chain), and every other walk
    down the pair is a loop, so chains of any depth compare, print and copy.
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


ParamLike = Parameter | CompoundParameter


def not_parameters(parameters: Iterable[ParamLike]) -> tuple[ParamLike, ...]:
    """Negate every parameter, keeping order."""
    return tuple(p.negate() for p in parameters)


Columns = tuple  # (truth, indeterminacy, falsity) array("H") tick columns


def gaps(expected: dict, given: Mapping) -> tuple[list, list]:
    """What keeps ``given`` from being keyed by exactly the keys of ``expected``.

    Returns the keys it lacks, in ``expected``'s order, and its keys beyond
    them, in its own order.  The one check that a value set covers the
    universe and that a family covers the parameters, for the constructors
    and the loader alike; each caller words the answer for its input.
    """
    extra = [key for key in given if key not in expected]
    if len(given) - len(extra) == len(expected):
        return [], extra
    return [key for key in expected if key not in given], extra


class InsSet(Mapping):
    """A total assignment of grade triples over an ordered universe.

    Built from a mapping, it keeps one dict of the given GradeTriples, keyed
    in universe order.  A soft set's value set (see :meth:`SoftSet.value_set`)
    is instead a new view of one row of the soft set's tick matrix: its dict
    is a :class:`~inss.grades.RowTriples`, which builds an element's triple
    when that element is first read through this view and keeps it, so each
    later read through the view returns the same object.  Either way the
    assignment never changes, and copies and pickles hold the triples, not
    the matrix.
    """

    __slots__ = ("_universe", "_cells")

    def __init__(self, universe: Sequence[str], triples: Mapping[str, GradeTriple]):
        universe = tuple(universe)
        missing, extra = gaps(dict.fromkeys(universe), triples)
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing elements {clipped(str(missing))}")
            if extra:
                parts.append(f"unknown elements {clipped(str(sorted(extra)))}")
            raise ValueError("value set " + ", ".join(parts))
        cells = {element: triples[element] for element in universe}
        for element, triple in cells.items():
            if not isinstance(triple, GradeTriple):
                raise TypeError(f"value for {clipped(repr(element))} is not a GradeTriple")
        self._universe, self._cells = universe, cells

    @classmethod
    def _of(cls, universe: tuple[str, ...], cells: RowTriples) -> "InsSet":
        """The value set over ``universe`` that looks its triples up in
        ``cells``, which it keeps without copying or checking."""
        self = cls.__new__(cls)
        self._universe, self._cells = universe, cells
        return self

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    def __getitem__(self, element: str) -> GradeTriple:
        return self._cells[element]

    def __iter__(self):
        return iter(self._universe)

    def __len__(self) -> int:
        return len(self._universe)

    def __repr__(self) -> str:
        return f"InsSet({dict(self)!r})"

    def __reduce__(self) -> tuple:
        return InsSet, (self._universe, dict(self))


def checked_universe(elements: Iterable) -> tuple[str, ...]:
    """The element ids as a universe: distinct non-empty strings without lone surrogates, in order."""
    universe = tuple(elements)
    seen: set[str] = set()
    for index, element in enumerate(universe):
        if not isinstance(element, str) or not element:
            raise ValueError(f"universe[{index}]: element id must be a non-empty string, got {clipped(repr(element))}")
        if _lone_surrogate(element):
            raise ValueError(
                f"universe[{index}]: element id must not contain a lone surrogate, got {clipped(repr(element))}"
            )
        if element in seen:
            raise DuplicateElement(f"universe[{index}]: duplicate element id '{clipped(element)}'")
        seen.add(element)
    return universe


def label_index(parameters: Sequence[ParamLike]) -> dict[str, int]:
    """Each parameter's position, by display label; no parameter or label may repeat."""
    rows: dict[str, int] = {}
    for index, param in enumerate(parameters):
        if not isinstance(param, _Param):
            raise TypeError(f"not a parameter: {clipped(repr(param))}")
        label = param.label
        if label in rows:
            known = parameters[rows[label]]
            if known == param:
                raise DuplicateParameter(f"parameters[{index}]: duplicate parameter '{clipped(label)}'")
            # A compound's repr is long even for short names, so each is clipped at twice the limit.
            reprs = [repr(known), repr(param)]
            first, second = (clipped(text, 2 * QUOTE_LIMIT) for text in reprs)
            if first == second:  # the clip hides where they differ: quote each from just before it
                at = len(commonprefix(reprs)) - 10
                first, second = ("..." + clipped(text[at:], 2 * QUOTE_LIMIT) for text in reprs)
            raise DuplicateParameter(f"parameters[{index}]: {first} and {second} share label '{clipped(label)}'")
        rows[label] = index
    return rows


class _Labels:
    """A plain set's row index: its parameter tuple, ``params``, and each
    one's row by label, ``rows`` (``label_index(params)`` unless given)."""

    __slots__ = ("params", "rows")

    def __init__(self, params: tuple, rows: dict[str, int] | None = None) -> None:
        self.params, self.rows = params, label_index(params) if rows is None else rows

    def __reduce__(self) -> tuple:
        return _Labels, (self.params, self.rows)

    def param(self, row: int) -> ParamLike:
        return self.params[row]

    def all(self) -> tuple:
        return self.params

    def row(self, param: ParamLike) -> int | None:
        return self.rows.get(param.label)

    def find(self, label: str) -> int | None:
        return self.rows.get(label)

    def negated(self) -> "_Labels":
        return _Labels(not_parameters(self.params))


class SoftSet:
    """An ordered family of value sets, one per parameter.

    The grades are one tick matrix: three ``array("H")`` columns (truth,
    indeterminacy, falsity), each holding one row of universe-many ticks per
    parameter, rows in parameter order.  ``_index`` maps parameters and
    labels to rows and back: a :class:`_Labels` for a plain set, a
    :class:`_Pairs` for a product, which builds its parameters when read.
    ``_valid`` says whether every cell is known to meet the joint bounds.
    Besides this module, only ``documents.load_soft_set`` lays rows out;
    other modules read them through :func:`tick_rows`.

    Every reader of the matrix goes through :meth:`_matrix`.  An unread
    product's ``_ticks`` is a :class:`_Source` of its two factor matrices
    and its rule; the first ``_matrix()`` call runs the full-product kernel
    and stores the result in ``_ticks`` in its place.  Two threads reading
    an unread product at once may each compute an equal matrix; either one
    is kept.  :meth:`restrict` reads ``_ticks`` once and, while it is a
    source, computes a choice of at most half the rows from their factor
    rows alone.

    The set holds no GradeTriple and no view.  :meth:`value_set` and
    :attr:`family` make a new view of a row on each call (see
    :class:`InsSet`), so two reads of one row give equal, distinct value
    sets, and a view's triples go when its caller lets it go; :meth:`triple`
    looks its one cell up in a bare :class:`~inss.grades.RowTriples` of the
    row, with no view.  All of a set's views share one element → position
    dict, ``_positions``, built when the first view is made.  Two threads
    reading a cell of one view or a product's parameter for the first time
    at once may each build an equal object; either one is kept.

    :meth:`_row` is the one lookup from a parameter to its row, for every
    method and operation that takes parameters; anything but a parameter
    raises TypeError there.  Labels reach a parameter through
    :meth:`find_parameter` (or ``decision.select_best``, which calls it).
    """

    __slots__ = ("_universe", "_index", "_ticks", "_valid", "_positions")

    def __init__(
        self,
        universe: Sequence[str],
        parameters: Sequence[ParamLike],
        family: Mapping[ParamLike, Mapping[str, GradeTriple]],
    ):
        universe = checked_universe(universe)
        parameters = tuple(parameters)
        rows = label_index(parameters)
        missing, extra = gaps(dict.fromkeys(parameters), family)
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing value sets for {clipped(str(sorted(p.label for p in missing)))}")
            if extra:
                parts.append(f"value sets for undeclared parameters {clipped(str(sorted(p.label for p in extra)))}")
            raise ValueError("family mismatch: " + ", ".join(parts))

        truth, indeterminacy, falsity = [], [], []
        for param in parameters:
            try:
                triples = InsSet(universe, family[param])._cells.values()
            except ValueError as err:
                raise ValueError(f"parameter '{clipped(param.label)}': {err}") from None
            truth += [triple.truth.ten_thousandths for triple in triples]
            indeterminacy += [triple.indeterminacy.ten_thousandths for triple in triples]
            falsity += [triple.falsity.ten_thousandths for triple in triples]
        ticks = (array("H", truth), array("H", indeterminacy), array("H", falsity))
        self._set(universe, _Labels(parameters, rows), ticks, first_violation(*ticks) is None)

    @classmethod
    def _of(cls, universe: tuple, index: "_Labels | _Pairs", ticks, valid: bool) -> "SoftSet":
        """A soft set over a checked ``universe`` whose rows ``index`` maps, keeping the
        tick matrix ``ticks`` (an unread product's :class:`_Source`) without copying it;
        ``valid`` says whether every cell is known to meet the joint bounds."""
        self = cls.__new__(cls)
        self._set(universe, index, ticks, valid)
        return self

    def _set(self, universe, index, ticks, valid) -> None:
        self._universe = universe
        self._index = index
        self._ticks = ticks
        self._valid = valid
        self._positions = None

    def __reduce__(self) -> tuple:
        # Copied and pickled with its matrix, never a source, and without ``_positions``.
        return SoftSet._of, (self._universe, self._index, self._matrix(), self._valid)

    def _matrix(self) -> Columns:
        """The tick matrix; an unread product's is computed from its source on first read, then kept."""
        ticks = self._ticks
        if ticks.__class__ is _Source:
            index = self._index
            ticks = self._ticks = _product_matrix(*ticks, len(index.lefts), len(index.rights), len(self._universe))
        return ticks

    def _element_positions(self) -> dict[str, int]:
        """Each element's place in a row, built when first needed and shared by every view."""
        if self._positions is None:
            self._positions = {element: k for k, element in enumerate(self._universe)}
        return self._positions

    def _row(self, param: ParamLike) -> int | None:
        """The row holding ``param``'s value set, or None when the set lacks it."""
        if not isinstance(param, _Param):
            raise TypeError(f"not a parameter: {clipped(repr(param))}")
        row = self._index.row(param)
        if row is None:
            return None
        known = self._index.param(row)
        return row if known is param or known == param else None

    def _known_row(self, param: ParamLike) -> int:
        """The row holding ``param``'s value set; UnknownParameter when the set lacks it."""
        row = self._row(param)
        if row is None:
            raise UnknownParameter(f"unknown parameter '{clipped(param.label)}'")
        return row

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    @property
    def parameters(self) -> tuple[ParamLike, ...]:
        return self._index.all()

    @property
    def family(self) -> Mapping[ParamLike, InsSet]:
        return MappingProxyType({param: self._view(row) for row, param in enumerate(self.parameters)})

    def has_parameter(self, param: ParamLike) -> bool:
        return self._row(param) is not None

    def value_set(self, param: ParamLike) -> InsSet:
        """``param``'s value set: a new view of its row, each triple built when first read."""
        return self._view(self._known_row(param))

    def _view(self, row: int) -> InsSet:
        """A new view of ``row``."""
        ticks, positions = self._ticks, self._positions
        if ticks.__class__ is _Source or positions is None:  # called once per row by a caller reading them all
            ticks, positions = self._matrix(), self._element_positions()
        return InsSet._of(self._universe, RowTriples(ticks, row * len(self._universe), positions))

    def triple(self, param: ParamLike, element: str) -> GradeTriple:
        """``param``'s triple for ``element``, built from its cell of the matrix with no view."""
        start, positions = self._known_row(param) * len(self._universe), self._positions or self._element_positions()
        return RowTriples(self._matrix(), start, positions)[element]

    def find_parameter(self, label: str) -> ParamLike:
        """Look a parameter up by its display label (a product's: see :meth:`_Pairs.find`)."""
        row = self._index.find(label) if isinstance(label, str) else None
        if row is None:
            raise UnknownParameter(f"unknown parameter '{clipped(str(label))}'")
        return self._index.param(row)

    def restrict(self, parameters: Sequence[ParamLike]) -> "SoftSet":
        """The same universe, narrowed to the given parameters in the given order.

        An unread product computes only the chosen rows, from their factor
        rows, when they are at most half its rows; gathering rows one by one
        costs more than computing them all at once beyond that."""
        parameters = tuple(parameters)
        rows, size, index = [self._known_row(param) for param in parameters], len(self._universe), self._index
        ticks = self._ticks  # once: a first read elsewhere may put the matrix in a source's place
        if ticks.__class__ is _Source and 2 * len(rows) <= len(index.params):
            lefts, rights, rule = ticks
            pairs = [divmod(row, len(index.rights)) for row in rows]
            ours, theirs = _picked(lefts, [a for a, _ in pairs], size), _picked(rights, [b for _, b in pairs], size)
            ticks = _combined(ours, theirs, size * len(rows), rule)
        else:
            matrix = self._matrix()
            ticks = _stacked(size, [(matrix, row) for row in rows])
        return SoftSet._of(self._universe, _Labels(parameters), ticks, self._valid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoftSet):
            return NotImplemented
        return (
            self._universe == other._universe
            and self.parameters == other.parameters
            and self._matrix() == other._matrix()
        )

    def __repr__(self) -> str:
        return f"SoftSet({len(self._universe)} elements, {len(self._index.params)} parameters)"


def tick_rows(soft_set: SoftSet) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """Each value set's truth, indeterminacy and falsity ticks, in parameter
    order, each a list in universe order (a list yields its items without
    making new ints, where an array boxes each one)."""
    size, ticks = len(soft_set.universe), soft_set._matrix()
    for row in range(len(soft_set._index.params)):
        start = row * size
        yield tuple(column[start : start + size].tolist() for column in ticks)


def component_rows(soft_set: SoftSet) -> Iterator[Iterator[tuple[int, ...]]]:
    """For truth, indeterminacy and falsity, each value set's ticks as a tuple, in parameter
    order, cut from one list of the whole column; the universe must not be empty."""
    size = len(soft_set.universe)
    for column in soft_set._matrix():  # one column's list at a time
        yield zip(*[iter(column.tolist())] * size)


def _stacked(size: int, pieces: list[tuple[Columns, int]]) -> Columns:
    """Rows of ``size`` ticks, end to end; each piece names a tick matrix and a row of it.

    Consecutive rows of one matrix are copied as one slice, and every row of
    one matrix, in order, is that matrix itself.
    """
    runs: list[list] = []  # [matrix, first row, row after the last]
    for matrix, row in pieces:
        if runs and runs[-1][0] is matrix and runs[-1][2] == row:
            runs[-1][2] += 1
        else:
            runs.append([matrix, row, row + 1])
    if len(runs) == 1 and runs[0][1] == 0 and runs[0][2] * size == len(runs[0][0][0]):
        return runs[0][0]
    return tuple(
        array("H", b"".join([matrix[k][start * size : end * size] for matrix, start, end in runs])) for k in range(3)
    )


def _picked(matrix: Columns, rows: list[int], size: int) -> tuple[int, int, int]:
    """Rows of ``size`` ticks of ``matrix``, end to end and packed, each
    distinct row sliced once however often it is picked."""
    width, packed = 2 * size, []
    for column in matrix:
        data = column.tobytes()
        slices = {row: data[row * width : row * width + width] for row in set(rows)}
        packed.append(pack(b"".join([slices[row] for row in rows])))
    return tuple(packed)


def _require_same_universe(left: SoftSet, right: SoftSet) -> None:
    if left.universe != right.universe:
        raise UniverseMismatch(
            f"universes differ: {clipped(str(list(left.universe)))} vs {clipped(str(list(right.universe)))}"
        )


def _join(a: tuple, b: tuple, guard: int) -> tuple:
    """Max truth, min indeterminacy, min falsity of packed columns."""
    return (larger(a[0], b[0], guard), smaller(a[1], b[1], guard), smaller(a[2], b[2], guard))


def _meet(a: tuple, b: tuple, guard: int) -> tuple:
    """Min truth, min indeterminacy, max falsity of packed columns."""
    return (smaller(a[0], b[0], guard), smaller(a[1], b[1], guard), larger(a[2], b[2], guard))


# Complement turns one rule into the other: swapping truth with falsity swaps max with min.
_DUAL = {_join: _meet, _meet: _join}


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


def _paired_rows(left: SoftSet, right: SoftSet) -> list[tuple[int, int]]:
    """The rows of each parameter the two sets share, in left's order."""
    return [(a, b) for a, param in enumerate(left.parameters) if (b := right._row(param)) is not None]


def _combine(left: SoftSet, right: SoftSet, pairs: list[tuple[int, int]], rule) -> Columns:
    """``rule`` over the paired rows of two soft sets, in one kernel call; the
    result's first bad cell, in row order, raises unless both sets are valid."""
    size, ours, theirs = len(left._universe), left._matrix(), right._matrix()
    ours = tuple(map(pack, _stacked(size, [(ours, a) for a, _ in pairs])))
    theirs = tuple(map(pack, _stacked(size, [(theirs, b) for _, b in pairs])))
    return _checked(_combined(ours, theirs, size * len(pairs), rule), left._valid and right._valid)


def is_subset(left: SoftSet, right: SoftSet) -> bool:
    """Containment: parameters included, truth and indeterminacy no larger,
    falsity no smaller, elementwise.  Not strict: equal sets contain each other."""
    _require_same_universe(left, right)
    pairs = _paired_rows(left, right)
    if len(pairs) < len(left.parameters):
        return False
    ours, theirs = left._matrix(), right._matrix()
    ta, ia, fa = map(pack, ours)
    tb, ib, fb = map(pack, _stacked(len(left.universe), [(theirs, b) for _, b in pairs]))
    guard = guards(len(ours[0]))
    return at_least(tb, ta, guard) and at_least(ib, ia, guard) and at_least(fa, fb, guard)


def equals(left: SoftSet, right: SoftSet) -> bool:
    """Mutual containment: same parameter set (order aside) and identical triples."""
    return is_subset(left, right) and is_subset(right, left)


def _swapped(ticks: Columns) -> Columns:
    """Truth and falsity swapped."""
    truth, indeterminacy, falsity = ticks
    return falsity, indeterminacy, truth


def complement(soft_set: SoftSet) -> SoftSet:
    """Negate every parameter and swap truth with falsity in every triple.

    The complement of an unread product is unread too (De Morgan): the
    product of the swapped factor matrices under the dual rule."""
    ticks = soft_set._ticks  # once, as in restrict
    if ticks.__class__ is _Source:
        lefts, rights, rule = ticks
        ticks = _Source((_swapped(lefts), _swapped(rights), _DUAL[rule]))
    else:
        ticks = _checked(_swapped(ticks), soft_set._valid)
    return SoftSet._of(soft_set.universe, soft_set._index.negated(), ticks, True)


def is_null(soft_set: SoftSet) -> bool:
    """True when every triple is (0, 0, 0)."""
    return not any(map(any, soft_set._matrix()))


def union(left: SoftSet, right: SoftSet) -> SoftSet:
    """Join on shared parameters (max/min/min); unshared value sets carry over.

    Result parameters: left's, then right's that left lacks, orders kept.
    """
    _require_same_universe(left, right)
    pairs = _paired_rows(left, right)
    joined = _combine(left, right, pairs, _join)
    ranks = {a: rank for rank, (a, _) in enumerate(pairs)}
    ours, theirs = left._matrix(), right._matrix()
    pieces = [(joined, ranks[a]) if a in ranks else (ours, a) for a in range(len(left.parameters))]
    extra = sorted(set(range(len(right.parameters))).difference(b for _, b in pairs))
    pieces += [(theirs, b) for b in extra]
    parameters = left.parameters + tuple(right.parameters[b] for b in extra)
    ticks = _stacked(len(left.universe), pieces)
    return SoftSet._of(left.universe, _Labels(parameters), ticks, left._valid and right._valid)


def intersection(left: SoftSet, right: SoftSet) -> SoftSet:
    """Meet on shared parameters (min/min/max); requires at least one."""
    _require_same_universe(left, right)
    pairs = _paired_rows(left, right)
    if not pairs:
        raise EmptyParameterIntersection("the parameter sets share no member")
    parameters = tuple(left.parameters[a] for a, _ in pairs)
    return SoftSet._of(left.universe, _Labels(parameters), _combine(left, right, pairs, _meet), True)


class _Source(tuple):
    """An unread product's ``_ticks``: ``(left matrix, right matrix, rule)`` for :func:`_product_matrix`."""

    __slots__ = ()


def _product_matrix(lefts: Columns, rights: Columns, rule, left_count: int, right_count: int, size: int) -> Columns:
    """The full product's tick matrix, one lane operation per component over every pair at once.

    Each left row is repeated once per right row, and the whole right matrix
    once per left row, so lane block ``a * right_count + b`` holds pair
    (a, b) and the result is the product's tick matrix as it stands.
    """
    left_lanes = tuple(
        pack(b"".join([bytes(rows[a * size : a * size + size]) * right_count for a in range(left_count)]))
        for rows in map(memoryview, lefts)
    )
    right_lanes = tuple(pack(column.tobytes() * left_count) for column in rights)
    return _combined(left_lanes, right_lanes, size * left_count * right_count, rule)


def _product(left: SoftSet, right: SoftSet, rule) -> SoftSet:
    """The product of two soft sets under ``rule``, its grades computed when read.

    Pairs of valid value sets are valid by closure, so a product of valid
    sets keeps its operands' matrices and ``rule`` as its source.  Any other
    product is computed now and checked as a whole, so its first bad cell is
    also the first in row-major pair order, and is raised before a shared label.
    """
    _require_same_universe(left, right)
    lefts, rights, ticks = left.parameters, right.parameters, _Source((left._matrix(), right._matrix(), rule))
    if not (left._valid and right._valid):
        ticks = _checked(_product_matrix(*ticks, len(lefts), len(rights), len(left.universe)), False)
    return SoftSet._of(left.universe, _Pairs(lefts, rights, (left._index.rows, right._index.rows)), ticks, True)


def _positions(parameters: Sequence[ParamLike]) -> dict[str, int]:
    """Each parameter's position by label, the last kept where labels repeat."""
    return {param.label: k for k, param in enumerate(parameters)}


def _shared_label(lefts: dict[str, int], rights: dict[str, int], left_count: int, right_count: int) -> bool:
    """Whether two pairs of factors with these label indexes would share a label: only when a
    label repeats on one side, or ``L + ", " + m`` and ``m + ", " + R`` are a left and a right
    label for some left label L, right label R and text m."""
    if (len(lefts) < left_count and right_count) or (len(rights) < right_count and left_count):
        return True
    splits, lengths, tails = [label for label in rights if ", " in label], set(map(len, lefts)), set()
    for label in [label for label in lefts if ", " in label] if splits else ():
        at = label.find(", ")
        while at >= 0:
            if at in lengths and label[:at] in lefts:
                tails.add(label[at + 2 :])
            at = label.find(", ", at + 1)
    for label in splits if tails else ():
        at = label.find(", ")
        while at >= 0:
            if label[:at] in tails and label[at + 2 :] in rights:
                return True
            at = label.find(", ", at + 1)
    return False


class _Pairs:
    """A product's row index: row ``a * len(rights) + b`` holds pair
    (``lefts[a]``, ``rights[b]``), found through ``indexes``, the two
    factors' positions by label (built here when None).

    ``params`` starts as a list of None: :meth:`param` builds row
    ``a * len(rights) + b``'s ``CompoundParameter(lefts[a], rights[b])``
    when something first reads it, then keeps it, so each row hands out one
    object; :meth:`all` builds the rest in one pass and keeps them as a
    tuple.  No compound is built before it is read, unless two pairs share a
    label: then all of them are built, and label_index words the refusal.
    """

    __slots__ = ("lefts", "rights", "indexes", "params")

    def __init__(self, lefts: tuple, rights: tuple, indexes=None) -> None:
        ours, theirs = indexes or (_positions(lefts), _positions(rights))
        if _shared_label(ours, theirs, len(lefts), len(rights)):
            label_index([CompoundParameter(a, b) for a in lefts for b in rights])
        self.lefts, self.rights, self.indexes = lefts, rights, (ours, theirs)
        self.params = [None] * (len(lefts) * len(rights))

    def __reduce__(self) -> tuple:
        # Its factors only: the indexes and compounds are built again.
        return _Pairs, (self.lefts, self.rights)

    @property
    def rows(self) -> dict[str, int]:
        """Each compound's row by label, for a product used as an operand: builds every compound."""
        return _positions(self.all())

    def param(self, row: int) -> ParamLike:
        params = self.params  # once: another thread's all() may swap the list for a tuple
        param = params[row]
        if param is None:
            left, right = divmod(row, len(self.rights))
            param = params[row] = CompoundParameter(self.lefts[left], self.rights[right])
        return param

    def all(self) -> tuple:
        if self.params.__class__ is list:
            built = zip(self.params, itertools.product(self.lefts, self.rights))
            self.params = tuple([CompoundParameter(*pair) if param is None else param for param, pair in built])
        return self.params

    def row(self, param: ParamLike) -> int | None:
        return self._at(param.left.label, param.right.label) if isinstance(param, CompoundParameter) else None

    def find(self, label: str) -> int | None:
        """Splits ``(X, Y)`` at each ``", "`` in turn; no two pairs share a
        label, so at most one split finds X on the left and Y on the right."""
        row = None
        if label[:1] == "(" and label[-1:] == ")":
            at = label.find(", ", 1)
            while row is None and at > 0:
                row, at = self._at(label[1:at], label[at + 2 : -1]), label.find(", ", at + 1)
        return row

    def _at(self, left: str, right: str) -> int | None:
        """The row of the pair whose parts are labelled ``left`` and ``right``, or None."""
        lefts, rights = self.indexes
        a, b = lefts.get(left), rights.get(right)
        return None if a is None or b is None else a * len(rights) + b

    def negated(self) -> "_Pairs":
        # Negation distributes over each pair.
        return _Pairs(not_parameters(self.lefts), not_parameters(self.rights))


def and_op(left: SoftSet, right: SoftSet) -> SoftSet:
    """Pairwise product with the meet rule; rows in row-major pair order."""
    return _product(left, right, _meet)


def or_op(left: SoftSet, right: SoftSet) -> SoftSet:
    """Pairwise product with the join rule; rows in row-major pair order."""
    return _product(left, right, _join)


def canonicalize(soft_set: SoftSet) -> SoftSet:
    """Reorder parameters into the canonical sort, leaving values untouched.

    Makes order-insensitive identities (commutativity above all) literal
    structural equality.
    """
    return soft_set.restrict(sorted(soft_set.parameters, key=lambda p: p.sort_key()))
