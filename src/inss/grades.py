"""Exact membership grades and validated grade triples.

A grade is an exact decimal in [0, 1] held as an integer count of
ten-thousandths.  Every comparison in the package is therefore plain integer
comparison, and no value ever picks up binary floating-point noise.  A grade
triple bundles truth, indeterminacy and falsity degrees and enforces the
joint validity bounds at construction time:

* min(truth, falsity)        <= 0.5
* min(truth, indeterminacy)  <= 0.5
* min(falsity, indeterminacy) <= 0.5
* truth + indeterminacy + falsity <= 2

so any triple you can get your hands on is already valid (the one documented
escape hatch is :meth:`GradeTriple.unchecked`).  The first three bounds fail
exactly when two components exceed one half, and they already cap the sum at
2.

``Grade``, ``GradeTriple`` and the decision module's records are frozen
:class:`Record` classes with ``__slots__``, not dataclasses: no instance
``__dict__``, so a triple takes 56 bytes.  They compare, hash, print, copy
and pickle by their fields, but ``dataclasses.fields``, ``asdict``,
``replace`` and ``is_dataclass`` do not apply to them.

The soft-set core does not hold these objects: it keeps each soft set's
grades as three ``array("H")`` columns of tick counts and checks them in
bulk with :func:`first_violation`.  A value set looks its cells up in a
:class:`RowTriples`, which builds a public triple from one cell's ticks
when that cell is first read, filling the triple's slots through their
descriptors with one shared ``Grade`` per tick count; the triples live only
as long as the value set that holds them.

Column kernels run on packed lanes: :func:`pack` reads a column as one int
holding one tick per 16-bit lane, in the machine's byte order, and
:func:`unpack` turns such an int back into a column.  Ticks stay below
2**15, so bit 15 of every lane is free as a guard bit: with ``G`` that bit
in every lane, ``((x | G) - y) & G`` marks the lanes where x >= y, and no
borrow crosses from one lane into the next.  :func:`larger`,
:func:`smaller` and :func:`at_least` build on that mark, so elementwise
max, min and comparison each cost a handful of big-int operations, whatever
the column's length.

There are exactly 10001 grades, each with one canonical text; two immutable
tables shared by the whole process translate between them: ``GRADE_TEXTS``
(tick count to text) and its inverse ``TICKS_BY_TEXT``.  Readers look a text
up there before parsing it, and writers only index.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from decimal import Decimal, InvalidOperation
from operator import attrgetter
from types import MappingProxyType

from .errors import ConstraintViolation, OutOfRange, ParseError, PrecisionLoss, clipped

__all__ = [
    "GRADE_SCALE",
    "COMPONENTS",
    "Grade",
    "GradeTriple",
    "ZERO_TRIPLE",
    "complement_triple",
    "validate_triple",
]

GRADE_SCALE = 10_000
_HALF = GRADE_SCALE // 2

COMPONENTS = ("truth", "indeterminacy", "falsity")


# The canonical text of every tick count ("0", "0.0001", ..., "0.9999", "1"), and its inverse.
# Readers call the plain dict's get: a mappingproxy's get looks "get" up again on every call.
GRADE_TEXTS = (
    "0",
    *["0." + "".join(digits).rstrip("0") for digits in itertools.product("0123456789", repeat=4)][1:],
    "1",
)
_TICKS_BY_TEXT = {text: ticks for ticks, text in enumerate(GRADE_TEXTS)}
TICKS_BY_TEXT = MappingProxyType(_TICKS_BY_TEXT)


class Record:
    """A frozen record of the fields named in its class's ``__slots__``.

    Built by position or keyword (``_defaults`` gives the fields that may be
    left out), then checked by ``_check``; equal, hashed and printed by its
    fields in order, and equal only to records of its own class; copied and
    pickled by calling its class on its fields.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = cls.__slots__
        fields = attrgetter(*names)
        # The field values in order, as a tuple (attrgetter gives a lone field bare).
        cls._values = (lambda self: (fields(self),)) if len(names) == 1 else (lambda self: fields(self))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}")
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected arguments {sorted(kwargs)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise if the fields do not form a valid record."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


@functools.total_ordering
class Grade(Record):
    """One membership degree, counted in ten-thousandths (0 ..= 10000)."""

    __slots__ = ("ten_thousandths",)

    def _check(self) -> None:
        if isinstance(self.ten_thousandths, bool) or not isinstance(self.ten_thousandths, int):
            raise OutOfRange(f"grade count must be an integer, got {clipped(repr(self.ten_thousandths))}")
        if not 0 <= self.ten_thousandths <= GRADE_SCALE:
            raise OutOfRange(f"grade = {Decimal(self.ten_thousandths) / GRADE_SCALE} outside [0, 1]")

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ten_thousandths < other.ten_thousandths

    @classmethod
    def parse(cls, value: object, what: str = "grade") -> "Grade":
        """Read a grade from text, an int, a float, or a Decimal (see :func:`grade_ticks`)."""
        if isinstance(value, Grade):
            return value
        return shared_grade(grade_ticks(value, what))

    @property
    def text(self) -> str:
        """Canonical minimal-decimal form, with a leading zero ("0.3")."""
        return GRADE_TEXTS[self.ten_thousandths]

    def __str__(self) -> str:
        return self.text


def grade_ticks(value: object, what: str = "grade") -> int:
    """Ten-thousandths of a grade given as text, an int, a float, or a Decimal.

    Rejects values outside [0, 1] (OutOfRange), values that do not sit on
    the 1/10000 grid (PrecisionLoss), and non-numeric input (ParseError).
    ``what`` names the value in error messages.
    """
    if isinstance(value, str):
        # Canonical texts, and the fixed-width spellings "0.d" to "0.dddd", skip Decimal.
        ticks = _TICKS_BY_TEXT.get(value)
        if ticks is not None:
            return ticks
        digits = value[2:]
        if value[:2] == "0." and 0 < len(digits) <= 4 and digits.isascii() and digits.isdigit():
            return int(digits.ljust(4, "0"))
        try:
            dec = Decimal(value.strip())
        except InvalidOperation:
            raise ParseError(f"{what} {clipped(repr(value))} is not a decimal number") from None
    elif isinstance(value, float):
        dec = Decimal(str(value))
    elif isinstance(value, (int, Decimal)) and not isinstance(value, bool):
        dec = Decimal(value)
    else:
        raise ParseError(f"{what} {clipped(repr(value))} is not a decimal number")
    if not dec.is_finite():
        raise ParseError(f"{what} {clipped(repr(value))} is not a decimal number")
    if dec < 0 or dec > 1:
        raise OutOfRange(f"{what} = {clipped(str(dec))} outside [0, 1]")
    scaled = dec * GRADE_SCALE
    ticks = int(scaled)
    if scaled != ticks:
        raise PrecisionLoss(f"{what} = {clipped(str(dec))} has more than four decimal places")
    return ticks


def _violation(t: int, i: int, f: int) -> str | None:
    """The first joint bound a triple of tick counts breaks, as a message."""
    if t > _HALF and f > _HALF:
        return f"min(truth, falsity) = {GRADE_TEXTS[min(t, f)]} exceeds 0.5"
    if t > _HALF and i > _HALF:
        return f"min(truth, indeterminacy) = {GRADE_TEXTS[min(t, i)]} exceeds 0.5"
    if f > _HALF and i > _HALF:
        return f"min(falsity, indeterminacy) = {GRADE_TEXTS[min(f, i)]} exceeds 0.5"
    return None


# --- packed lanes (see the module docstring) --------------------------------

_GUARD_BIT = 15


def pack(column) -> int:
    """A tick column (``array("H")`` or its bytes) as one int, one tick per 16-bit lane."""
    return int.from_bytes(column, sys.byteorder)


def unpack(lanes: int, count: int) -> array:
    """The column of ``count`` ticks packed into ``lanes``."""
    column = array("H")
    column.frombytes(lanes.to_bytes(2 * count, sys.byteorder))
    return column


def in_every_lane(ticks: int, count: int) -> int:
    """``ticks`` repeated in ``count`` lanes."""
    return pack(array("H", (ticks,)).tobytes() * count)


def guards(count: int) -> int:
    """The guard bit, bit 15, in each of ``count`` lanes."""
    return in_every_lane(1 << _GUARD_BIT, count)


def _marks(x: int, y: int, guard: int) -> int:
    """The guard bit of each lane where x >= y."""
    return ((x | guard) - y) & guard


def at_least(x: int, y: int, guard: int) -> bool:
    """Whether x >= y in every lane."""
    return _marks(x, y, guard) == guard


def _where_at_least(x: int, y: int, guard: int) -> int:
    """All fifteen tick bits of each lane where x >= y, none elsewhere."""
    marks = _marks(x, y, guard)
    return marks - (marks >> _GUARD_BIT)


def larger(x: int, y: int, guard: int) -> int:
    """Lane-wise max."""
    return y ^ ((x ^ y) & _where_at_least(x, y, guard))


def smaller(x: int, y: int, guard: int) -> int:
    """Lane-wise min."""
    return x ^ ((x ^ y) & _where_at_least(x, y, guard))


def first_violation(truth: array, indeterminacy: array, falsity: array) -> tuple[int, str] | None:
    """Position and message of the first cell in three aligned tick columns
    that breaks a joint bound, or None when every cell is valid.

    A cell is bad when two of its grades exceed one half; the first bad lane
    is found by unpacking the marks and searching them, which holds in
    either byte order.
    """
    count = len(truth)
    guard = guards(count)
    above = in_every_lane(_HALF + 1, count)
    t, i, f = (_marks(pack(column), above, guard) for column in (truth, indeterminacy, falsity))
    bad = (t & i) | (f & (t | i))
    if not bad:
        return None
    position = unpack(bad >> _GUARD_BIT, count).index(1)
    return position, _violation(truth[position], indeterminacy[position], falsity[position])


class GradeTriple(Record):
    """Truth, indeterminacy and falsity degrees for one element.

    Construction checks the joint validity bounds and raises
    ConstraintViolation naming the first broken inequality, so every triple
    built through the constructor is valid.
    """

    __slots__ = COMPONENTS

    def __init__(self, truth: Grade, indeterminacy: Grade, falsity: Grade) -> None:
        problem = _violation(truth.ten_thousandths, indeterminacy.ten_thousandths, falsity.ten_thousandths)
        if problem is not None:
            raise ConstraintViolation(problem)
        _set_truth(self, truth)
        _set_indeterminacy(self, indeterminacy)
        _set_falsity(self, falsity)

    @classmethod
    def unchecked(cls, truth: Grade, indeterminacy: Grade, falsity: Grade) -> "GradeTriple":
        """Build a triple without the joint bounds check.

        Exists solely to audit published data that breaks the bounds; the
        individual grades are still real grades.  Do not use this to smuggle
        values into ordinary computations.
        """
        for grade in (truth, indeterminacy, falsity):
            if not isinstance(grade, Grade):
                raise TypeError(f"expected Grade, got {grade!r}")
        self = object.__new__(cls)
        _set_truth(self, truth)
        _set_indeterminacy(self, indeterminacy)
        _set_falsity(self, falsity)
        return self

    def __reduce__(self) -> tuple:
        return type(self).unchecked, self._values()

    def components(self) -> tuple[Grade, Grade, Grade]:
        return (self.truth, self.indeterminacy, self.falsity)

    def __str__(self) -> str:
        return f"({self.truth}, {self.indeterminacy}, {self.falsity})"


# The slots' own setters, which skip the refusing __setattr__ (and the name lookup of object.__setattr__).
_set_truth, _set_indeterminacy, _set_falsity = (vars(GradeTriple)[name].__set__ for name in COMPONENTS)


ZERO_TRIPLE = GradeTriple(Grade(0), Grade(0), Grade(0))


def validate_triple(truth: object, indeterminacy: object, falsity: object) -> GradeTriple:
    """Parse three raw values and return the validated triple they form."""
    parse = Grade.parse
    return GradeTriple(parse(truth, "truth"), parse(indeterminacy, "indeterminacy"), parse(falsity, "falsity"))


def complement_triple(triple: GradeTriple) -> GradeTriple:
    """Swap truth and falsity; indeterminacy stays put."""
    return GradeTriple(triple.falsity, triple.indeterminacy, triple.truth)


# One shared Grade per tick count, made when a count first comes up.
shared_grade = functools.cache(Grade)


class RowTriples(dict):
    """The triples of one row of a tick matrix, keyed by element; each is
    built when first looked up, then kept.

    ``ticks`` is the matrix, ``start`` the row's first position in it and
    ``positions`` each element's place in the row; an element outside it
    raises KeyError.  The counts are already grades and the matrix was
    checked (or loaded unchecked on purpose) as a whole, so the bounds are
    not checked again.
    """

    __slots__ = ("_ticks", "_start", "_positions")

    def __init__(self, ticks: tuple, start: int, positions: dict) -> None:
        self._ticks, self._start, self._positions = ticks, start, positions

    def __missing__(self, element: str) -> GradeTriple:
        at = self._start + self._positions[element]
        truth, indeterminacy, falsity = self._ticks
        triple = object.__new__(GradeTriple)
        _set_truth(triple, shared_grade(truth[at]))
        _set_indeterminacy(triple, shared_grade(indeterminacy[at]))
        _set_falsity(triple, shared_grade(falsity[at]))
        self[element] = triple
        return triple
