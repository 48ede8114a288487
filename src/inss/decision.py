"""Comparison-matrix decision procedure.

Given a soft set and a chosen parameter list, each object is scored per
parameter by counting how many other objects it matches or beats in truth,
how many in indeterminacy (indeterminacy counts in the object's favour), and
how many it matches or beats in falsity (which counts against it):

    entry = truth_wins + indeterminacy_wins - falsity_wins

All three counts use >= against each other object, so ties count as wins.
Row sums give the scores; the best object is the highest score, earliest
universe position winning ties.  Per-column work is independent (columns
could be computed in parallel); this implementation is sequential.  It reads
each component's rows of the soft set's tick matrix as tuples cut from one
list (``algebra.component_rows``), sorts each row once and reads the row's
win counts in one C call, an ``itemgetter`` over the row on a dict from
each value to its last position in sorted order.  The matrix keeps the win
counts as they are computed, one tuple of ints per component and
parameter; CellAudit objects are built only when a caller reads
``ComparisonMatrix.audits``.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

from .algebra import ParamLike, SoftSet, component_rows
from .errors import EmptyParameterSet, EmptyUniverse, ReferenceMismatch, clipped
from .grades import GradeTriple, Record

__all__ = [
    "DecisionTable",
    "CellAudit",
    "ComparisonMatrix",
    "ScoreVector",
    "ReferenceMatrix",
    "MatrixDiff",
    "SelectionReport",
    "comparison_matrix",
    "scores",
    "select_best",
]


class DecisionTable:
    """A soft set narrowed to the chosen parameters, laid out objects-by-parameters.

    A label in the choice is looked up with ``SoftSet.find_parameter``; every
    other entry goes to ``SoftSet.restrict``, whose one parameter-to-row
    lookup raises TypeError for anything but a parameter.
    """

    __slots__ = ("_soft_set", "_objects", "_parameters", "_rows")

    def __init__(self, soft_set: SoftSet, choice: Sequence[ParamLike | str] | None = None):
        find = soft_set.find_parameter
        entries = soft_set.parameters if choice is None else [find(e) if isinstance(e, str) else e for e in choice]
        if not entries:
            raise EmptyParameterSet("a decision needs at least one parameter")
        if not soft_set.universe:
            raise EmptyUniverse("a decision needs at least one object")
        self._soft_set = soft_set.restrict(entries)
        self._objects = self._soft_set.universe
        self._parameters = self._soft_set.parameters
        self._rows = None

    @property
    def soft_set(self) -> SoftSet:
        return self._soft_set

    @property
    def objects(self) -> tuple[str, ...]:
        return self._objects

    @property
    def parameters(self) -> tuple[ParamLike, ...]:
        return self._parameters

    @property
    def rows(self) -> tuple[tuple[GradeTriple, ...], ...]:
        if self._rows is None:
            columns = [self._soft_set.value_set(p) for p in self._parameters]
            self._rows = tuple(
                tuple(column[element] for column in columns) for element in self._objects
            )
        return self._rows

    def __repr__(self) -> str:
        return f"DecisionTable({len(self._objects)} objects, {len(self._parameters)} parameters)"


class CellAudit(Record):
    """The three counts behind one matrix entry.

    Each field counts the other objects whose component this object matches
    or beats under the same parameter.
    """

    __slots__ = ("truth_wins", "indeterminacy_wins", "falsity_wins")

    def __init__(self, truth_wins: int, indeterminacy_wins: int, falsity_wins: int) -> None:
        # One per matrix cell when ``audits`` is read, so it skips the base's argument binding.
        init = object.__setattr__
        init(self, "truth_wins", truth_wins)
        init(self, "indeterminacy_wins", indeterminacy_wins)
        init(self, "falsity_wins", falsity_wins)

    @property
    def value(self) -> int:
        return self.truth_wins + self.indeterminacy_wins - self.falsity_wins


class ComparisonMatrix:
    """Matrix of audit cells, rows indexed by object, columns by parameter.

    Win counts are kept as ``comparison_matrix`` computes them: for truth,
    indeterminacy and falsity, one tuple per parameter, indexed by object.
    """

    __slots__ = ("_objects", "_parameters", "_wins", "_entries", "_audits")

    def __init__(
        self,
        objects: tuple[str, ...],
        parameters: tuple[ParamLike, ...],
        audits: tuple[tuple[CellAudit, ...], ...],
    ):
        wins = tuple(
            tuple(tuple(getattr(cell, name) for cell in column) for column in zip(*audits))
            for name in ("truth_wins", "indeterminacy_wins", "falsity_wins")
        )
        self._set(objects, parameters, wins, audits)

    @classmethod
    def _of(cls, objects, parameters, wins: tuple[tuple, tuple, tuple]) -> "ComparisonMatrix":
        """A matrix from its truth, indeterminacy and falsity win columns."""
        self = cls.__new__(cls)
        self._set(objects, parameters, wins, None)
        return self

    def _set(self, objects, parameters, wins, audits) -> None:
        self._objects = objects
        self._parameters = parameters
        self._wins = wins
        values = [[t + i - f for t, i, f in zip(*columns)] for columns in zip(*wins)]
        self._entries = tuple(zip(*values)) if values else ((),) * len(objects)
        self._audits = audits

    def _rows(self):
        """Per object, its truth, indeterminacy and falsity win counts by parameter."""
        return zip(*(zip(*columns) for columns in self._wins))

    @property
    def objects(self) -> tuple[str, ...]:
        return self._objects

    @property
    def parameters(self) -> tuple[ParamLike, ...]:
        return self._parameters

    @property
    def audits(self) -> tuple[tuple[CellAudit, ...], ...]:
        if self._audits is None:
            self._audits = tuple(tuple(map(CellAudit, *rows)) for rows in self._rows())
        return self._audits

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._entries

    def row(self, object_id: str) -> tuple[int, ...]:
        try:
            index = self._objects.index(object_id)
        except ValueError:
            raise ValueError(f"unknown object '{clipped(str(object_id))}'") from None
        return self._entries[index]

    @property
    def column_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self._entries)))

    def _key(self) -> tuple:
        return (self._objects, self._parameters, self._wins)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"ComparisonMatrix(objects={self._objects!r}, "
            f"parameters={self._parameters!r}, audits={self.audits!r})"
        )


def _win_counts(column: tuple[int, ...]) -> tuple[int, ...]:
    """For each value, how many other values in the column are at or below it.

    Mapping each value to its last position in sorted order gives exactly
    that count.  A column of one value has none to count (and ``itemgetter``
    of one key would return a bare int).
    """
    if len(column) == 1:
        return (0,)
    return itemgetter(*column)(dict(zip(sorted(column), range(len(column)))))


def comparison_matrix(table: DecisionTable) -> ComparisonMatrix:
    """Count wins per object and parameter.

    Each component column is sorted once; an object's win count is the
    number of values at or below its own, self excluded.
    """
    wins = tuple(tuple(map(_win_counts, rows)) for rows in component_rows(table.soft_set))
    return ComparisonMatrix._of(table.objects, table.parameters, wins)


class ScoreVector(Record):
    """Row sums of the comparison matrix, plus the ranking they induce."""

    __slots__ = ("objects", "scores", "ranking")


def scores(matrix: ComparisonMatrix) -> ScoreVector:
    """Sum each object's row; rank by descending score, earliest object first on ties."""
    totals = tuple(map(sum, matrix.entries))
    order = sorted(range(len(totals)), key=totals.__getitem__, reverse=True)
    return ScoreVector(matrix.objects, totals, tuple(matrix.objects[i] for i in order))


class ReferenceMatrix(Record):
    """An externally supplied matrix to audit the computed one against:
    ``entries`` holds one row per object, one int per parameter label."""

    __slots__ = ("objects", "parameter_labels", "entries")

    def _check(self) -> None:
        if len(self.entries) != len(self.objects):
            raise ValueError("entries: need exactly one row per object")
        for index, row in enumerate(self.entries):
            if len(row) != len(self.parameter_labels):
                raise ValueError(f"entries[{index}]: need exactly one value per parameter")


class MatrixDiff(Record):
    """One cell where the computed matrix disagrees with the reference."""

    __slots__ = ("object_id", "parameter", "computed", "reference")


def _diff_against(matrix: ComparisonMatrix, reference: ReferenceMatrix) -> tuple[MatrixDiff, ...]:
    labels = tuple(p.label for p in matrix.parameters)
    if reference.objects != matrix.objects or reference.parameter_labels != labels:
        lists = (reference.objects, reference.parameter_labels, matrix.objects, labels)
        quoted = [clipped(str(list(ids))) for ids in lists]
        raise ReferenceMismatch("reference covers {} x {}, computed matrix covers {} x {}".format(*quoted))
    diffs = []
    for object_id, row, expected in zip(matrix.objects, matrix.entries, reference.entries):
        if row != expected:
            for param, computed, value in zip(matrix.parameters, row, expected):
                if computed != value:
                    diffs.append(MatrixDiff(object_id, param, computed, value))
    return tuple(diffs)


class SelectionReport(Record):
    """Everything the decision produced, ready for rendering or serialization:
    the DecisionTable, the ComparisonMatrix, the ScoreVector, the best
    object, whether its score is tied, and, when a reference matrix was
    given, the MatrixDiffs against it (else None)."""

    __slots__ = ("table", "matrix", "scores", "best", "tied", "reference_diff")
    _defaults = {"reference_diff": None}

    def to_dict(self) -> dict:
        return {
            "objects": list(self.matrix.objects),
            "parameters": [p.label for p in self.matrix.parameters],
            "matrix": [list(row) for row in self.matrix.entries],
            "audits": [[list(cell) for cell in zip(*rows)] for rows in self.matrix._rows()],
            "scores": list(self.scores.scores),
            "ranking": list(self.scores.ranking),
            "best": self.best,
            "tied": self.tied,
            "reference_diff": None
            if self.reference_diff is None
            else [
                {
                    "object": d.object_id,
                    "parameter": d.parameter.label,
                    "computed": d.computed,
                    "reference": d.reference,
                }
                for d in self.reference_diff
            ],
        }


def select_best(
    soft_set: SoftSet,
    choice: Sequence[ParamLike | str] | None = None,
    reference: ReferenceMatrix | None = None,
) -> SelectionReport:
    """Run the full procedure: restrict, count, score, pick.

    With a reference matrix, the report also carries every cell where the
    computed matrix disagrees with it.
    """
    table = DecisionTable(soft_set, choice)
    matrix = comparison_matrix(table)
    vector = scores(matrix)
    best = vector.ranking[0]
    top = max(vector.scores)
    tied = vector.scores.count(top) > 1
    diff = None if reference is None else _diff_against(matrix, reference)
    return SelectionReport(table, matrix, vector, best, tied, diff)
