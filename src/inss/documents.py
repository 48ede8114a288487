"""Reading, writing and rendering soft-set documents.

A soft-set document is a JSON object:

    {
      "format_version": 1,
      "universe": ["b1", "b2"],
      "parameters": [{"name": "bright", "negated": false}, ...],
      "grades": {
        "bright": {"b1": ["0.5", "0.6", "0.3"], "b2": [...]},
        ...
      }
    }

``universe`` and ``parameters`` are ordered; the ``grades`` maps are keyed by
parameter label and element id and must cover them exactly.  A parameter is
either ``{"name", "negated"}`` or a product ``{"left", "right"}`` of two
parameters.  Each cell is ``[truth, indeterminacy, falsity]``; values may
arrive as strings or numbers but are always written back as canonical
minimal-decimal strings.  The process-wide tables ``grades.TICKS_BY_TEXT``
and ``grades.GRADE_TEXTS`` read and write canonical texts; only other
spellings are parsed.  Serialization is canonical and stable: two-space
indent, sorted object keys, trailing newline, so loading and saving any
document yields byte-identical output.

Reference matrices (for auditing a computed comparison matrix) use:

    {"format_version": 1, "objects": [...], "parameters": ["label", ...],
     "entries": [[0, -2, ...], ...]}
"""

from __future__ import annotations

import json
import os
from array import array
from decimal import Decimal
from itertools import repeat

from .algebra import (
    CompoundParameter, ParamLike, Parameter, SoftSet, _Labels, _fold, checked_universe, gaps, label_index, tick_rows
)
from .decision import ReferenceMatrix
from .errors import ConstraintViolation, OutOfRange, ParseError, PrecisionLoss, clipped
from .grades import _TICKS_BY_TEXT, GRADE_TEXTS, first_violation, grade_ticks

__all__ = [
    "FORMAT_VERSION",
    "load_soft_set",
    "soft_set_to_document",
    "serialize_soft_set",
    "save_soft_set",
    "load_reference_matrix",
    "render_table",
]

FORMAT_VERSION = 1

# Compound parameters nest at most this deep, since _param_from_spec reads
# them with one recursive call per level and a document's depth is outside input.
_MAX_NESTING = 100
_TOO_DEEP = f"compound parameters nested too deeply (limit {_MAX_NESTING} levels)"


class _Number(Decimal):
    """A JSON number with a fraction or an exponent, read exactly, and
    quoted in messages as its decimal text (``1E+5`` for ``1e5``)."""

    __slots__ = ()
    __repr__ = Decimal.__str__


def _read_json(source: str | os.PathLike, parse_float=None) -> object:
    """The JSON value in a UTF-8 file (other bytes are an OSError); no object
    may repeat a key.  ``parse_float`` reads numbers with a fraction or an
    exponent, as in ``json.loads`` (None: binary floats)."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise ParseError(f"{source}: duplicate key {clipped(repr(key))}")
        return obj

    try:
        with open(os.fspath(source), encoding="utf-8") as file:  # not Path: Path("") is "."; an int is no fd
            text = file.read()
    except UnicodeDecodeError as err:
        raise OSError(f"{source}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    try:
        return json.loads(text, object_pairs_hook=unique_keys, parse_float=parse_float)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{source}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise ParseError(f"{source}: JSON nested too deeply") from None
    except ValueError:  # an integer longer than int() converts (sys.get_int_max_str_digits)
        raise ParseError(f"{source}: invalid JSON: an integer has too many digits") from None


def _check_document(doc: object, required: set[str], where: str) -> None:
    """A document is an object with exactly the ``required`` keys, at this format version."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: document must be a JSON object")
    missing = sorted(required - set(doc))
    extra = sorted(set(doc) - required)
    if missing:
        raise ParseError(f"{where}: missing key(s) {missing}")
    if extra:
        raise ParseError(f"{where}: unexpected key(s) {clipped(str(extra))}")
    version = doc["format_version"]
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported format_version {clipped(repr(version))}")


def _param_from_spec(spec: object, where: str, depth: int = 0) -> ParamLike:
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: parameter must be an object, got {clipped(repr(spec))}")
    if set(spec) == {"name", "negated"}:
        try:  # Parameter checks the name before the flag
            return Parameter(spec["name"], spec["negated"])
        except ValueError as err:
            raise ParseError(f"{where}.name: {err}") from None
        except TypeError:
            raise ParseError(f"{where}.negated: must be true or false") from None
    if set(spec) == {"left", "right"}:
        if depth == _MAX_NESTING:
            raise ParseError(f"{where}: {_TOO_DEEP}")
        return CompoundParameter(
            _param_from_spec(spec["left"], f"{where}.left", depth + 1),
            _param_from_spec(spec["right"], f"{where}.right", depth + 1),
        )
    raise ParseError(
        f"{where}: expected keys {{'name', 'negated'}} or {{'left', 'right'}}, got {clipped(str(sorted(spec)))}"
    )


def _writable_specs(parameters: tuple[ParamLike, ...]) -> list[dict]:
    """The parameters' specs, refusing any nested deeper than a reader takes."""
    specs = []
    for index, param in enumerate(parameters):
        key = param.sort_key()
        if len(key) > 4 * _MAX_NESTING + 3:  # n products make 4n + 3 entries and nest at most n deep
            if _fold(key, lambda **_: 0, lambda left, right: 1 + max(left, right)) > _MAX_NESTING:
                raise ParseError(f"parameters[{index}]: {_TOO_DEEP}")
        specs.append(_fold(key, dict, dict))
    return specs


def _value_set(label: str, cells: object, universe: tuple[str, ...], positions: dict, columns: tuple) -> None:
    """Append one parameter's grades, in universe order, to the tick lists ``columns``.

    Errors come in reading order: cells in universe order, and within a cell
    its grades in turn; a missing element is reported when its turn comes.
    ``positions`` maps each element to its place in the universe.
    """
    where = f"grades['{clipped(label)}']"
    if not isinstance(cells, dict):
        raise ParseError(f"{where}: must be an object keyed by element id")
    missing, unknown = gaps(positions, cells)
    if unknown:
        raise ParseError(f"{where}: unknown element '{clipped(unknown[0])}'")
    truth, indeterminacy, falsity = (column.append for column in columns)
    known = _TICKS_BY_TEXT.get  # the plain dict behind grades.TICKS_BY_TEXT
    missed: dict[str, int] = {}  # other spellings read so far in this value set

    def parsed(value: object, what: str) -> int:
        if value.__class__ is not str:
            return grade_ticks(value, what)
        ticks = missed.get(value)
        if ticks is None:
            ticks = missed[value] = grade_ticks(value, what)
        return ticks

    for element in universe[: positions[missing[0]]] if missing else universe:
        cell = cells[element]
        if not isinstance(cell, list) or len(cell) != 3:
            raise ParseError(f"{where}['{clipped(element)}']: expected [truth, indeterminacy, falsity]")
        try:
            # Canonical texts are looked up; only other spellings are parsed.
            t, i, f = known(cell[0]), known(cell[1]), known(cell[2])
        except TypeError:  # an unhashable grade, for grade_ticks to reject
            t = i = f = None
        if t is None or i is None or f is None:
            try:
                t = parsed(cell[0], "truth") if t is None else t
                i = parsed(cell[1], "indeterminacy") if i is None else i
                f = parsed(cell[2], "falsity") if f is None else f
            except (OutOfRange, PrecisionLoss, ParseError) as err:
                raise type(err)(f"{where}['{clipped(element)}']: {err}") from None
        truth(t)
        indeterminacy(i)
        falsity(f)
    if missing:
        raise ParseError(f"{where}: missing element '{clipped(missing[0])}'")


def load_soft_set(source: str | os.PathLike, *, check_grades: bool = True) -> SoftSet:
    """Load a soft-set document.

    Structural problems raise ParseError naming the offending location; grade
    problems re-raise with ``grades['<parameter>']['<element>']`` coordinates
    prepended.  ``check_grades=False`` skips only the joint triple bounds
    (for auditing published data that breaks them); each grade on its own is
    still parsed strictly.  Number grades are read as exact decimals, so one
    off the four-decimal grid raises PrecisionLoss like its text would.
    """
    doc = _read_json(source, _Number)
    _check_document(doc, {"format_version", "universe", "parameters", "grades"}, str(source))

    universe_raw = doc["universe"]
    if not isinstance(universe_raw, list):
        raise ParseError("universe: must be a list of element ids")
    try:
        universe = checked_universe(universe_raw)
    except ValueError as err:
        raise ParseError(str(err)) from None

    params_raw = doc["parameters"]
    if not isinstance(params_raw, list):
        raise ParseError("parameters: must be a list")
    parameters = tuple(_param_from_spec(spec, f"parameters[{i}]") for i, spec in enumerate(params_raw))
    rows = label_index(parameters)

    grades_raw = doc["grades"]
    if not isinstance(grades_raw, dict):
        raise ParseError("grades: must be an object keyed by parameter label")
    missing, unknown = gaps(rows, grades_raw)
    if unknown:
        raise ParseError(f"grades: unknown parameter '{clipped(unknown[0])}'")
    labels = tuple(rows)[: rows[missing[0]]] if missing else tuple(rows)
    positions = {element: k for k, element in enumerate(universe)}
    columns = ([], [], [])
    try:
        for label in labels:
            _value_set(label, grades_raw[label], universe, positions, columns)
        if missing:
            raise ParseError(f"grades: missing entry for parameter '{clipped(missing[0])}'")
    finally:
        # Also on the way out of an error, so that a bad cell read before it wins.
        ticks = tuple(array("H", column) for column in columns)
        problem = first_violation(*ticks)
        if check_grades and problem is not None:
            position, message = problem
            row, element = divmod(position, len(universe))
            raise ConstraintViolation(
                f"grades['{clipped(labels[row])}']['{clipped(universe[element])}']: {message}"
            ) from None
    return SoftSet._of(universe, _Labels(parameters, rows), ticks, problem is None)


def soft_set_to_document(soft_set: SoftSet) -> dict:
    """The plain-dict document form of a soft set."""
    return {
        "format_version": FORMAT_VERSION,
        "universe": list(soft_set.universe),
        "parameters": [_fold(p.sort_key(), dict, dict) for p in soft_set.parameters],
        "grades": {
            param.label: {
                element: [GRADE_TEXTS[t], GRADE_TEXTS[i], GRADE_TEXTS[f]]
                for element, t, i, f in zip(soft_set.universe, *columns)
            }
            for param, columns in zip(soft_set.parameters, tick_rows(soft_set))
        },
    }


def _nested_json(value: object) -> str:
    """``value`` in the canonical JSON style, laid out one level deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def serialize_soft_set(soft_set: SoftSet) -> str:
    """Canonical document text: stable byte-for-byte across runs.

    The text is ``json.dumps(soft_set_to_document(soft_set), indent=2,
    sort_keys=True)`` plus a newline.  The grades, nearly all of it, are
    written straight from the tick columns in that layout.  A parameter
    nested deeper than a reader takes is a ParseError.
    """
    specs = _writable_specs(soft_set.parameters)
    quote = json.encoder.encode_basestring_ascii
    text = GRADE_TEXTS
    universe = soft_set.universe
    keys = [quote(element) for element in universe]
    order = sorted(range(len(universe)), key=universe.__getitem__)
    by_label = {p.label: columns for p, columns in zip(soft_set.parameters, tick_rows(soft_set))}
    blocks = []
    for label in sorted(by_label):
        t, i, f = by_label[label]
        cells = ",\n".join(
            f'      {keys[k]}: [\n        "{text[t[k]]}",\n        "{text[i[k]]}",\n'
            f'        "{text[f[k]]}"\n      ]'
            for k in order
        )
        blocks.append(f"    {quote(label)}: " + (f"{{\n{cells}\n    }}" if cells else "{}"))
    grades = "{\n" + ",\n".join(blocks) + "\n  }" if blocks else "{}"
    return (
        "{\n"
        f'  "format_version": {FORMAT_VERSION},\n'
        f'  "grades": {grades},\n'
        f'  "parameters": {_nested_json(specs)},\n'
        f'  "universe": {_nested_json(list(universe))}\n'
        "}\n"
    )


def save_soft_set(soft_set: SoftSet, target: str | os.PathLike) -> None:
    """Write the canonical document to ``target``; one that cannot be written opens no file."""
    text = serialize_soft_set(soft_set)
    with open(os.fspath(target), "w", encoding="utf-8") as file:
        file.write(text)


def load_reference_matrix(source: str | os.PathLike) -> ReferenceMatrix:
    """Load a reference comparison matrix (integer entries, labelled axes)."""
    doc = _read_json(source)
    _check_document(doc, {"format_version", "objects", "parameters", "entries"}, str(source))
    objects = doc["objects"]
    labels = doc["parameters"]
    entries = doc["entries"]
    if not isinstance(objects, list) or not all(isinstance(o, str) and o for o in objects):
        raise ParseError("objects: must be a list of non-empty strings")
    if not isinstance(labels, list) or not all(isinstance(l, str) and l for l in labels):
        raise ParseError("parameters: must be a list of non-empty labels")
    if not isinstance(entries, list):
        raise ParseError("entries: must be a list of rows of integers")
    for index, row in enumerate(entries):
        if not isinstance(row, list):
            raise ParseError(f"entries[{index}]: must be a list of integers")
        for value in row:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(f"entries[{index}]: values must be integers, got {clipped(repr(value))}")
    try:  # the row and column counts are the constructor's to check
        return ReferenceMatrix(tuple(objects), tuple(labels), tuple(map(tuple, entries)))
    except ValueError as err:
        raise ParseError(str(err)) from None


def format_grid(columns: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, no trailing spaces.

    Takes columns of cell texts, header first, and pads each once to its
    widest cell; the last needs no padding, as trailing spaces are stripped.
    """
    *padded, last = columns
    padded = [list(map(str.ljust, column, repeat(max(map(len, column))))) for column in padded]
    return "\n".join(map(str.rstrip, map("  ".join, zip(*padded, last))))


def render_table(soft_set: SoftSet) -> str:
    """Fixed-width text table: one row per element, one column per parameter.

    With no parameters only the header line is produced.
    """
    if not soft_set.parameters:
        return "U"
    columns = [["U", *soft_set.universe]]
    for p, ticks in zip(soft_set.parameters, tick_rows(soft_set)):
        cells = [
            f"({GRADE_TEXTS[t]}, {GRADE_TEXTS[i]}, {GRADE_TEXTS[f]})"
            for t, i, f in zip(*ticks)
        ]
        columns.append([p.label, *cells])
    return format_grid(columns)
