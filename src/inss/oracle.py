"""Deliberately naive reference implementations for auditing the real ones.

Everything here recomputes from first principles on raw integer counts,
sharing no comparison logic with the production modules: the matrix recount
is a plain triple loop instead of sort-and-bisect, the law checker evaluates
both sides of each identity with its own miniature dict-of-tuples algebra,
and the triple checker walks the validity rules one by one.  The test suite
(and one hidden command-line audit flag) runs these against the production
results; nothing else should.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import CompoundParameter, SoftSet
from .decision import CellAudit, ComparisonMatrix, DecisionTable
from .errors import EmptyParameterIntersection, UniverseMismatch, UnknownLaw
from .grades import COMPONENTS, GradeTriple, Record

__all__ = [
    "check_triple",
    "oracle_is_subset",
    "oracle_equals",
    "oracle_matrix",
    "LawCounterexample",
    "LawCheckResult",
    "oracle_law_check",
    "LAW_IDS",
]


def check_triple(triple: GradeTriple) -> list[str]:
    """Re-derive the validity bounds; returns the violated ones (empty = fine)."""
    t = triple.truth.ten_thousandths
    i = triple.indeterminacy.ten_thousandths
    f = triple.falsity.ten_thousandths
    problems = []
    if t < 0 or t > 10000 or i < 0 or i > 10000 or f < 0 or f > 10000:
        problems.append("a component is outside [0, 1]")
    if (t if t < f else f) > 5000:
        problems.append("truth and falsity both above one half")
    if (t if t < i else i) > 5000:
        problems.append("truth and indeterminacy both above one half")
    if (f if f < i else i) > 5000:
        problems.append("falsity and indeterminacy both above one half")
    if t + i + f > 20000:
        problems.append("component sum above two")
    return problems


def oracle_is_subset(left: SoftSet, right: SoftSet) -> bool:
    """Brute-force containment check."""
    if left.universe != right.universe:
        raise UniverseMismatch("universes differ")
    for param in left.parameters:
        if param not in right.parameters:
            return False
        ours, theirs = left.value_set(param), right.value_set(param)
        for element in left.universe:
            a = ours[element]
            b = theirs[element]
            if a.truth.ten_thousandths > b.truth.ten_thousandths:
                return False
            if a.indeterminacy.ten_thousandths > b.indeterminacy.ten_thousandths:
                return False
            if a.falsity.ten_thousandths < b.falsity.ten_thousandths:
                return False
    return True


def oracle_equals(left: SoftSet, right: SoftSet) -> bool:
    return oracle_is_subset(left, right) and oracle_is_subset(right, left)


def oracle_matrix(table: DecisionTable) -> ComparisonMatrix:
    """Triple-nested-loop recount of the comparison matrix."""
    audits = []
    for i in range(len(table.objects)):
        row = []
        for j in range(len(table.parameters)):
            mine = table.rows[i][j]
            truth_wins = 0
            indeterminacy_wins = 0
            falsity_wins = 0
            for k in range(len(table.objects)):
                if k == i:
                    continue
                other = table.rows[k][j]
                if mine.truth.ten_thousandths >= other.truth.ten_thousandths:
                    truth_wins += 1
                if mine.indeterminacy.ten_thousandths >= other.indeterminacy.ten_thousandths:
                    indeterminacy_wins += 1
                if mine.falsity.ten_thousandths >= other.falsity.ten_thousandths:
                    falsity_wins += 1
            row.append(CellAudit(truth_wins, indeterminacy_wins, falsity_wins))
        audits.append(tuple(row))
    return ComparisonMatrix(table.objects, table.parameters, tuple(audits))


# --- law checking over a raw dict-of-tuples algebra ---

_Raw = tuple  # (params: tuple[ParamLike, ...], values: dict[ParamLike, dict[str, tuple[int, int, int]]])


def _raw(soft_set: SoftSet) -> _Raw:
    values = {}
    for param in soft_set.parameters:
        cells = {}
        for element, triple in soft_set.value_set(param).items():
            cells[element] = (
                triple.truth.ten_thousandths,
                triple.indeterminacy.ten_thousandths,
                triple.falsity.ten_thousandths,
            )
        values[param] = cells
    return (soft_set.parameters, values)


def _pointwise(a: dict, b: dict, rule) -> dict:
    return {e: rule(a[e], b[e]) for e in a}


def _join_cells(x, y):
    return (max(x[0], y[0]), min(x[1], y[1]), min(x[2], y[2]))


def _meet_cells(x, y):
    return (min(x[0], y[0]), min(x[1], y[1]), max(x[2], y[2]))


def _raw_union(a: _Raw, b: _Raw) -> _Raw:
    pa, va = a
    pb, vb = b
    params = tuple(pa) + tuple(p for p in pb if p not in pa)
    values = {}
    for p in params:
        if p in va and p in vb:
            values[p] = _pointwise(va[p], vb[p], _join_cells)
        elif p in va:
            values[p] = dict(va[p])
        else:
            values[p] = dict(vb[p])
    return (params, values)


def _raw_intersection(a: _Raw, b: _Raw) -> _Raw:
    pa, va = a
    pb, vb = b
    params = tuple(p for p in pa if p in pb)
    if not params:
        raise EmptyParameterIntersection("the parameter sets share no member")
    return (params, {p: _pointwise(va[p], vb[p], _meet_cells) for p in params})


def _raw_product(a: _Raw, b: _Raw, rule) -> _Raw:
    pa, va = a
    pb, vb = b
    params = []
    values = {}
    for x in pa:
        for y in pb:
            pair = CompoundParameter(x, y)
            params.append(pair)
            values[pair] = _pointwise(va[x], vb[y], rule)
    return (tuple(params), values)


def _raw_complement(a: _Raw) -> _Raw:
    pa, va = a
    params = tuple(p.negate() for p in pa)
    values = {
        p.negate(): {e: (cell[2], cell[1], cell[0]) for e, cell in va[p].items()} for p in pa
    }
    return (params, values)


def _raw_null_like(a: _Raw) -> _Raw:
    pa, va = a
    return (tuple(pa), {p: {e: (0, 0, 0) for e in va[p]} for p in pa})


class LawCounterexample(Record):
    """The first spot (in label, universe, component order) where the sides differ:
    ``parameter``, ``element`` (None for a parameter on one side only) and ``component``."""

    __slots__ = ("parameter", "element", "component")


class LawCheckResult(Record):
    """Whether the ``law`` ``holds``, and if not its ``counterexample`` (else None)."""

    __slots__ = ("law", "holds", "counterexample")


def _compare(universe: Sequence[str], left: _Raw, right: _Raw) -> LawCounterexample | None:
    pl, vl = left
    pr, vr = right
    if set(pl) != set(pr):
        odd = sorted(set(pl) ^ set(pr), key=lambda p: p.label)[0]
        return LawCounterexample(odd, None, "parameters")
    for param in sorted(set(pl), key=lambda p: p.label):
        for element in universe:
            a = vl[param][element]
            b = vr[param][element]
            for k in range(3):
                if a[k] != b[k]:
                    return LawCounterexample(param, element, COMPONENTS[k])
    return None


_LAWS = {
    "union-idempotent": (1, lambda s: (_raw_union(s[0], s[0]), s[0])),
    "intersection-idempotent": (1, lambda s: (_raw_intersection(s[0], s[0]), s[0])),
    "union-commutative": (2, lambda s: (_raw_union(s[0], s[1]), _raw_union(s[1], s[0]))),
    "intersection-commutative": (
        2,
        lambda s: (_raw_intersection(s[0], s[1]), _raw_intersection(s[1], s[0])),
    ),
    "union-associative": (
        3,
        lambda s: (_raw_union(_raw_union(s[0], s[1]), s[2]), _raw_union(s[0], _raw_union(s[1], s[2]))),
    ),
    "intersection-associative": (
        3,
        lambda s: (
            _raw_intersection(_raw_intersection(s[0], s[1]), s[2]),
            _raw_intersection(s[0], _raw_intersection(s[1], s[2])),
        ),
    ),
    "union-distributes-over-intersection": (
        3,
        lambda s: (
            _raw_union(s[0], _raw_intersection(s[1], s[2])),
            _raw_intersection(_raw_union(s[0], s[1]), _raw_union(s[0], s[2])),
        ),
    ),
    "intersection-distributes-over-union": (
        3,
        lambda s: (
            _raw_intersection(s[0], _raw_union(s[1], s[2])),
            _raw_union(_raw_intersection(s[0], s[1]), _raw_intersection(s[0], s[2])),
        ),
    ),
    "and-complement-de-morgan": (
        2,
        lambda s: (
            _raw_complement(_raw_product(s[0], s[1], _meet_cells)),
            _raw_product(_raw_complement(s[0]), _raw_complement(s[1]), _join_cells),
        ),
    ),
    "or-complement-de-morgan": (
        2,
        lambda s: (
            _raw_complement(_raw_product(s[0], s[1], _join_cells)),
            _raw_product(_raw_complement(s[0]), _raw_complement(s[1]), _meet_cells),
        ),
    ),
    "complement-involution": (1, lambda s: (_raw_complement(_raw_complement(s[0])), s[0])),
    "union-null-identity": (1, lambda s: (_raw_union(s[0], _raw_null_like(s[0])), s[0])),
    "intersection-null-absorption": (
        1,
        lambda s: (_raw_intersection(s[0], _raw_null_like(s[0])), _raw_null_like(s[0])),
    ),
}

LAW_IDS = tuple(sorted(_LAWS))


def oracle_law_check(law_id: str, soft_sets: Sequence[SoftSet]) -> LawCheckResult:
    """Evaluate both sides of the named identity and report the first difference.

    The two documented non-identities ("union-null-identity" and
    "intersection-null-absorption") are checked by the same machinery and
    simply come back as not holding on most inputs.
    """
    if law_id not in _LAWS:
        raise UnknownLaw(f"unknown law id '{law_id}'; known: {', '.join(LAW_IDS)}")
    arity, evaluate = _LAWS[law_id]
    if len(soft_sets) != arity:
        raise ValueError(f"law '{law_id}' takes {arity} soft set(s), got {len(soft_sets)}")
    universe = soft_sets[0].universe
    for other in soft_sets[1:]:
        if other.universe != universe:
            raise UniverseMismatch("law operands live on different universes")
    left, right = evaluate([_raw(s) for s in soft_sets])
    counterexample = _compare(universe, left, right)
    return LawCheckResult(law_id, counterexample is None, counterexample)
