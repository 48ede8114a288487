"""Command line front end.

Every subcommand reads soft-set documents (see docs/format.md), applies one
library operation and writes the result.  Set operations emit a canonical
document (stdout, or ``--out FILE``); ``decide`` prints a human-readable
report.  Exit codes: 0 success, 1 domain error (bad grades, mismatched
universes, unknown parameters), 2 usage error (bad arguments, unreadable
files).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Callable, Sequence

from .algebra import SoftSet, and_op, complement, equals, intersection, is_subset, or_op, union
from .decision import SelectionReport, select_best
from .documents import (
    format_grid,
    load_reference_matrix,
    load_soft_set,
    render_table,
    serialize_soft_set,
)
from .errors import InssError

__all__ = ["main", "split_parameter_list"]


def split_parameter_list(text: str) -> list[str]:
    """Split a comma-separated label list, ignoring commas inside parentheses.

    Blank entries are dropped, so trailing commas are harmless.
    """
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        if char == "(":
            depth += 1
        elif char == ")" and depth > 0:
            depth -= 1
        current.append(char)
    parts.append("".join(current).strip())
    return [part for part in parts if part]


def _emit(soft_set: SoftSet, out: str | None) -> None:
    text = serialize_soft_set(soft_set)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_validate(args: argparse.Namespace) -> int:
    soft_set = load_soft_set(args.file)
    print(f"ok: {len(soft_set.universe)} elements, {len(soft_set.parameters)} parameters")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(render_table(load_soft_set(args.file)))
    return 0


def _cmd_complement(args: argparse.Namespace) -> int:
    _emit(complement(load_soft_set(args.file)), args.out)
    return 0


def _binary(op: str) -> Callable[[argparse.Namespace], int]:
    def handler(args: argparse.Namespace) -> int:
        _emit(globals()[op](load_soft_set(args.left), load_soft_set(args.right)), args.out)
        return 0

    return handler


def _predicate(op: str) -> Callable[[argparse.Namespace], int]:
    def handler(args: argparse.Namespace) -> int:
        print("true" if globals()[op](load_soft_set(args.left), load_soft_set(args.right)) else "false")
        return 0

    return handler


def _decision_report(report: SelectionReport, audit: bool) -> str:
    matrix = report.matrix
    sections = ["Decision table", render_table(report.table.soft_set), ""]

    # Counts lie in 0..n-1, entries in -(n-1)..2(n-1); negative ones index from the end.
    n = len(matrix.objects)
    texts = [str(k) for k in range(2 * n - 1)] + [str(k) for k in range(1 - n, 0)]
    columns = [["U", *matrix.objects]]
    for param, values, *wins in zip(matrix.parameters, zip(*matrix.entries), *matrix._wins):
        cells = [f"{texts[v]} = {texts[t]}+{texts[i]}-{texts[f]}" for v, t, i, f in zip(values, *wins)]
        columns.append([param.label, *cells])
    sections += ["Comparison matrix", format_grid(columns), ""]

    vector = report.scores
    sections += ["Scores", format_grid([list(vector.objects), list(map(str, vector.scores))]), ""]

    by_object = dict(zip(vector.objects, vector.scores))
    sections.append("Ranking")
    for position, object_id in enumerate(vector.ranking, start=1):
        sections.append(f"{position}. {object_id} ({by_object[object_id]})")
    sections.append("")

    if report.reference_diff is not None:
        sections.append("Reference comparison")
        if report.reference_diff:
            sections.append(f"{len(report.reference_diff)} cell(s) differ:")
            for diff in report.reference_diff:
                sections.append(
                    f"  ({diff.object_id}, {diff.parameter.label}): "
                    f"computed {diff.computed}, reference {diff.reference}"
                )
        else:
            sections.append("computed matrix matches the reference")
        sections.append("")

    if audit:
        sections.append("Audit")
        sections.append("oracle recount agrees with production matrix")
        sections.append("")

    if report.tied:
        sections.append(f"Selected: {report.best} (tied at top score)")
    else:
        sections.append(f"Selected: {report.best}")
    return "\n".join(sections)


def _cmd_decide(args: argparse.Namespace) -> int:
    soft_set = load_soft_set(args.file)
    choice = None if args.params is None else split_parameter_list(args.params)
    reference = (
        load_reference_matrix(args.reference_matrix) if args.reference_matrix else None
    )
    report = select_best(soft_set, choice, reference)
    if args.audit:
        from .oracle import oracle_matrix  # only --audit needs the oracle
        if oracle_matrix(report.table) != report.matrix:
            print("error: oracle recount disagrees with production matrix", file=sys.stderr)
            return 1
    print(_decision_report(report, args.audit))
    return 0


@cache  # one per process: parse_args keeps no state, handlers find operations by name per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inss",
        description="Operate on soft sets whose grades are truth/indeterminacy/falsity triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, description=help_text)

    p = add("validate", "Check a document and report its size.")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = add("show", "Render a document as a fixed-width table.")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_show)

    p = add("complement", "Negate parameters and swap truth with falsity.")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="write the result document here instead of stdout")
    p.set_defaults(handler=_cmd_complement)

    binary_ops = [
        ("union", "Join two soft sets (max/min/min on shared parameters).", "union"),
        ("intersect", "Meet two soft sets on their shared parameters.", "intersection"),
        ("and", "All parameter pairs, graded by the meet rule.", "and_op"),
        ("or", "All parameter pairs, graded by the join rule.", "or_op"),
    ]
    for name, help_text, op in binary_ops:
        p = add(name, help_text)
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("-o", "--out", help="write the result document here instead of stdout")
        p.set_defaults(handler=_binary(op))

    p = add("subset", "Print true when the first set is contained in the second.")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_predicate("is_subset"))

    p = add("equals", "Print true when both sets carry identical grades.")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_predicate("equals"))

    p = add("decide", "Rank the universe by comparison-matrix scores and pick the best.")
    p.add_argument("file")
    p.add_argument(
        "--params",
        help="comma-separated parameter labels to decide over (default: all)",
    )
    p.add_argument(
        "--reference-matrix",
        help="JSON matrix to compare the computed one against",
    )
    p.add_argument("--audit", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_decide)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InssError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
