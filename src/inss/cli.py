"""Command line front end.

Every subcommand reads soft-set documents (see docs/format.md), applies one
library operation and writes the result.  ``_COMMANDS`` is the table of them
all but ``decide``: one row per command gives its name, help text, operands,
the name of its operation in this module and its output, which is a
canonical document (stdout, or ``--out FILE``), ``true``/``false`` or text.
One handler runs every row; ``decide`` keeps its own options and prints a
human-readable report.  Exit codes: 0 success, 1 domain error (bad grades,
mismatched universes, unknown parameters), 2 usage error (bad arguments,
unreadable files, output the terminal cannot encode).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from functools import cache

from .algebra import SoftSet, and_op, complement, equals, intersection, is_subset, or_op, union
from .decision import SelectionReport, select_best
from .documents import (
    format_grid, load_reference_matrix, load_soft_set, render_table, save_soft_set, serialize_soft_set
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


def _size(soft_set: SoftSet) -> str:
    return f"ok: {len(soft_set.universe)} elements, {len(soft_set.parameters)} parameters"


# (name, help text, operands, operation's name in this module, output: "document", "verdict" or "text")
_COMMANDS = (
    ("validate", "Check a document and report its size.", ("file",), "_size", "text"),
    ("show", "Render a document as a fixed-width table.", ("file",), "render_table", "text"),
    ("complement", "Negate parameters and swap truth with falsity.", ("file",), "complement", "document"),
    ("union", "Join two soft sets (max/min/min on shared parameters).", ("left", "right"), "union", "document"),
    ("intersect", "Meet two soft sets on their shared parameters.", ("left", "right"), "intersection", "document"),
    ("and", "All parameter pairs, graded by the meet rule.", ("left", "right"), "and_op", "document"),
    ("or", "All parameter pairs, graded by the join rule.", ("left", "right"), "or_op", "document"),
    ("subset", "Print true when the first set is contained in the second.", ("left", "right"), "is_subset", "verdict"),
    ("equals", "Print true when both sets carry identical grades.", ("left", "right"), "equals", "verdict"),
)


def _handler(op: str, operands: tuple[str, ...], output: str) -> Callable[[argparse.Namespace], int]:
    def handler(args: argparse.Namespace) -> int:
        # Looked up per call, so a name rebound on this module is the one run.
        result = globals()[op](*[load_soft_set(getattr(args, name)) for name in operands])
        if output != "document":
            print(result if output == "text" else ("true" if result else "false"))
        elif args.out is None:
            sys.stdout.write(serialize_soft_set(result))
        else:
            save_soft_set(result, args.out)
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
    reference = None if args.reference_matrix is None else load_reference_matrix(args.reference_matrix)
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

    for name, help_text, operands, op, output in _COMMANDS:
        p = add(name, help_text)
        for operand in operands:
            p.add_argument(operand)
        if output == "document":
            p.add_argument("-o", "--out", help="write the result document here instead of stdout")
        p.set_defaults(handler=_handler(op, operands, output))

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
    except (OSError, UnicodeEncodeError) as err:  # unreadable input, unwritable output
        print(f"error: {err}", file=sys.stderr)
        return 2
