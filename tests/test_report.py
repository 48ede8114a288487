"""Exact ``inss decide`` output on large documents, against a naive formatter.

The expected report is built here from the drawn grades alone: win counts by
direct comparison, one ``str()`` per number and a row-wise grid, so it shares
no formatting code with ``inss.cli`` or ``inss.documents``.
"""

import json
import random

import pytest

from inss.cli import main

OBJECTS = 320
# (label, parameter spec); the compound labels are wider than any cell text.
PARAMETERS = [
    ("sturdy", {"name": "sturdy", "negated": False}),
    (
        "(not brightness in daylight, costliness overall)",
        {
            "left": {"name": "brightness in daylight", "negated": True},
            "right": {"name": "costliness overall", "negated": False},
        },
    ),
    ("not soft", {"name": "soft", "negated": True}),
    (
        "(colourful, (cheap, light))",
        {
            "left": {"name": "colourful", "negated": False},
            "right": {
                "left": {"name": "cheap", "negated": False},
                "right": {"name": "light", "negated": False},
            },
        },
    ),
    ("warm", {"name": "warm", "negated": False}),
    # The last label ends in a space, which the report strips with the line.
    ("durable ", {"name": "durable ", "negated": False}),
]
# Two objects carry this triple in every column, so they tie at the top score.
DOMINANT = (10000, 5000, 0)
DOMINANT_AT = (41, 266)


def ticks_text(ticks):
    whole, frac = divmod(ticks, 10000)
    return str(whole) if frac == 0 else f"{whole}.{frac:04d}".rstrip("0")


def draw_triple(rng, pool):
    """A valid triple other than DOMINANT, with indeterminacy at most DOMINANT's."""
    while True:
        t, i, f = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if min(t, f) <= 5000 and i <= 5000 and (t, i, f) != DOMINANT:
            return (t, i, f)


@pytest.fixture(scope="module")
def drawn():
    """Object ids and one column of (t, i, f) ticks per parameter."""
    rng = random.Random(7)
    # A small pool of grades, with the ends of the scale, gives many ties.
    pool = [0, 10000, 5000] + rng.sample(range(1, 10000), 30)
    objects = [f"item-{k:03d}" for k in range(OBJECTS)]
    columns = []
    for _ in PARAMETERS:
        column = [draw_triple(rng, pool) for _ in objects]
        for k in DOMINANT_AT:
            column[k] = DOMINANT
        columns.append(column)
    return objects, columns


@pytest.fixture(scope="module")
def document(drawn, tmp_path_factory):
    objects, columns = drawn
    body = {
        "format_version": 1,
        "universe": objects,
        "parameters": [spec for _, spec in PARAMETERS],
        "grades": {
            label: {o: [ticks_text(c) for c in cell] for o, cell in zip(objects, column)}
            for (label, _), column in zip(PARAMETERS, columns)
        },
    }
    path = tmp_path_factory.mktemp("report") / "large.json"
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    return path


def wins(column, k):
    """(truth, indeterminacy, falsity) counts of others that object k matches or beats."""
    mine = column[k]
    counts = [0, 0, 0]
    for other, cell in enumerate(column):
        if other != k:
            for c in range(3):
                if mine[c] >= cell[c]:
                    counts[c] += 1
    return counts


def naive_grid(rows):
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


@pytest.fixture(scope="module")
def full_matrix(drawn):
    objects, columns = drawn
    return [[wins(column, k) for column in columns] for k in range(len(objects))]


def naive_matrix(full_matrix, chosen):
    return [[row[j] for j in chosen] for row in full_matrix]


def naive_report(drawn, chosen, matrix, reference=None):
    objects, columns = drawn
    header = ["U"] + [PARAMETERS[j][0] for j in chosen]
    table_rows = [header]
    matrix_rows = [header]
    values = []
    for k, object_id in enumerate(objects):
        triples = [columns[j][k] for j in chosen]
        table_rows.append([object_id] + ["(" + ", ".join(ticks_text(c) for c in t) + ")" for t in triples])
        row = []
        texts = [object_id]
        for t, i, f in matrix[k]:
            row.append(t + i - f)
            texts.append(str(t + i - f) + " = " + str(t) + "+" + str(i) + "-" + str(f))
        values.append(row)
        matrix_rows.append(texts)
    totals = [sum(row) for row in values]
    ranking = sorted(range(len(objects)), key=lambda k: (-totals[k], k))
    width = max(len(o) for o in objects)
    lines = ["Decision table", naive_grid(table_rows), "", "Comparison matrix", naive_grid(matrix_rows), ""]
    lines.append("Scores")
    lines += [object_id.ljust(width) + "  " + str(total) for object_id, total in zip(objects, totals)]
    lines += ["", "Ranking"]
    lines += [str(n) + ". " + objects[k] + " (" + str(totals[k]) + ")" for n, k in enumerate(ranking, start=1)]
    lines.append("")
    if reference is not None:
        differing = [
            (objects[k], PARAMETERS[j][0], values[k][n], reference[k][n])
            for k in range(len(objects))
            for n, j in enumerate(chosen)
            if values[k][n] != reference[k][n]
        ]
        lines.append("Reference comparison")
        lines.append(str(len(differing)) + " cell(s) differ:")
        lines += [f"  ({o}, {p}): computed {c}, reference {r}" for o, p, c, r in differing]
        lines.append("")
    best = objects[ranking[0]]
    tied = totals.count(max(totals)) > 1
    lines.append("Selected: " + best + (" (tied at top score)" if tied else ""))
    return "\n".join(lines) + "\n", values


def decide(capsys, *argv):
    code = main(["decide", *map(str, argv)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def test_every_parameter(capsys, drawn, full_matrix, document):
    chosen = list(range(len(PARAMETERS)))
    matrix = naive_matrix(full_matrix, chosen)
    expected, values = naive_report(drawn, chosen, matrix)
    # The drawn data covers what the formatting has to get right.
    assert min(min(row) for row in values) < -9
    assert max(max(cell) for row in matrix for cell in row) >= 100
    assert "(tied at top score)" in expected
    assert decide(capsys, document) == expected


def test_parameter_subset_with_audit(capsys, drawn, full_matrix, document):
    chosen = [3, 0, 2]
    labels = ", ".join(PARAMETERS[j][0] for j in chosen)
    expected, _ = naive_report(drawn, chosen, naive_matrix(full_matrix, chosen))
    expected = expected.replace(
        "\nSelected:", "\nAudit\noracle recount agrees with production matrix\n\nSelected:"
    )
    assert decide(capsys, document, "--params", labels, "--audit") == expected


def test_reference_with_differing_cells(capsys, drawn, full_matrix, document, tmp_path):
    objects, _ = drawn
    chosen = list(range(len(PARAMETERS)))
    matrix = naive_matrix(full_matrix, chosen)
    reference = [[t + i - f for t, i, f in row] for row in matrix]
    for k, j, delta in ((0, 1, 5), (41, 0, -1), (150, 3, 250), (150, 5, -2), (319, 4, 1)):
        reference[k][j] += delta
    path = tmp_path / "reference.json"
    body = {
        "format_version": 1,
        "objects": objects,
        "parameters": [label for label, _ in PARAMETERS],
        "entries": reference,
    }
    path.write_text(json.dumps(body), encoding="utf-8")
    expected, _ = naive_report(drawn, chosen, matrix, reference)
    assert "\n5 cell(s) differ:\n" in expected
    assert decide(capsys, document, "--reference-matrix", path) == expected
