"""Seeded inputs, and expected outputs computed without the code under test.

Everything here runs in the benchmark's parent process, before any workload
process starts, so none of it counts towards a measured metric.

Grades are generated as integer ten-thousandths.  Expected outputs come from
the naive recounts below (plain dicts and lists of ints) and from the
package's independent ``oracle`` module.  Production code only builds the
objects the oracle reads (``SoftSet``, ``DecisionTable``), and runs the
generator self-test: every generated document must load and serialize back
to the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from inss import CompoundParameter, DecisionTable, Grade, GradeTriple, Parameter, SoftSet
from inss import load_soft_set, serialize_soft_set
from inss.oracle import oracle_equals, oracle_is_subset, oracle_matrix

from worker import digest, product_digest, report_digest

# Share of cells drawn from BOUNDARY_TRIPLES, and share of cells that copy
# an earlier object's cell in the same column (an exact tie for >= counting).
BOUNDARY_SHARE = 0.15
TIE_SHARE = 0.2
# Every boundary triple is valid: 0, 0.5 and 1, and at most one component above 0.5.
BOUNDARY_TRIPLES = (
    (0, 0, 0),
    (5000, 5000, 5000),
    (10000, 5000, 0),
    (0, 5000, 10000),
    (5000, 10000, 0),
    (10000, 0, 5000),
    (0, 0, 10000),
    (10000, 5000, 5000),
    (5001, 0, 5000),
    (0, 5000, 9999),
)
# Rows copied whole onto another object, so scores tie and the ranking
# falls back to universe order.
DUPLICATE_ROW_SHARE = 0.02
DOMINANT = (10000, 5000, 0)

# Requests per document and block: (with --params, plain, with
# --reference-matrix).  Half the requests pass --params and a quarter a
# reference.  The median falls in the middle of the 800-object requests,
# none of which pass --params, and the 90th percentile inside the 1600-object
# requests that do not pass it, not on a boundary between two kinds of
# request, where it would jump between runs.
DECIDE_MIX = {400: (4, 0, 0), 800: (0, 2, 2), 1600: (2, 1, 1)}
DECIDE_PARAMETERS = 8
DECIDE_CHOICE = 4
DECIDE_PERTURBED = 3

ALGEBRA_OBJECTS = 200
ALGEBRA_PARAMETERS = 24
ALGEBRA_DOCUMENTS = 4
# One block: requests per operation; 1 expected error in 20 requests is 5%.
ALGEBRA_BLOCK = (("union", 4), ("intersect", 4), ("complement", 4), ("subset", 3), ("equals", 4), ("error", 1))

PRODUCT_OBJECTS = 20
PRODUCT_LABELS = 32
PRODUCT_SHAPES = {"A": 20, "B": 40, "C": 40, "D": 20}
# Per block: 8 requests make 800 compound parameters and 2 make 1600, so
# the median falls in the middle of the first class and the 90th percentile
# in the middle of the second, not on the boundary between them, where it
# would jump between runs.
PRODUCT_REQUESTS = (
    ("and", "A", "B"),
    ("or", "A", "B"),
    ("and", "D", "C"),
    ("or", "D", "C"),
    ("and", "B", "A"),
    ("or", "B", "A"),
    ("and", "C", "D"),
    ("or", "C", "D"),
    ("and", "B", "C"),
    ("or", "C", "B"),
)

# Enough blocks that no run wraps round to the first one.
SCHEDULE_REQUESTS = 6000


# --- documents as plain ints ------------------------------------------------


@dataclass
class Table:
    """A soft-set document: parameters are (name, negated); cells[p] follows the universe."""

    universe: list[str]
    params: list[tuple[str, bool]]
    cells: dict[tuple[str, bool], list[tuple[int, int, int]]]

    @property
    def size(self) -> int:
        return len(self.universe) * len(self.params)


def label(param: tuple[str, bool]) -> str:
    name, negated = param
    return f"not {name}" if negated else name


def ticks_text(ticks: int) -> str:
    whole, frac = divmod(ticks, 10000)
    return str(whole) if frac == 0 else f"{whole}.{frac:04d}".rstrip("0")


def triple_text(cell: tuple[int, int, int]) -> str:
    return "(" + ", ".join(ticks_text(c) for c in cell) + ")"


def canonical_json(body) -> str:
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def document_text(table: Table) -> str:
    return canonical_json(
        {
            "format_version": 1,
            "universe": table.universe,
            "parameters": [{"name": name, "negated": negated} for name, negated in table.params],
            "grades": {
                label(p): {e: [ticks_text(c) for c in cell] for e, cell in zip(table.universe, table.cells[p])}
                for p in table.params
            },
        }
    )


def to_soft_set(universe, params, columns) -> SoftSet:
    """Build the production object directly from ints, for the oracle to read."""
    return SoftSet(
        universe,
        params,
        {
            p: {e: GradeTriple(*(Grade(c) for c in cell)) for e, cell in zip(universe, column)}
            for p, column in zip(params, columns)
        },
    )


def table_soft_set(table: Table) -> SoftSet:
    return to_soft_set(table.universe, [Parameter(*p) for p in table.params], [table.cells[p] for p in table.params])


# --- generation --------------------------------------------------------------


def draw_triple(rng: random.Random) -> tuple[int, int, int]:
    if rng.random() < BOUNDARY_SHARE:
        return rng.choice(BOUNDARY_TRIPLES)
    cell = [rng.randint(0, 5000) for _ in range(3)]
    high = rng.randrange(4)
    if high < 3:
        cell[high] = rng.randint(5001, 10000)
    return tuple(cell)


def draw_table(rng: random.Random, universe: list[str], params: list[tuple[str, bool]], dominant: bool) -> Table:
    cells = {}
    for p in params:
        column: list[tuple[int, int, int]] = []
        for _ in universe:
            column.append(rng.choice(column) if column and rng.random() < TIE_SHARE else draw_triple(rng))
        cells[p] = column
    n = len(universe)
    for _ in range(max(1, round(DUPLICATE_ROW_SHARE * n))):
        source, target = rng.sample(range(n), 2)
        for column in cells.values():
            column[target] = column[source]
    if dominant:
        for row in rng.sample(range(n), 2):
            for column in cells.values():
                column[row] = DOMINANT
    return Table(universe, params, cells)


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def self_test(paths: list[str]) -> None:
    """Every generated document must load and serialize back byte for byte."""
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        if serialize_soft_set(load_soft_set(path)) != text:
            raise SystemExit(f"generator self-test: {path} does not round-trip")


def schedule(rng: random.Random, block_of) -> list[list[int]]:
    blocks, total = [], 0
    while total < SCHEDULE_REQUESTS:
        block = block_of(rng)
        blocks.append(block)
        total += len(block)
    return blocks


# --- naive recounts ----------------------------------------------------------


def join(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]), min(a[2], b[2]))


def meet(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]))


def naive_union(a: Table, b: Table) -> Table:
    params = a.params + [p for p in b.params if p not in a.params]
    cells = {}
    for p in params:
        if p in a.cells and p in b.cells:
            cells[p] = [join(x, y) for x, y in zip(a.cells[p], b.cells[p])]
        else:
            cells[p] = list((a.cells if p in a.cells else b.cells)[p])
    return Table(a.universe, params, cells)


def naive_intersection(a: Table, b: Table) -> Table:
    params = [p for p in a.params if p in b.cells]
    return Table(a.universe, params, {p: [meet(x, y) for x, y in zip(a.cells[p], b.cells[p])] for p in params})


def naive_complement(a: Table) -> Table:
    return Table(
        a.universe,
        [(name, not negated) for name, negated in a.params],
        {(name, not negated): [(f, i, t) for t, i, f in a.cells[(name, negated)]] for name, negated in a.params},
    )


def naive_product(a: Table, b: Table, rule):
    pairs = [(x, y) for x in a.params for y in b.params]
    labels = [f"({label(x)}, {label(y)})" for x, y in pairs]
    columns = [[rule(u, v) for u, v in zip(a.cells[x], b.cells[y])] for x, y in pairs]
    return pairs, labels, columns


def matrix_audits(table: Table) -> list[list[tuple[int, int, int]]]:
    """(truth, indeterminacy, falsity) win counts per object and parameter, from the oracle."""
    matrix = oracle_matrix(DecisionTable(table_soft_set(table)))
    return [[(c.truth_wins, c.indeterminacy_wins, c.falsity_wins) for c in row] for row in matrix.audits]


# --- decide_cli --------------------------------------------------------------


def grid(header: list[str], rows: list[list[str]]) -> str:
    lines = [header] + rows
    widths = [max(len(line[k]) for line in lines) for k in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in lines)


def decide_text(table: Table, columns: list[int], audits, diffs) -> str:
    """The exact report ``inss decide`` prints for the chosen parameter columns."""
    params = [table.params[j] for j in columns]
    header = ["U"] + [label(p) for p in params]
    objects = table.universe
    values = [[t + i - f for t, i, f in (audits[k][j] for j in columns)] for k in range(len(objects))]
    scores = [sum(row) for row in values]
    ranking = sorted(range(len(objects)), key=lambda k: (-scores[k], k))
    width = max(len(e) for e in objects)
    lines = [
        "Decision table",
        grid(header, [[e] + [triple_text(table.cells[p][k]) for p in params] for k, e in enumerate(objects)]),
        "",
        "Comparison matrix",
        grid(
            header,
            [
                [e] + [f"{t + i - f} = {t}+{i}-{f}" for t, i, f in (audits[k][j] for j in columns)]
                for k, e in enumerate(objects)
            ],
        ),
        "",
        "Scores",
        *(f"{e.ljust(width)}  {s}" for e, s in zip(objects, scores)),
        "",
        "Ranking",
        *(f"{n}. {objects[k]} ({scores[k]})" for n, k in enumerate(ranking, start=1)),
        "",
    ]
    if diffs is not None:
        lines.append("Reference comparison")
        if diffs:
            lines.append(f"{len(diffs)} cell(s) differ:")
            lines += [f"  ({e}, {name}): computed {c}, reference {r}" for e, name, c, r in diffs]
        else:
            lines.append("computed matrix matches the reference")
        lines.append("")
    best = objects[ranking[0]]
    tied = scores.count(max(scores)) > 1
    lines.append(f"Selected: {best} (tied at top score)" if tied else f"Selected: {best}")
    return "\n".join(lines) + "\n"


def prepare_decide(rng: random.Random, work: Path) -> dict:
    requests, paths = [], []
    names = [f"crit{j}" for j in range(DECIDE_PARAMETERS)]
    every = list(range(DECIDE_PARAMETERS))
    for size, (with_params, plain, with_reference) in DECIDE_MIX.items():
        universe = [f"o{k:04d}" for k in range(size)]
        table = draw_table(rng, universe, [(name, False) for name in names], dominant=rng.random() < 0.5)
        path = write(work / f"decide-{size}.json", document_text(table))
        paths.append(path)
        audits = matrix_audits(table)
        variants = [(["decide", path], every, None)] * plain
        if with_reference:
            # The reference is the true matrix with a few cells perturbed.
            entries = [[t + i - f for t, i, f in row] for row in audits]
            perturbed = sorted(rng.sample([(k, j) for k in range(size) for j in every], DECIDE_PERTURBED))
            diffs = []
            for k, j in perturbed:
                true_value = entries[k][j]
                entries[k][j] += rng.choice((-3, -2, -1, 1, 2, 3))
                diffs.append((universe[k], names[j], true_value, entries[k][j]))
            reference = write(
                work / f"reference-{size}.json",
                canonical_json({"format_version": 1, "objects": universe, "parameters": names, "entries": entries}),
            )
            variants += [(["decide", path, "--reference-matrix", reference], every, diffs)] * with_reference
        for _ in range(with_params):
            choice = rng.sample(every, DECIDE_CHOICE)
            variants.append((["decide", path, "--params", ",".join(names[j] for j in choice)], choice, None))
        for argv, columns, diff in variants:
            text = decide_text(table, columns, audits, diff)
            # Cells read, plus the cells of the decision table built from them.
            cells = table.size + size * len(columns)
            requests.append({"argv": argv, "rc": 0, "stdout": digest(text), "error": None, "cells": cells})
    self_test(paths)
    every_request = list(range(len(requests)))
    return {
        "kind": "cli",
        "requests": requests,
        # The first --params request and the first --reference-matrix one.
        "warmup": [next(k for k, r in enumerate(requests) if flag in r["argv"]) for flag in ("--params", "--reference-matrix")],
        "blocks": schedule(rng, lambda r: r.sample(every_request, len(every_request))),
        "sample_documents": paths,
        "size_documents": paths,
    }


# --- algebra_cli -------------------------------------------------------------


def prepare_algebra(rng: random.Random, work: Path) -> dict:
    universe = [f"u{k:03d}" for k in range(ALGEBRA_OBJECTS)]
    shift = ALGEBRA_PARAMETERS // 2
    ring = [f"attr{j:02d}" for j in range(ALGEBRA_DOCUMENTS * shift)]

    def window(k: int) -> list[tuple[str, bool]]:
        names = [ring[(k * shift + j) % len(ring)] for j in range(ALGEBRA_PARAMETERS)]
        rng.shuffle(names)
        return [(name, False) for name in names]

    tables: dict[str, Table] = {}
    # Neighbouring base documents share half their parameters; those two
    # apart share none.
    for k in range(ALGEBRA_DOCUMENTS):
        tables[f"base{k}"] = draw_table(rng, universe, window(k), dominant=False)
    for k in range(ALGEBRA_DOCUMENTS):
        base, after = tables[f"base{k}"], tables[f"base{(k + 1) % ALGEBRA_DOCUMENTS}"]
        # A superset: the base with some falsities lowered, plus the next
        # document's parameters.  Lowering falsity keeps a triple valid.
        sup = Table(universe, base.params + [p for p in after.params if p not in base.cells], {})
        for p in sup.params:
            column = base.cells.get(p) or after.cells[p]
            sup.cells[p] = [(t, i, f - rng.randint(0, f)) if p in base.cells and rng.random() < 0.3 else (t, i, f)
                            for t, i, f in column]
        tables[f"sup{k}"] = sup
        tables[f"perm{k}"] = Table(universe, list(reversed(base.params)), base.cells)
        near = Table(universe, base.params, {p: list(c) for p, c in base.cells.items()})
        p = rng.choice(base.params)
        row = rng.choice([r for r, cell in enumerate(near.cells[p]) if cell[2] > 0])
        t, i, f = near.cells[p][row]
        near.cells[p][row] = (t, i, f - 1)
        tables[f"near{k}"] = near
    other = [f"x{k:03d}" for k in range(ALGEBRA_OBJECTS)]
    tables["other"] = draw_table(rng, other, window(0), dominant=False)
    paths = {name: write(work / f"algebra-{name}.json", document_text(t)) for name, t in tables.items()}
    self_test(list(paths.values()))
    sets = {name: table_soft_set(t) for name, t in tables.items()}

    requests: list[dict] = []
    pools: dict[str, list[int]] = {kind: [] for kind, _ in ALGEBRA_BLOCK}

    def add(kind, command, names, stdout="", error=None, built=0):
        pools[kind].append(len(requests))
        requests.append(
            {
                "argv": [command] + [paths[n] for n in names],
                "rc": 0 if error is None else 1,
                "stdout": digest(stdout),
                "error": error,
                "cells": sum(tables[n].size for n in names) + built,
            }
        )

    def written(command, names, result: Table):
        add(command, command, names, document_text(result), built=result.size)

    def predicate(command, left, right, oracle):
        add(command, command, [left, right], "true\n" if oracle(sets[left], sets[right]) else "false\n")

    for k in range(ALGEBRA_DOCUMENTS):
        base, nxt, far = f"base{k}", f"base{(k + 1) % ALGEBRA_DOCUMENTS}", f"base{(k + 2) % ALGEBRA_DOCUMENTS}"
        sup, near = f"sup{k}", f"near{k}"
        written("union", [base, nxt], naive_union(tables[base], tables[nxt]))
        written("union", [nxt, base], naive_union(tables[nxt], tables[base]))
        written("intersect", [base, nxt], naive_intersection(tables[base], tables[nxt]))
        written("intersect", [sup, base], naive_intersection(tables[sup], tables[base]))
        written("complement", [base], naive_complement(tables[base]))
        written("complement", [sup], naive_complement(tables[sup]))
        for left, right in ((base, sup), (base, near), (near, base), (base, nxt)):
            predicate("subset", left, right, oracle_is_subset)
        for left, right in ((base, f"perm{k}"), (base, near)):
            predicate("equals", left, right, oracle_equals)
        add("error", "intersect", [base, far], error="EmptyParameterIntersection")
        add("error", "union", [base, "other"], error="UniverseMismatch")
        add("error", "subset", ["other", base], error="UniverseMismatch")

    # Each kind's slots cycle through its whole pool, so every run sends
    # close to the same mix.
    queues: dict[str, list[int]] = {kind: [] for kind in pools}

    def block_of(r: random.Random) -> list[int]:
        block = []
        for kind, count in ALGEBRA_BLOCK:
            for _ in range(count):
                if not queues[kind]:
                    queues[kind] = r.sample(pools[kind], len(pools[kind]))
                block.append(queues[kind].pop())
        r.shuffle(block)
        return block

    return {
        "kind": "cli",
        "requests": requests,
        "warmup": [pools["union"][0], pools["subset"][0]],
        "blocks": schedule(rng, block_of),
        "sample_documents": [paths["base0"]],
        "size_documents": [paths["base0"]],
    }


# --- products_api ------------------------------------------------------------


def prepare_products(rng: random.Random, work: Path) -> dict:
    universe = [f"item{k:02d}" for k in range(PRODUCT_OBJECTS)]
    tables = {
        name: draw_table(rng, universe, [(f"{name.lower()}{j:02d}", False) for j in range(m)], dominant=False)
        for name, m in PRODUCT_SHAPES.items()
    }
    paths = {name: write(work / f"products-{name}.json", document_text(t)) for name, t in tables.items()}
    self_test(list(paths.values()))
    requests = []
    for op, left, right in PRODUCT_REQUESTS:
        pairs, labels, columns = naive_product(tables[left], tables[right], meet if op == "and" else join)
        chosen = rng.sample(range(len(labels)), PRODUCT_LABELS)
        picked = to_soft_set(
            universe,
            [CompoundParameter(Parameter(*pairs[j][0]), Parameter(*pairs[j][1])) for j in chosen],
            [columns[j] for j in chosen],
        )
        matrix = oracle_matrix(DecisionTable(picked))
        entries = [[c.value for c in row] for row in matrix.audits]
        scores = [sum(row) for row in entries]
        ranking = sorted(range(len(universe)), key=lambda k: (-scores[k], k))
        requests.append(
            {
                "op": op,
                "left": left,
                "right": right,
                "labels": [labels[j] for j in chosen],
                "product": product_digest(labels, universe, columns),
                "report": report_digest(
                    [labels[j] for j in chosen],
                    entries,
                    scores,
                    [universe[k] for k in ranking],
                    universe[ranking[0]],
                    scores.count(max(scores)) > 1,
                ),
                "cells": len(universe) * (len(labels) + PRODUCT_LABELS),
            }
        )
    every_request = list(range(len(requests)))
    return {
        "kind": "products",
        "documents": paths,
        "requests": requests,
        "warmup": [0, 1],
        "blocks": schedule(rng, lambda r: r.sample(every_request, len(every_request))),
        "sample_documents": list(paths.values()),
        "size_documents": [paths["A"], paths["B"]],
    }


WORKLOADS = {"decide_cli": prepare_decide, "algebra_cli": prepare_algebra, "products_api": prepare_products}


def prepare(name: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
