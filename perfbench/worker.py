"""The workload process: set-up, the timed closed loop, output checks, spans.

Run by ``run.py`` as ``python3 worker.py PLAN.json [--setup-only]``.  The
plan names the checkout's ``src`` directory, the requests with their
expected results, and the order to send them in.  Nothing of ``inss`` is
imported before the set-up clock starts, so ``setup_s`` covers the import,
the preloading and the warm-up requests.

One client sends one request at a time (a closed loop).  A request is timed
from the call into the program to its return; comparing the output with the
expected digest happens after the clock stops.

With tracing on, the names that ``inss.cli`` and ``inss.decision`` look up
at call time, and ``SoftSet.find_parameter``, are replaced by wrappers that
record a span (name, parent span, start, end, cells handled, size class).
The program itself is not changed.  Blocks of requests alternate between
traced and untraced, in the same order, so that the tracing overhead is
measured on identical work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from time import perf_counter

# The percentile reported as the tail latency, and the fewest samples that
# leave ten of them above it.
TAIL = 0.90
MIN_SAMPLES = 100
# Doubling ratios compare the cost per cell (or per call) at this size of
# universe or parameter list with the cost at twice the size.
DOUBLING_FROM = 800
# Sample sizes for the per-layer measurements taken after the traced loop.
VALIDATE_SAMPLE = 20000
VALIDATE_REPEATS = 5


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def product_digest(labels, universe, columns) -> str:
    """Digest of a soft set given as labels, universe and integer triple columns."""
    lines = [",".join(universe)]
    for label, column in zip(labels, columns):
        cells = ";".join(f"{t},{i},{f}" for t, i, f in column)
        lines.append(f"{label}|{cells}")
    return digest("\n".join(lines))


def report_digest(labels, entries, scores, ranking, best, tied) -> str:
    body = [list(labels), [list(row) for row in entries], list(scores), list(ranking), best, tied]
    return digest(json.dumps(body))


# --- spans -----------------------------------------------------------------


class Tracer:
    """Records spans in memory while ``on`` is true; otherwise adds one test."""

    def __init__(self) -> None:
        self.on = False
        self.request = -1
        # Each span: [name, parent index, start, end, cells, size, request].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrapped(self, name, fn, measure=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0, 0, None, tracer.request]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            if measure is not None:
                span[4], span[5] = measure(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, measure=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(name, original, measure))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _soft_set_cells(soft_set):
    return len(soft_set.universe) * len(soft_set.parameters)


def _measure_loaded(args, result):
    return _soft_set_cells(result), len(result.universe)


def _measure_argument(args, result):
    return _soft_set_cells(args[0]), None


def _measure_product(args, result):
    return _soft_set_cells(result), len(result.parameters)


def _measure_lookup(args, result):
    return 1, len(args[0].parameters)


def _measure_table(args, result):
    table = args[0]
    return len(table.objects) * len(table.parameters), len(table.objects)


def install_spans(tracer: Tracer) -> None:
    """Wrap the layer entry points the CLI and the decision procedure call."""
    import inss.algebra
    import inss.cli
    import inss.decision

    cli = inss.cli
    for attr, name, measure in (
        ("load_soft_set", "documents.load_soft_set", _measure_loaded),
        ("serialize_soft_set", "documents.serialize_soft_set", _measure_argument),
        ("render_table", "documents.render_table", None),
        ("load_reference_matrix", "documents.load_reference_matrix", None),
        ("union", "algebra.union", None),
        ("intersection", "algebra.intersection", None),
        ("complement", "algebra.complement", None),
        ("is_subset", "algebra.is_subset", None),
        ("equals", "algebra.equals", None),
        ("and_op", "algebra.and_op", _measure_product),
        ("or_op", "algebra.or_op", _measure_product),
        ("select_best", "decision.select_best", None),
    ):
        tracer.patch(cli, attr, name, measure)
    tracer.patch(inss.decision, "comparison_matrix", "decision.comparison_matrix", _measure_table)
    tracer.patch(inss.decision, "scores", "decision.scores")
    tracer.patch(inss.algebra.SoftSet, "find_parameter", "algebra.SoftSet.find_parameter", _measure_lookup)


# --- requests --------------------------------------------------------------


class CliWorkload:
    """Requests are argument lists for ``inss.cli.main``, run in-process."""

    def __init__(self, plan, tracer: Tracer) -> None:
        import inss.cli

        self.main = tracer.wrapped("cli.main", inss.cli.main)

    def execute(self, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(request["argv"])
            except SystemExit as exit_:
                code = exit_.code
        return code, out, err

    def check(self, request, outcome) -> bool:
        code, out, err = outcome
        if code != request["rc"] or digest(out.getvalue()) != request["stdout"]:
            return False
        if request["error"] is None:
            return err.getvalue() == ""
        return err.getvalue().startswith(f"error: {request['error']}: ")

    def domain_error(self, outcome) -> bool:
        return outcome[0] == 1


class ProductsWorkload:
    """Requests are ``and_op``/``or_op`` on preloaded soft sets, then ``select_best``."""

    def __init__(self, plan, tracer: Tracer) -> None:
        import inss

        self.sets = {name: inss.load_soft_set(path) for name, path in plan["documents"].items()}
        self.ops = {
            "and": tracer.wrapped("algebra.and_op", inss.and_op, _measure_product),
            "or": tracer.wrapped("algebra.or_op", inss.or_op, _measure_product),
        }
        self.select_best = tracer.wrapped("decision.select_best", inss.select_best)

    def execute(self, request):
        product = self.ops[request["op"]](self.sets[request["left"]], self.sets[request["right"]])
        return product, self.select_best(product, request["labels"])

    def check(self, request, outcome) -> bool:
        product, report = outcome
        columns = []
        for param in product.parameters:
            cells = product.value_set(param)
            columns.append(
                [
                    (
                        cells[e].truth.ten_thousandths,
                        cells[e].indeterminacy.ten_thousandths,
                        cells[e].falsity.ten_thousandths,
                    )
                    for e in product.universe
                ]
            )
        labels = [p.label for p in product.parameters]
        if product_digest(labels, product.universe, columns) != request["product"]:
            return False
        matrix, vector = report.matrix, report.scores
        return request["report"] == report_digest(
            [p.label for p in matrix.parameters],
            matrix.entries,
            vector.scores,
            vector.ranking,
            report.best,
            report.tied,
        )

    def domain_error(self, outcome) -> bool:
        return False


class Outcome:
    """Per-request results of one pass over a list of requests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.cells = 0
        self.failed = 0
        self.domain_errors = 0


def run_requests(workload, requests, order, tracer: Tracer, outcome: Outcome) -> float:
    """Send the requests in ``order`` one after another; return the timed seconds."""
    timed = 0.0
    for index in order:
        request = requests[index]
        tracer.request = index
        start = perf_counter()
        try:
            result = workload.execute(request)
        except Exception:
            result = None
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        try:
            ok = result is not None and workload.check(request, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        timed += elapsed
        outcome.latencies.append(elapsed)
        outcome.cells += request["cells"]
        if not ok:
            outcome.failed += 1
            print(f"check failed: request {index}: {request.get('argv') or request.get('op')}", file=sys.stderr)
        elif workload.domain_error(result):
            outcome.domain_errors += 1
    return timed


def blocks(plan):
    """The request order: the plan's blocks, repeated as often as needed."""
    while True:
        yield from plan["blocks"]


# --- metrics ---------------------------------------------------------------


def tail(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(TAIL * len(ordered)) - 1]


def span_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    spans = tracer.spans
    busy: dict[str, float] = {}
    child: dict[str, float] = {}
    calls: dict[str, int] = {}
    cells: dict[str, int] = {}
    by_size: dict[str, dict[int, list[float]]] = {}
    for name, parent, start, end, count, size, _ in spans:
        duration = end - start
        busy[name] = busy.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        cells[name] = cells.get(name, 0) + count
        if parent >= 0:
            parent_name = spans[parent][0]
            child[parent_name] = child.get(parent_name, 0.0) + duration
        if size is not None:
            bucket = by_size.setdefault(name, {}).setdefault(size, [0.0, 0])
            bucket[0] += duration
            bucket[1] += count

    def ns_per_cell(name: str) -> float:
        return 1e9 * busy[name] / cells[name] if cells.get(name) else 0.0

    def doubling(name: str) -> float:
        sizes = by_size.get(name, {})
        if DOUBLING_FROM not in sizes or 2 * DOUBLING_FROM not in sizes:
            return 0.0
        (low_time, low_count), (high_time, high_count) = sizes[DOUBLING_FROM], sizes[2 * DOUBLING_FROM]
        return (high_time / high_count) / (low_time / low_count)

    metrics = {
        "cli.main.self_s": busy.get("cli.main", 0.0) - child.get("cli.main", 0.0),
        "documents.load_soft_set.busy_s": busy.get("documents.load_soft_set", 0.0),
        "documents.load_soft_set.ns_per_cell": ns_per_cell("documents.load_soft_set"),
        "documents.load_soft_set.doubling_ratio": doubling("documents.load_soft_set"),
        "documents.serialize_soft_set.busy_s": busy.get("documents.serialize_soft_set", 0.0),
        "documents.serialize_soft_set.ns_per_cell": ns_per_cell("documents.serialize_soft_set"),
        "documents.render_table.busy_s": busy.get("documents.render_table", 0.0),
        "documents.load_reference_matrix.busy_s": busy.get("documents.load_reference_matrix", 0.0),
    }
    for op in ("union", "intersection", "complement", "is_subset", "equals"):
        metrics[f"algebra.{op}.busy_s"] = busy.get(f"algebra.{op}", 0.0)
    for op in ("and_op", "or_op"):
        metrics[f"algebra.{op}.busy_s"] = busy.get(f"algebra.{op}", 0.0)
        metrics[f"algebra.{op}.ns_per_cell"] = ns_per_cell(f"algebra.{op}")
    lookup = "algebra.SoftSet.find_parameter"
    metrics[f"{lookup}.calls"] = calls.get(lookup, 0)
    metrics[f"{lookup}.us_per_call"] = 1e6 * busy[lookup] / calls[lookup] if calls.get(lookup) else 0.0
    metrics[f"{lookup}.doubling_ratio"] = doubling(lookup)
    metrics["decision.select_best.self_s"] = busy.get("decision.select_best", 0.0) - child.get(
        "decision.select_best", 0.0
    )
    metrics["decision.comparison_matrix.busy_s"] = busy.get("decision.comparison_matrix", 0.0)
    metrics["decision.comparison_matrix.ns_per_cell"] = ns_per_cell("decision.comparison_matrix")
    metrics["decision.comparison_matrix.doubling_ratio"] = doubling("decision.comparison_matrix")
    metrics["decision.scores.busy_s"] = busy.get("decision.scores", 0.0)
    metrics["trace.requests"] = requests
    return metrics


def validate_ns_per_cell(plan) -> float:
    """Time ``validate_triple`` on a sample of the workload's raw document cells."""
    from inss import validate_triple

    raw = []
    for path in plan["sample_documents"]:
        with open(path, encoding="utf-8") as handle:
            grades = json.load(handle)["grades"]
        raw.extend(cell for column in grades.values() for cell in column.values())
    sample = (raw * (VALIDATE_SAMPLE // len(raw) + 1))[:VALIDATE_SAMPLE]
    timings = []
    for _ in range(VALIDATE_REPEATS):
        start = perf_counter()
        for cell in sample:
            validate_triple(*cell)
        timings.append((perf_counter() - start) / len(sample))
    return 1e9 * statistics.median(timings)


def load_bytes_per_cell(plan) -> float:
    """Memory held by a loaded soft set, per cell: one load per size class."""
    import tracemalloc

    from inss import load_soft_set

    shares = []
    for path in plan["size_documents"]:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            soft_set = load_soft_set(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        shares.append(held / _soft_set_cells(soft_set))
    return statistics.median(shares)


# --- entry point -----------------------------------------------------------


def setup(plan, tracer: Tracer):
    """Import the program, preload, warm up; return the workload and its set-up time."""
    start = perf_counter()
    import inss  # noqa: F401  (the import is part of what set-up measures)

    workload = (ProductsWorkload if plan["kind"] == "products" else CliWorkload)(plan, tracer)
    warm = Outcome()
    run_requests(workload, plan["requests"], plan["warmup"], tracer, warm)
    return workload, perf_counter() - start, warm.failed


def timed_run(plan, workload, tracer: Tracer) -> dict:
    outcome = Outcome()
    loop_start = perf_counter()
    timed = 0.0
    for block in blocks(plan):
        if perf_counter() - loop_start >= plan["seconds"] and len(outcome.latencies) >= MIN_SAMPLES:
            break
        timed += run_requests(workload, plan["requests"], block, tracer, outcome)
    return {
        "attempted": len(outcome.latencies),
        "failed": outcome.failed,
        "latency_p50_s": statistics.median(outcome.latencies),
        "latency_p90_s": tail(outcome.latencies),
        "cells_per_s": outcome.cells / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(plan, workload, tracer: Tracer) -> dict:
    install_spans(tracer)
    untraced, traced = Outcome(), Outcome()
    untraced_s = traced_s = 0.0
    loop_start = perf_counter()
    for number, block in enumerate(blocks(plan)):
        if perf_counter() - loop_start >= plan["seconds"]:
            break
        # Run each block twice, alternating which pass goes first.
        for tracing in (False, True) if number % 2 == 0 else (True, False):
            tracer.on = tracing
            elapsed = run_requests(workload, plan["requests"], block, tracer, traced if tracing else untraced)
            if tracing:
                traced_s += elapsed
            else:
                untraced_s += elapsed
    tracer.on = False
    tracer.restore()
    metrics = span_metrics(tracer, len(traced.latencies))
    metrics["documents.load_soft_set.bytes_per_cell"] = load_bytes_per_cell(plan)
    metrics["grades.validate_triple.ns_per_cell"] = validate_ns_per_cell(plan)
    metrics["cli.main.domain_errors"] = traced.domain_errors
    metrics["checks.failed"] = traced.failed + untraced.failed
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1
    return {
        "attempted": len(traced.latencies) + len(untraced.latencies),
        "failed": traced.failed + untraced.failed,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    tracer = Tracer()
    workload, setup_s, warmup_failed = setup(plan, tracer)
    result = {"setup_s": setup_s, "warmup_failed": warmup_failed}
    if "--setup-only" not in argv:
        result.update((traced_run if plan["trace"] else timed_run)(plan, workload, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
