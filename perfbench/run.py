"""Benchmark for the inss checkout in the current directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: decide_cli, algebra_cli, products_api (see perfbench/README.md).
The inputs are generated from the seed under ``.perfbench-work/`` and
removed afterwards.  The workload runs in a process of its own
(``worker.py``); set-up is also timed in further fresh processes, and
``setup_s`` is the median.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 when the current directory holds no ``src/inss`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 7
# Every run must end within 180 seconds; children are stopped before that.
DEADLINE_S = 170
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
HERE = Path(__file__).resolve().parent


def per_layer_units() -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def run_worker(plan_path: Path, setup_only: bool, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    if setup_only:
        command.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("benchmark: out of time before the workload process started")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=remaining)
    if done.returncode != 0:
        raise SystemExit(f"benchmark: workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("decide_cli", "algebra_cli", "products_api"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "inss" / "__init__.py").is_file():
        print(f"benchmark: no src/inss package under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import inss
    import workloads

    if Path(inss.__file__).resolve().parent != src / "inss":
        print(f"benchmark: imported inss from {inss.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.prepare(args.workload, args.seed, work)
        plan.update(src=str(src), seconds=args.seconds, trace=args.trace)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        # Half the extra set-up samples are taken before the timed run and
        # half after it, so that they see the machine at different moments.
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        samples = [run_worker(plan_path, True, deadline) for _ in range(extra // 2)]
        result = run_worker(plan_path, False, deadline)
        samples += [run_worker(plan_path, True, deadline) for _ in range(extra - extra // 2)]
    finally:
        shutil.rmtree(work)
        with_work = work.parent
        if not any(with_work.iterdir()):
            with_work.rmdir()

    samples.append(result)
    warmup_failed = sum(s["warmup_failed"] for s in samples)
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    else:
        result["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} requests, failed_ratio {failed / attempted}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and warmup_failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
