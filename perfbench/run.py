"""BClean benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit_clean --seed 1 --seconds 20 --trace 0

The launcher generates the workload's inputs from ``--seed`` into a
work directory under ``.perfbench_work/``, then starts the measured
worker (this same file with ``--worker``) in a fresh interpreter.  The
worker is started ``SETUP_REPEATS`` times: each start is timed from
spawn until the worker reports ready (interpreter start, ``import
repro``, loading inputs, bringing the system up), ``setup_s`` is the
median, and only the last worker goes on to the timed window.  The
worker runs alone so its peak resident set excludes input generation.

The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` (tracing off); with ``--trace 1`` the engine writes a
trace per unit of work and the metrics are the ``per_layer`` ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
#: the whole run, every worker start included, must end well within 180 s
RUN_DEADLINE_S = 170.0
#: marks the worker's protocol lines among anything else on its stdout
TAG = "PERFBENCH "


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc/self/status")


def worker(args: argparse.Namespace) -> int:
    from workloads import COUNT_METRICS, SPAN_METRICS, WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(Path(args.workdir), bool(args.trace))
    print(TAG + "ready", flush=True)
    if args.setup_only:
        workload.close()
        return 0
    window = workload.run(args.seconds)
    rss = peak_rss_mb()
    problems = workload.verify()
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    samples = window.all_samples()
    if args.trace:
        values = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        values.update(dict.fromkeys(COUNT_METRICS, 0.0))
        values.update(workload.layers())
        values["traced_op_best_ms"] = window.best_ms()
        values["op_median_ms"] = statistics.median(samples)
        values["op_p90_ms"] = statistics.quantiles(samples, n=10)[-1]
    else:
        values = {"op_best_ms": window.best_ms(), "peak_rss_mb": rss}
    result = {
        "correct": not problems and window.failed == 0,
        "attempted": len(samples),
        "failed": window.failed,
        "values": values,
    }
    print(TAG + json.dumps(result), flush=True)
    return 0


def start_worker(args, work: Path, setup_only: bool, deadline: float):
    """Start one worker and read its stdout until it is ready.  Returns
    the process, its watchdog timer and the seconds from spawn to ready
    (``None`` if it never got ready)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    # A hung worker is killed at the deadline; its stdout then closes.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    for line in proc.stdout:
        if line.startswith(TAG + "ready"):
            return proc, watchdog, time.perf_counter() - t0
    return proc, watchdog, None


def run_workers(args, work: Path, deadline: float) -> tuple[dict, list[float]] | None:
    """Start the worker ``SETUP_REPEATS`` times (once when tracing); the
    last one measures.  Returns its result and every set-up time."""
    starts = 1 if args.trace else SETUP_REPEATS
    setups = []
    for attempt in range(starts):
        last = attempt == starts - 1
        proc, watchdog, seconds = start_worker(args, work, not last, deadline)
        try:
            lines = [line for line in proc.stdout if line.startswith(TAG)]
            proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
        if seconds is None or proc.returncode != 0:
            print(f"perfbench: worker failed (exit {proc.returncode})", file=sys.stderr)
            return None
        setups.append(seconds)
    return json.loads(lines[-1][len(TAG):]), setups


def launch(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        WORKLOADS[args.workload]().prepare(work, args.seed)
        outcome = run_workers(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if outcome is None:
        return 1
    result, setups = outcome
    values = result.pop("values")
    values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    return launch(args)


if __name__ == "__main__":
    raise SystemExit(main())
