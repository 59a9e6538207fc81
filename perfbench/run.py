"""The forcinglab benchmark.

    python3 perfbench/run.py --workload cli-oracle --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` of them, one after another) against the
package's sources in ``src/``, each measurement in a fresh interpreter, and
prints as the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  The seconds are
split over a few fresh interpreters that replay the same operations of the
seed, one after another.  Every time is scaled by a probe timed around it,
to take out the host's changes of speed; each operation's latency is the
fastest of its replays, and the latency metrics are taken over those.
Set-up is timed in several fresh interpreters, among the replays, and the
median is reported.

With ``--trace 1`` the metrics are the per-layer ones from a traced run,
together with the scaled untraced and traced throughput of one run each
that give the tracing overhead.  Exits with 1 when a measurement fails to
run and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-oracle", "library-large", "ramsey-search")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# The worker scales every time by a probe timed around it (see
# worker.probe), which takes out the drift of the host's speed over seconds
# and minutes.  What is left comes from phases of a few milliseconds: an
# operation's fastest scaled time over replays seconds apart rarely falls in
# one, so its median and sum stay put.  cli-oracle makes two longer replays
# instead: its time and its tail come from a few requests on mathias(5),
# and more of those steady it more than a third and fourth replay would.
REPLAYS = {"cli-oracle": 2, "library-large": 4, "ramsey-search": 4}
# Set-up is timed this many times, each in a fresh interpreter (the replays
# among them), and the median of the scaled times is reported.
SETUP_RUNS = {"cli-oracle": 7, "library-large": 5, "ramsey-search": 7}
# A workload's run ends within 180 s: a measuring interpreter stops after
# this much wall time even if answer checks slowed it, and an interpreter
# still running at the deadline is killed.
WALL_FACTOR = 2.0
WALL_SLACK_S = 5.0
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--wall-limit", repr(seconds * WALL_FACTOR + WALL_SLACK_S),
        *extra,
    ]
    # A fixed hash seed fixes the iteration order of sets of names, and with
    # it the work an input costs, so the seed alone decides the work done and
    # replays of a seed do the same work.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: not done within {DEADLINE_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile.  Below eleven samples it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_of(replays: list[dict]) -> list[float]:
    """Each operation of the first replay at the fastest scaled latency it
    took in any replay that reached it."""
    runs = [r["scaled"] for r in replays]
    return [min(run[i] for run in runs if i < len(run)) for i in range(len(runs[0]))]


def end_to_end(replays: list[dict]) -> dict:
    """End-to-end figures over the operations' fastest latencies.  An
    operation that failed in any replay counts as failed."""
    best = best_of(replays)
    failed = set().union(*(r["failed_at"] for r in replays))
    value, percentile = tail(best)
    return {
        "ops_per_s": (len(best) - len(failed)) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": value * 1e3,
        "tail_percentile": percentile,
        "samples": len(best),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replays),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        main = worker(workload, seed, seconds, deadline)
        traced = worker(workload, seed, seconds, deadline, "--trace", "1")
        runs = [main, traced]
        untraced_rate, traced_rate = (end_to_end([r])["ops_per_s"] for r in runs)
        metrics = dict(traced["layers"])
        metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.slowdown"] = {"value": untraced_rate / traced_rate, "unit": "ratio"}
        detail = {"spans": traced["spans"], "samples": main["attempted"], "traced_samples": traced["attempted"]}
    else:
        # The first replay runs for its share of the seconds, the others the
        # same operations; set-up-only runs follow each replay.
        replays = REPLAYS[workload]
        share = seconds / replays
        extra = SETUP_RUNS[workload] - replays
        runs, setups = [], []
        for k in range(replays):
            ops = ("--ops", str(runs[0]["attempted"])) if runs else ()
            runs.append(worker(workload, seed, share, deadline, *ops))
            setups.append(runs[-1]["setup_s"])
            for _ in range(extra * (k + 1) // replays - extra * k // replays):
                setups.append(worker(workload, seed, share, deadline, "--setup-only")["setup_s"])
        values = dict(end_to_end(runs), setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        detail = {
            "samples": values["samples"],
            "tail_percentile": values["tail_percentile"],
            "rss_ops": runs[0]["rss_ops"],
            "replay_ops_per_s": [r["ops_per_s"] for r in runs],
            "replay_op_p50_ms": [r["op_p50_ms"] for r in runs],
            "setup_runs_s": setups,
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail = {"workload": workload, "seed": seed, "failed_frac": failed / attempted, **detail}
    print("# " + json.dumps(detail), flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "forcinglab" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, result in zip(names, results):
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            print(f"{name} failed_frac {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(results[-1] if len(results) == 1 else dict(zip(names, results))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
