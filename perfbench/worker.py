"""One workload in this interpreter: set it up, run the closed loop for the
given seconds, check every answer, and print one JSON line of results.

``run.py`` starts this script in a fresh interpreter for each measurement,
so the package's process-wide caches start cold and ``peak_rss_mb`` belongs
to one workload alone.  The result holds every operation's scaled latency, so
that ``run.py`` can match the operations of replays of the same seed.  With
``--ops N`` the loop runs exactly the first N operations of the stream
instead of running for the given seconds.  With ``--setup-only`` it only
times the set-up.  With ``--trace 1`` the tracer wraps the package before
set-up and the per-layer metrics are reported as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import MODULES, SETUP_OP, ZOO_CONSTRUCTORS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Span groups: a layer's time counts its outermost spans, its self time
# every span's own share.
GROUPS = {
    "cli.main": ("cli.main", "cli.build_parser"),
    "formats.parse_poset": ("formats.parse_poset",),
    "formats.parse_families": ("formats.parse_families",),
    "formulas.parse_formula": ("formulas.parse_formula",),
    "formulas.unbound_symbols": ("formulas.unbound_symbols",),
    "poset.init": ("poset.Poset.__init__",),
    "poset.compat_masks": ("poset.Poset.compat_masks",),
    "poset.minimal_filters": ("poset.Poset.minimal_filters",),
    "poset.all": (
        "poset.Poset.__init__",
        "poset.Poset.compat_masks",
        "poset.Poset.minimal_mask",
        "poset.Poset.minimal_filters",
    ),
    "zoo.build": tuple(f"zoo.{c}" for c in ZOO_CONSTRUCTORS),
    "completion.build": ("completion.boolean_completion", "completion.RegularOpenAlgebra.__init__"),
    "names.generic_name": ("names.generic_name",),
    "names.validate": ("names.validate_name",),
    "names.hereditary_names": ("names.hereditary_names",),
    "forcing.atomic": ("forcing.ForcingContext.mem_set", "forcing.ForcingContext.eq_set"),
    "forcing.interp": ("forcing.ForcingContext.interp",),
    "forcing.oracle": ("forcing.ForcingContext.oracle_mask", "forcing.ForcingContext.oracle_condition_set"),
    "forcing.forces_set": ("forcing.ForcingContext.forces_set",),
    "forcing.avoid": ("forcing.ForcingContext.avoid",),
    "completion.perp": ("completion.RegularOpenAlgebra.perp",),
    "generic.build_generic": ("generic.build_generic",),
    "ramsey.gnw": ("ramsey.gnw_dichotomy_search", "ramsey.gnw_construct"),
    "ramsey.hl": ("ramsey.hl_search",),
    "ramsey.mathias_decide": ("ramsey.mathias_pure_decide",),
}

# (metric, unit, how, group or counter).  "outer"/"self": seconds per
# measured operation; "setup": seconds during set-up; "calls"/"counter":
# per operation over the workload's count window (its first count_ops
# operations, which the seed fixes, so that they repeat exactly; a traced
# run always completes them); "setup_counter": during set-up.
LAYER_METRICS = (
    ("cli.main_self_s", "s/op", "self", "cli.main"),
    ("formats.parse_poset_s", "s/op", "outer", "formats.parse_poset"),
    ("formats.parse_poset_calls", "count/op", "calls", "formats.parse_poset"),
    ("formats.parse_families_s", "s/op", "outer", "formats.parse_families"),
    ("formulas.parse_formula_s", "s/op", "outer", "formulas.parse_formula"),
    ("formulas.unbound_symbols_s", "s/op", "outer", "formulas.unbound_symbols"),
    ("poset.init_s", "s/op", "outer", "poset.init"),
    ("poset.init_calls", "count/op", "calls", "poset.init"),
    ("poset.compat_masks_s", "s/op", "outer", "poset.compat_masks"),
    ("poset.minimal_filters_s", "s/op", "outer", "poset.minimal_filters"),
    ("poset.setup_s", "s", "setup", "poset.all"),
    ("zoo.build_s", "s", "setup", "zoo.build"),
    ("zoo.conditions", "count", "setup_counter", "zoo.conditions"),
    ("completion.build_s", "s", "setup", "completion.build"),
    ("names.generic_name_s", "s/op", "outer", "names.generic_name"),
    ("names.validate_s", "s/op", "outer", "names.validate"),
    ("names.hereditary_names_s", "s/op", "outer", "names.hereditary_names"),
    ("forcing.atomic_self_s", "s/op", "self", "forcing.atomic"),
    ("forcing.atomic_calls", "count/op", "calls", "forcing.atomic"),
    ("forcing.atomic_new_entries", "count/op", "counter", "forcing.atomic_new_entries"),
    ("forcing.interp_s", "s/op", "outer", "forcing.interp"),
    ("forcing.interp_calls", "count/op", "calls", "forcing.interp"),
    ("forcing.oracle_self_s", "s/op", "self", "forcing.oracle"),
    ("forcing.forces_set_self_s", "s/op", "self", "forcing.forces_set"),
    ("forcing.forces_set_calls", "count/op", "calls", "forcing.forces_set"),
    ("forcing.avoid_s", "s/op", "outer", "forcing.avoid"),
    ("forcing.avoid_calls", "count/op", "calls", "forcing.avoid"),
    ("forcing.avoid_bit_ops", "count/op", "counter", "forcing.avoid_bit_ops"),
    ("completion.perp_s", "s/op", "outer", "completion.perp"),
    ("completion.perp_calls", "count/op", "calls", "completion.perp"),
    ("generic.build_generic_s", "s/op", "outer", "generic.build_generic"),
    ("generic.build_generic_calls", "count/op", "calls", "generic.build_generic"),
    ("ramsey.gnw_s", "s/op", "outer", "ramsey.gnw"),
    ("ramsey.hl_s", "s/op", "outer", "ramsey.hl"),
    ("ramsey.mathias_decide_s", "s/op", "outer", "ramsey.mathias_decide"),
    ("ramsey.mathias_decisions", "count/op", "counter", "ramsey.mathias_decisions"),
)
# (metric, numerator counter, denominator: counter or group calls), over the
# count window; the denominator is reported as its own metric.
LAYER_RATIOS = (
    ("forcing.forces_memo_hit_ratio", "forcing.forces_memo_hits", "forcing.forces_set"),
    ("ramsey.mathias_construct_route_ratio", "ramsey.mathias_construct_routes", "ramsey.mathias_decisions"),
)


# On a shared host the same code runs up to 1.8 times slower in phases of
# milliseconds to minutes.  The probe, a fixed piece of Python that the
# package's code does not touch, is timed before every operation (and around
# set-up), and every time is scaled to a host on which the probe takes
# PROBE_REF_S: an operation's time is divided by the mean probe time of the
# PROBE_WINDOW operations on each side of it, over PROBE_REF_S.  The probe
# builds and drops a small dict of tuples and frozensets, the kind of work
# the package does; over one-second windows of a slow host its time followed
# that of a CLI request, of ForcingContext.avoid and of hl_search closely,
# where a pure arithmetic loop slowed only two thirds as much.  The
# collector is off while it runs, and everything it builds is freed before
# it returns, so it leaves the package's collections where they were.
PROBE_ENTRIES = 200
PROBE_REF_S = 1.5e-4
PROBE_WINDOW = 5
SETUP_PROBES = 10


def probe() -> float:
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    t0 = clock()
    table = {}
    for i in range(PROBE_ENTRIES):
        table[(i, i + 1)] = frozenset((i, i * 3, i * 7))
    del table
    dt = clock() - t0
    if enabled:
        gc.enable()
    return dt


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    # Indices of the operations that raised or gave a wrong answer.
    failed_at: list[int] = field(default_factory=list)
    # The probe's time before each operation.
    probes: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    # Timed seconds scaled by the probes of the operations before each.
    scaled_s: float = 0.0
    # Peak resident memory once the workload's first rss_ops operations are
    # done (or at the end of a shorter run): the memo tables grow with every
    # new input, so a fixed count keeps the figure off the machine's speed.
    peak_rss_mb: float = 0.0
    rss_ops: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failed_at)

    def scaled(self) -> list[float]:
        """Every latency scaled by the probes around its operation."""
        out = []
        for i, dt in enumerate(self.latencies):
            around = self.probes[max(i - PROBE_WINDOW, 0) : i + PROBE_WINDOW + 1]
            out.append(dt * PROBE_REF_S * len(around) / sum(around))
        return out


def measure(
    workload,
    state,
    stream,
    seconds: float,
    tracer=None,
    min_ops: int = 0,
    wall_limit: float = float("inf"),
    ops: int | None = None,
) -> Measurement:
    """Closed loop, one client: generate an input, time the operation, then
    check its answer outside the timed interval.  A raised exception or a
    wrong answer counts as failed and the loop goes on.  The loop ends after
    ``seconds`` of timed operations, scaled by the probe (and at least
    ``min_ops`` operations), so that the count of operations does not follow
    the host's speed; or, given ``ops``, after exactly that many; in either
    case once ``wall_limit`` seconds have passed."""
    m = Measurement()
    clock = time.perf_counter
    wall0 = clock()
    for i, op in enumerate(stream):
        m.probes.append(probe())
        if tracer is not None:
            tracer.op_id = i
            tracer.recording = True
        error = None
        t0 = clock()
        try:
            answer = workload.run(state, op)
        except Exception as exc:
            error = exc
        dt = clock() - t0
        if tracer is not None:
            tracer.recording = False
        ok = False
        if error is None:
            try:
                ok = bool(workload.check(state, op, answer))
            except Exception as exc:
                error = exc
        if not ok:
            if m.failed < 3:
                print(f"operation {i} failed: {workload.describe(state, op)[:300]}", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
            m.failed_at.append(i)
        m.latencies.append(dt)
        m.timed_s += dt
        recent = m.probes[-(PROBE_WINDOW + 1) :]
        m.scaled_s += dt * PROBE_REF_S * len(recent) / sum(recent)
        if m.attempted == workload.rss_ops:
            m.peak_rss_mb, m.rss_ops = peak_rss_mb(), m.attempted
        if ops is not None:
            if m.attempted >= ops:
                break
        elif m.scaled_s >= seconds and m.attempted >= min_ops:
            break
        if clock() - wall0 > wall_limit:
            break
    if not m.rss_ops:
        m.peak_rss_mb, m.rss_ops = peak_rss_mb(), m.attempted
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def result_of(m: Measurement) -> dict:
    """One measurement as ``run.py`` reads it: the scaled latency of every
    operation in stream order, the failed operations, and this run's own
    unscaled throughput and median."""
    return {
        "attempted": m.attempted,
        "failed": m.failed,
        "failed_at": m.failed_at,
        "scaled": m.scaled(),
        "ops_per_s": (m.attempted - m.failed) / m.timed_s,
        "op_p50_ms": statistics.median(m.latencies) * 1e3,
        "peak_rss_mb": m.peak_rss_mb,
        "rss_ops": m.rss_ops,
    }


def layer_metrics(workload, tracer, m: Measurement) -> dict:
    outer, own, calls, own_by_name = tracer.span_totals(GROUPS)
    ops = m.attempted
    window = range(workload.count_ops)

    def op_totals(table):
        out = defaultdict(int)
        for (key, op), value in table.items():
            if op != SETUP_OP:
                out[key] += value
        return out

    def window_sum(table, key):
        return sum(table.get((key, op), 0) for op in window)

    outer_ops, own_ops = op_totals(outer), op_totals(own)
    out = {}
    for metric, unit, how, key in LAYER_METRICS:
        if how == "outer":
            value = outer_ops[key] / 1e9 / ops
        elif how == "self":
            value = own_ops[key] / 1e9 / ops
        elif how == "setup":
            value = outer.get((key, SETUP_OP), 0) / 1e9
        elif how == "calls":
            value = window_sum(calls, key) / workload.count_ops
        elif how == "counter":
            value = window_sum(tracer.counts, key) / workload.count_ops
        else:
            value = tracer.counts.get((key, SETUP_OP), 0)
        out[metric] = {"value": value, "unit": unit}
    for metric, num, den in LAYER_RATIOS:
        hits = window_sum(tracer.counts, num)
        base = window_sum(calls, den) if den in GROUPS else window_sum(tracer.counts, den)
        out[metric] = {"value": hits / base if base else 0.0, "unit": "ratio"}
    # Every wrapped span's own time falls to its module, so a change in any
    # layer shows in one of these, also where no named metric covers it.
    for module in MODULES:
        mine = sum(t for name, t in own_by_name.items() if name.startswith(f"{module}."))
        out[f"{module}.self_s"] = {"value": mine / 1e9 / ops, "unit": "s/op"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--wall-limit", type=float, default=float("inf"))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    build = ROOT / ".bench_build" / "perfbench"
    workdir = build / f"work-{args.workload}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    try:
        probes = [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        state = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        probes += [probe() for _ in range(SETUP_PROBES)]
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s * PROBE_REF_S * len(probes) / sum(probes),
        }
        if not args.setup_only:
            m = measure(
                workload,
                state,
                workload.inputs(args.seed, state),
                args.seconds,
                tracer,
                min_ops=workload.count_ops if tracer else 0,
                wall_limit=args.wall_limit,
                ops=args.ops,
            )
            result.update(result_of(m))
            if tracer is not None:
                result["layers"] = layer_metrics(workload, tracer, m)
                result["spans"] = len(tracer.start)
                tracer.write(build / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
