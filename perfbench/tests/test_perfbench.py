"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from forcinglab.forcing import FORCES, FORCES_NEGATION, UNDECIDED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def generated(name: str, seed: int, workdir: Path, count: int = 40) -> bytes:
    w = WORKLOADS[name]
    state = w.setup(seed, workdir)
    parts = [name.encode() + b"\n" + fname.encode() + b"\n" + data for fname, data in w.setup_files(state).items()]
    parts += [w.describe(state, op).encode() for op in itertools.islice(w.inputs(seed, state), count)]
    return b"\n--\n".join(parts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = generated(name, 7, tmp_path / "a")
    assert first == generated(name, 7, tmp_path / "b")
    assert first != generated(name, 8, tmp_path / "c")


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in specs} == {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(name):
    check_result(run_bench("--workload", name, "--seed", "3", "--seconds", "0.5"), SPEC["end_to_end"])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_prints_every_layer_metric(name):
    check_result(run_bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "1"), SPEC["per_layer"])


def test_refuses_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "cli-oracle", "--seed", "1", "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# Corrupted answers, one per kind of answer, injected here and not in the
# package: each must be caught by the workload's check.
def corrupt_cli(answer):
    code, text = answer
    return 1, text.replace("agree", "disagree")


def corrupt_library(answer):
    verdict, tv, tv_not, G = answer
    wrong = {FORCES: FORCES_NEGATION, FORCES_NEGATION: UNDECIDED, UNDECIDED: FORCES}
    return wrong[verdict], tv, tv_not, G


def corrupt_ramsey(answer):
    if hasattr(answer, "forces_membership"):
        return replace(answer, forces_membership=not answer.forces_membership)
    if hasattr(answer, "rows"):
        return replace(answer, rows=answer.rows[:-1])
    searched, built = answer
    return searched, replace(built, H=frozenset(), horn="a", completed=True)


CORRUPT = {"cli-oracle": corrupt_cli, "library-large": corrupt_library, "ramsey-search": corrupt_ramsey}


class Corrupting:
    """The workload with every second answer corrupted and every fifth
    operation raising."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt, self.calls = inner, corrupt, 0

    def run(self, state, op):
        self.calls += 1
        if self.calls % 5 == 0:
            raise RuntimeError("injected")
        answer = self.inner.run(state, op)
        return self.corrupt(answer) if self.calls % 2 == 0 else answer

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_answers_count_as_failed(name, tmp_path):
    w = WORKLOADS[name]
    state = w.setup(5, tmp_path)
    bad = Corrupting(w, CORRUPT[name])
    m = worker.measure(bad, state, itertools.islice(w.inputs(5, state), 20), seconds=1e9)
    assert m.attempted == 20
    # calls 2, 4, 5, 6, 8, 10, ... : corrupted or raising
    expected = sum(1 for k in range(1, 21) if k % 2 == 0 or k % 5 == 0)
    assert m.failed == expected
    assert m.failed_at == [k - 1 for k in range(1, 21) if k % 2 == 0 or k % 5 == 0]
    assert worker.measure(w, state, itertools.islice(w.inputs(5, state), 20), seconds=1e9).failed == 0


def test_exact_operation_count():
    w = WORKLOADS["ramsey-search"]
    state = w.setup(5, None)
    m = worker.measure(w, state, w.inputs(5, state), seconds=0.0, ops=7)
    assert m.attempted == 7 and m.failed == 0


def test_tail_has_ten_samples_beyond():
    lat = [i / 1000 for i in range(200)]
    value, pct = run.tail(lat)
    assert sum(1 for x in lat if x > value) == 10 and pct == 95.0


def test_end_to_end_takes_each_operations_fastest_replay():
    replays = [
        {"scaled": [0.004, 0.001, 0.009], "failed_at": [], "peak_rss_mb": 10.0},
        {"scaled": [0.002, 0.003, 0.010], "failed_at": [2], "peak_rss_mb": 12.0},
        {"scaled": [0.003, 0.002], "failed_at": [], "peak_rss_mb": 11.0},
    ]
    assert run.best_of(replays) == [0.002, 0.001, 0.009]
    got = run.end_to_end(replays)
    assert got["samples"] == 3
    assert got["op_p50_ms"] == pytest.approx(2.0)
    assert got["op_tail_ms"] == pytest.approx(9.0)
    assert got["ops_per_s"] == pytest.approx(2 / 0.012)
    assert got["peak_rss_mb"] == 11.0


def test_latency_scaled_by_probes_around_it():
    ref, k = worker.PROBE_REF_S, worker.PROBE_WINDOW
    # The host runs at the reference speed, then twice as slow.
    probes = [ref] * (3 * k) + [2 * ref] * (3 * k)
    m = worker.Measurement(latencies=[0.001] * len(probes), probes=probes)
    scaled = m.scaled()
    assert scaled[k] == pytest.approx(0.001) and scaled[-1] == pytest.approx(0.0005)
    # An operation at the step sees its k probes before and k after it.
    assert scaled[3 * k] == pytest.approx(0.001 * (2 * k + 1) / (k + 2 * (k + 1)))


def test_self_time_excludes_children():
    t = Tracer()

    def inner():
        return sum(range(20000))

    inner_t = t._wrap(inner, "m.inner")
    outer_t = t._wrap(lambda: inner_t() + inner_t(), "m.outer")
    t.recording = True
    t.op_id = 0
    outer_t()
    groups = {"outer": ("m.outer",), "inner": ("m.inner",), "both": ("m.outer", "m.inner")}
    outer, own, calls, own_by_name = t.span_totals(groups)
    dur = [e - s for s, e in zip(t.start, t.end)]
    assert calls[("inner", 0)] == 2 and calls[("both", 0)] == 3
    assert own[("outer", 0)] == dur[0] - dur[1] - dur[2]
    assert outer[("both", 0)] == dur[0]
    assert own[("both", 0)] == dur[0]
    assert own_by_name == {"m.outer": own[("outer", 0)], "m.inner": own[("inner", 0)]}
