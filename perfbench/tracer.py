"""Spans around the calls into each layer of the package, recorded from the
benchmark's side.

``Tracer.install`` replaces every public function of the package's modules,
and the public methods of ``ForcingContext``, ``RegularOpenAlgebra`` and the
set-up methods of ``Poset``, with wrappers that record a span: name, start,
end, parent span and operation id.  Spans are kept in memory in flat arrays
and written out when the run ends.  A few wrappers also take counts at the
same boundary (memo growth, bit operations, decision routes).

Self time is a span's duration minus the time its child spans cover; the
time of a layer counts only its outermost spans, so recursion is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = (
    "cli",
    "completion",
    "forcing",
    "formats",
    "formulas",
    "generic",
    "names",
    "poset",
    "ramsey",
    "sexpr",
    "zoo",
)
CLASS_METHODS = {
    ("forcing", "ForcingContext"): None,
    ("completion", "RegularOpenAlgebra"): None,
    ("poset", "Poset"): ("__init__", "compat_masks", "minimal_mask", "minimal_filters"),
}
SETUP_OP = -1
ZOO_CONSTRUCTORS = ("cohen", "dyadic_random", "amoeba", "collapse", "mathias", "marker")


def _public_methods(cls) -> list[str]:
    out = ["__init__"]
    for attr, obj in vars(cls).items():
        if not attr.startswith("_") and inspect.isfunction(obj):
            out.append(attr)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.recording = False
        # (counter, op id) -> summed value
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self._atomic_depth = 0

    # -- recording -----------------------------------------------------------

    def _sid(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def count(self, counter: str, value: int) -> None:
        self.counts[(counter, self.op_id)] += value

    def _wrap(self, fn, name: str, probe=None):
        sid = self._sid(name)
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            token = probe.before(tracer, args) if probe else None
            result = None
            idx = len(tracer.start)
            tracer.span_name.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                if probe:
                    probe.after(tracer, args, result, token)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions and methods everywhere they
        are bound, including names other modules imported from them.  The
        wrapping lasts for the life of the process."""
        replaced: dict[int, object] = {}
        for modname in MODULES:
            mod = importlib.import_module(f"forcinglab.{modname}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replaced[id(obj)] = self._wrap(obj, f"{modname}.{attr}", PROBES.get(f"{modname}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "forcinglab" and not modname.startswith("forcinglab."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for (modname, clsname), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"forcinglab.{modname}"), clsname)
            for attr in methods or _public_methods(cls):
                name = f"{modname}.{clsname}.{attr}"
                setattr(cls, attr, self._wrap(vars(cls)[attr], name, PROBES.get(name)))

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as a JSON header plus the five columns, native-endian, in
        a sibling ``.bin`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (
            ("name", self.span_name),
            ("parent", self.parent),
            ("op", self.op),
            ("start_ns", self.start),
            ("end_ns", self.end),
        )
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
            "byteorder": sys.byteorder,
            "setup_op": SETUP_OP,
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)
        path.write_text(json.dumps(header) + "\n")

    def span_totals(self, groups: dict[str, tuple[str, ...]]):
        """Per group: outermost time, self time and span count, keyed by
        (group, op id); and the self time of every span name outside set-up."""
        gbits: dict[int, int] = defaultdict(int)
        for g, (group, members) in enumerate(groups.items()):
            for member in members:
                if member in self._ids:
                    gbits[self._ids[member]] |= 1 << g
        names = list(groups)
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        ancestors = array("q", bytes(8 * n))
        parent = self.parent
        span_name = self.span_name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | gbits.get(span_name[p], 0)
        outer: dict[tuple[str, int], int] = defaultdict(int)
        own: dict[tuple[str, int], int] = defaultdict(int)
        calls: dict[tuple[str, int], int] = defaultdict(int)
        named_own: dict[int, int] = defaultdict(int)
        op = self.op
        for i in range(n):
            if op[i] != SETUP_OP:
                named_own[span_name[i]] += dur[i] - child[i]
            bits = gbits.get(span_name[i], 0)
            if not bits:
                continue
            g = 0
            while bits:
                if bits & 1:
                    key = (names[g], op[i])
                    calls[key] += 1
                    own[key] += dur[i] - child[i]
                    if not ancestors[i] >> g & 1:
                        outer[key] += dur[i]
                bits >>= 1
                g += 1
        return outer, own, calls, {self.names[sid]: t for sid, t in named_own.items()}


# -- probes: counts taken at a span boundary ----------------------------------


def _memo_size(ctx) -> int:
    return len(ctx._mem) + len(ctx._eq)


class _AtomicProbe:
    """Growth of the mem/eq memo tables, measured around the outermost
    atomic call only (inner calls are part of that growth)."""

    @staticmethod
    def before(tracer, args):
        tracer._atomic_depth += 1
        return _memo_size(args[0]) if tracer._atomic_depth == 1 else None

    @staticmethod
    def after(tracer, args, result, token):
        tracer._atomic_depth -= 1
        if token is not None:
            tracer.count("forcing.atomic_new_entries", _memo_size(args[0]) - token)


class _ForcesProbe:
    """A forces_set call that leaves the memo size unchanged is a hit."""

    @staticmethod
    def before(tracer, args):
        return len(args[0]._forces)

    @staticmethod
    def after(tracer, args, result, token):
        tracer.count("forcing.forces_memo_hits", int(len(args[0]._forces) == token))


class _AvoidProbe:
    """One avoid call scans one down-set mask per condition."""

    @staticmethod
    def before(tracer, args):
        return None

    @staticmethod
    def after(tracer, args, result, token):
        tracer.count("forcing.avoid_bit_ops", args[0].n)


class _ZooProbe:
    @staticmethod
    def before(tracer, args):
        return None

    @staticmethod
    def after(tracer, args, result, token):
        if result is not None:
            P = result[0] if isinstance(result, tuple) else result
            tracer.count("zoo.conditions", len(P))


class _RouteProbe:
    @staticmethod
    def before(tracer, args):
        return None

    @staticmethod
    def after(tracer, args, result, token):
        if result is not None:
            tracer.count("ramsey.mathias_decisions", 1)
            tracer.count("ramsey.mathias_construct_routes", int(result.route == "construct"))


PROBES = {
    "forcing.ForcingContext.mem_set": _AtomicProbe,
    "forcing.ForcingContext.eq_set": _AtomicProbe,
    "forcing.ForcingContext.forces_set": _ForcesProbe,
    "forcing.ForcingContext.avoid": _AvoidProbe,
    "ramsey.mathias_pure_decide": _RouteProbe,
}
PROBES.update({f"zoo.{ctor}": _ZooProbe for ctor in ZOO_CONSTRUCTORS})
