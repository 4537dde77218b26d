"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces the module-level names that coptw's own modules look up
at call time (``coptw.heuristic.relax_starts`` and the like) with wrappers
that record one span per call: (span id, parent span id, trace id, name,
start, end).  All spans of one benchmark row share a trace id.  Nothing in
the package is edited, and the originals come back when ``installed`` exits,
so the untraced passes never see a wrapper.  Spans stay in memory and are
written out once, after measuring.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  The module is the one whose global the
# caller resolves at run time, so a wrapper there sees every call it makes.
WRAPPED = (
    ("instances", "parse_benchmark", "instances.parse"),
    ("instances", "augment", "instances.augment"),
    ("heuristic", "build_distance_matrix", "geometry.build"),
    ("heuristic", "build_arc_set", "geometry.build"),
    ("oracle", "build_distance_matrix", "geometry.build"),
    ("oracle", "build_arc_set", "geometry.build"),
    ("heuristic", "calc_saving_pairs", "savings.pairs"),
    ("heuristic", "relax_starts", "scheduling.relax"),
    ("oracle", "relax_starts", "scheduling.relax"),
    ("scheduling", "check_solution", "scheduling.check"),
    ("heuristic", "construct", "heuristic.construct"),
    ("heuristic", "improve", "heuristic.improve"),
    ("oracle", "exact_solve", "oracle.search"),
)

NO_PARENT = -1  # parent id of a root span: a row, or the set-up


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.solutions: set = set()  # (trace id, routes) of every improve output
        self._stack = [NO_PARENT]
        self._next_id = 0
        self.trace_id = 0

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.trace_id, name, t0, t1))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def run_root(self, name: str, fn):
        """Call fn() as the root span of a new trace; returns its result."""
        self.trace_id += 1
        return self._wrap(name, fn, None)()

    # -- counters recorded where the work happens -------------------------

    def _observe_relax(self, args, kwargs, result):
        routes = args[1] if len(args) > 1 else kwargs["routes"]
        s0 = args[2] if len(args) > 2 else kwargs.get("s0")
        status, _, _, rounds = result
        c = self.counts
        c["relax_" + status] += 1
        c["relax_rounds"] += rounds
        c["relax_incremental" if s0 is not None else "relax_full"] += 1
        c["relax_visits"] += sum(len(r) for r in routes)

    def _observe_pairs(self, args, kwargs, result):
        self.counts["savings_pairs"] += len(result)

    def _observe_improve(self, args, kwargs, result):
        self.solutions.add((self.trace_id, tuple(tuple(r) for r in result.routes)))

    def _observe_search(self, args, kwargs, result):
        self.counts["oracle_nodes"] += result.explored_nodes

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        observers = {
            "scheduling.relax": self._observe_relax,
            "savings.pairs": self._observe_pairs,
            "heuristic.improve": self._observe_improve,
            "oracle.search": self._observe_search,
        }
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(f"coptw.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, observers.get(name)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,trace,name,start,end\n")
            for sid, parent, trace, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{trace},{name},{t0!r},{t1!r}\n")


def layer_times(spans):
    """Per span name: (calls, total seconds, self seconds), plus a check.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  The check asks that self time plus the children's
    summed durations equals the duration, which holds only when children lie
    inside their parent and never overlap each other.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    bad = 0
    for sid, _, _, name, t0, t1 in spans:
        duration = t1 - t0
        covered = 0.0
        child_sum = 0.0
        reach = t0
        for _, _, _, _, c0, c1 in sorted(children.get(sid, ()), key=lambda s: s[4]):
            child_sum += c1 - c0
            lo, hi = max(c0, reach, t0), min(c1, t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = duration - covered
        if abs(own + child_sum - duration) > 1e-9 * max(1.0, duration):
            bad += 1
        calls[name] += 1
        total[name] += duration
        self_time[name] += own
    return calls, total, self_time, bad
