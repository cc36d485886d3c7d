"""Spans and counts recorded around sparechain's library functions, from outside.

The program has no instrumentation of its own, so the traced benchmark run
replaces functions at the module attributes their callers look up (every
``sparechain.*`` module attribute bound to the same function object) with
a wrapper that records a span: (id, name, start, end, parent id). Counts
that only the arguments or results show, such as Poisson tail points or
simulated events, are taken by per-function hooks. Leaving the tracer puts
every original function back.

Spans live in memory and are written out when the benchmark ends. A span
started on a worker thread with nothing open on that thread takes as its
parent the innermost span open on the main thread (the ``run_batch`` that
fanned out the work).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Callable, Iterator

import numpy as np

Span = tuple[int, str, float, float, int]  # id, name, start, end, parent (0 = root)
Hook = Callable[["Tracer", int, tuple, dict, object], None]


def _shortage_points(tr: "Tracer", sid: int, args: tuple, kwargs: dict, result) -> None:
    demand = args[1] if len(args) > 1 else kwargs["mean_demand"]
    tr.count("inventory.shortage_points", int(np.size(demand)))


def _fitness_outcome(tr: "Tracer", sid: int, args: tuple, kwargs: dict, result) -> None:
    if result.tessac is None:
        tr.count("optimizer.model_errors")
    if result.feasible:
        tr.count("optimizer.feasible")


def _genome_visits(tr: "Tracer", sid: int, args: tuple, kwargs: dict, result) -> None:
    # Every GA generation scores the whole population; the trace has one
    # row per generation actually run.
    prob = args[0] if args else kwargs["prob"]
    tr.count("optimizer.genome_visits", len(result.trace) * prob.ga.population)


def _batch_outcome(tr: "Tracer", sid: int, args: tuple, kwargs: dict, result) -> None:
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs")
    tr.notes[sid] = jobs if jobs is not None and jobs > 1 else 1
    reps = result.per_replication
    tr.count("simulator.replications", len(reps))
    tr.count("simulator.events", sum(r.failures + r.plane_arrivals + r.ground_arrivals for r in reps))
    sc = args[0] if args else kwargs["sc"]
    tr.replications.extend((sc.strategy.q_parking, r) for r in reps)


def _validation_cases(tr: "Tracer", sid: int, args: tuple, kwargs: dict, result) -> None:
    tr.count("validation.cases", len(result.cases))
    tr.count("validation.infeasible_cases", result.infeasible_count)


# Spans that also record the thread CPU time they used, so that waiting for
# the interpreter lock in the simulator's thread pool is not counted as work.
CPU_TIMED = frozenset({"simulator.run_replication"})

# (module, function name, span name, hook). Each function is wrapped wherever
# a sparechain module holds it. ``validation._run_case`` is the one private
# name: a validation case has no public function of its own.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("sparechain.config", "load_run_config", "config.load_run_config", None),
    ("sparechain.optimizer", "optimize", "optimizer.optimize", _genome_visits),
    ("sparechain.optimizer", "optimize_inplane_only", "optimizer.optimize_inplane_only", None),
    ("sparechain.optimizer", "fitness", "optimizer.fitness", _fitness_outcome),
    ("sparechain.chain", "evaluate_strategy", "chain.evaluate_strategy", None),
    ("sparechain.chain", "evaluate_inplane_only", "chain.evaluate_inplane_only", None),
    ("sparechain.chain", "plane_leadtime", "chain.plane_leadtime", None),
    ("sparechain.chain", "supply_probabilities", "chain.supply_probabilities", None),
    ("sparechain.chain", "leadtime_expected_shortage", "chain.leadtime_expected_shortage", None),
    ("sparechain.inventory", "expected_shortage", "inventory.expected_shortage", _shortage_points),
    ("sparechain.orbits", "transfer_time", "orbits.transfer_time", None),
    ("sparechain.orbits", "raan_drift_rate", "orbits.raan_drift_rate", None),
    ("sparechain.orbits", "hohmann_transfer", "orbits.hohmann_transfer", None),
    ("sparechain.costs", "tessac", "costs.tessac", None),
    ("sparechain.costs", "tessac_inplane_only", "costs.tessac_inplane_only", None),
    ("sparechain.simulator", "run_batch", "simulator.run_batch", _batch_outcome),
    ("sparechain.simulator", "run_replication", "simulator.run_replication", None),
    ("sparechain.validation", "run_validation", "validation.run_validation", _validation_cases),
    ("sparechain.validation", "_run_case", "validation.case", None),
    ("sparechain.validation", "size_reorder_points", "validation.size_reorder_points", None),
)


def _sparechain_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sparechain"]


def function_snapshot() -> dict[tuple[str, str], object]:
    """Every callable attribute of the loaded sparechain modules, by (module, name)."""
    return {
        (module.__name__, key): value
        for module in _sparechain_modules()
        for key, value in vars(module).items()
        if callable(value)
    }


class Tracer:
    """Context manager that wraps TARGETS on entry and restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.notes: dict[int, object] = {}
        self.cpu: dict[int, float] = {}
        self.replications: list = []  # (q_parking, ReplicationResult) per replication
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _open(self) -> tuple[list[int], int, int]:
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        # next() on itertools.count is one C call, so threads cannot share an id.
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around a block of the benchmark's own code."""
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def _wrapper(self, original, name: str, hook: Hook | None):
        tracer = self
        cpu_timed = name in CPU_TIMED

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            cpu_start = time.thread_time() if cpu_timed else 0.0
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if cpu_timed:
                    tracer.cpu[sid] = time.thread_time() - cpu_start
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if hook is not None:
                hook(tracer, sid, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = _sparechain_modules()
        try:
            for module_name, attr, name, hook in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                traced = self._wrapper(original, name, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, traced)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped attribute back to its original function."""
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration.

    Self time of a span is its duration minus the part of its interval that
    its child spans cover. Metrics of layers the workload never reached
    read 0.
    """
    by_id = {s[0]: s for s in tr.spans}
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in tr.spans:
        children.setdefault(s[4], []).append(s)
        by_name.setdefault(s[1], []).append(s)

    def dur(s: Span) -> float:
        return s[3] - s[2]

    def self_time(s: Span) -> float:
        return dur(s) - _covered([(c[2], c[3]) for c in children.get(s[0], ())])

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum((dur(s) for s in named(name)), 0.0)

    def has_ancestor(s: Span, prefix: str) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1].startswith(prefix):
                return True
            parent = by_id.get(parent[4])
        return False

    def calls(name: str) -> int:
        return len(named(name))

    c = tr.counts
    m: dict[str, float] = {}

    fitness = named("optimizer.fitness")
    fitness_us = [dur(s) * 1e6 for s in fitness]
    visits = c["optimizer.genome_visits"]
    m["optimizer.genome_visits"] = visits
    m["optimizer.fitness_calls"] = len(fitness)
    m["optimizer.cache_hit_ratio"] = 1.0 - len(fitness) / visits if visits else 0.0
    m["optimizer.fitness_s"] = sum(dur(s) for s in fitness)
    m["optimizer.fitness_us_p50"] = _pct(fitness_us, 50)
    m["optimizer.fitness_us_p99"] = _pct(fitness_us, 99)
    m["optimizer.search_self_s"] = sum((self_time(s) for s in named("optimizer.optimize")), 0.0)
    m["optimizer.model_error_count"] = c["optimizer.model_errors"]
    m["optimizer.feasible_ratio"] = c["optimizer.feasible"] / len(fitness) if fitness else 0.0
    m["optimizer.inplane_s"] = total("optimizer.optimize_inplane_only")

    m["chain.evaluate_strategy_calls"] = calls("chain.evaluate_strategy")
    m["chain.evaluate_strategy_self_s"] = sum((self_time(s) for s in named("chain.evaluate_strategy")), 0.0)
    m["chain.plane_leadtime_s"] = total("chain.plane_leadtime")
    m["chain.supply_probabilities_s"] = total("chain.supply_probabilities")
    m["chain.leadtime_expected_shortage_calls"] = calls("chain.leadtime_expected_shortage")
    m["chain.leadtime_expected_shortage_s"] = total("chain.leadtime_expected_shortage")

    m["inventory.expected_shortage_calls"] = calls("inventory.expected_shortage")
    m["inventory.expected_shortage_s"] = total("inventory.expected_shortage")
    m["inventory.shortage_points"] = c["inventory.shortage_points"]

    m["orbits.transfer_time_calls"] = calls("orbits.transfer_time")
    m["orbits.raan_drift_rate_calls"] = calls("orbits.raan_drift_rate")
    m["orbits.hohmann_transfer_calls"] = calls("orbits.hohmann_transfer")
    m["orbits.total_s"] = sum(
        dur(s) for s in tr.spans if s[1].startswith("orbits.") and not has_ancestor(s, "orbits.")
    )

    m["costs.tessac_calls"] = calls("costs.tessac")
    m["costs.tessac_s"] = total("costs.tessac")

    batches = named("simulator.run_batch")
    rep_ms = [tr.cpu.get(s[0], dur(s)) * 1e3 for s in named("simulator.run_replication")]
    batch_s = sum(dur(s) for s in batches)
    events = c["simulator.events"]
    m["simulator.replications"] = c["simulator.replications"]
    m["simulator.events"] = events
    m["simulator.events_per_s"] = events / batch_s if batch_s else 0.0
    m["simulator.replication_ms_p50"] = _pct(rep_ms, 50)
    m["simulator.replication_ms_p90"] = _pct(rep_ms, 90)
    m["simulator.run_batch_s"] = batch_s
    m["simulator.batch_overhead_s"] = sum(self_time(s) for s in batches)
    capacity = sum(tr.notes.get(s[0], 1) * dur(s) for s in batches)
    m["simulator.parallel_efficiency"] = sum(rep_ms) / 1e3 / capacity if capacity else 0.0

    study = named("validation.run_validation")
    study_s = sum(dur(s) for s in study)
    case_s = [dur(s) for s in named("validation.case")]
    m["validation.cases"] = c["validation.cases"]
    m["validation.infeasible_cases"] = c["validation.infeasible_cases"]
    m["validation.case_s_p50"] = _pct(case_s, 50)
    m["validation.case_s_max"] = max(case_s, default=0.0)
    m["validation.sizing_s"] = total("validation.size_reorder_points")
    sim_in_study = sum(dur(s) for s in batches if has_ancestor(s, "validation.run_validation"))
    m["validation.sim_share"] = sim_in_study / study_s if study_s else 0.0

    m["config.load_s"] = total("config.load_run_config")
    m["cli.self_s"] = sum((self_time(s) for s in named("cli.main")), 0.0)
    m["cli.csv_bytes"] = c["cli.csv_bytes"]
    return m
