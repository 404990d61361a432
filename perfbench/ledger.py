"""Per-layer ledger: spans recorded around calls into the program's layers.

Wrappers are installed from the benchmark's files only; nothing under
``src/`` changes. A function imported with ``from module import name`` is
bound in every importing module, so each wrapper replaces the original at
every binding site found in the loaded ``repro`` modules; a method is
wrapped once, in its class. Each call records one span
``(id, name, thread, start, end, parent, amount)`` in memory; spans nest
per thread, so a server thread keeps its own stack.

Self time is a span's duration minus the part its child spans cover.
The ledger partitions the wall time of a window: every instant goes to
the innermost span active then, a non-main thread's span taking priority
over the main thread's (the main thread of ``tcp_replay`` is only waiting
on the server while the server thread works). Time inside no span is
the unattributed remainder, so layer self times plus the remainder sum
to the window's wall time exactly.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def _rows_binned(args, result, pre):
    return len(args[1])


def _prefix_growth(args, result, pre):
    # Rows newly covered by a prefix poll; a shrinking prefix refolds all.
    after = args[0].polled_n
    return after - pre if after >= pre else after


def _polled_before(args):
    return args[0].polled_n


def _frame_bytes(args, result, pre):
    return len(result)


def _interactions(args, result, pre):
    return sum(len(workflow.interactions) for workflow in result)


class Target(NamedTuple):
    """One wrapped callable: where it lives and which ledger row it feeds.

    ``amount(args, result, pre(args))`` is the work one call did, summed
    into the row's count (rows binned, bytes framed, ...).
    """

    layer: str
    module: str
    qualname: str
    amount: Optional[Callable] = None
    pre: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


#: Every wrapped entry point, grouped by the ledger row (layer) it feeds.
TARGETS: Sequence[Target] = (
    Target("workflow.generate", "repro.workflow.generator",
           "WorkflowGenerator.generate_suite", _interactions),
    Target("server.calendar", "repro.server.manager", "OpenSystemManager.run"),
    Target("driver.step", "repro.bench.driver", "SessionDriver.step"),
    Target("scheduler.advance", "repro.engines.scheduler",
           "ProcessorSharingScheduler.advance_to"),
    Target("scheduler.advance", "repro.engines.scheduler",
           "ProcessorSharingScheduler.add_task"),
    Target("scheduler.advance", "repro.engines.scheduler",
           "ProcessorSharingScheduler.cancel"),
    Target("scheduler.advance", "repro.engines.scheduler",
           "ProcessorSharingScheduler.cancel_group"),
    Target("estimate", "repro.engines.estimators", "srs_estimate"),
    Target("estimate", "repro.engines.estimators", "stratified_estimate"),
    Target("estimate", "repro.engines.estimators", "z_value"),
    Target("kernel_cache.get", "repro.engines.kernel_cache", "KernelCache.get"),
    Target("compile", "repro.query.kernels", "CompiledQueryKernel.__init__"),
    Target("poll", "repro.query.kernels", "PrefixKernelRun.poll",
           _prefix_growth, _polled_before),
    Target("binning", "repro.query.binning", "compute_codes", _rows_binned),
    Target("binning", "repro.query.binning", "group_rows"),
    Target("predicate", "repro.query.filters", "evaluate_filter"),
    Target("groundtruth", "repro.query.groundtruth", "GroundTruthOracle.answer"),
    Target("groundtruth", "repro.query.groundtruth", "evaluate_exact"),
    Target("digest", "repro.query.groundtruth", "query_cache_key"),
    Target("metrics", "repro.bench.metrics", "compute_metrics"),
    Target("spool", "repro.server.spool", "RecordSpool.append"),
    Target("spool", "repro.server.spool", "ServingAggregate.observe_record"),
    Target("runtime.cell", "repro.runtime.executor", "MatrixExecutor.run"),
    Target("runtime.cell", "repro.runtime.executor", "execute_cell"),
    Target("net.encode", "repro.net.protocol", "encode_message", _frame_bytes),
    Target("net.decode", "repro.net.protocol", "decode_body"),
    Target("net.decode", "repro.net.protocol", "decode_message"),
    Target("net.decode", "repro.net.protocol", "split_frame"),
    Target("net.client_wait", "repro.net.client", "NetClient.send"),
    Target("net.client_wait", "repro.net.client", "NetClient.read_message"),
    Target("data.seed", "repro.data.seed", "generate_flights_seed"),
    Target("data.fit", "repro.data.generator", "CopulaScaler.fit"),
    Target("data.scale", "repro.data.generator", "CopulaScaler.generate"),
    Target("data.profile", "repro.data.schema", "profile_table"),
)


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self.binding_sites: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, amount, pre = target.name, target.amount, target.pre
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            before = pre(args) if pre is not None else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            count = amount(args, result, before) if amount is not None else 0
            spans.append((span_id, name, ident(), start, end, parent, count))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target at every binding site in loaded ``repro`` modules."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.name)
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(target.name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                setattr(owner, attr, wrapped)
                self.binding_sites[target.name] = 1
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapped = self._wrap(original, target)
            sites = 0
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if namespace is None or not (
                    loaded.__name__ == "repro" or loaded.__name__.startswith("repro.")
                ):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
                        sites += 1
            self.binding_sites[target.name] = sites

    def take(self) -> List[tuple]:
        """Remove and return the spans recorded so far."""
        taken = list(self.spans)
        del self.spans[: len(taken)]
        return taken


# ----------------------------------------------------------------------
# Partition of a window's wall time
# ----------------------------------------------------------------------

def _union(intervals: List[Interval]) -> List[Interval]:
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _overlap(start: float, end: float, union: List[Interval], starts: List[float]) -> float:
    covered = 0.0
    i = max(0, bisect.bisect_right(starts, start) - 1)
    while i < len(union) and union[i][0] < end:
        lo = max(start, union[i][0])
        hi = min(end, union[i][1])
        if hi > lo:
            covered += hi - lo
        i += 1
    return covered


def _self_segments(spans: List[tuple], lo: float, hi: float) -> Dict[int, List[tuple]]:
    """Per thread: ``(start, end, span name)`` pieces of each span's self time."""
    children: Dict[Optional[int], List[tuple]] = defaultdict(list)
    for span in spans:
        children[span[5]].append(span)
    pieces: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        span_id, name, thread, start, end = span[:5]
        cursor = max(start, lo)
        stop = min(end, hi)
        for child in sorted(children.get(span_id, ()), key=lambda s: s[3]):
            if child[3] > cursor:
                pieces[thread].append((cursor, min(child[3], stop), name))
            cursor = max(cursor, child[4])
        if stop > cursor:
            pieces[thread].append((cursor, stop, name))
    return pieces


def partition(
    spans: List[tuple], lo: float, hi: float, main_thread: int
) -> Tuple[Dict[str, float], float]:
    """Self seconds per span name inside ``[lo, hi]``, and the remainder."""
    pieces = _self_segments(spans, lo, hi)
    order = sorted(pieces, key=lambda thread: (thread == main_thread, thread))
    credit: Dict[str, float] = defaultdict(float)
    covered: List[Interval] = []
    for thread in order:
        segments = [piece for piece in pieces[thread] if piece[1] > piece[0]]
        starts = [interval[0] for interval in covered]
        for start, end, name in segments:
            credit[name] += (end - start) - _overlap(start, end, covered, starts)
        covered = _union(covered + [(start, end) for start, end, _ in segments])
    attributed = sum(end - start for start, end in covered)
    return dict(credit), (hi - lo) - attributed


# ----------------------------------------------------------------------
# Ledger rows
# ----------------------------------------------------------------------

#: Time rows of the timed phase: metric name -> layer it sums.
ROUND_TIMES = {
    "workflow.generate_s": "workflow.generate",
    "server.calendar_self_s": "server.calendar",
    "driver.step_self_s": "driver.step",
    "scheduler.advance_s": "scheduler.advance",
    "estimate_s": "estimate",
    "kernel_cache.get_s": "kernel_cache.get",
    "compile_s": "compile",
    "poll_s": "poll",
    "binning_s": "binning",
    "predicate_s": "predicate",
    "groundtruth_s": "groundtruth",
    "digest_s": "digest",
    "metrics_s": "metrics",
    "spool_s": "spool",
    "runtime.cell_self_s": "runtime.cell",
    "net.encode_s": "net.encode",
    "net.decode_s": "net.decode",
    "net.client_wait_s": "net.client_wait",
}

#: Time rows of set-up: metric name -> layer it sums.
SETUP_TIMES = {
    "data.seed_s": "data.seed",
    "data.fit_s": "data.fit",
    "data.scale_s": "data.scale",
    "data.profile_s": "data.profile",
}


def _share(metric: str) -> str:
    return metric[: -len("_s")] + "_share"


def _layer_of() -> Dict[str, str]:
    return {target.name: target.layer for target in TARGETS}


def _by_layer(seconds_by_name: Dict[str, float]) -> Dict[str, float]:
    layer_of = _layer_of()
    totals: Dict[str, float] = defaultdict(float)
    for name, seconds in seconds_by_name.items():
        totals[layer_of[name]] += seconds
    return totals


def setup_rows(spans: List[tuple], lo: float, hi: float, main_thread: int) -> Dict[str, float]:
    credit, _ = partition(spans, lo, hi, main_thread)
    layers = _by_layer(credit)
    return {metric: layers.get(layer, 0.0) for metric, layer in SETUP_TIMES.items()}


def round_rows(
    spans: List[tuple], lo: float, hi: float, main_thread: int
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """Self-time rows, call counts and summed amounts of one traced round."""
    credit, remainder = partition(spans, lo, hi, main_thread)
    layers = _by_layer(credit)
    wall = hi - lo
    rows: Dict[str, float] = {}
    for metric, layer in ROUND_TIMES.items():
        rows[metric] = layers.get(layer, 0.0)
        rows[_share(metric)] = rows[metric] / wall
    rows["unattributed_s"] = remainder
    rows["unattributed_share"] = remainder / wall
    calls: Dict[str, int] = defaultdict(int)
    amounts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if lo <= span[3] and span[4] <= hi:
            calls[span[1]] += 1
            amounts[span[1]] += span[6]
    return rows, dict(calls), dict(amounts)
