"""Constant-memory record handling for population-scale serving (§2.2).

The serving stack's default bookkeeping keeps every evaluated
:class:`~repro.bench.driver.QueryRecord` in memory (per-session
``SessionStream.records``) so per-session detailed reports can be
rendered byte-for-byte after the run. That is the right trade for tens
of sessions and the wrong one for 10⁵: an open-system run at population
scale (ROADMAP: "100k+ concurrent sessions in one process") must hold
memory proportional to the *active* population, never the total one.

This module holds the two pieces that make that possible:

* :class:`RecordSpool` — a streaming record sink. Each record is
  serialized the instant its deadline is evaluated and appended to a
  JSONL spill file (one canonical-JSON object per line, the same
  interchange discipline as :mod:`repro.obs.sink`), then dropped from
  memory. ``path=None`` counts records without writing anywhere — the
  aggregate-only mode the scale benchmark uses.
* :class:`ServingAggregate` — the incremental aggregation of a serving
  run: every quantity the load reports
  (:mod:`repro.server.report`) derive from a full record list is folded
  one record at a time — counts and maxima exactly, float sums in
  record-arrival order — so ``repro bench-sessions`` /
  ``bench-adaptive`` cells and the ``repro serve`` aggregate report are
  produced without ever materializing all sessions.

Both are deterministic: a spill file's bytes and an aggregate's derived
metrics are pure functions of the run configuration, because records
arrive in global virtual-time order (the scheduler's grant order) and
serialization is canonical JSON.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.common.errors import BenchmarkError
from repro.common.fingerprint import canonical_json
from repro.obs.timeseries import get_timeseries


def _record_to_dict(record) -> dict:
    # Lazy import: repro.net pulls in repro.server at package import
    # time, so a module-level import here would be circular.
    from repro.net.protocol import record_to_dict

    return record_to_dict(record)


class RecordSpool:
    """Stream per-session query records to a JSONL spill file.

    One line per record::

        {"record": {...Table-1 row...}, "session": "session-17"}

    written in binary mode (no platform newline translation), in the
    exact order deadlines were evaluated — the global virtual-time
    order. With ``path=None`` the spool only counts: records flow
    through attached aggregates and are then dropped, which is the
    cheapest constant-memory configuration.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self.count = 0
        self._closed = False
        self._handle = open(self.path, "wb") if self.path is not None else None

    def append(self, session_id: str, record) -> None:
        """Spill one record; called from the session's metric stream."""
        if self._closed:
            raise BenchmarkError(f"record spool {self.path} is closed")
        if self._handle is not None:
            line = canonical_json(
                {"record": _record_to_dict(record), "session": session_id}
            )
            self._handle.write(line.encode("utf-8"))
            self._handle.write(b"\n")
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    def __enter__(self) -> "RecordSpool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_spool(path: Union[str, Path]) -> Iterator[Tuple[str, object]]:
    """Stream ``(session_id, QueryRecord)`` pairs back out of a spill file.

    The inverse of :meth:`RecordSpool.append`: yields records one at a
    time in spill order, never holding the whole file. Post-hoc analysis
    of a population-scale run (per-session slicing, re-aggregation)
    starts here.
    """
    import json

    from repro.net.protocol import record_from_dict

    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
                yield str(entry["session"]), record_from_dict(entry["record"])
            except (ValueError, KeyError, TypeError) as exc:
                raise BenchmarkError(
                    f"{path}:{lineno}: not a record-spool line: {exc}"
                )


class ServingAggregate:
    """Incremental, constant-size aggregation of one serving run.

    Folds records and session completions as they happen; exposes the
    derived metrics the server reports are built from. Counts, integer
    sums and maxima are exact regardless of fold order; the float
    latency sum folds in record-arrival order (global virtual-time
    order), which is deterministic for a fixed configuration.
    """

    def __init__(self) -> None:
        self.num_queries = 0
        self.tr_violations = 0
        self.missing_bins_sum = 0.0
        self.latency_sum = 0.0
        self.answered = 0
        #: Latest evaluated deadline (virtual seconds) — the run's makespan.
        self.virtual_makespan = 0.0
        self.sessions_served = 0
        self.sessions_departed = 0
        self.total_steps = 0
        self.interaction_counts: Dict[str, int] = {}
        #: Concurrency accounting: sessions currently live, and the
        #: high-water mark — the "O(active sessions)" the memory model
        #: is bounded by.
        self.active_sessions = 0
        self.peak_active = 0

    @classmethod
    def from_results(cls, results) -> "ServingAggregate":
        """Fold retained session results after the run.

        Session by session, record by record — the order a retained
        run's per-session record lists sum in. Side-effect free: unlike
        the live hooks, it never feeds the windowed series a second
        time. The concurrency fields (``active_sessions``,
        ``peak_active``) stay 0; a post-run fold cannot observe them.
        """
        aggregate = cls()
        for result in results:
            for record in result.records:
                aggregate.fold_record(record)
            aggregate.fold_session(
                result.steps,
                result.interaction_counts,
                departed=result.departed_at is not None,
            )
        return aggregate

    # -- folding hooks --------------------------------------------------
    def observe_record(self, session_id: str, record) -> None:
        """Fold one evaluated record (metric-stream subscriber)."""
        self.fold_record(record)
        series = get_timeseries()
        if series.enabled:
            # In spool mode the aggregate is the record fan-out point, so
            # the windowed series (repro.obs.timeseries) folds here too.
            series.observe_record(
                record.end_time,
                record.tr_violated,
                latency=record.end_time - record.start_time,
            )

    def fold_record(self, record) -> None:
        """Fold one record into the totals (no telemetry side effects)."""
        self.num_queries += 1
        if record.tr_violated:
            self.tr_violations += 1
        else:
            self.latency_sum += record.end_time - record.start_time
            self.answered += 1
        self.missing_bins_sum += record.metrics.missing_bins
        if record.end_time > self.virtual_makespan:
            self.virtual_makespan = record.end_time

    def session_started(self) -> None:
        self.active_sessions += 1
        if self.active_sessions > self.peak_active:
            self.peak_active = self.active_sessions

    def session_finished(
        self,
        steps: int,
        interaction_counts: Dict[str, int],
        departed: bool = False,
    ) -> None:
        """Fold a finished session's footprint, then let it be freed."""
        self.active_sessions -= 1
        self.fold_session(steps, interaction_counts, departed)

    def fold_session(
        self,
        steps: int,
        interaction_counts: Dict[str, int],
        departed: bool = False,
    ) -> None:
        """Fold one session's footprint into the totals."""
        self.sessions_served += 1
        if departed:
            self.sessions_departed += 1
        self.total_steps += steps
        for kind, count in sorted(interaction_counts.items()):
            self.interaction_counts[kind] = (
                self.interaction_counts.get(kind, 0) + count
            )

    # -- derived metrics (the report columns) ---------------------------
    @property
    def pct_tr_violated(self) -> float:
        if self.num_queries == 0:
            return float("nan")
        return 100.0 * self.tr_violations / self.num_queries

    @property
    def mean_missing_bins(self) -> float:
        if self.num_queries == 0:
            return float("nan")
        return self.missing_bins_sum / self.num_queries

    @property
    def mean_latency_answered(self) -> float:
        if self.answered == 0:
            return float("nan")
        return self.latency_sum / self.answered

    @property
    def queries_per_virtual_second(self) -> float:
        if self.virtual_makespan <= 0:
            return float("nan")
        return self.num_queries / self.virtual_makespan

    @property
    def total_interactions(self) -> int:
        return sum(self.interaction_counts.values())


def render_aggregate_report(
    aggregate: ServingAggregate,
    title: str = "aggregate serving report",
    spill_path: Optional[Union[str, Path]] = None,
) -> str:
    """The ``repro serve`` report for spooled (constant-memory) runs.

    Replaces the per-session table — 10⁵ rows would be noise — with the
    run-level §4.8 metrics. Every number is derived from virtual time
    and counts, so the rendering is deterministic.
    """
    pct = aggregate.pct_tr_violated
    latency = aggregate.mean_latency_answered
    lines = [
        title,
        "=" * len(title),
        f"sessions served      : {aggregate.sessions_served}"
        + (
            f" ({aggregate.sessions_departed} departed mid-run)"
            if aggregate.sessions_departed
            else ""
        ),
        f"peak active sessions : {aggregate.peak_active}",
        f"queries evaluated    : {aggregate.num_queries}",
        f"%TR violated         : "
        + ("—" if math.isnan(pct) else f"{pct:.1f}%"),
        f"mean latency (ans.)  : "
        + ("—" if math.isnan(latency) else f"{latency:.3f}s"),
        f"virtual makespan     : {aggregate.virtual_makespan:.1f}s",
        f"driver activity      : {aggregate.total_steps} steps, "
        f"{aggregate.total_interactions} interactions",
    ]
    if spill_path is not None:
        lines.append(f"records spilled to   : {spill_path}")
    return "\n".join(lines)
