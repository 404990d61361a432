"""Session-server reporting: per-session tables and the load report.

Two renderings:

* :func:`render_session_table` — one row per served session (the §4.8
  summary metrics, scoped per session), printed by ``repro serve``;
* the ``repro bench-sessions`` **load report** — a sessions × engine
  sweep measuring how per-session quality and aggregate throughput
  evolve as more simulated users share the process (and, in shared
  mode, one engine). Cells persist through the runtime
  :class:`~repro.runtime.store.ArtifactStore` under content keys, so
  re-running a sweep with ``--cache-dir`` restores finished cells
  exactly like ``repro run-matrix`` does.

Determinism split, mirroring :mod:`repro.runtime.report`: the CSV holds
only virtual-time quantities (stable bytes for a given configuration);
wall-clock measurements are diagnostics, printed but never persisted
into the deterministic columns.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.common.clock import perf_seconds
from repro.common.fingerprint import CACHE_SCHEMA_VERSION
from repro.common.fingerprint import fmt_cell as _fmt
from repro.server.manager import ArrivalProcess, OpenSystemManager, SessionManager
from repro.server.session import SessionResult
from repro.server.spool import RecordSpool, ServingAggregate
from repro.workflow.policy import interaction_mix
from repro.workflow.spec import WorkflowType

def _dash(value: float, spec: str) -> str:
    """Format a possibly-NaN float for a terminal table (NaN → em dash).

    The deterministic CSVs route every float through
    :func:`~repro.common.fingerprint.fmt_cell`; this is the matching
    guard for the human-readable renders, so an empty cell (a run with
    zero records, a cell whose every query violated its TR) prints
    ``—`` instead of a platform-spelled ``nan``.
    """
    if math.isnan(value):
        return "—"
    return format(value, spec)


#: Columns of the deterministic load-report CSV.
BENCH_COLUMNS = (
    "engine",
    "sessions",
    "mode",
    "workflows_per_session",
    "num_queries",
    "pct_tr_violated",
    "mean_missing_bins",
    "mean_latency_answered",
    "virtual_makespan",
    "queries_per_virtual_second",
)


# ----------------------------------------------------------------------
# Per-session table (repro serve)
# ----------------------------------------------------------------------

def session_makespan(result: SessionResult) -> float:
    """Virtual seconds from session start to its last evaluated deadline."""
    if not result.records:
        return 0.0
    return max(r.end_time for r in result.records)


def render_session_table(
    results: Sequence[SessionResult], title: str = "session server report"
) -> str:
    """One row per session: §4.8 summary metrics plus the virtual makespan."""
    header = (
        f"{'session':<12} {'workflows':>9} {'queries':>7} {'%TR viol':>9} "
        f"{'missing':>8} {'MRE med':>8} {'makespan':>9}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for result in results:
        if not result.records:
            # A churned-out session can depart before any deadline was
            # evaluated — nothing to summarize, but it still served.
            lines.append(
                f"{result.session_id:<12} {len(result.spec.workflows):>9} "
                f"{0:>7} {'—':>9} {'—':>8} {'—':>8} {0.0:>8.1f}s"
            )
            continue
        summary = result.summary()
        mre = "—" if math.isnan(summary.mre_median) else f"{summary.mre_median:.3f}"
        lines.append(
            f"{result.session_id:<12} {len(result.spec.workflows):>9} "
            f"{summary.num_queries:>7} {summary.pct_tr_violated:>8.1f}% "
            f"{summary.mean_missing_bins:>8.3f} {mre:>8} "
            f"{session_makespan(result):>8.1f}s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live --follow output (repro serve)
# ----------------------------------------------------------------------

#: Session count at or above which ``--follow`` switches from a line per
#: evaluated query to periodic aggregate lines. A population-scale run
#: (10⁵ sessions) evaluates millions of deadlines; per-query output
#: would dominate the run's wall time and scroll the terminal useless.
FOLLOW_AGGREGATE_THRESHOLD = 1000


class FollowPrinter:
    """Rate-limited live output for ``repro serve --follow``.

    Below :data:`FOLLOW_AGGREGATE_THRESHOLD` expected sessions this
    prints the familiar per-query line for every record, unchanged. At
    or above it, the printer switches to *aggregate mode*: at most one
    summary line per ``interval`` wall seconds (records seen, TR
    violations, latest virtual time), plus a final line on
    :meth:`close` so short runs still show their totals.

    ``clock`` and ``out`` are injectable for tests; the default clock is
    :func:`repro.common.clock.perf_seconds` (swappable process-wide via
    ``set_perf_source``) — rate limiting is a wall-clock courtesy to the
    terminal and never touches virtual time or report bytes.
    """

    def __init__(
        self,
        expected_sessions: int,
        *,
        threshold: int = FOLLOW_AGGREGATE_THRESHOLD,
        interval: float = 1.0,
        out=None,
        clock: Callable[[], float] = perf_seconds,
    ):
        self.aggregate_mode = expected_sessions >= threshold
        self.interval = interval
        self.records_seen = 0
        self.tr_violations = 0
        self.lines_emitted = 0
        self._latest_time = 0.0
        self._last_emit: Optional[float] = None
        self._out = out
        self._clock = clock

    def __call__(self, session_id: str, record) -> None:
        """The ``on_record`` subscriber: one call per evaluated deadline."""
        self.records_seen += 1
        if record.tr_violated:
            self.tr_violations += 1
        if record.end_time > self._latest_time:
            self._latest_time = record.end_time
        if not self.aggregate_mode:
            status = "VIOLATED" if record.tr_violated else "ok"
            self._emit(
                f"  [{record.end_time:8.2f}s] {session_id} "
                f"q{record.query_id} {record.viz_name}: {status}"
            )
            return
        now = self._clock()
        if self._last_emit is None or now - self._last_emit >= self.interval:
            self._last_emit = now
            self._emit(self._aggregate_line())

    def close(self) -> None:
        """Emit the final aggregate line (aggregate mode only)."""
        if self.aggregate_mode and self.records_seen:
            self._emit(self._aggregate_line())

    def _aggregate_line(self) -> str:
        return (
            f"  [follow] {self.records_seen} queries "
            f"({self.tr_violations} TR violated) "
            f"through t={self._latest_time:.1f}s virtual"
        )

    def _emit(self, line: str) -> None:
        self.lines_emitted += 1
        print(line, file=self._out)


# ----------------------------------------------------------------------
# Load report (repro bench-sessions)
# ----------------------------------------------------------------------

@dataclass
class SessionBenchCell:
    """One cell of the load report: (engine, session count, mode)."""

    engine: str
    sessions: int
    mode: str  # "isolated" | "shared"
    workflows_per_session: int
    num_queries: int
    pct_tr_violated: float
    mean_missing_bins: float
    #: Mean end-to-end latency of answered queries, virtual seconds.
    mean_latency_answered: float
    #: Virtual time from serving start to the last evaluated deadline.
    virtual_makespan: float
    #: Wall seconds of the serving run that produced this cell — a
    #: diagnostic (never part of the deterministic CSV); cache-restored
    #: cells carry the original run's measurement.
    wall_seconds: float = 0.0
    from_cache: bool = False

    @property
    def queries_per_virtual_second(self) -> float:
        if self.virtual_makespan <= 0:
            return float("nan")
        return self.num_queries / self.virtual_makespan

    def payload(self) -> dict:
        """The persistable (deterministic + diagnostic) cell content."""
        return {
            "engine": self.engine,
            "sessions": self.sessions,
            "mode": self.mode,
            "workflows_per_session": self.workflows_per_session,
            "num_queries": self.num_queries,
            "pct_tr_violated": self.pct_tr_violated,
            "mean_missing_bins": self.mean_missing_bins,
            "mean_latency_answered": self.mean_latency_answered,
            "virtual_makespan": self.virtual_makespan,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict, from_cache: bool = False) -> "SessionBenchCell":
        return cls(from_cache=from_cache, **payload)


def bench_cell_key(
    settings,
    engine: str,
    sessions: int,
    mode: str,
    per_session: int,
    workflow_type: WorkflowType,
) -> tuple:
    """Artifact-store key of one load-report cell.

    Everything the cell's deterministic output depends on goes in; wall
    time and machine identity stay out, exactly like
    :meth:`~repro.runtime.spec.RunSpec.fingerprint`.
    """
    return (
        "session-bench",
        CACHE_SCHEMA_VERSION,
        settings.to_dict(),
        engine,
        sessions,
        mode,
        per_session,
        workflow_type.value,
    )


def _cell_from_aggregate(
    engine: str,
    sessions: int,
    mode: str,
    per_session: int,
    aggregate: ServingAggregate,
    wall_seconds: float,
) -> SessionBenchCell:
    """Build a load-report cell from a :class:`ServingAggregate`.

    Retained runs fold their results after the run
    (:meth:`ServingAggregate.from_results`, grouped by session);
    incremental runs fold live, in record-arrival order. Counts and
    maxima agree exactly, but the float means can differ in the last
    ulp, so incremental cells never enter the artifact store (the
    cache stays byte-pure).
    """
    return SessionBenchCell(
        engine=engine,
        sessions=sessions,
        mode=mode,
        workflows_per_session=per_session,
        num_queries=aggregate.num_queries,
        pct_tr_violated=aggregate.pct_tr_violated,
        mean_missing_bins=aggregate.mean_missing_bins,
        mean_latency_answered=aggregate.mean_latency_answered,
        virtual_makespan=aggregate.virtual_makespan,
        wall_seconds=wall_seconds,
    )


def run_session_bench(
    ctx,
    engines: Sequence[str],
    session_counts: Sequence[int],
    *,
    per_session: int = 2,
    workflow_type: WorkflowType = WorkflowType.MIXED,
    modes: Sequence[str] = ("isolated", "shared"),
    incremental: bool = False,
    store=None,
    reuse_results: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> List[SessionBenchCell]:
    """Run the sessions × engine sweep; cells restore from ``store``.

    ``incremental=True`` folds each cell through a
    :class:`~repro.server.spool.ServingAggregate` instead of retaining
    every record — memory stays O(active sessions) per cell, which is
    what makes population-scale sweeps feasible. Integer columns match
    the retained path exactly; float means can differ in the last ulp
    (fold order), so incremental cells bypass the artifact store.
    """
    unknown_modes = [mode for mode in modes if mode not in ("isolated", "shared")]
    if unknown_modes:
        # Fail before any cell runs: a typo must not cost a sweep.
        raise ValueError(
            f"unknown serving mode(s) {unknown_modes!r} "
            f"(choose from: isolated, shared)"
        )
    cells: List[SessionBenchCell] = []
    for engine_name in engines:
        for sessions in session_counts:
            for mode in modes:
                key = bench_cell_key(
                    ctx.settings, engine_name, sessions, mode, per_session,
                    workflow_type,
                )
                if store is not None and reuse_results and not incremental:
                    payload = store.get(key)
                    if payload is not None:
                        cells.append(
                            SessionBenchCell.from_payload(payload, from_cache=True)
                        )
                        if progress:
                            progress(
                                f"[cache] {engine_name} ×{sessions} {mode}"
                            )
                        continue
                manager = SessionManager.for_engine(
                    ctx,
                    engine_name,
                    sessions,
                    per_session=per_session,
                    workflow_type=workflow_type,
                    share_engine=(mode == "shared"),
                    spool=RecordSpool() if incremental else None,
                )
                results = manager.run()
                aggregate = manager.aggregate or ServingAggregate.from_results(
                    results
                )
                cell = _cell_from_aggregate(
                    engine_name, sessions, mode, per_session, aggregate,
                    manager.wall_seconds,
                )
                if store is not None and not incremental:
                    store.put(key, cell.payload())
                cells.append(cell)
                if progress:
                    progress(
                        f"[ran {manager.wall_seconds:6.2f}s] "
                        f"{engine_name} ×{sessions} {mode}"
                    )
    return cells


def bench_rows(cells: Sequence[SessionBenchCell]) -> List[List[object]]:
    """Deterministic CSV rows (no wall-clock columns), in sweep order."""
    return [
        [
            cell.engine,
            cell.sessions,
            cell.mode,
            cell.workflows_per_session,
            cell.num_queries,
            _fmt(cell.pct_tr_violated),
            _fmt(cell.mean_missing_bins),
            _fmt(cell.mean_latency_answered),
            _fmt(cell.virtual_makespan),
            _fmt(cell.queries_per_virtual_second),
        ]
        for cell in cells
    ]


def write_session_bench_csv(
    path: Union[str, Path, io.TextIOBase], cells: Sequence[SessionBenchCell]
) -> None:
    """Write the load report CSV (stable bytes for a configuration)."""
    if isinstance(path, (str, Path)):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write(handle, cells)
    else:
        _write(path, cells)


def _write(handle, cells: Sequence[SessionBenchCell]) -> None:
    writer = csv.writer(handle)
    writer.writerow(BENCH_COLUMNS)
    for row in bench_rows(cells):
        writer.writerow(row)


def session_bench_csv_text(cells: Sequence[SessionBenchCell]) -> str:
    """The load report CSV as a string (byte-identity comparisons)."""
    buffer = io.StringIO()
    _write(buffer, cells)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Adaptive/churn report (repro bench-adaptive)
# ----------------------------------------------------------------------

#: Interaction kinds reported as mix columns, in CSV order.
MIX_KINDS = ("create_viz", "set_filter", "select_bins", "link", "discard_viz")

#: Columns of the deterministic adaptive-report CSV.
ADAPTIVE_COLUMNS = (
    "engine",
    "policy",
    "sessions",
    "churn",
    "workflows_per_session",
    "sessions_served",
    "sessions_departed",
    "num_queries",
    "pct_tr_violated",
    "mean_latency_answered",
    "virtual_makespan",
) + tuple(f"mix_{kind}" for kind in MIX_KINDS)


@dataclass
class AdaptiveBenchCell:
    """One cell of the adaptive report: (policy, session count, churn)."""

    engine: str
    policy: str
    sessions: int
    churn: str  # "closed" | "open"
    workflows_per_session: int
    #: Sessions that actually ran (open cells serve what the Poisson
    #: schedule yields within the horizon, capped at ``sessions``).
    sessions_served: int
    #: Sessions that left mid-run, abandoning in-flight queries.
    sessions_departed: int
    num_queries: int
    pct_tr_violated: float
    mean_latency_answered: float
    virtual_makespan: float
    #: Fraction of fired interactions per kind — the behavioral
    #: fingerprint that separates adaptive policies from replay.
    mix: dict
    wall_seconds: float = 0.0
    from_cache: bool = False

    def payload(self) -> dict:
        data = {k: v for k, v in sorted(self.__dict__.items())
                if k != "from_cache"}
        return data

    @classmethod
    def from_payload(cls, payload: dict, from_cache: bool = False) -> "AdaptiveBenchCell":
        return cls(from_cache=from_cache, **payload)


def adaptive_cell_key(
    settings,
    engine: str,
    policy: str,
    sessions: int,
    churn: str,
    per_session: int,
    workflow_type: WorkflowType,
    arrival_rate: float,
    horizon: float,
    residence: Optional[float],
    share_engine: bool,
) -> tuple:
    """Artifact-store key of one adaptive-report cell (content-addressed).

    Closed cells never consult the arrival process, so its parameters are
    normalized out of their keys — tuning ``--arrivals``/``--residence``
    must not invalidate cached closed-system sweeps.
    """
    if churn == "closed":
        arrival_rate = horizon = residence = None
    return (
        "adaptive-bench",
        CACHE_SCHEMA_VERSION,
        settings.to_dict(),
        engine,
        policy,
        sessions,
        churn,
        per_session,
        workflow_type.value,
        arrival_rate,
        horizon,
        residence,
        share_engine,
    )


def _adaptive_cell_from_aggregate(
    engine: str,
    policy: str,
    sessions: int,
    churn: str,
    per_session: int,
    aggregate: ServingAggregate,
    wall_seconds: float,
) -> AdaptiveBenchCell:
    """Build an adaptive-report cell from a :class:`ServingAggregate`.

    Same contract as :func:`_cell_from_aggregate`.
    """
    return AdaptiveBenchCell(
        engine=engine,
        policy=policy,
        sessions=sessions,
        churn=churn,
        workflows_per_session=per_session,
        sessions_served=aggregate.sessions_served,
        sessions_departed=aggregate.sessions_departed,
        num_queries=aggregate.num_queries,
        pct_tr_violated=aggregate.pct_tr_violated,
        mean_latency_answered=aggregate.mean_latency_answered,
        virtual_makespan=aggregate.virtual_makespan,
        mix=interaction_mix(aggregate.interaction_counts),
        wall_seconds=wall_seconds,
    )


def run_adaptive_bench(
    ctx,
    engine: str,
    policies: Sequence[str],
    session_counts: Sequence[int],
    *,
    per_session: int = 1,
    workflow_type: WorkflowType = WorkflowType.MIXED,
    churn_modes: Sequence[str] = ("closed", "open"),
    arrival_rate: float = 0.1,
    horizon: float = 60.0,
    residence: Optional[float] = 30.0,
    share_engine: bool = False,
    incremental: bool = False,
    store=None,
    reuse_results: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> List[AdaptiveBenchCell]:
    """Run the sessions × policy × churn sweep; cells restore from ``store``.

    ``closed`` cells serve exactly ``sessions`` concurrent users from
    time zero to workload completion; ``open`` cells draw a Poisson
    arrival schedule (``arrival_rate``/``horizon``/``residence``, capped
    at ``sessions``) and let users churn mid-run. Every cell's CSV row is
    deterministic, so cached restores are byte-identical to fresh runs.

    ``incremental=True`` aggregates each cell without retaining records
    (see :func:`run_session_bench`); such cells bypass the store.
    """
    unknown = [mode for mode in churn_modes if mode not in ("closed", "open")]
    if unknown:
        raise ValueError(
            f"unknown churn mode(s) {unknown!r} (choose from: closed, open)"
        )
    if "open" in churn_modes:
        # Validate the arrival parameters before any cell runs — a bad
        # rate must not surface halfway through an expensive sweep.
        ArrivalProcess(
            arrival_rate, horizon,
            seed=ctx.settings.seed, mean_residence=residence, max_sessions=1,
        )
    cells: List[AdaptiveBenchCell] = []
    for policy in policies:
        for sessions in session_counts:
            for churn in churn_modes:
                key = adaptive_cell_key(
                    ctx.settings, engine, policy, sessions, churn,
                    per_session, workflow_type, arrival_rate, horizon,
                    residence, share_engine,
                )
                if store is not None and reuse_results and not incremental:
                    payload = store.get(key)
                    if payload is not None:
                        cells.append(
                            AdaptiveBenchCell.from_payload(payload, from_cache=True)
                        )
                        if progress:
                            progress(f"[cache] {policy} ×{sessions} {churn}")
                        continue
                spool = RecordSpool() if incremental else None
                if churn == "closed":
                    manager = SessionManager.for_engine(
                        ctx, engine, sessions,
                        per_session=per_session,
                        workflow_type=workflow_type,
                        share_engine=share_engine,
                        policy=None if policy == "scripted" else policy,
                        spool=spool,
                    )
                else:
                    arrivals = ArrivalProcess(
                        arrival_rate, horizon,
                        seed=ctx.settings.seed,
                        mean_residence=residence,
                        max_sessions=sessions,
                    )
                    manager = OpenSystemManager.for_engine(
                        ctx, engine, arrivals,
                        policy=None if policy == "scripted" else policy,
                        per_session=per_session,
                        workflow_type=workflow_type,
                        share_engine=share_engine,
                        spool=spool,
                    )
                results = manager.run()
                wall = manager.wall_seconds
                aggregate = manager.aggregate or ServingAggregate.from_results(
                    results
                )
                cell = _adaptive_cell_from_aggregate(
                    engine, policy, sessions, churn, per_session, aggregate,
                    wall,
                )
                if store is not None and not incremental:
                    store.put(key, cell.payload())
                cells.append(cell)
                if progress:
                    progress(f"[ran {wall:6.2f}s] {policy} ×{sessions} {churn}")
    return cells


def adaptive_rows(cells: Sequence[AdaptiveBenchCell]) -> List[List[object]]:
    """Deterministic CSV rows (no wall-clock columns), in sweep order."""
    return [
        [
            cell.engine,
            cell.policy,
            cell.sessions,
            cell.churn,
            cell.workflows_per_session,
            cell.sessions_served,
            cell.sessions_departed,
            cell.num_queries,
            _fmt(cell.pct_tr_violated),
            _fmt(cell.mean_latency_answered),
            _fmt(cell.virtual_makespan),
        ]
        + [_fmt(cell.mix.get(kind, 0.0)) for kind in MIX_KINDS]
        for cell in cells
    ]


def write_adaptive_bench_csv(
    path: Union[str, Path, io.TextIOBase], cells: Sequence[AdaptiveBenchCell]
) -> None:
    """Write the adaptive report CSV (stable bytes for a configuration)."""
    if isinstance(path, (str, Path)):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_adaptive(handle, cells)
    else:
        _write_adaptive(path, cells)


def _write_adaptive(handle, cells: Sequence[AdaptiveBenchCell]) -> None:
    writer = csv.writer(handle)
    writer.writerow(ADAPTIVE_COLUMNS)
    for row in adaptive_rows(cells):
        writer.writerow(row)


def adaptive_bench_csv_text(cells: Sequence[AdaptiveBenchCell]) -> str:
    """The adaptive report CSV as a string (byte-identity comparisons)."""
    buffer = io.StringIO()
    _write_adaptive(buffer, cells)
    return buffer.getvalue()


def render_adaptive_bench(
    cells: Sequence[AdaptiveBenchCell], title: str = "adaptive session report"
) -> str:
    """Plain-text sessions × policy × churn table for terminal output."""
    header = (
        f"{'policy':<12} {'sessions':>8} {'churn':<7} {'served':>6} "
        f"{'left':>5} {'queries':>7} {'%TR viol':>9} {'filter%':>8} "
        f"{'select%':>8} {'wall':>7} {'cached':>6}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for cell in cells:
        lines.append(
            f"{cell.policy:<12} {cell.sessions:>8} {cell.churn:<7} "
            f"{cell.sessions_served:>6} {cell.sessions_departed:>5} "
            f"{cell.num_queries:>7} {_dash(cell.pct_tr_violated, '8.1f'):>8}% "
            f"{100 * cell.mix.get('set_filter', 0.0):>7.1f}% "
            f"{100 * cell.mix.get('select_bins', 0.0):>7.1f}% "
            f"{cell.wall_seconds:>6.2f}s {'yes' if cell.from_cache else 'no':>6}"
        )
    return "\n".join(lines)


def render_session_bench(
    cells: Sequence[SessionBenchCell], title: str = "session load report"
) -> str:
    """Plain-text sessions × engine table for terminal output."""
    header = (
        f"{'engine':<14} {'sessions':>8} {'mode':<9} {'queries':>7} "
        f"{'%TR viol':>9} {'latency':>8} {'q/vs':>7} {'wall':>7} {'cached':>6}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for cell in cells:
        latency = (
            "—"
            if math.isnan(cell.mean_latency_answered)
            else f"{cell.mean_latency_answered:.2f}s"
        )
        lines.append(
            f"{cell.engine:<14} {cell.sessions:>8} {cell.mode:<9} "
            f"{cell.num_queries:>7} {_dash(cell.pct_tr_violated, '8.1f'):>8}% "
            f"{latency:>8} {_dash(cell.queries_per_virtual_second, '7.2f'):>7} "
            f"{cell.wall_seconds:>6.2f}s {'yes' if cell.from_cache else 'no':>6}"
        )
    return "\n".join(lines)
