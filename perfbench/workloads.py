"""The four benchmark workloads, each loading a different layer of ``repro``.

A workload is built once per interpreter (its set-up: imports, data,
servers) and then runs *rounds*. Round ``k`` serves input ``k`` of the
workload's ``inputs`` seeded inputs — sessions, arrivals and workflows
drawn from ``round_seed(seed, k)`` over the fixed data set —
so a run averages over many small inputs instead of depending on one
draw. A timed run serves each input at least once. Every
round starts from fresh program state (new engines, a new ground-truth
oracle, an emptied kernel cache), so repeating an input repeats its work
and its output bytes. See ``README.md`` in this directory for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments import ExperimentContext, exp_overall, make_engine
from repro.common.clock import VirtualClock
from repro.common.config import DEFAULT_TIME_REQUIREMENTS, BenchmarkSettings, DataSize
from repro.common.rng import derive_seed
from repro.engines.kernel_cache import clear_kernel_cache, kernel_cache
from repro.net.client import fetch_scripted_session, records_csv_text, replay_workflow
from repro.net.server import ServerThread, TcpSessionServer
from repro.server import ArrivalProcess, OpenSystemManager, RecordSpool
from repro.server.manager import make_session, serial_baseline
from repro.workflow.graph import VizGraph
from repro.workflow.spec import WorkflowType

#: Arrival rate (sessions per virtual second) of both open-arrival workloads.
ARRIVAL_RATE = 50.0


#: Seed of the data set. The data stays fixed, as the paper's flights data
#: does, while ``--seed`` draws the sessions, arrivals and workflows: a
#: data set per seed moved ``paper_matrix`` throughput by ±10% between
#: seeds, which no number of inputs in a run averages away.
DATA_SEED = 42


def round_seed(seed: int, k: int) -> int:
    return derive_seed(seed, "round", k) % 2**31


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Round:
    """What one round produced, as seen from outside the program."""

    queries: int
    #: Wall milliseconds of each session (or matrix cell) of the round.
    session_ms: List[float]
    #: Sessions (matrix cells on ``paper_matrix``) the round attempted.
    attempted: int
    #: Deterministic output; the same input must give the same bytes.
    output: bytes
    #: Program counters read after the round (characterisation, cross-checks).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Invariants the round broke (each fails the whole round).
    problems: List[str] = field(default_factory=list)
    #: Per-session records kept for the post-run reference check.
    detail: Optional[list] = None


class Workload:
    """What ``worker.py`` drives: ``inputs`` rounds, a check, a close."""

    inputs: int

    def check(self, rounds: List[Round]) -> Tuple[int, List[str]]:
        """Sessions failed against a reference after the timed phase."""
        return 0, []

    def close(self) -> None:
        pass


class _RoundContext(ExperimentContext):
    """A context with its own seed, oracle and suites over set-up data."""

    def __init__(self, base: ExperimentContext, seed: int):
        super().__init__(base.settings.with_(seed=seed))
        self._base = base

    def table(self, size):
        return self._base.table(size)

    def dataset(self, size, normalized=False):
        return self._base.dataset(size, normalized)

    def profiles(self, size):
        return self._base.profiles(size)


def _counters(oracle, **extra) -> Dict[str, float]:
    stats = kernel_cache().stats()
    return {
        "kernel_hits": stats["hits"],
        "kernel_misses": stats["misses"],
        "kernel_capacity": stats["capacity"],
        "oracle_hits": oracle.hits,
        "oracle_misses": oracle.misses,
        **extra,
    }


class OpenArrivals(Workload):
    """``population`` and ``contention``: an open-arrival session population.

    Sessions arrive as a seeded Poisson stream, each runs one mixed
    workflow, and each leaves after an exponential residence — mid-workflow
    if its residence runs out. Records are spooled with ``RecordSpool(None)``
    (counted, never kept), so only the ``ServingAggregate`` folds survive.
    With ``shared=False`` every session gets its own ``idea-sim`` engine;
    with ``shared=True`` all of them contend on one engine's
    processor-sharing scheduler. A session's wall time runs from its
    admission to its last record.
    """

    def __init__(
        self, seed: int, *, inputs: int, sessions: int, residence: float, shared: bool
    ):
        self.seed = seed
        self.inputs = inputs
        self.sessions = sessions
        self.residence = residence
        self.shared = shared
        self.base = ExperimentContext(
            BenchmarkSettings(
                data_size=DataSize.S, scale=1_000_000, seed=DATA_SEED, time_requirement=1.0
            )
        )
        self.base.dataset(DataSize.S)
        self.base.profiles(DataSize.S)

    def run_round(self, k: int) -> Round:
        clear_kernel_cache()
        sub_seed = round_seed(self.seed, k)
        ctx = _RoundContext(self.base, sub_seed)
        settings = ctx.settings
        dataset = ctx.dataset(DataSize.S)
        oracle = ctx.oracle(DataSize.S)
        admitted: Dict[str, float] = {}
        last_record: Dict[str, float] = {}
        totals = {"generated": 0, "rows": 0, "records": 0}

        def session_factory(index: int):
            admitted[f"session-{index}"] = time.perf_counter()
            spec, policy = make_session(ctx, index, per_session=1)
            totals["generated"] += spec.num_interactions
            return spec, policy

        def on_record(session_id: str, record) -> None:
            last_record[session_id] = time.perf_counter()
            totals["rows"] += record.rows_processed
            totals["records"] += 1

        def engine():
            return make_engine("idea-sim", dataset, settings, VirtualClock())

        arrivals = ArrivalProcess(
            ARRIVAL_RATE,
            1.5 * self.sessions / ARRIVAL_RATE,
            seed=sub_seed,
            mean_residence=self.residence,
            max_sessions=self.sessions,
        )
        spool = RecordSpool(None)
        placement = {"engine": engine()} if self.shared else {"engine_factory": engine}
        manager = OpenSystemManager(
            oracle, settings, arrivals, session_factory,
            on_record=on_record, spool=spool, **placement,
        )
        manager.run()
        spool.close()
        agg = manager.aggregate
        session_ms = [
            1000.0 * (last_record[sid] - start)
            for sid, start in admitted.items()
            if sid in last_record
        ]
        output = repr((
            agg.num_queries, agg.tr_violations, agg.answered,
            agg.missing_bins_sum.hex(), agg.latency_sum.hex(),
            agg.virtual_makespan.hex(), agg.sessions_served,
            agg.sessions_departed, agg.total_steps, agg.peak_active,
            sorted(agg.interaction_counts.items()),
        )).encode()
        problems = []
        if agg.sessions_served != self.sessions:
            problems.append(f"served {agg.sessions_served} of {self.sessions} sessions")
        if not spool.count == totals["records"] == agg.num_queries:
            problems.append(
                f"spool counted {spool.count} and the stream {totals['records']} "
                f"records, the aggregate {agg.num_queries}"
            )
        if agg.total_steps != agg.num_queries + agg.total_interactions:
            problems.append("driver steps != queries + interactions fired")
        return Round(
            queries=agg.num_queries,
            session_ms=session_ms,
            attempted=self.sessions,
            output=output,
            counters=_counters(
                oracle,
                peak_active=agg.peak_active,
                turns=agg.total_steps,
                spool_count=spool.count,
                interactions_fired=agg.total_interactions,
                interactions_generated=totals["generated"],
                rows_processed=totals["rows"],
            ),
            problems=problems,
        )


def _expected_queries(workflow) -> int:
    """Queries a workflow submits, replayed through a shadow viz graph.

    Which queries the driver submits depends only on the interactions,
    never on the engine, so every engine × TR cell must produce exactly
    this many records.
    """
    graph = VizGraph()
    return sum(len(graph.apply(step).affected) for step in workflow.interactions)


class PaperMatrix(Workload):
    """``paper_matrix``: §5 Exp. 1, four engines × five TRs, serial executor.

    Each round is one ``exp_overall`` invocation for one TR — round ``k``
    takes TR ``k mod 5``, so every five rounds cover the whole matrix — at
    the paper's 500M virtual rows, materialized as 100k actual rows
    (scale 5000) so that a run covers many workflows. The round generates
    one mixed workflow and replays it on the four engines with a fresh
    oracle and an emptied kernel cache. A cell's wall time is taken
    between the executor's per-cell progress callbacks.
    """

    WORKFLOWS_PER_TYPE = 1
    inputs = 10 * len(DEFAULT_TIME_REQUIREMENTS)

    def __init__(self, seed: int):
        self.seed = seed
        self.base = ExperimentContext(
            BenchmarkSettings(data_size=DataSize.M, scale=5000, seed=DATA_SEED)
        )
        self.base.dataset(DataSize.M)
        self.base.profiles(DataSize.M)

    def run_round(self, k: int) -> Round:
        clear_kernel_cache()
        ctx = _RoundContext(self.base, round_seed(self.seed, k))
        ticks = [time.perf_counter()]
        ctx.runtime.progress = lambda line: ticks.append(time.perf_counter())
        tr = DEFAULT_TIME_REQUIREMENTS[k % len(DEFAULT_TIME_REQUIREMENTS)]
        results = exp_overall(
            ctx, time_requirements=(tr,), workflows_per_type=self.WORKFLOWS_PER_TYPE
        )
        cell_ms = [1000.0 * (b - a) for a, b in zip(ticks, ticks[1:])]
        workflows = ctx.workflows(WorkflowType.MIXED, self.WORKFLOWS_PER_TYPE)
        expected = sum(_expected_queries(workflow) for workflow in workflows)
        generated = sum(len(workflow.interactions) for workflow in workflows)
        problems = []
        records = rows = 0
        for (engine, tr), cell in sorted(results.records.items()):
            records += len(cell)
            rows += sum(record.rows_processed for record in cell)
            if len(cell) != expected:
                problems.append(f"{engine}/tr{tr}: {len(cell)} records, expected {expected}")
            if engine == "monetdb-sim":
                # The column store answers exactly or not at all. SMAPE, not
                # the relative error, because a zero true value leaves the
                # relative error undefined (NaN) even for an exact answer.
                inexact = [
                    r.query_id for r in cell
                    if not r.tr_violated and (
                        r.metrics.missing_bins != 0.0
                        or r.metrics.bins_delivered != r.metrics.bins_in_gt
                        or (r.metrics.bins_in_gt and r.metrics.smape != 0.0)
                    )
                ]
                if inexact:
                    problems.append(f"{engine}/tr{tr}: inexact answers {inexact[:5]}")
        output = "\n".join(
            repr((key, row)) for key, row in sorted(results.summaries.items())
        ).encode()
        return Round(
            queries=records,
            session_ms=cell_ms,
            attempted=len(results.records),
            output=output,
            counters=_counters(
                ctx.oracle(DataSize.M),
                peak_active=1,
                interactions_generated=generated,
                interactions_fired=generated * len(results.records),
                rows_processed=rows,
            ),
            problems=problems,
        )


class TcpReplay(Workload):
    """``tcp_replay``: one client thread, one loopback server, isolated engines.

    A closed loop: the client runs sessions one after another and waits
    for every reply. Even sessions replay a client-generated workflow
    interaction by interaction over the wire; odd sessions fetch a
    scripted session. Input ``k`` is the block of session indices
    ``k * SESSIONS`` onwards. A session's wall time runs from connect to
    records collected. After the timed phase every session's records are
    compared with the in-process ``serial_baseline`` of the same spec.
    """

    SESSIONS = 10
    inputs = 36

    def __init__(self, seed: int):
        base = ExperimentContext(
            BenchmarkSettings(
                data_size=DataSize.S, scale=50_000, seed=DATA_SEED, time_requirement=1.0
            )
        )
        base.dataset(DataSize.S)
        base.profiles(DataSize.S)
        self.ctx = _RoundContext(base, seed)
        self.oracle = self.ctx.oracle(DataSize.S)
        self._thread = ServerThread(TcpSessionServer(self.ctx, "idea-sim"))
        self.host, self.port = self._thread.__enter__()

    def run_round(self, k: int) -> Round:
        clear_kernel_cache()
        self.oracle.clear()
        session_ms: List[float] = []
        detail: List[tuple] = []
        for index in range(k * self.SESSIONS, (k + 1) * self.SESSIONS):
            if index % 2 == 0:
                spec, _ = make_session(self.ctx, index, per_session=1)
                start = time.perf_counter()
                _, records, _ = replay_workflow(self.host, self.port, spec.workflows[0])
            else:
                start = time.perf_counter()
                _, records, _ = fetch_scripted_session(
                    self.host, self.port, index, per_session=1
                )
            session_ms.append(1000.0 * (time.perf_counter() - start))
            detail.append((index, records))
        output = "\n".join(
            digest(records_csv_text(records).encode()) for _, records in detail
        ).encode()
        return Round(
            queries=sum(len(records) for _, records in detail),
            session_ms=session_ms,
            attempted=self.SESSIONS,
            output=output,
            counters=_counters(
                self.oracle,
                peak_active=1,
                rows_processed=sum(
                    r.rows_processed for _, records in detail for r in records
                ),
            ),
            detail=detail,
        )

    def check(self, rounds: List[Round]) -> Tuple[int, List[str]]:
        """Every session of every round against the serial in-process run."""
        served = sorted({index for r in rounds for index, _ in r.detail})
        specs = [make_session(self.ctx, index, per_session=1)[0] for index in served]
        expected = {
            index: result.csv_text()
            for index, result in zip(served, serial_baseline(self.ctx, "idea-sim", specs))
        }
        failed = 0
        problems: List[str] = []
        for r in rounds:
            for index, records in r.detail:
                if records_csv_text(records) != expected[index]:
                    failed += 1
                    problems.append(f"session {index} differs from its serial run")
        return failed, problems[:5]

    def close(self) -> None:
        self._thread.__exit__(None, None, None)


def build(name: str, seed: int):
    """Set up the named workload (everything before its timed phase)."""
    if name == "population":
        return OpenArrivals(seed, inputs=48, sessions=100, residence=2.0, shared=False)
    if name == "contention":
        return OpenArrivals(seed, inputs=16, sessions=100, residence=10.0, shared=True)
    if name == "paper_matrix":
        return PaperMatrix(seed)
    if name == "tcp_replay":
        return TcpReplay(seed)
    raise ValueError(f"unknown workload {name!r}")
