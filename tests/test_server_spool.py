"""Constant-memory serving: record spooling, incremental aggregation,
rate-limited --follow output (docs/server.md's population-scale section).

The contract under test: a spooled run produces *the same information*
as a retained run — every record lands in the spill file in global
virtual-time order, the incremental aggregate matches what a full record
list would yield — while the manager returns no results and per-session
state is freed as sessions retire.
"""

import io

import pytest

from repro.common.errors import BenchmarkError
from repro.server import (
    ArrivalProcess,
    FollowPrinter,
    OpenSystemManager,
    RecordSpool,
    ServingAggregate,
    SessionManager,
    iter_spool,
    render_aggregate_report,
    run_adaptive_bench,
    run_session_bench,
)
from repro.server.manager import ArrivalProcess as _AP
from repro.server.session import SessionStream


def _record_keys(results):
    return [
        (result.session_id, record.query_id, record.end_time)
        for result in results
        for record in result.records
    ]


def _open_manager(server_ctx, **kwargs):
    arrivals = ArrivalProcess(
        0.2, 40.0, seed=server_ctx.settings.seed,
        mean_residence=25.0, max_sessions=4,
    )
    return OpenSystemManager.for_engine(
        server_ctx, "idea-sim", arrivals, policy="markov", **kwargs
    )


class TestRecordSpool:
    def test_spooled_closed_run_matches_retained(self, server_ctx, tmp_path):
        reference = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1
        ).run()
        path = tmp_path / "records.jsonl"
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1,
            spool=RecordSpool(path),
        )
        assert manager.run() == []  # nothing retained
        manager.spool.close()
        spooled = [
            (sid, rec.query_id, rec.end_time)
            for sid, rec in iter_spool(path)
        ]
        retained = [
            (r.session_id, rec.query_id, rec.end_time)
            for r in reference for rec in r.records
        ]
        # Same multiset of records; spool order is global virtual-time
        # order (the grant order), retained order groups by session.
        assert sorted(spooled) == sorted(retained)
        assert manager.spool.count == len(retained)
        times = [t for _, _, t in spooled]
        assert times == sorted(times)

    def test_spill_bytes_deterministic(self, server_ctx, tmp_path):
        def run(path):
            manager = _open_manager(server_ctx, spool=RecordSpool(path))
            manager.run()
            manager.spool.close()
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_pathless_spool_counts_only(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, spool=RecordSpool()
        )
        manager.run()
        assert manager.spool.count > 0
        assert manager.spool.path is None

    def test_closed_spool_rejects_appends(self, tmp_path):
        spool = RecordSpool(tmp_path / "s.jsonl")
        spool.close()
        with pytest.raises(BenchmarkError):
            spool.append("session-0", object())

    def test_iter_spool_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"not": "a record line"}\n')
        with pytest.raises(BenchmarkError):
            list(iter_spool(path))


class TestServingAggregate:
    def test_open_system_aggregate_matches_retained(self, server_ctx):
        reference = _open_manager(server_ctx)
        results = reference.run()
        manager = _open_manager(server_ctx, spool=RecordSpool())
        manager.run()
        agg = manager.aggregate
        records = [rec for r in results for rec in r.records]
        assert agg.num_queries == len(records)
        assert agg.tr_violations == sum(r.tr_violated for r in records)
        assert agg.sessions_served == len(results)
        assert agg.sessions_departed == sum(
            r.departed_at is not None for r in results
        )
        assert agg.total_steps == sum(r.steps for r in results)
        counts = {}
        for result in results:
            for kind, count in result.interaction_counts.items():
                counts[kind] = counts.get(kind, 0) + count
        assert agg.interaction_counts == counts
        assert agg.virtual_makespan == max(r.end_time for r in records)
        assert agg.active_sessions == 0
        assert 1 <= agg.peak_active <= len(results)

    def test_streams_freed_as_sessions_retire(self, server_ctx):
        manager = _open_manager(server_ctx, spool=RecordSpool())
        manager.run()
        assert manager.streams == {}

    @pytest.mark.parametrize("churn", ["closed", "open"])
    def test_blocking_shared_engine_keeps_unevaluated_handles(
        self, server_ctx, churn
    ):
        """A retiring session must not release a live session's handle.

        On a blocking engine a query can finish well before its
        deadline; the owning session still reads the handle when the
        deadline comes, so releasing it on another session's retirement
        would fail that evaluation.
        """
        def run(spool):
            if churn == "closed":
                manager = SessionManager.for_engine(
                    server_ctx, "monetdb-sim", 6, per_session=1,
                    share_engine=True, spool=spool,
                )
            else:
                manager = OpenSystemManager.for_engine(
                    server_ctx, "monetdb-sim",
                    ArrivalProcess(
                        1.0, 30.0, seed=server_ctx.settings.seed,
                        mean_residence=5.0, max_sessions=20,
                    ),
                    per_session=1, share_engine=True, spool=spool,
                )
            return manager, manager.run()

        spooled, _ = run(RecordSpool())
        _, results = run(None)
        records = [rec for r in results for rec in r.records]
        assert spooled.streams == {}
        assert spooled.aggregate.num_queries == len(records)
        assert spooled.aggregate.tr_violations == sum(
            r.tr_violated for r in records
        )

    def test_shared_engine_sheds_settled_state(self, server_ctx):
        spooled = _open_manager(
            server_ctx, spool=RecordSpool(), share_engine=True
        )
        spooled.run()
        retained = _open_manager(server_ctx, share_engine=True)
        retained.run()
        # Retained runs keep every handle for reporting; spooled runs
        # release settled handles/tasks as each session retires.
        assert len(spooled._shared_engine._handles) < len(
            retained._shared_engine._handles
        )
        assert spooled.aggregate.num_queries == sum(
            len(s.records) for s in retained.streams.values()
        )

    def test_empty_aggregate_renders(self):
        agg = ServingAggregate()
        text = render_aggregate_report(agg)
        assert "queries evaluated    : 0" in text
        assert "—" in text

    def test_render_mentions_spill_path(self):
        agg = ServingAggregate()
        text = render_aggregate_report(agg, spill_path="/tmp/x.jsonl")
        assert "/tmp/x.jsonl" in text


class TestSessionStreamRetention:
    def test_retain_false_drops_records_after_subscribers(self):
        stream = SessionStream("session-0", retain=False)
        seen = []
        stream.subscribe(lambda sid, rec: seen.append((sid, rec)))
        marker = object()
        stream.push(marker)
        assert seen == [("session-0", marker)]
        assert stream.records == []
        assert len(stream) == 0


class TestLazyArrivalSchedule:
    def test_iter_schedule_matches_schedule(self, server_ctx):
        def process():
            return _AP(
                0.3, 60.0, seed=7, mean_residence=20.0, max_sessions=50
            )

        assert list(process().iter_schedule()) == process().schedule()


class TestIncrementalBench:
    def test_session_cells_match_retained(self, server_ctx):
        kwargs = dict(per_session=1, modes=("isolated",))
        retained = run_session_bench(
            server_ctx, ["idea-sim"], [2], **kwargs
        )
        incremental = run_session_bench(
            server_ctx, ["idea-sim"], [2], incremental=True, **kwargs
        )
        for a, b in zip(retained, incremental):
            assert a.num_queries == b.num_queries
            assert a.pct_tr_violated == b.pct_tr_violated
            assert a.virtual_makespan == b.virtual_makespan
            assert a.mean_latency_answered == pytest.approx(
                b.mean_latency_answered, rel=1e-12
            )
            assert a.mean_missing_bins == pytest.approx(
                b.mean_missing_bins, rel=1e-12
            )

    def test_adaptive_cells_match_retained(self, server_ctx):
        kwargs = dict(
            per_session=1, churn_modes=("open",),
            arrival_rate=0.2, horizon=40.0, residence=25.0,
        )
        retained = run_adaptive_bench(
            server_ctx, "idea-sim", ["markov"], [3], **kwargs
        )
        incremental = run_adaptive_bench(
            server_ctx, "idea-sim", ["markov"], [3],
            incremental=True, **kwargs
        )
        for a, b in zip(retained, incremental):
            assert a.sessions_served == b.sessions_served
            assert a.sessions_departed == b.sessions_departed
            assert a.num_queries == b.num_queries
            assert a.mix == b.mix
            assert a.mean_latency_answered == pytest.approx(
                b.mean_latency_answered, rel=1e-12
            )

    def test_incremental_bypasses_store(self, server_ctx, tmp_path):
        from repro.runtime import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        run_session_bench(
            server_ctx, ["idea-sim"], [1], per_session=1,
            modes=("isolated",), incremental=True, store=store,
        )
        cells = run_session_bench(
            server_ctx, ["idea-sim"], [1], per_session=1,
            modes=("isolated",), store=store,
        )
        assert not any(cell.from_cache for cell in cells)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Record:
    def __init__(self, query_id, end_time, tr_violated=False):
        self.query_id = query_id
        self.end_time = end_time
        self.start_time = end_time - 1.0
        self.viz_name = f"viz_{query_id}"
        self.tr_violated = tr_violated


class TestFollowPrinter:
    def test_detail_mode_prints_every_record(self):
        out = io.StringIO()
        printer = FollowPrinter(2, out=out)
        printer("session-0", _Record(0, 3.0))
        printer("session-1", _Record(1, 4.0, tr_violated=True))
        printer.close()
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert "session-0 q0 viz_0: ok" in lines[0]
        assert "session-1 q1 viz_1: VIOLATED" in lines[1]

    def test_aggregate_mode_rate_limits(self):
        out = io.StringIO()
        clock = _FakeClock()
        printer = FollowPrinter(
            100, threshold=10, interval=1.0, out=out, clock=clock
        )
        assert printer.aggregate_mode
        for i in range(50):
            clock.now = i * 0.01  # 50 records inside half a second
            printer("session-0", _Record(i, float(i)))
        assert printer.lines_emitted == 1  # only the first record's line
        clock.now = 2.0
        printer("session-0", _Record(50, 50.0))
        assert printer.lines_emitted == 2
        printer.close()
        lines = out.getvalue().splitlines()
        assert lines[-1] == (
            "  [follow] 51 queries (0 TR violated) through t=50.0s virtual"
        )

    def test_aggregate_mode_counts_violations(self):
        out = io.StringIO()
        printer = FollowPrinter(
            100, threshold=10, out=out, clock=_FakeClock()
        )
        printer("s", _Record(0, 1.0, tr_violated=True))
        printer("s", _Record(1, 2.0))
        printer.close()
        assert printer.tr_violations == 1
        assert "(1 TR violated)" in out.getvalue().splitlines()[-1]

    def test_close_without_records_is_silent(self):
        out = io.StringIO()
        printer = FollowPrinter(100, threshold=10, out=out)
        printer.close()
        assert out.getvalue() == ""
