"""Byte pins on the single event-calendar serving loop.

Every serving configuration below once ran under two schedulers — the
event calendar and the legacy task-per-session timeline — and had to
produce identical per-session CSVs, ``departed_at`` lists and step
traces. The legacy timeline is gone; what it guarded is kept as sha256
pins of those three outputs, recorded while both schedulers still
agreed byte for byte. A pin moving means the calendar's grant order (or
anything downstream of it) changed.

Also here: a closed population is an open one whose sessions all arrive
at virtual time 0 and never depart (the invariant the merged loop rests
on), and the trace ring's bounded/opt-in behavior.
"""

import hashlib
import random

import pytest

from repro.server import ArrivalProcess, OpenSystemManager, SessionManager
from repro.server.manager import SessionArrival

#: ``config: (csv, departed_at, trace)`` sha256 digests (see _digests).
PINS = {
    "scripted-isolated": (
        "6b92f52bc0b17559db38117f3d95d376f19a8db76e324c5f00af7ce2f152d154",
        "b5848129e4ec6a5579ed8978bbbb50e9660cb676c4ddd56dc99e28b0db37bb21",
        "26eb762ca75befaf0b5c88e2efe9ec415c00f5769d992df0185ac9248becb6cf",
    ),
    "scripted-shared": (
        "88db3b91b6ab6666aa2bd14bc510858994447eeec16a0b7c683bb36b637ad629",
        "b5848129e4ec6a5579ed8978bbbb50e9660cb676c4ddd56dc99e28b0db37bb21",
        "26eb762ca75befaf0b5c88e2efe9ec415c00f5769d992df0185ac9248becb6cf",
    ),
    "markov-shared-monetdb": (
        "da01f38d424e104b029f35e8915744bbd8ba6d03eb8fa0e97fc51f2b33a4784b",
        "b5848129e4ec6a5579ed8978bbbb50e9660cb676c4ddd56dc99e28b0db37bb21",
        "53768bfaa9b8ff5eb1fb0f182b31a9f6e49b4944021d6fb568c4d46fd100a4e3",
    ),
    "uncertainty-shared-monetdb": (
        "71db2826de13bd57eac44976ea9cba2b821965926758ae72ec91b5a145017072",
        "b5848129e4ec6a5579ed8978bbbb50e9660cb676c4ddd56dc99e28b0db37bb21",
        "17a57750d58ea88952d1a9a718555610d883cfbbe61c1885d22a2a653d9d8b41",
    ),
    "traced": (
        "50ab6633e1311adb4aa3e887ed1a3ce568b21e01839ea3312538a960bc493136",
        "b5848129e4ec6a5579ed8978bbbb50e9660cb676c4ddd56dc99e28b0db37bb21",
        "671a0567a30d5e5985c728f4a2746ed0c64360f50e5a9ae40cf89f1aab31cb65",
    ),
    "sessions-1": (
        "adb7a3cafc3c08e755ad5dcd2f1c2dade663ee74be1c9a86fc94d066f97f4acb",
        "778d5d27b716881dd9d3b58baaed62878f93076984cf0cbb45d393bedf363cb2",
        "07bde8a6549601fd7ecbac56880b922627a75df9d2f806918928bfabf8c59732",
    ),
    "sessions-10": (
        "18bd51df76a779ec21fed131dc0b43512244ac17499552a735b5ba028a2771f2",
        "466b61a480a30daf1370013a8aa338b6087de6cf224ebd7636cfee204280081b",
        "0fc63ed99c558b28455d256cae2c9b7a0c897d1fcee268796367a04387529f3b",
    ),
    "sessions-100": (
        "b28a0481e318540e6495ce0ee52d210ae156241779a22cd4f052256aecf3239a",
        "b7e993a2b2ec8282da3ac30a99b7edb71f77ac28fde7f019c4fbe0501952542b",
        "6c08a97bfb3ebe4e5ad0e3c1c16ca3b7fd25babdea3cb7ae95d0eb9a59571f47",
    ),
    "churn-isolated": (
        "13032490976d5a027ad67e8b5e73ac38bbe1c1b35ec49444da2881639ea3e461",
        "53b703f55511d634f99f1ea8d184c303187f40f3f38ccbc97077dc4def4714ff",
        "f0ccdb2324c39a7e4789a032ebdec03da594d92160cb493dd25f1d94094e4cfb",
    ),
    "churn-shared": (
        "ce7f6ea6196e85a1a929f8c5c060322eaaf347f0f5412899b7bada5a7bca1d38",
        "53b703f55511d634f99f1ea8d184c303187f40f3f38ccbc97077dc4def4714ff",
        "189a75faeded342f6ad52ad7d8f8a88d8e0d313df460b7e81e66108c024ba816",
    ),
    "fuzz-0": (
        "69f60aeeb5d356bf7d1ecdf2c73e4fee97873e878a265525f0659531e4e23fcb",
        "34c6a9830d09b84b2154c8f20f300246c4e7e2034bd6af1f9d25c95935224029",
        "2bc1f7375293104b1a6fc8dc0a8e8c64d883f37346fe7af3a718ab87ec27013f",
    ),
    "fuzz-1": (
        "10402e97321f9f05e9c8d867dd7119d460c80b09e66ddf45bd4b3035c244b8d7",
        "5757469e3f4104770b53fb8131b7132d6281b8ae6d9b3a157f0b1fe6bca2edbc",
        "8f352d95951bc2fc718f1ca8709d5edc3671ac470521968ed98750724b10cb30",
    ),
    "fuzz-2": (
        "ec5f7d0758f20886eb61e9cdf53530f5e4c7a539fb0700b7c925bf32715e3c7f",
        "e57ba03413189e76d5cea8dbacfde5bdd3d8e485a2ca1c63d50657da1e973a0a",
        "8912f53a5e04ec644ef424a2b7257d58371dedbc062ec8b7abcd78f0f0543878",
    ),
    "fuzz-3": (
        "ae92e85beb8e29f3fa7eb6e9b4d7dee0332e54ad27b78c853bf109dab4e07ed2",
        "8d33c4bf71c547659426074bd610fb12161bf8e1b612f2f8e6dc518f4a432d38",
        "cb7835f6faa03a9d84ef690ffc870b28ef8b7a151344f64c31fd5aa170ab1764",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(manager, results):
    return (
        _sha("\x1e".join(result.csv_text() for result in results)),
        _sha(repr([result.departed_at for result in results])),
        _sha(repr(manager.trace)),
    )


def _check(config, run):
    manager, results = run
    assert results  # non-vacuous
    assert _digests(manager, results) == PINS[config]


def _csvs(results):
    return [result.csv_text() for result in results]


def _closed(server_ctx, **kwargs):
    manager = SessionManager.for_engine(
        server_ctx, kwargs.pop("engine", "idea-sim"),
        kwargs.pop("sessions", 3), trace_capture=True, **kwargs
    )
    return manager, manager.run()


def _open(server_ctx, **kwargs):
    arrivals = kwargs.pop("arrivals", None) or ArrivalProcess(
        0.2, 40.0, seed=server_ctx.settings.seed,
        mean_residence=25.0, max_sessions=4,
    )
    manager = OpenSystemManager.for_engine(
        server_ctx, kwargs.pop("engine", "idea-sim"), arrivals,
        trace_capture=True, **kwargs
    )
    return manager, manager.run()


def _mode(share_engine):
    return "shared" if share_engine else "isolated"


class TestClosedSystemEquivalence:
    @pytest.mark.parametrize("share_engine", [False, True])
    def test_scripted_bytes_identical(self, server_ctx, share_engine):
        _check(
            f"scripted-{_mode(share_engine)}",
            _closed(server_ctx, per_session=2, share_engine=share_engine),
        )

    @pytest.mark.parametrize("policy", ["markov", "uncertainty"])
    def test_adaptive_bytes_identical(self, server_ctx, policy):
        _check(
            f"{policy}-shared-monetdb",
            _closed(
                server_ctx, per_session=1, policy=policy,
                share_engine=True, engine="monetdb-sim",
            ),
        )

    def test_traces_identical(self, server_ctx):
        manager, results = run = _closed(server_ctx, per_session=1)
        assert manager.trace  # non-vacuous
        _check("traced", run)

    @pytest.mark.parametrize("sessions", [1, 10, 100])
    def test_bytes_identical_across_orders_of_magnitude(
        self, server_ctx, sessions
    ):
        """1 → 10² sessions: the pins must not be a small-N accident."""
        _check(
            f"sessions-{sessions}",
            _closed(server_ctx, sessions=sessions, per_session=1),
        )


class TestOpenSystemEquivalence:
    @pytest.mark.parametrize("share_engine", [False, True])
    def test_churn_bytes_and_traces_identical(self, server_ctx, share_engine):
        manager, results = run = _open(
            server_ctx, policy="markov", share_engine=share_engine
        )
        assert any(result.departed_at is not None for result in results)
        _check(f"churn-{_mode(share_engine)}", run)

    @pytest.mark.parametrize("seed_offset", [0, 1, 2, 3])
    def test_seeded_churn_fuzz(self, server_ctx, seed_offset):
        """Randomized arrival processes, each pinned."""
        rng = random.Random(1000 + seed_offset)
        rate = rng.uniform(0.1, 0.6)
        residence = rng.uniform(8.0, 30.0)
        cap = rng.randint(2, 6)
        arrivals = ArrivalProcess(
            rate, 35.0, seed=server_ctx.settings.seed + seed_offset,
            mean_residence=residence, max_sessions=cap,
        )
        policy = rng.choice(["replay", "markov", "uncertainty"])
        share = rng.random() < 0.5
        _check(
            f"fuzz-{seed_offset}",
            _open(
                server_ctx, arrivals=arrivals, policy=policy,
                share_engine=share,
            ),
        )


class _AllAtTimeZero:
    """An arrival process admitting ``n`` sessions at vt 0, none departing."""

    def __init__(self, n):
        self.n = n

    def iter_schedule(self):
        return (SessionArrival(index, 0.0) for index in range(self.n))

    def schedule(self):
        return list(self.iter_schedule())


class TestClosedIsOpenAtTimeZero:
    @pytest.mark.parametrize("policy", [None, "markov"])
    @pytest.mark.parametrize("share_engine", [False, True])
    def test_same_csvs(self, server_ctx, share_engine, policy):
        _, closed = _closed(
            server_ctx, per_session=2, policy=policy, share_engine=share_engine
        )
        _, opened = _open(
            server_ctx, arrivals=_AllAtTimeZero(3), per_session=2,
            policy=policy, share_engine=share_engine,
        )
        assert [r.session_id for r in opened] == [r.session_id for r in closed]
        assert _csvs(opened) == _csvs(closed)
        assert all(result.departed_at is None for result in opened)


class TestTraceRing:
    def test_trace_off_by_default(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1
        )
        manager.run()
        assert manager.trace == []

    def test_trace_ring_is_bounded(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1, trace_capture=8
        )
        manager.run()
        trace = manager.trace
        assert len(trace) == 8
        assert manager._trace_ring.dropped > 0
        times = [t for t, _ in trace]
        assert times == sorted(times)  # the *latest* marks survive

    def test_trace_capture_true_keeps_everything(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1, trace_capture=True
        )
        manager.run()
        assert manager._trace_ring.dropped == 0
        assert len(manager.trace) > 0
