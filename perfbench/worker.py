"""One benchmark interpreter: set up a workload, then run its rounds.

``run.py`` starts a fresh interpreter per sample, in one of four modes:

``setup``      set up, then stop (one more set-up time sample);
``timed``      set up, run rounds for ``--seconds``, check the outputs;
``reference``  set up, one warm-up round, then rounds over the first
               ``TRACED_INPUTS`` inputs (the traced run's baseline);
``trace``      the same with the ledger's wrappers installed, ledger
               taken over those rounds.

Every wall time a worker reports is also expressed in *reference
seconds*: divided by the time of a fixed probe workload timed next to
it, times the probe's time on the reference host. On a shared host the
speed a process gets drifts by tens of percent for seconds at a time,
and the probe drifts with it. Set-up is timed against a pure-Python
loop; rounds against the loop plus a NumPy sort and unique, the
program's own mix of interpreter and array work.

The last line of standard output is one JSON object.
"""

import time

#: Loop iterations of the probe.
PROBE_LOOPS = 200_000

#: Elements of the arrays the round probe sorts.
PROBE_ELEMENTS = 100_000

#: Probe times, in seconds, on the reference host that normalized times
#: are expressed in: the loop alone, and the loop with the array work.
PROBE_REFERENCE_S = 0.010
ROUND_PROBE_REFERENCE_S = 0.040


def probe():
    """Seconds a fixed pure-Python loop takes on this host right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def round_prober():
    """The round probe: :func:`probe` plus a NumPy sort and unique."""
    import numpy

    floats = numpy.random.default_rng(0).random(PROBE_ELEMENTS)
    ints = (floats * PROBE_ELEMENTS).astype(numpy.int64)

    def round_probe():
        start = time.perf_counter()
        numpy.sort(floats)
        numpy.unique(ints)
        return probe() + time.perf_counter() - start

    return round_probe


STARTED = time.perf_counter()
SETUP_PROBES = [probe()]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"

#: Inputs a traced run (and its untraced baseline) serves after warming up.
TRACED_INPUTS = 10


def telemetry_problems():
    """Tracer, profiler, metrics and time series must be off in timed runs."""
    from repro.obs.metrics import get_metrics
    from repro.obs.profile import get_profiler
    from repro.obs.timeseries import get_timeseries
    from repro.obs.tracer import get_tracer

    problems = []
    if get_tracer().enabled:
        problems.append("tracer enabled")
    if get_profiler().enabled:
        problems.append("profiler enabled")
    if get_timeseries().enabled:
        problems.append("time series enabled")
    if len(get_metrics()):
        problems.append(f"{len(get_metrics())} metrics recorded")
    return problems


def percentile(values, fraction):
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def judge(workloads, inputs, rounds):
    """(attempted, failed, problems, digest) of rounds serving inputs 0, 1, ...

    A repeated input must repeat its output bytes; the digest covers the
    outputs of the first cycle through the inputs.
    """
    attempted = sum(r.attempted for r in rounds)
    failed = 0
    problems = []
    for number, r in enumerate(rounds):
        wrong = list(r.problems)
        if r.output != rounds[number % inputs].output:
            wrong.append(f"output differs from round {number % inputs}")
        if wrong:
            failed += r.attempted
            problems.extend(f"round {number}: {p}" for p in wrong)
    digest = workloads.digest(b"".join(r.output for r in rounds[:inputs]))
    return attempted, failed, problems, digest


def figures(rounds, walls, inputs, scale):
    """Throughput and session percentiles, round ``r``'s times times ``scale[r]``.

    Every input weighs the same however often it ran: throughput divides
    the queries of one round per input by the sum over inputs of the
    median wall over their repeats, and each session's time is its median
    over the repeats of its input.
    """
    median_walls = []
    sessions = []
    for k in range(inputs):
        repeats = list(zip(rounds[k::inputs], walls[k::inputs], scale[k::inputs]))
        median_walls.append(statistics.median(wall * f for _, wall, f in repeats))
        columns = zip(*([ms * f for ms in r.session_ms] for r, _, f in repeats))
        sessions.extend(statistics.median(column) for column in columns)
    return {
        "queries_per_s": sum(r.queries for r in rounds[:inputs]) / sum(median_walls),
        "session_ms_p50": percentile(sessions, 0.5),
        "session_ms_p90": percentile(sessions, 0.9),
        "sessions_timed": len(sessions),
    }


def run_timed(workloads, workload, seconds):
    """Rounds cycling through the inputs for ``seconds``, at least one cycle.

    A probe runs before every round and once after the last; a round's
    times are normalized by the median of the five probes around it.
    """
    inputs = workload.inputs
    problems = telemetry_problems()
    round_probe = round_prober()
    gc.collect()
    ready = time.perf_counter()
    rounds, walls, probes = [], [], []
    while True:
        probes.append(round_probe())
        start = time.perf_counter()
        rounds.append(workload.run_round(len(rounds) % inputs))
        end = time.perf_counter()
        walls.append(end - start)
        if end - ready >= seconds and len(rounds) >= inputs:
            break
    probes.append(round_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += telemetry_problems()
    attempted, failed, round_problems, digest = judge(workloads, inputs, rounds)
    check_failed, check_problems = workload.check(rounds)
    normal = [
        ROUND_PROBE_REFERENCE_S / statistics.median(probes[max(0, r - 2): r + 3])
        for r in range(len(rounds))
    ]
    return {
        "ready": ready,
        "rounds": len(rounds),
        "round_s": walls,
        "probe_s": statistics.median(probes),
        "probe_reference_s": ROUND_PROBE_REFERENCE_S,
        "raw": figures(rounds, walls, inputs, [1.0] * len(rounds)),
        **figures(rounds, walls, inputs, normal),
        "queries": sum(r.queries for r in rounds[:inputs]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": min(attempted, failed + check_failed),
        "problems": problems + round_problems + check_problems,
        "digest": digest,
        "counters": rounds[0].counters,
    }


def _calls(calls, *qualnames):
    return sum(
        count for name, count in calls.items()
        if any(name.endswith("." + q) for q in qualnames)
    )


def layer_metrics(recorder, rows, calls, amounts, counters, queries):
    """The per-layer metrics of the traced rounds, plus cross-check problems."""
    def ratio(part, whole):
        return part / whole if whole else 0.0

    steps = _calls(calls, "SessionDriver.step")
    metric_calls = _calls(calls, "compute_metrics")
    generated = _calls(amounts, "WorkflowGenerator.generate_suite")
    hits, misses = counters["kernel_hits"], counters["kernel_misses"]
    metrics = dict(rows)
    metrics.update({
        "workflow.interactions": generated,
        "workflow.fired_share": ratio(steps - metric_calls, generated),
        "server.turns": counters.get("turns", 0),
        "server.peak_active": counters["peak_active"],
        "driver.steps": steps,
        "scheduler.advances": _calls(calls, "ProcessorSharingScheduler.advance_to"),
        "scheduler.cancels": _calls(
            calls, "ProcessorSharingScheduler.cancel",
            "ProcessorSharingScheduler.cancel_group",
        ),
        "estimates": _calls(calls, "srs_estimate", "stratified_estimate"),
        "kernel_cache.gets": _calls(calls, "KernelCache.get"),
        "kernel_cache.hit_ratio": ratio(hits, hits + misses),
        "compiles": _calls(calls, "CompiledQueryKernel.__init__"),
        "rows_folded": _calls(amounts, "PrefixKernelRun.poll"),
        "rows_binned": _calls(amounts, "compute_codes"),
        "predicate_evals": _calls(calls, "evaluate_filter"),
        "oracle_hit_ratio": ratio(
            counters["oracle_hits"], counters["oracle_hits"] + counters["oracle_misses"]
        ),
        "digests": _calls(calls, "query_cache_key"),
        "metrics_calls": metric_calls,
        "runtime.cells": _calls(calls, "execute_cell"),
        "net.frames": _calls(calls, "encode_message"),
        "net.bytes": _calls(amounts, "encode_message"),
    })
    problems = []

    def cross_check(label, ours, theirs, wrapped):
        # A callable the program no longer has cannot be checked.
        present = any(name.endswith("." + wrapped) for name in recorder.binding_sites)
        if present and ours != theirs:
            problems.append(f"{label}: traced {ours} != program {theirs}")

    cross_check("compiles vs kernel-cache misses", metrics["compiles"], misses,
                "CompiledQueryKernel.__init__")
    cross_check("kernel-cache gets vs hits+misses", metrics["kernel_cache.gets"],
                hits + misses, "KernelCache.get")
    cross_check("metrics calls vs queries", metric_calls, queries, "compute_metrics")
    cross_check("oracle answers vs hits+misses", _calls(calls, "GroundTruthOracle.answer"),
                counters["oracle_hits"] + counters["oracle_misses"],
                "GroundTruthOracle.answer")
    if "turns" in counters:
        cross_check("driver steps vs ServingAggregate.total_steps", steps,
                    counters["turns"], "SessionDriver.step")
        cross_check("spool appends vs RecordSpool.count",
                    _calls(calls, "RecordSpool.append"), counters["spool_count"],
                    "RecordSpool.append")
    return metrics, problems


def _summed(rounds):
    totals = {}
    for r in rounds:
        for key, value in r.counters.items():
            totals[key] = totals.get(key, 0) + value
    totals["peak_active"] = max(r.counters["peak_active"] for r in rounds)
    return totals


def run_fixed(workloads, workload, recorder, setup_window, spans_name):
    """A warm-up round, then one round on each of the first inputs.

    With ``recorder`` those rounds are traced and their ledger returned.
    """
    main_thread = threading.get_ident()
    result = {"problems": telemetry_problems() if recorder is None else []}
    if recorder is not None:
        import ledger

        setup_spans = recorder.take()
        result["setup_rows"] = ledger.setup_rows(setup_spans, *setup_window, main_thread)
    gc.collect()
    warm = workload.run_round(0)
    if recorder is not None:
        recorder.take()
    round_probe = round_prober()
    before = round_probe()
    start = time.perf_counter()
    inputs = min(TRACED_INPUTS, workload.inputs)
    rounds = [workload.run_round(k) for k in range(inputs)]
    end = time.perf_counter()
    scale = ROUND_PROBE_REFERENCE_S / statistics.mean([before, round_probe()])
    attempted, failed, problems, digest = judge(workloads, inputs, rounds)
    if warm.output != rounds[0].output:
        failed += rounds[0].attempted
        problems.append("warm-up round's output differs from round 0")
    result.update(
        traced_s=end - start,
        normalized_s=(end - start) * scale,
        attempted=attempted,
        failed=failed,
        digest=digest,
    )
    result["problems"] += problems
    if recorder is not None:
        spans = recorder.take()
        rows, calls, amounts = ledger.round_rows(spans, start, end, main_thread)
        metrics, cross = layer_metrics(
            recorder, rows, calls, amounts, _summed(rounds),
            sum(r.queries for r in rounds),
        )
        result["ledger"] = metrics
        result["problems"] += cross
        result["missing_targets"] = recorder.missing
        result["binding_sites"] = sum(recorder.binding_sites.values())
        result["spans"] = len(setup_spans) + len(spans)
        result["spans_file"] = write_spans(setup_spans + spans, spans_name)
    return result


def write_spans(spans, name):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{name}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, thread, start, end, parent, amount in spans:
            handle.write(json.dumps([span_id, name, thread, start, end, parent, amount]))
            handle.write("\n")
    return str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--mode", choices=("setup", "timed", "reference", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - import_start
    SETUP_PROBES.append(probe())
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    recorder = None
    if args.mode == "trace":
        import ledger

        recorder = ledger.Recorder()
        recorder.install()
    setup_start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    setup_end = time.perf_counter()
    SETUP_PROBES.append(probe())
    try:
        if args.mode == "setup":
            result = {"problems": telemetry_problems()}
            gc.collect()
            result["ready"] = time.perf_counter()
        elif args.mode == "timed":
            result = run_timed(workloads, workload, args.seconds)
        else:
            result = run_fixed(
                workloads, workload, recorder, (setup_start, setup_end),
                f"spans-{args.workload}-seed{args.seed}",
            )
    finally:
        workload.close()
    result.update(
        setup_probe_s=sum(SETUP_PROBES),
        setup_scale=PROBE_REFERENCE_S / statistics.median(SETUP_PROBES),
        import_s=import_s,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
