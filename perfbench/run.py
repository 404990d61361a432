"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload population --seed 1 --seconds 15 --trace 0

Every sample runs in a fresh interpreter (``worker.py``) with
``PYTHONHASHSEED=0`` and one BLAS/OpenMP thread. With ``--trace 0`` one
interpreter runs the workload's rounds for ``--seconds`` and checks the
outputs, and further interpreters only set up, so that ``setup_s`` is a
median; the end-to-end metrics of ``BENCHMARK.json`` are printed. With
``--trace 1`` an untraced and a traced interpreter each run a warm-up
round and one round on each of the workload's first inputs, and the
per-layer ledger of the traced rounds is printed. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Interpreters whose set-up time is sampled per ``--trace 0`` run.
SETUP_SAMPLES = 3

#: Wall-clock budget of one invocation, seconds.
BUDGET_S = 170.0

WORKLOADS = ("population", "contention", "paper_matrix", "tcp_replay")


def child_env() -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker interpreter; its result, with ``setup_s`` added."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerFailed(f"{mode} worker timed out") from error
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in result:
        # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux.
        raw = result["ready"] - spawned - result["setup_probe_s"]
        result["setup_raw_s"] = raw
        result["setup_s"] = raw * result["setup_scale"]
    return result


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def characterise(counters: dict, queries: int) -> str:
    kernel_gets = counters["kernel_hits"] + counters["kernel_misses"]
    oracle_gets = counters["oracle_hits"] + counters["oracle_misses"]
    generated = counters.get("interactions_generated", 0)
    fired = counters.get("interactions_fired", 0)
    fired_text = f"{fired / generated:.3f}" if generated else "n/a"
    return (
        f"distinct queries {counters['oracle_misses']} vs kernel-cache capacity "
        f"{counters['kernel_capacity']} (kernel hit ratio "
        f"{counters['kernel_hits'] / max(1, kernel_gets):.3f}); oracle hit ratio "
        f"{counters['oracle_hits'] / max(1, oracle_gets):.3f}; peak active sessions "
        f"{counters['peak_active']}; fired/generated interactions {fired_text}; "
        f"rows per query {counters['rows_processed'] / max(1, queries):.1f}"
    )


def timed_run(args, spec, deadline):
    main = spawn(args.workload, args.seed, args.seconds, "timed", deadline)
    samples = [main]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(spawn(args.workload, args.seed, args.seconds, "setup", deadline))
    problems = [problem for sample in samples for problem in sample["problems"]]
    values = {
        "queries_per_s": main["queries_per_s"],
        "session_ms_p50": main["session_ms_p50"],
        "session_ms_p90": main["session_ms_p90"],
        "setup_s": statistics.median(sample["setup_s"] for sample in samples),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    raw = {name: value for name, value in main["raw"].items() if name != "sessions_timed"}
    raw["setup_s"] = statistics.median(sample["setup_raw_s"] for sample in samples)
    print(f"env: python {main['python']}, numpy {main['numpy']}, nproc {main['nproc']}")
    print(
        f"timed phase: {main['rounds']} rounds, {main['queries']} queries over one "
        f"round per input, round wall median {statistics.median(main['round_s']):.3f} s; "
        f"{main['sessions_timed']} session samples; {SETUP_SAMPLES} set-up samples"
    )
    print(
        f"host speed: probe median {1000 * main['probe_s']:.2f} ms against "
        f"{1000 * main['probe_reference_s']:.0f} ms on the reference host; unnormalized "
        + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items())
    )
    print("workload: " + characterise(main["counters"], main["queries"]))
    return main, problems, values, spec["end_to_end"]


def traced_run(args, spec, deadline):
    reference = spawn(args.workload, args.seed, args.seconds, "reference", deadline)
    traced = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
    problems = list(reference["problems"]) + list(traced["problems"])
    if traced["digest"] != reference["digest"]:
        problems.append(
            f"traced digest {traced['digest']} != untraced {reference['digest']}"
        )
    values = dict(traced["ledger"])
    values.update(traced["setup_rows"])
    values["setup.import_s"] = traced["import_s"]
    values["trace_overhead"] = traced["normalized_s"] / reference["normalized_s"]
    print(f"env: python {traced['python']}, numpy {traced['numpy']}, nproc {traced['nproc']}")
    print(
        f"ledger: traced rounds {traced['traced_s']:.3f} s, untraced "
        f"{reference['traced_s']:.3f} s; {traced['spans']} spans written to "
        f"{traced['spans_file']}; {traced['binding_sites']} binding sites wrapped"
        + (f"; not found: {', '.join(traced['missing_targets'])}"
           if traced["missing_targets"] else "")
    )
    layer_sum = sum(
        value for name, value in values.items()
        if name.endswith("_s") and not name.startswith(("data.", "setup."))
    )
    print(
        f"ledger check: layer self times + unattributed = {layer_sum:.6f} s, "
        f"traced wall {traced['traced_s']:.6f} s"
    )
    if abs(layer_sum - traced["traced_s"]) > 1e-6 * max(1.0, traced["traced_s"]):
        problems.append("ledger does not partition the traced wall time")
    return traced, problems, values, spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        run = traced_run if args.trace else timed_run
        result, problems, values, wanted = run(args, spec, deadline)
    except WorkerFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"digest {result['digest']}; failed_share = {failed}/{attempted} = "
        f"{failed / attempted:.4f}"
    )
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
