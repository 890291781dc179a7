"""One workload process: set-up, then a closed loop of timed operations.

Started by ``run.py`` as a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH`` and the BLAS thread count fixed in the environment.  Writes
its summary to ``<stem>.json``, one record per operation to
``<stem>.ops.jsonl``, traced spans to ``<stem>.spans.npz`` and its input
files under ``<stem>.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))


def run_op(workload, op, k, round_no, records, tracer=None):
    """Time one operation, scaled to the reference speed, and verify its output.

    Returns (scaled latency, status): "ok", "error" when the program raised,
    or "wrong" when the output failed its check.  Both of the latter count as
    failed; only "wrong" makes the run incorrect."""
    error, residual, bound, status = None, None, None, "ok"
    loop_before = speed.reference_loop()
    if tracer is not None:
        tracer.op = k
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:            # a failed operation is counted, not fatal
        latency = time.perf_counter() - start
        error, status = f"{type(exc).__name__}: {exc}", "error"
    else:
        latency = time.perf_counter() - start
    if tracer is not None:
        tracer.op = -1
    loop_after = speed.reference_loop()
    if status == "ok":
        try:
            residual, bound, error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            status = "wrong"
    scaled = speed.scaled(latency, loop_before, loop_after)
    records.append({"workload": workload.name, "round": round_no, "op": k, **op.shape,
                    "latency_s": latency, "loop_s": [loop_before, loop_after],
                    "scaled_s": scaled, "residual": residual, "bound": bound,
                    "status": status, "error": error})
    return scaled, status


def run_rounds(workload, seconds, records, tracer=None):
    """Whole rounds of operations, round 0 first: at least one, and another
    only while it is expected to end within ``seconds``.

    Returns the scaled latencies grouped by round, the counts of operations
    attempted, failed and wrong, and each round's wall time."""
    counts = {"attempted": 0, "failed": 0, "wrong": 0}
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        if r:                               # round 0 is drawn during set-up
            workload.start_round(r)
        round_start = time.perf_counter()
        latencies = []
        for k in range(len(workload)):
            op = workload.prepare(k)
            latency, status = run_op(workload, op, k, r, records, tracer)
            latencies.append(latency)
            counts["attempted"] += 1
            counts["failed"] += status != "ok"
            counts["wrong"] += status == "wrong"
        rounds.append(latencies)
        walls.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + walls[-1] > seconds:
            return rounds, counts, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--loop-before", type=float, required=True,
                        help="the reference loop's time, measured just before the start")
    parser.add_argument("--stem", required=True, help="path prefix of everything written")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import atomless_mdp                 # noqa: F401  (resolved from PYTHONPATH)
    import workloads

    workdir = args.stem + ".work"
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.start_round(0)
    warm = workload.warmup()
    reason = warm.check(warm.call())[2]
    if reason:
        raise RuntimeError(f"warm-up operation failed its check: {reason}")
    setup_raw = time.perf_counter() - args.spawned_at
    loop_after = speed.reference_loop()
    summary = {"setup_s": speed.scaled(setup_raw, args.loop_before, loop_after),
               "setup_raw_s": setup_raw, "package": atomless_mdp.__file__,
               "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if not args.setup_only:
        records: list = []
        if args.trace:
            summary.update(traced_run(workload, args, records))
        else:
            rounds, counts, walls = run_rounds(workload, args.seconds, records)
            latencies = [x for r in rounds for x in r]
            summary.update(counts, rounds=len(rounds), inputs=len(latencies),
                           ops_per_s=statistics.median(len(r) / sum(r) for r in rounds),
                           op_p50_s=statistics.median(latencies))
        with open(args.stem + ".ops.jsonl", "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    summary["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.stem + ".json", "w") as fh:
        json.dump(summary, fh)
    return 0


def traced_run(workload, args, records) -> dict:
    """Round 0 untraced, then traced rounds from round 0 for the rest of the time.

    The overhead is the traced minus the untraced scaled operation time of
    round 0, which has the same inputs in both."""
    import tracer as tracing

    base_rounds, base, base_walls = run_rounds(workload, 0.0, records)
    workload.start_round(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rounds, counts, walls = run_rounds(
            workload, max(0.0, args.seconds - base_walls[0]), records, tracer)
    finally:
        tracer.uninstall()
    tracer.save_spans(args.stem + ".spans.npz")
    metrics = tracer.metrics(sum(walls), sum(rounds[0]) - sum(base_rounds[0]))
    return {**{key: base[key] + counts[key] for key in counts},
            "rounds": len(walls) + 1, "layers": metrics}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
