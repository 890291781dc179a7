"""Benchmark entry point.

    python3 benchmark/run.py --workload derandomize-small --seed 1 --seconds 50 --trace 0

Runs one workload in fresh worker processes and prints each metric as
``name value unit`` and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer breakdown.
``--selftest`` runs every workload at smoke size and checks that a
deliberately wrong answer is counted as failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True          # leave nothing behind in the checkout
import speed                            # noqa: E402  (after the bytecode switch)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# named here because the orchestrator does not import the program
WORKLOADS = ("derandomize-small", "cli-evaluate-path")
BLAS_THREADS = 1            # one closed-loop caller; fixed so runs compare
SETUPS = 5                  # set-up is measured in this many fresh processes
DEADLINE_S = 170.0          # whole command, including every worker

END_TO_END = {"ops_per_s": "op/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, tag: str, deadline: float, setup_only=False, trace=0, smoke=False) -> dict:
    """Run one worker process to completion and return its summary."""
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{trace}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--stem", stem]
    if setup_only:
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left to start a worker")
    loop_before = speed.reference_loop()
    cmd += ["--loop-before", repr(loop_before), "--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL)
    finally:
        shutil.rmtree(stem + ".work", ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {proc.returncode}")
    with open(stem + ".json") as fh:
        summary = json.load(fh)
    if not os.path.abspath(summary["package"]).startswith(SRC + os.sep):
        raise RuntimeError(f"program imported from {summary['package']}, not {SRC}")
    return summary


def measure(args, deadline: float):
    """End-to-end metrics from untraced workers, or per-layer ones from a traced worker."""
    if args.trace:
        main = spawn(args, "main", deadline, trace=1)
        return main, main["layers"]
    setups = [spawn(args, f"setup{k}", deadline, setup_only=True)["setup_s"]
              for k in range(SETUPS - 1)]
    main = spawn(args, "main", deadline)
    setups.append(main["setup_s"])
    metrics = {
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": 1000.0 * main["op_p50_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": main["peak_rss_mib"],
    }
    return main, metrics


def print_result(workload: str, main: dict, metrics: dict, units: dict) -> None:
    print(f"workload {workload}: {main['attempted']} operations attempted, "
          f"{main['failed']} failed, {main['wrong']} of them with a wrong answer; "
          f"{main['rounds']} rounds, BLAS threads {main['blas_threads']}")
    for name, value in metrics.items():
        note = f"  (median of {main['inputs']} inputs)" if name == "op_p50_ms" else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": main["wrong"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def selftest(deadline: float) -> int:
    """Smoke-size run of every workload, traced and untraced, plus negative checks."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    for var, value in worker_env().items():
        os.environ.setdefault(var, value)
    import tracer
    import worker
    import workloads

    problems = []
    for name in WORKLOADS:
        args = argparse.Namespace(workload=name, seed=1, seconds=0.0)
        for trace in (0, 1):
            summary = spawn(args, "smoke", deadline, trace=trace, smoke=True)
            status = "ok" if summary["failed"] == 0 else "FAILED"
            print(f"smoke {name} trace={trace}: {summary['attempted']} ops, "
                  f"{summary['failed']} failed: {status}")
            if summary["failed"]:
                problems.append(f"{name} trace={trace}")
            if trace:
                layers = summary["layers"]
                covered = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
                gap = layers["trace.wall_s"] - covered
                print(f"  layer self times {covered:.3f} s + harness "
                      f"{layers['harness.self_s']:.3f} s = wall {layers['trace.wall_s']:.3f} s")
                if abs(gap - layers["harness.self_s"]) > 1e-6 * max(1.0, layers["trace.wall_s"]):
                    problems.append(f"{name}: self times do not account for the wall time")
        workdir = os.path.join(OUT, f"selftest-{name}.work")
        os.makedirs(workdir, exist_ok=True)
        try:
            wl = workloads.WORKLOADS[name](1, True, workdir)
            wl.start_round(0)
            for k in wl.negatives:
                records: list = []
                op = wl.prepare(k)
                result = op.call()
                _, honest = worker.run_op(wl, workloads.Op(op.shape, lambda: result, op.check),
                                          k, 0, records)
                check, wrong = wl.corrupt(k, result)
                _, caught = worker.run_op(wl, workloads.Op(op.shape, lambda: wrong, check),
                                          k, 0, records)
                print(f"negative {name} {op.shape}: honest answer {honest}, deliberately "
                      f"wrong answer {caught} (residual {records[1]['residual']:.3g}, "
                      f"bound {records[1]['bound']:.3g}: {records[1]['error']})")
                if honest != "ok" or caught != "wrong":
                    problems.append(f"negative check {name} {op.shape}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if not problems else "FAILED: " + ", ".join(problems)))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "atomless_mdp", "__init__.py")):
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    speed.reference_loop()              # the first call in a process runs cold
    if args.selftest:
        return selftest(deadline)
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        sys.path.insert(0, HERE)
        import tracer
        units = tracer.metric_units()
    else:
        units = END_TO_END
    main_summary, metrics = measure(args, deadline)
    print_result(args.workload, main_summary, metrics, units)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
