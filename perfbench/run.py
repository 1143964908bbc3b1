"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ./src, one
process, one client in a closed loop: each operation starts when the previous
one has finished.  BLAS is pinned to one thread before numpy loads.

--trace 0  set-up (a fresh-interpreter import plus the workload's input
           generation and one-time fits) is repeated SETUP_REPS times and the
           median reported; then the workload's input set is run pass after
           pass, at least MIN_PASSES times and until S seconds have passed;
           prints the end-to-end metrics.
--trace 1  one untraced pass, then a traced set-up and pass with the same
           inputs; prints the per-layer metrics and writes the spans to
           .perfbench_out/.  Outputs of the two passes must be identical.

Timings are normalised to a reference host speed (see hostspeed.py); the
report keeps the plain wall times too.  The last stdout line is the result
object; the line before it is a report with the environment, failure details
and the tail percentile used.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
MIN_PASSES = 2
CHECK_OP = -2  # tracer op id while the benchmark checks outputs
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
# What an operation needs imported, loaded in a fresh interpreter.
FRESH_IMPORT = "import plasmon_cqed.cli, plasmon_cqed.tasks, scipy.integrate"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure-suite", "scenario-batch", "open-system"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal input sets for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def environment() -> dict:
    import numpy as np
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "plasmon_cqed")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            source.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "machine": platform.machine(),
    }


def set_up(workload):
    """Import the package in a fresh interpreter, then prepare the workload."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    workload.prepare()


def run_pass(workload, ops, out_root, tag, speed, tracer=None):
    """Run every operation once; returns [(outcome, seconds, wall)] in op order.

    seconds is the host-speed-normalised time of workload.run alone; wall is
    its plain wall time including the probes.  Checks and clean-up of each
    operation's output directory happen between operations, untimed."""
    from workloads import Outcome

    records = []
    for i, op in enumerate(ops):
        out_dir = os.path.join(out_root, f"{tag}-{i:03d}")
        if tracer is not None:
            tracer.current_op = i
        result, error, seconds, wall = speed.measure(workload.run, op, out_dir)
        if tracer is not None:
            tracer.current_op = CHECK_OP
        if error is None:
            outcome = workload.check(op, out_dir, result)
        else:
            message = traceback.format_exception_only(type(error), error)
            outcome = Outcome("error", "", message[-1].strip())
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append((outcome, seconds, wall))
    return records


def tail_latency(latencies, per_pass):
    """Latency at the highest percentile that leaves ten samples beyond it in
    MIN_PASSES passes.  The percentile depends only on the input set, so it
    does not move with the number of passes a run fits in; with more passes
    more than ten samples lie beyond it.  Where that percentile would not be
    above the median, the maximum is reported.

    Returns (latency, percentile, samples beyond)."""
    xs = sorted(latencies)
    n_ref = MIN_PASSES * per_pass
    if n_ref <= 20:
        return xs[-1], 100.0, 0
    percentile = 100.0 * (n_ref - 10) / n_ref
    k = math.ceil(percentile / 100.0 * len(xs)) - 1
    return xs[k], percentile, len(xs) - k - 1


def summarize(passes, ops):
    """attempted, failed, correct, failure details over all passes."""
    flat = [r for records in passes for r in records]
    failed = [r[0] for r in flat if r[0].status != "ok"]
    details = sorted({o.detail for o in failed})
    correct = not any(o.status == "wrong" for o in failed)
    # Identical inputs must give identical outputs on every pass.
    for i in range(len(ops)):
        seen = {(records[i][0].status, records[i][0].digest) for records in passes}
        if len(seen) > 1:
            correct = False
            details.append(f"operation {i} gave different outputs on repeated passes")
    return len(flat), len(failed), correct, details


def _total(records, column=1):
    return sum(r[column] for r in records)


def timed_run(workload, seconds, out_root):
    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        setup = []
        for _ in range(SETUP_REPS):
            _, error, normalised, _ = speed.measure(set_up, workload)
            if error is not None:
                raise error
            setup.append(normalised)
        ops = workload.operations()
        passes = []
        begin = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
            passes.append(run_pass(workload, ops, out_root, f"p{len(passes)}",
                                   speed))
        samples = list(speed.samples)
    attempted, failed, correct, details = summarize(passes, ops)
    done = [r[1] for records in passes for r in records if r[0].status == "ok"]
    if not done:
        raise SystemExit("no operation completed; nothing to measure:\n"
                         + "\n".join(details))
    per_pass = sum(r[0].status == "ok" for r in passes[0])
    tail, percentile, beyond = tail_latency(done, per_pass)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(_total(records) for records in passes),
        "op_p50_s": statistics.median(done),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "passes": len(passes), "ops_per_pass": len(ops),
        "failed_frac": failed / attempted,
        "op_tail": {"percentile": percentile, "beyond": beyond,
                    "samples": len(done)},
        "pass_wall_s": {"normalised": [_total(r) for r in passes],
                        "plain": [_total(r, 2) for r in passes]},
        "setup_reps_s": setup,
        "probe_s": {"median": statistics.median(samples),
                    "min": min(samples), "max": max(samples),
                    "samples": len(samples)},
        "failures": details,
    }
    units = dict(END_TO_END)
    return correct, attempted, failed, {k: (metrics[k], units[k]) for k in units}, report


def traced_run(workload, out_root, spans_path):
    import tracing
    from hostspeed import HostSpeed

    tracer = tracing.Tracer()
    with HostSpeed() as speed:
        workload.prepare()
        ops = workload.operations()
        untraced = run_pass(workload, ops, out_root, "untraced", speed)
        with tracer:
            tracer.current_op = tracing.SETUP_OP
            workload.prepare()
            traced = run_pass(workload, workload.operations(), out_root, "traced",
                              speed, tracer)
    attempted, failed, correct, details = summarize([untraced, traced], ops)
    metrics = tracing.layer_metrics(tracer, [r[2] for r in traced],
                                    _total(untraced), _total(traced))
    tracer.save(spans_path)
    shares = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
    attributed = sum(shares.values())
    setup_green = sum(1 for n, op in zip(tracer.name, tracer.op)
                      if op == tracing.SETUP_OP
                      and tracer.names[n] == "mie.green_rr_scattered")
    report = {
        "ops": len(ops), "failed_frac": failed / attempted, "failures": details,
        "spans": len(tracer.start), "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_wall_s": _total(untraced), "traced_wall_s": _total(traced),
        "self_share": ({k: v / attributed for k, v in shares.items()}
                       if attributed else {}),
        "setup_green_calls": setup_green,
    }
    units = dict(tracing.PER_LAYER_METRICS)
    return correct, attempted, failed, {k: (metrics[k], units[k]) for k in units}, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plasmon_cqed", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/plasmon_cqed; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import scipy.integrate  # noqa: F401  (first use would land inside an op)
    import workloads

    env = environment()
    work_root = os.path.join(ROOT, ".perfbench_work",
                             f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work_root, args.seed,
                                                      args.scale)
        out_root = os.path.join(work_root, "out")
        if args.trace:
            spans = os.path.join(ROOT, ".perfbench_out",
                                 f"spans-{args.workload}-seed{args.seed}.npz")
            result = traced_run(workload, out_root, spans)
        else:
            result = timed_run(workload, args.seconds, out_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    correct, attempted, failed, metrics, report = result
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, environment=env)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
