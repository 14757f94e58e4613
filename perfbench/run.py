#!/usr/bin/env python3
"""Pipeline benchmark for hamtomo: one workload, one seed, one run.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload nominal --seed 1 --seconds 30 --trace 0

A closed loop with one client runs the workload's ops back to back, as
many as fill ``--seconds`` at the workload's reference op time (and at
least its ``min_ops``), checks every result against the simulated truth,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each op
runs twice, untraced then traced, and the metrics are per-layer self times
and work counts from the traced copy, plus the tracing overhead.  A line
starting with ``detail`` before it carries the environment, the accuracy
medians, the result digest and the timing tail.  NOTES.md explains the
workloads and what each metric should move.
"""

import argparse
from collections import Counter
import json
import os
from pathlib import Path
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# One BLAS thread: the op matrices are small, and a fixed reduction order
# keeps results bit-identical from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5   # set-up repeats, this process plus fresh interpreters
MIN_TAIL_OPS = 20   # a tail needs the median or higher to have ten ops beyond it


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy
    from hamtomo import kernels

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(workload, seed: int):
    """Import the package and build the inputs; returns (inputs, seconds)."""
    start = perf_counter()
    if not (SRC / "hamtomo" / "__init__.py").is_file():
        sys.exit(f"error: no hamtomo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hamtomo

    if Path(hamtomo.__file__).resolve().parent != SRC / "hamtomo":
        sys.exit(f"error: imported hamtomo from {hamtomo.__file__}, not from {SRC}")
    inputs = workload.setup(seed)
    return inputs, perf_counter() - start


def setup_samples(args, first: float) -> list:
    """Set-up times: this process's, then fresh interpreters doing only set-up."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def timed_op(workload, inp, error_type):
    start = perf_counter()
    try:
        result = workload.run(inp)
    except error_type as exc:
        result = exc
    return result, perf_counter() - start


def judge(workload, inp, result):
    from workloads import Outcome

    if isinstance(result, Exception):
        return Outcome(failure=type(result).__name__)
    return workload.check(inp, result)


def op_count(workload, seconds: float, traced: bool) -> int:
    """Ops in one run: a count fixed by the arguments, not by the clock.

    The ops that a run judges, and so ``attempted`` and ``failed``, then
    depend on the seed alone.  A traced op runs twice.
    """
    per_op = workload.op_s_reference * (2 if traced else 1)
    return max(workload.min_ops, round(seconds / per_op))


def measure(workload, inputs, n_ops: int, tracer):
    """Closed loop over the inputs, ``n_ops`` ops.

    Returns the op times, the traced op times, the outcomes, the loop's
    seconds, and whether every traced result equalled its untraced twin.
    """
    from hamtomo.errors import TomographyError
    from tracing import ROOT as ROOT_SPAN

    times, traced_times, outcomes = [], [], []
    traced_equal = True
    start = perf_counter()
    for i in range(n_ops):
        inp = inputs[i % len(inputs)]
        result, elapsed = timed_op(workload, inp, TomographyError)
        times.append(elapsed)
        outcome = judge(workload, inp, result)
        if tracer is not None:
            tracer.op = i
            tracer.install()
            try:
                sid = tracer.begin(ROOT_SPAN)
                try:
                    traced, elapsed = timed_op(workload, inp, TomographyError)
                finally:
                    tracer.end(sid)
            finally:
                tracer.uninstall()
            traced_times.append(elapsed)
            twin = judge(workload, inp, traced)
            # tracing must not change a single bit of the result
            traced_equal = traced_equal and (twin.failure, twin.record) == (
                outcome.failure, outcome.record)
        outcomes.append(outcome)
    return times, traced_times, outcomes, perf_counter() - start, traced_equal


def batch_ok(workload, outcomes) -> bool:
    """The run as a batch: fewer than half its ops failed, and the median H
    error is within the workload's acceptance bound."""
    if 2 * sum(o.failure is not None for o in outcomes) >= len(outcomes):
        return False
    limit = workload.h_median_limit
    return limit is None or statistics.median(
        e for o in outcomes for e in o.h_errors) <= limit


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(times):
    """Highest nearest-rank percentile with at least ten ops beyond it."""
    n = len(times)
    if n < MIN_TAIL_OPS:
        return None
    rank = n - 10
    return {"op_s_tail": sorted(times)[rank - 1], "percentile": 100.0 * rank / n, "ops": n}


def main(argv=None) -> int:
    from workloads import WORKLOADS, digest

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up seconds")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    inputs, setup_first = set_up(workload, args.seed)
    if args.setup_only:
        print(repr(setup_first))
        return 0
    setup = setup_samples(args, setup_first)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    times, traced_times, outcomes, loop_s, traced_equal = measure(
        workload, inputs, op_count(workload, args.seconds, tracer is not None), tracer)

    accuracy_set = outcomes[:workload.min_ops]
    h_errors = [e for o in accuracy_set for e in o.h_errors]
    eps = [e for o in accuracy_set for e in o.eps_max_opt]
    failures = Counter(o.failure for o in outcomes if o.failure is not None)
    failed = sum(failures.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup,
        "ops": len(times), "accuracy_ops": len(accuracy_set),
        "failed_ratio": sum(o.failure is not None for o in accuracy_set) / len(accuracy_set),
        "failures": failures,
        "h_error_pct_median": median_or_zero(h_errors),
        "eps_max_opt_median": median_or_zero(eps),
        "digest": digest(accuracy_set),
        "tail": tail(times),
    }

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "ops_per_s": (len(times) / loop_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from tracing import layer_metrics, unit_of

        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
        layers = layer_metrics(tracer, traced_times, times, sum(o.cells for o in outcomes),
                               sum(o.arrangement_ok for o in outcomes))
        metrics = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}

    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(traced_equal and batch_ok(workload, outcomes)),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
