"""torusop benchmark: closed-loop workloads over the public torusop API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; torusop is imported from
``./src``.  One client in one process starts each operation only after the
previous one has finished and passed its correctness gate (a closed loop).
The BLAS thread count is fixed here, before numpy is imported.

--trace 0 measures the end-to-end metrics for S seconds without tracing:
  ops_per_s    verified operations per second of loop time
  op_s.p50     median seconds per verified operation
  op_s.tail    highest percentile with at least 10 samples beyond it (the
               maximum when there are fewer than 11 samples); printed with
               its percentile and sample count
  peak_rss_mb  ru_maxrss of this process
  setup_s      median of three set-ups (this process and two fresh ones):
               imports, input generation and one warm-up operation, which
               fills torusop's lru caches as every CLI process must

--trace 1 runs a fixed number of operations untraced, the same number
traced, and an N ladder, and prints the per-layer metrics: calls and self
time per torusop function, LAPACK call counts and computed work
(svd: sum of m*n*min(m,n); eigh: sum of n^3), the fourier_matrix cache hit
ratio, the spectral_data fast-path ratio, fitted log-log cost exponents,
the tracing overhead (traced minus untraced op_s.p50) and the fail ratio.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1
TRACED_OPS = {"calculus-1d": 12, "quantize-2d": 12, "wave-scan": 2,
              "suite-small": 3}
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120
SCRATCH = ".bench_tmp"
TRACE_DIR = ".bench_traces"


def _pin_blas_threads() -> int:
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _import_torusop():
    """Import torusop from ./src of the checkout, or exit with code 2."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "torusop", "__init__.py")):
        print(f"no torusop sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import torusop
    if not os.path.abspath(torusop.__file__).startswith(src + os.sep):
        print(f"torusop imported from {torusop.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("calculus-1d", "quantize-2d", "wave-scan",
                                 "suite-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    if not doc["ok"]:
        raise RuntimeError(f"warm-up op failed in a fresh process: "
                           f"{doc['error']}")
    return doc["setup_s"]


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse(argv)
    threads = _pin_blas_threads()
    _import_torusop()
    import loop
    import machine
    import workloads
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        # set-up: imports (above), input generation and one warm-up op
        wl = workloads.make(args.workload, args.seed, workdir)
        warm = loop.checked_call(wl.op, 0)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ok": warm.ok,
                              "error": warm.error}))
            return 0
        print("machine " + json.dumps(machine.context(threads)), flush=True)
        if args.trace:
            result, metrics = _traced(args, wl)
        else:
            setups = [setup_s] + [_child_setup_seconds(args)
                                  for _ in range(SETUP_CHILDREN)]
            result = loop.closed_loop(wl.op, first=1, seconds=args.seconds)
            metrics, pct = loop.end_to_end(result, setups)
            print(f"op_s.tail is p{pct} of "
                  f"{result.attempted - result.failed} verified ops; "
                  f"setup_s samples {[round(s, 4) for s in setups]}",
                  flush=True)
        for err in result.errors[:5]:
            print(f"op failure: {err}", file=sys.stderr)
        if not warm.ok:
            print(f"warm-up op failure: {warm.error}", file=sys.stderr)
        print(json.dumps({
            "correct": bool(warm.ok and result.failed == 0),
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def _traced(args, wl):
    import loop
    import tracing

    count = TRACED_OPS[args.workload]
    plain = loop.closed_loop(wl.op, first=1, count=count)
    tracer = tracing.Tracer()
    with tracer:
        traced = loop.closed_loop(wl.op, first=1 + count, count=count,
                                  tracer=tracer)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.dump(os.path.join(
        TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl"))
    metrics = loop.per_layer(tracer, plain, traced, loop.ladder_exponents())
    print(f"per-layer metrics cover {count} traced ops (ops {1 + count}.."
          f"{2 * count}); spans written to {TRACE_DIR}/", flush=True)
    return loop.merge(plain, traced), metrics


if __name__ == "__main__":
    sys.exit(main())
