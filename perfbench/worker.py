"""One benchmark process: a set-up and a fixed list of ops of one workload.

``run.py`` starts this file in a fresh interpreter for every measurement,
so each set-up pays the full ``import repro``.  Modes:

``warmup``  import the program and build/load the compiled kernel (untimed);
``setup``   time one set-up and exit;
``run``     time a set-up, then ``--ops`` ops (the end-to-end metrics);
``trace``   a set-up, ``--ops`` untraced ops alternating with as many
            traced ops, and one op under :mod:`cProfile` (the per-layer
            metrics).

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import platform
import pstats
import resource
import statistics
import sys
import time
import traceback

import checks
import tracing
from workloads import WORKLOADS


def setup(workload, seed: int, workdir: pathlib.Path, tracer=None) -> tuple:
    """Import the program, load the kernel and build the inputs, timed."""
    start = time.perf_counter()
    import repro  # noqa: F401 - timed: every invocation pays this import
    imported = time.perf_counter()
    from repro import kernel

    active = kernel.active_kernel()
    loaded = time.perf_counter()
    if tracer is not None:
        tracer.op = "setup"
        tracer.install(tracing.span_points())
    try:
        inputs = workload.build_inputs(seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = time.perf_counter()
    timings = {
        "setup_s": done - start,
        "import_s": imported - start,
        "kernel_load_s": loaded - imported,
        "inputs_s": done - loaded,
    }
    return inputs, timings, active


class OpLoop:
    """Runs ops, times them, checks each output and counts failures."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.incorrect = False
        self.problems: list = []
        self.first_fingerprint = None
        #: Time spent in the benchmark's own collection, digests and checks.
        self.bookkeeping_s = 0.0

    def run(self, count: int, call=None) -> list:
        """Run ``count`` ops; ``call(op_fn, index)`` wraps each op if given.

        Returns the wall time of each op that did not raise.
        """
        times = []
        for index in range(count):
            started = time.perf_counter()
            gc.collect()
            self.attempted += 1
            op_start = time.perf_counter()
            self.bookkeeping_s += op_start - started
            try:
                raw = call(self.workload.op, index) if call else self.workload.op(self.inputs)
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                self.failed += 1
                self.problems.append(traceback.format_exc(limit=4))
                continue
            op_end = time.perf_counter()
            times.append(op_end - op_start)
            try:
                digest = self.workload.digest(self.inputs, raw)
                problems = self.workload.check(digest)
                if self.first_fingerprint is None:
                    self.first_fingerprint = digest["fingerprint"]
                problems += checks.check_same_output([self.first_fingerprint, digest["fingerprint"]])
            except Exception:  # noqa: BLE001 - an unreadable output fails its check
                problems = [traceback.format_exc(limit=4)]
            if problems:
                self.failed += 1
                self.incorrect = True
                self.problems.extend(problems[:5])
            # Nothing of this op may outlive it: a live output makes every
            # garbage collection of the next op scan it.
            raw = digest = None
            self.bookkeeping_s += time.perf_counter() - op_end
        return times


def _warm_median(times: list) -> float:
    """Median op time, leaving out the cold first op when others exist."""
    return statistics.median(times[1:] if len(times) > 1 else times)


def run_mode(workload, args, workdir) -> dict:
    inputs, timings, active = setup(workload, args.seed, workdir)
    setup_end = time.perf_counter()
    loop = OpLoop(workload, inputs)
    times = loop.run(args.ops)
    wall = time.perf_counter() - setup_end - loop.bookkeeping_s
    result = {
        "kernel": active,
        "setup": timings,
        "op_s": times,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "incorrect": loop.incorrect,
        "problems": loop.problems[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if times:
        result["metrics"] = {
            "op_p50_s": _warm_median(times),
            "ops_per_s": len(times) / wall,
        }
    return result


def trace_mode(workload, args, workdir) -> dict:
    """Untraced and traced ops alternate, so both see the same machine state."""
    tracer = tracing.Tracer()
    inputs, timings, active = setup(workload, args.seed, workdir, tracer)
    loop = OpLoop(workload, inputs)
    points = tracing.span_points()
    untraced, traced = [], []

    def traced_op(op, index):
        tracer.op = len(traced)
        tracer.install(points)
        try:
            return tracer.call("op", op, (inputs,))
        finally:
            tracer.uninstall()

    for _ in range(args.ops):
        untraced += loop.run(1)
        traced += loop.run(1, traced_op)

    profiler = cProfile.Profile()

    def profiled_op(op, index):
        profiler.enable()
        try:
            return op(inputs)
        finally:
            profiler.disable()

    profiled = loop.run(1, profiled_op)
    result = {
        "kernel": active,
        "setup": timings,
        "op_s": untraced,
        "traced_op_s": traced,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "incorrect": loop.incorrect,
        "problems": loop.problems[:10],
    }
    if untraced and traced and profiled and len(untraced) == len(traced):
        # The first pair starts with the process's cold op; leave it out.
        pairs = list(zip(untraced, traced))[1:] or list(zip(untraced, traced))
        metrics = {
            "setup.import_s": timings["import_s"],
            "kernel.load_s": timings["kernel_load_s"],
            "setup.inputs_s": timings["inputs_s"],
        }
        metrics.update(tracing.span_metrics(tracer, range(len(traced))))
        metrics.update(tracing.profile_metrics(pstats.Stats(profiler).stats))
        metrics["op.first_s"] = untraced[0]
        metrics["trace.untraced_op_p50_s"] = _warm_median(untraced)
        metrics["trace.op_p50_s"] = statistics.median(traced)
        metrics["trace.overhead_pct"] = (statistics.median(t / u for u, t in pairs) - 1.0) * 100.0
        result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("warmup", "setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, help="ops to run (run and trace modes)")
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    if args.mode in ("run", "trace") and args.ops is None:
        parser.error(f"--ops is required in {args.mode} mode")
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)

    if args.mode == "warmup":
        from repro import kernel

        result = {"kernel": kernel.active_kernel(), "kernel_info": kernel.kernel_info()}
    elif args.mode == "setup":
        _, timings, active = setup(workload, args.seed, args.workdir)
        result = {"kernel": active, "setup": timings}
    elif args.mode == "run":
        result = run_mode(workload, args, args.workdir)
    else:
        result = trace_mode(workload, args, args.workdir)
    result["python"] = platform.python_version()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
