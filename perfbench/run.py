"""End-to-end benchmark of the reproduction: Fig. 2 runs, campaign grids and
flow-level workload populations.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_fig2 --seed 1 --seconds 20 --trace 0

Each measurement runs in a fresh interpreter (``worker.py``) with no worker
pool.  Before any timed process, an untimed one builds and loads the
compiled kernel.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it records the workload, seed, kernel and Python
version of the run.  ``REPRO_KERNEL`` passes through to every process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 7
#: Every run, including its child processes, ends within this budget.
BUDGET_S = 170.0
#: Budget of the first run in a checkout, which may compile the kernel.
FIRST_BUDGET_S = 880.0


def op_count(workload, seconds: float) -> int:
    """Ops in one run: a fixed list sized to about ``seconds`` of work."""
    return max(3, round(seconds / workload.nominal_op_s))


class ChildError(RuntimeError):
    pass


def run_child(mode: str, args, extra, env, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError(f"time budget spent before the {mode} process")
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
    ] + extra
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=remaining, check=False
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process exceeded the time budget") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} process printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    may_build = os.environ.get("REPRO_KERNEL", "auto") != "python" and not any(
        (src / "repro" / "kernel").glob("_ckernel-*")
    )
    deadline = time.monotonic() + (FIRST_BUDGET_S if may_build else BUDGET_S)

    workload = WORKLOADS[args.workload]
    ops = op_count(workload, args.seconds)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Fixed string hashing, so set iteration order and with it the call
    # counts of the traced run repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    scratch = root / ".bench_tmp"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    extra = ["--workdir", str(workdir)]
    try:
        warm = run_child("warmup", args, extra, env, deadline)
        if args.trace:
            result = run_child("trace", args, extra + ["--ops", str(math.ceil(ops / 2))], env, deadline)
            setups = [result["setup"]["setup_s"]]
        else:
            probes = [run_child("setup", args, extra, env, deadline) for _ in range(SETUPS - 1)]
            result = run_child("run", args, extra + ["--ops", str(ops)], env, deadline)
            setups = [probe["setup"]["setup_s"] for probe in probes] + [result["setup"]["setup_s"]]
            if any(probe["kernel"] != result["kernel"] for probe in probes):
                raise ChildError("set-up processes ran under different kernels")
    except ChildError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if warm["kernel"] != result["kernel"]:
        print("error: warm-up and measured processes ran under different kernels", file=sys.stderr)
        return 1
    if "metrics" not in result:
        print(f"error: no op completed: {result['problems'][:3]}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        units = {name: _unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": result["kernel"],
        "kernel_mode": os.environ.get("REPRO_KERNEL", "auto"),
        "kernel_info": warm["kernel_info"],
        "python": result["python"],
        "ops": ops if not args.trace else len(result["op_s"]),
        "op_s": result["op_s"],
        "setup_s": setups,
        "problems": result["problems"],
    }
    print(json.dumps({"run": run_info}))
    print(json.dumps({
        "correct": not result["incorrect"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
