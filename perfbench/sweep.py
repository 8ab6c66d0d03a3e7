"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/sweep.py --out runs/one --seeds 1-10 [--workloads paper_fig2,...]
    python3 perfbench/sweep.py --out runs --seeds 1-10 --base ../parent

Run it from the root of a checkout.  Each run's standard output is saved as
``<workload>-s<seed>-t<trace>.out`` (the input of ``compare.py``).  Seeds
are the outer loop, so slow drift of the machine spreads over every
workload alike.

With ``--base``, the runs of that other checkout (the parent commit) go to
``<out>/base`` and this checkout's to ``<out>/change``.  For every seed and
workload the two run back to back, and which of them goes first alternates,
so both sides meet the same machine state.  Each checkout runs the command
of its own ``BENCHMARK.json``.

The summary gives, per set, workload and end-to-end metric, the median, the
quartile spread as a share of the median, and the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import runs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(root: pathlib.Path, workload: str, seed: int, trace: int, out: pathlib.Path) -> bool:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    (out / f"{workload}-s{seed}-t{trace}.out").write_text(proc.stdout)
    if proc.returncode != 0:
        print(f"{root} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return False
    print(f"{out.name} {workload} seed {seed}: {proc.stdout.splitlines()[-1]}", flush=True)
    return True


def summarise(out: pathlib.Path, workloads: list, bench: dict) -> None:
    collected = runs.load_set(out)
    for workload in workloads:
        group = collected.get(workload, [])
        print(f"\n{out.name} {workload}: {len(group)} runs, failed share {runs.failed_share(group):.4f}")
        for metric in bench["end_to_end"]:
            data = runs.values(group, metric["name"])
            q1, median, q3 = runs.quartiles(data)
            bound = metric["bound"]
            spread = runs.spread(data)
            flag = "" if spread < bound / 3 else "  (above a third of the bound)"
            print(f"  {metric['name']:<12} median {median:.4f} {metric['unit']:<4} "
                  f"spread {spread:.4f} bound {bound}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", type=pathlib.Path, help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    here = pathlib.Path.cwd()
    out = args.out.resolve()
    if args.base is None:
        sides = [(here, out)]
    else:
        sides = [(args.base.resolve(), out / "base"), (here, out / "change")]
    for _, directory in sides:
        directory.mkdir(parents=True, exist_ok=True)

    turn = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            order = sides if turn % 2 == 0 else sides[::-1]
            turn += 1
            for root, directory in order:
                if not run_once(root, workload, seed, args.trace, directory):
                    return 1

    if not args.trace:
        bench = json.loads((here / "BENCHMARK.json").read_text())
        for _, directory in sides:
            summarise(directory, workloads, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
