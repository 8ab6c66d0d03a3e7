"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py runs/base runs/change

For each end-to-end metric of ``BENCHMARK.json`` it prints both sets' median
and quartiles, the pairs (same seed) the change won, and a verdict:

``better``       at least ten pairs, the change wins at least nine tenths of
                 them and the medians differ by more than the base's
                 quartile distance;
``not counted``  it would be ``better``, but a run of the change has a
                 rejected output or the change fails a larger share of its
                 ops than the base: a gain bought with failures is none;
``unresolved``   the base's quartile spread exceeds the bound, and not every
                 run of the change beats every run of the base;
``worse``        the change's median is worse than the base's by more than
                 the bound;
``within bound`` otherwise.

Runs made under different kernels are not compared.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import runs  # noqa: E402


#: Fewest same-seed pairs a gain may rest on.
MIN_PAIRS = 10


def verdict(base: list, change: list, better: str, bound: float, pairs: list,
            failures_ok: bool = True) -> tuple:
    """``(verdict, pairs won)`` under the rules in the module docstring.

    ``failures_ok`` is false when the change's runs have a rejected output
    or a larger failed share than the base's.
    """
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, base_median, q3 = runs.quartiles(base)
    _, change_median, _ = runs.quartiles(change)
    gain = sign * (change_median - base_median)
    if len(pairs) >= MIN_PAIRS and won >= 0.9 * len(pairs) and gain > q3 - q1:
        return ("better" if failures_ok else "not counted"), won
    if runs.spread(base) > bound and not all(sign * (c - b) > 0 for b in base for c in change):
        return "unresolved", won
    if -gain > bound * base_median:
        return "worse", won
    return "within bound", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base_runs = runs.load_set(args.base)
    change_runs = runs.load_set(args.change)

    kernels = runs.kernels(base_runs) | runs.kernels(change_runs)
    if len(kernels) > 1:
        print(f"error: runs were made under different kernels {sorted(kernels)}; "
              "compare sets made under one REPRO_KERNEL setting", file=sys.stderr)
        return 2

    header = f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} {'won':<7} verdict"
    print(header)
    for workload in sorted(set(base_runs) & set(change_runs)):
        base_group, change_group = base_runs[workload], change_runs[workload]
        base_seeds = {run["info"]["seed"]: run for run in base_group}
        paired = [(base_seeds[run["info"]["seed"]], run) for run in change_group
                  if run["info"]["seed"] in base_seeds]
        base_failed, change_failed = runs.failed_share(base_group), runs.failed_share(change_group)
        failures_ok = runs.all_correct(change_group) and change_failed <= base_failed
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = runs.values(base_group, name)
            change = runs.values(change_group, name)
            pairs = [(b["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                     for b, c in paired]
            result, won = verdict(base, change, metric["better"], metric["bound"], pairs, failures_ok)
            bq1, bm, bq3 = runs.quartiles(base)
            cq1, cm, cq3 = runs.quartiles(change)
            base_text = f"{bm:.4f} [{bq1:.4f}, {bq3:.4f}]"
            change_text = f"{cm:.4f} [{cq1:.4f}, {cq3:.4f}]"
            print(f"{workload:<14} {name:<12} {base_text:<30} {change_text:<30} "
                  f"{f'{won}/{len(pairs)}':<7} {result}")
        print(f"{workload:<14} failed share: base {base_failed:.4f}, change {change_failed:.4f}; "
              f"outputs correct: base {runs.all_correct(base_group)}, change {runs.all_correct(change_group)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
