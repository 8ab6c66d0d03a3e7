"""Reading saved benchmark runs and summarising a set of them.

A saved run is the standard output of one ``run.py`` invocation: the
second-to-last line is ``{"run": {...}}`` (workload, seed, kernel, ...) and
the last line is the result object.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List


def load_run(path: pathlib.Path) -> dict:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: not the output of a benchmark run")
    info = json.loads(lines[-2])["run"]
    result = json.loads(lines[-1])
    return {"info": info, "result": result, "path": str(path)}


def load_set(directory: pathlib.Path) -> Dict[str, List[dict]]:
    """Untraced runs in ``directory`` grouped by workload, ordered by seed."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.out")):
        run = load_run(path)
        if not run["info"]["trace"]:
            runs.setdefault(run["info"]["workload"], []).append(run)
    for group in runs.values():
        group.sort(key=lambda run: run["info"]["seed"])
    return runs


def values(runs: List[dict], metric: str) -> List[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def quartiles(data: List[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(data, n=4)`` gives them."""
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def spread(data: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(data)
    return (q3 - q1) / median


def failed_share(runs: List[dict]) -> float:
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def all_correct(runs: List[dict]) -> bool:
    return all(run["result"]["correct"] for run in runs)


def kernels(runs_by_workload: Dict[str, List[dict]]) -> set:
    return {run["info"]["kernel"] for runs in runs_by_workload.values() for run in runs}
