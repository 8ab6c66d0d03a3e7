"""Output checks, computed apart from the program under test.

Every check reads the plain data a workload's ``digest`` produced (lists,
numbers and strings, no program objects) and returns a list of problems: an
empty list means the output passed.  The reference values are derived here
from the paper's constraints or from properties a correct simulator cannot
violate, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: Fig. 1c of the paper: capacity (Mbps) of the link each pair of paths
#: shares, per capacity labelling.  Path indices are 0-based.
PAPER_PAIR_CAPACITIES: Dict[str, Dict[Tuple[int, int], float]] = {
    "as_stated": {(0, 1): 40.0, (1, 2): 60.0, (0, 2): 80.0},
    "as_solution": {(0, 1): 40.0, (0, 2): 60.0, (1, 2): 80.0},
}

#: Largest packet on the wire, bytes: the sampling slack of one packet per
#: path per bin is measured in these.
PACKET_BYTES = 1500

#: Absolute slack when comparing a reported figure rounded to 3 decimals.
ROUNDING_SLACK = 0.0005 + 1e-9


def closed_form_optimum(pair_capacities: Dict[Tuple[int, int], float]) -> Tuple[float, List[float]]:
    """Maximum total rate of three paths under pairwise shared-link constraints.

    Summing ``x1 + x2 <= c12``, ``x2 + x3 <= c23`` and ``x1 + x3 <= c13``
    bounds the total by ``(c12 + c23 + c13) / 2``; when all three are tight,
    path ``i`` gets that total minus the capacity of the pair it is not in.
    """
    total = sum(pair_capacities.values()) / 2.0
    rates = []
    for index in range(3):
        (other_pair,) = [pair for pair in pair_capacities if index not in pair]
        rates.append(total - pair_capacities[other_pair])
    if min(rates) < 0:
        raise ValueError(f"pairwise constraints {pair_capacities} leave a path unused")
    return total, rates


def check_paper_run(run: dict) -> List[str]:
    """One Fig. 2 ``run_experiment`` result on the paper topology."""
    label = f"{run['labelling']}/{run['congestion_control']}"
    problems: List[str] = []
    capacities = PAPER_PAIR_CAPACITIES[run["labelling"]]
    total, rates = closed_form_optimum(capacities)

    if abs(run["optimum_total"] - total) > 1e-6:
        problems.append(f"{label}: optimum {run['optimum_total']} Mbps, closed form {total}")
    if len(run["optimum_rates"]) != 3 or any(
        abs(got - want) > 1e-6 for got, want in zip(run["optimum_rates"], rates)
    ):
        problems.append(f"{label}: optimum rates {run['optimum_rates']}, closed form {rates}")

    # Steady state is the second half of the run.  Receiver-side bins of
    # paths that leave a shared link by different routes can be skewed by
    # up to one bin, so the window mean may exceed the capacity by one bin
    # over the window length.
    series = run["series"]
    if len(series) != 3 or not all(series):
        problems.append(f"{label}: expected three non-empty per-path series")
        return problems
    tail = [values[len(values) // 2:] for values in series]
    means = [sum(values) / len(values) for values in tail]
    window = len(tail[0]) * run["interval"]
    slack = 1.0 + run["interval"] / window
    for (i, j), capacity in sorted(capacities.items()):
        if means[i] + means[j] > capacity * slack:
            problems.append(
                f"{label}: paths {i + 1}+{j + 1} carry {means[i] + means[j]:.3f} Mbps "
                f"in steady state over a {capacity:g} Mbps shared link"
            )

    delivered_mbps = run["bytes_delivered"] * 8 / run["duration"] / 1e6
    if delivered_mbps > total * (1 + 1e-9):
        problems.append(f"{label}: delivered {delivered_mbps:.3f} Mbps exceeds the {total:g} Mbps optimum")
    acked = sum(run["subflow_bytes_acked"])
    if run["bytes_delivered"] > acked:
        problems.append(
            f"{label}: connection delivered {run['bytes_delivered']} bytes, "
            f"subflows acked only {acked}"
        )
    return problems


def _non_finite_leaves(value, path: str = "") -> List[str]:
    """Paths of NaN, infinite or null numbers inside a nested JSON value."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in _non_finite_leaves(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [leaf for index, item in enumerate(value) for leaf in _non_finite_leaves(item, f"{path}[{index}]")]
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return [path]
    return []


def _point_id(params: dict) -> Tuple:
    return (
        params.get("kind"),
        params.get("congestion_control"),
        float(params.get("rate_scale", 1.0)),
        params.get("queue_kind"),
    )


def check_campaign(digest: dict) -> List[str]:
    """One op's result store holding every point of both campaign grids.

    ``digest["expected"]`` lists the grid points the inputs declared, each
    with ``kind``, ``congestion_control``, ``rate_scale``, ``queue_kind``
    and, for multiflow points, ``bottleneck_mbps`` and ``paths``.
    """
    problems: List[str] = []
    expected = digest["expected"]
    records = digest["records"]
    if digest["line_count"] != len(expected):
        problems.append(f"store holds {digest['line_count']} lines for {len(expected)} grid points")
    keys = [record.get("key") for record in records]
    if len(set(keys)) != len(keys):
        problems.append("store keys are not unique")

    by_point: Dict[Tuple, List[dict]] = {}
    for record in records:
        by_point.setdefault(_point_id(record.get("params", {})), []).append(record)
    for point in expected:
        point_id = (point["kind"], point["congestion_control"], float(point["rate_scale"]), point["queue_kind"])
        found = by_point.get(point_id, [])
        if len(found) != 1:
            problems.append(f"grid point {point_id}: {len(found)} store lines")
            continue
        record = found[0]
        if record.get("status") != "ok":
            problems.append(f"grid point {point_id}: status {record.get('status')!r} ({record.get('error')})")
            continue
        summary = record["summary"]
        if point["kind"] == "single":
            want = 90.0 * point["rate_scale"]
            if abs(summary["optimum_mbps"] - want) > ROUNDING_SLACK:
                problems.append(f"grid point {point_id}: optimum {summary['optimum_mbps']} Mbps, expected {want:g}")
        else:
            capacity = point["bottleneck_mbps"] * point["rate_scale"]
            # One full packet per path per sampling bin of slack.
            slack = point["paths"] * PACKET_BYTES * 8 / point["interval"] / 1e6
            aggregate = summary["fairness"]["aggregate_mbps"]
            if aggregate > capacity + slack:
                problems.append(
                    f"grid point {point_id}: aggregate {aggregate} Mbps over the {capacity:g} Mbps bottleneck"
                )
        bad = _non_finite_leaves(record.get("validation"), "validation")
        if record.get("validation") is None or bad:
            problems.append(f"grid point {point_id}: validation block missing or not finite at {bad[:3]}")
        if point["queue_kind"] in (None, "droptail"):
            plane = summary.get("signal_plane") or {}
            if plane.get("ecn_marks") != 0 or plane.get("early_drops") != 0:
                problems.append(
                    f"grid point {point_id}: drop-tail run reports {plane.get('ecn_marks')} ECN marks "
                    f"and {plane.get('early_drops')} early drops"
                )
    return problems


def check_fct(workload: dict) -> List[str]:
    """One flow-level ``run_workload`` result.

    ``workload`` carries the make-up the inputs declared (``sessions``,
    ``transfers_per_session``, ``bottleneck_mbps``) and per-transfer lists
    ``size``, ``start``, ``finish`` and ``path_min_mbps`` (the slowest link
    rate on the transfer's path).
    """
    name = workload["name"]
    problems: List[str] = []
    offered_by_spec = workload["sessions"] * workload["transfers_per_session"]
    if not workload["completed"] == workload["offered"] == offered_by_spec:
        problems.append(
            f"{name}: completed {workload['completed']}, offered {workload['offered']}, "
            f"spec offers {offered_by_spec}"
        )
    sizes, starts, finishes = workload["size"], workload["start"], workload["finish"]
    if len(sizes) != workload["completed"]:
        problems.append(f"{name}: {len(sizes)} transfer records for {workload['completed']} completions")
    if not sizes:
        return problems

    too_fast = 0
    for size, start, finish, rate in zip(sizes, starts, finishes, workload["path_min_mbps"]):
        if finish - start < size * 8 / (rate * 1e6) * (1 - 1e-6):
            too_fast += 1
    if too_fast:
        problems.append(f"{name}: {too_fast} transfers finished faster than their path's line rate")

    span = max(finishes) - min(starts)
    served_bits = sum(sizes) * 8
    capacity_bits = workload["bottleneck_mbps"] * 1e6 * span
    if served_bits > capacity_bits * (1 + 1e-9):
        problems.append(
            f"{name}: served {served_bits / 1e6:.1f} Mb in {span:.3f} s, "
            f"more than the bottleneck carries ({capacity_bits / 1e6:.1f} Mb)"
        )
    return problems


def check_same_output(fingerprints: Sequence[str]) -> List[str]:
    """Identical inputs must give identical outputs in every op of a run."""
    first = fingerprints[0] if fingerprints else None
    differing = [index for index, value in enumerate(fingerprints) if value != first]
    if differing:
        return [f"ops {differing} produced different output from op 0 on identical inputs"]
    return []
