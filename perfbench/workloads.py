"""The benchmark's workloads: inputs from a seed, one op, and its digest.

A workload object has

* ``build_inputs(seed, workdir)`` -- everything an op needs, made from the
  seed alone (timed as part of set-up);
* ``op(inputs)`` -- one call into the program's public functions (timed);
* ``digest(inputs, raw)`` -- the op's output reduced to plain data, with a
  ``fingerprint`` of everything the program produced;
* ``check(digest)`` -- problems found by :mod:`checks` (empty if correct).

Every op of a workload does the same work, so the median op time describes
the program rather than a mix of op kinds.  The program is called through
module attributes (``harness.run_experiment``, ``campaign.run_campaign``,
...) so the tracer in :mod:`tracing` can wrap those names.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import checks

PAPER_CONTROLLERS = ("cubic", "lia", "olia")
LABELLINGS = ("as_stated", "as_solution")
#: Fig. 2: each run lasts 4 s and is sampled every 100 ms.
PAPER_DURATION_S = 4.0
SAMPLING_INTERVAL_S = 0.1
#: Simulated length of every campaign grid point.
CAMPAIGN_POINT_S = 0.5
#: The flow-level populations: (scenario, sessions, scenario horizon in s).
POPULATIONS = (("conferencing_load", 500, 180.0), ("web_page_load", 400, 300.0))


def _fingerprint(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- paper_fig2
class PaperFig2:
    """Fig. 2's data: cubic, lia and olia on the Fig. 1a topology, 4 s each.

    The seed picks the capacity labelling (``as_stated`` or ``as_solution``);
    every op of a run regenerates the same three runs.
    """

    name = "paper_fig2"
    nominal_op_s = 3.0

    def build_inputs(self, seed: int, workdir: pathlib.Path) -> List[Tuple[str, object]]:
        from repro.experiments import harness

        label = random.Random(seed).choice(LABELLINGS)
        return [
            (
                label,
                harness.paper_experiment(
                    controller,
                    duration=PAPER_DURATION_S,
                    sampling_interval=SAMPLING_INTERVAL_S,
                    variant=label,
                ),
            )
            for controller in PAPER_CONTROLLERS
        ]

    def op(self, inputs):
        from repro.experiments import harness

        return [harness.run_experiment(config) for _, config in inputs]

    def digest(self, inputs, raw) -> dict:
        runs = []
        for (label, config), result in zip(inputs, raw):
            runs.append(
                {
                    "labelling": label,
                    "congestion_control": config.congestion_control,
                    "duration": PAPER_DURATION_S,
                    "interval": SAMPLING_INTERVAL_S,
                    "optimum_total": result.optimum.total,
                    "optimum_rates": list(result.optimum.rates),
                    "series": [list(result.per_path_series[tag].values) for tag in (1, 2, 3)],
                    "bytes_delivered": result.stats.bytes_delivered,
                    "subflow_bytes_acked": [sub.bytes_acked for sub in result.stats.subflows],
                    "events": result.events_processed,
                }
            )
        return {"runs": runs, "fingerprint": _fingerprint(runs)}

    def check(self, digest: dict) -> List[str]:
        if len(digest["runs"]) != len(PAPER_CONTROLLERS):
            return [f"expected three runs, got {len(digest['runs'])}"]
        return [problem for run in digest["runs"] for problem in checks.check_paper_run(run)]


# ------------------------------------------------------------- campaign_grid
#: The lower of the paper grid's two rate scales; the upper one is
#: ``2 - low`` so that every seed simulates the same total link capacity.
LOW_RATE_SCALES = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
ECN_CONTROLLERS = ("lia", "olia", "sfc", "telehaptic")
ECN_QUEUES = ("droptail", "red", "codel")
#: ``ecn_mptcp_fairness``: two MPTCP connections of two subflows each on a
#: 50 Mbps bottleneck.
ECN_BOTTLENECK_MBPS = 50.0
ECN_PATHS = 4


@dataclass
class CampaignInputs:
    specs: tuple
    expected: List[dict]
    workdir: pathlib.Path
    counter: "itertools.count" = field(default_factory=itertools.count)


class CampaignGrid:
    """Two campaign grids run into one fresh JSONL store per op.

    * the paper grid: cubic/lia/olia x two link-rate scales from the seed,
      single-connection points;
    * the ECN/AQM grid: droptail/red/codel x lia/olia/sfc/telehaptic with
      ECN on, multiflow points.
    """

    name = "campaign_grid"
    nominal_op_s = 2.5

    def build_inputs(self, seed: int, workdir: pathlib.Path) -> CampaignInputs:
        from repro.experiments import campaign

        low = random.Random(seed).choice(LOW_RATE_SCALES)
        scales = (low, round(2.0 - low, 2))
        paper = campaign.CampaignSpec(
            name="bench_paper_grid",
            kind="single",
            scenarios=("paper",),
            congestion_controls=PAPER_CONTROLLERS,
            rate_scales=scales,
            duration=CAMPAIGN_POINT_S,
            sampling_interval=SAMPLING_INTERVAL_S,
        )
        ecn = campaign.ecn_aqm_fairness_campaign(
            duration=CAMPAIGN_POINT_S,
            congestion_controls=ECN_CONTROLLERS,
            queue_kinds=ECN_QUEUES,
            ecn_modes=(True,),
        )
        expected = [
            {"kind": "single", "congestion_control": cc, "rate_scale": scale, "queue_kind": None}
            for cc in PAPER_CONTROLLERS
            for scale in scales
        ] + [
            {
                "kind": "multiflow",
                "congestion_control": cc,
                "rate_scale": 1.0,
                "queue_kind": queue,
                "bottleneck_mbps": ECN_BOTTLENECK_MBPS,
                "paths": ECN_PATHS,
                "interval": ecn.sampling_interval,
            }
            for cc in ECN_CONTROLLERS
            for queue in ECN_QUEUES
        ]
        return CampaignInputs(specs=(paper, ecn), expected=expected, workdir=workdir)

    def op(self, inputs: CampaignInputs):
        from repro.experiments import campaign

        store = inputs.workdir / f"store-{next(inputs.counter)}" / "points.jsonl"
        for spec in inputs.specs:
            campaign.run_campaign(spec, store, max_workers=1)
        return store

    def digest(self, inputs: CampaignInputs, raw: pathlib.Path) -> dict:
        text = raw.read_text(encoding="utf-8")
        shutil.rmtree(raw.parent)
        lines = [line for line in text.splitlines() if line.strip()]
        return {
            "expected": inputs.expected,
            "line_count": len(lines),
            "records": [json.loads(line) for line in lines],
            "fingerprint": hashlib.sha256(text.encode()).hexdigest(),
        }

    def check(self, digest: dict) -> List[str]:
        return checks.check_campaign(digest)


# ------------------------------------------------------------- fct_flowlevel
@dataclass
class FctInputs:
    configs: list
    #: Per config: the make-up the checks compare against.
    expected: List[dict]
    #: Per config: session name -> slowest link rate (Mbps) on its path.
    session_rate: List[Dict[str, float]]


class FctFlowlevel:
    """Flow-level ``run_workload`` of conferencing_load, then web_page_load.

    The horizon is the later of the scenario's (180 s and 300 s) and the
    plan's work-conserving drain bound.  The Pareto sizes of
    ``web_page_load`` reach gigabytes on some seeds, which no horizon of
    300 s can serve; with the bound, "every transfer completes" tests the
    simulator rather than the horizon.  The flow-level engine stops at its
    last event, so a later horizon costs nothing.
    """

    name = "fct_flowlevel"
    nominal_op_s = 1.0

    def build_inputs(self, seed: int, workdir: pathlib.Path) -> FctInputs:
        from repro.workload import scenarios

        configs, expected, session_rate = [], [], []
        for name, sessions, horizon in POPULATIONS:
            config = scenarios.WORKLOAD_SCENARIOS[name](sessions=sessions, duration=horizon, seed=seed)
            topology, paths = config.build_scenario()
            path_list = list(paths)
            path_rate = [
                min(topology.capacity_of(a, b) for a, b in zip(path.nodes, path.nodes[1:]))
                for path in path_list
            ]
            bottleneck = _common_bottleneck(topology, path_list)
            plan = config.spec.compile(len(path_list))
            config = config.with_overrides(duration=max(horizon, _drain_bound(plan, bottleneck)))
            request = config.spec.request
            configs.append(config)
            expected.append(
                {
                    "name": name,
                    "sessions": config.spec.sessions,
                    "transfers_per_session": request.requests_per_session * (1 + request.subresources),
                    "bottleneck_mbps": bottleneck,
                }
            )
            session_rate.append({s.name: path_rate[s.path_index] for s in plan.sessions})
        return FctInputs(configs=configs, expected=expected, session_rate=session_rate)

    def op(self, inputs: FctInputs):
        from repro.workload import runner

        return [runner.run_workload(config) for config in inputs.configs]

    def digest(self, inputs: FctInputs, raw) -> dict:
        workloads = []
        for expected, rates, result in zip(inputs.expected, inputs.session_rate, raw):
            records = result.records
            workloads.append(
                dict(
                    expected,
                    completed=result.fct.completed,
                    offered=result.fct.offered,
                    size=[r.size_bytes for r in records],
                    start=[r.start for r in records],
                    finish=[r.finish for r in records],
                    path_min_mbps=[rates[r.session] for r in records],
                    transitions=result.events_processed,
                )
            )
        return {"workloads": workloads, "fingerprint": _fingerprint(workloads)}

    def check(self, digest: dict) -> List[str]:
        return [problem for workload in digest["workloads"] for problem in checks.check_fct(workload)]


def _common_bottleneck(topology, paths) -> float:
    """Rate of the slowest link every path crosses; it must be each path's bottleneck."""
    edges = [set(zip(path.nodes, path.nodes[1:])) for path in paths]
    common = set.intersection(*edges)
    if not common:
        raise ValueError("the workload's paths share no link")
    bottleneck = min(topology.capacity_of(a, b) for a, b in common)
    if any(topology.capacity_of(a, b) < bottleneck for path_edges in edges for a, b in path_edges):
        raise ValueError("a path has a link slower than the shared bottleneck")
    return bottleneck


def _drain_bound(plan, bottleneck_mbps: float) -> float:
    """Time by which a work-conserving bottleneck has served every transfer.

    While any transfer is active the shared bottleneck runs at full rate; a
    session waits otherwise only for its own start and think times.  So
    every session ends by its start plus its think times plus the time to
    serve all bytes, plus one second of margin.
    """
    serve_all = plan.total_bytes * 8 / (bottleneck_mbps * 1e6)
    latest = max(s.start + sum(t.delay for t in s.transfers) for s in plan.sessions)
    return latest + serve_all + 1.0


WORKLOADS = {w.name: w for w in (PaperFig2(), CampaignGrid(), FctFlowlevel())}
