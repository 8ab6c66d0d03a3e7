"""Spans and profile attribution for the traced run.

The tracer wraps program functions at the names their callers look up
(module attributes, class attributes, registry entries), records one span
per call -- name, start, end, parent span, op id -- in memory, and restores
the originals when it is uninstalled.  Nothing here changes the program's
files; untraced runs never install it.

A layer's time is the self time of its spans: duration minus the part its
child spans cover.  The profile pass attributes :mod:`cProfile` self time
and call counts to the program's modules.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span name -> per-layer metric reporting the spans' self time per op.
SPAN_METRICS = {
    "topologies.build": "topologies.build_s",
    "netsim.build": "netsim.build_s",
    "netsim.run": "netsim.run_s",
    "measure.post": "measure.post_s",
    "measure.validation": "measure.validation_s",
    "model.lp": "model.lp_s",
    "model.maxmin": "model.maxmin_s",
    "model.pf": "model.pf_s",
    "model.fluid": "model.fluid_s",
    "experiments.store": "experiments.store_s",
    "experiments.campaign": "experiments.campaign_self_s",
    "experiments.point": "experiments.point_self_s",
    "experiments.run": "experiments.run_self_s",
    "workload.compile": "workload.compile_s",
    "workload.run": "workload.run_self_s",
    "flowsim.run": "flowsim.run_s",
    "measure.fct": "measure.fct_s",
    "kernel.bypass": "kernel.bypass_s",
    "op": "op.unattributed_s",
}

#: Exact counts recorded at span boundaries, per op.
COUNT_METRICS = ("netsim.events", "kernel.native_windows", "flowsim.transitions")

#: Module groups of the profile pass (paths under ``src/repro``), plus the
#: compiled kernel's native methods.
PROFILE_GROUPS = (
    "netsim.engine",
    "netsim.link",
    "netsim.queues",
    "netsim.packet",
    "netsim.capture",
    "tcp.sender",
    "tcp.receiver",
    "tcp.cc",
    "core.connection",
    "core.coupled",
    "flowsim.engine",
    "flowsim.allocator",
    "workload",
    "model",
    "measure",
    "kernel.native",
)


def span_points():
    """``(span name, owner, attribute)`` for every wrapped call site.

    Imports the program, so it is called only after set-up has imported it.
    """
    import repro.kernel
    from repro.experiments import campaign, harness, multiflow
    from repro.experiments import scenarios as competition
    from repro.flowsim.engine import FlowLevelSim
    from repro.measure import validation
    from repro.measure.fct import FctReport
    from repro.model.fluid import FluidModel
    from repro.netsim.network import Network
    from repro.workload import runner, spec
    from repro.workload import scenarios as workload_scenarios

    points = [
        ("topologies.build", harness, "paper_scenario"),
        ("topologies.build", campaign.SINGLE_SCENARIOS, "paper"),
        ("topologies.build", competition, "shared_bottleneck"),
        ("topologies.build", workload_scenarios, "shared_bottleneck"),
        ("netsim.build", Network, "__init__"),
        ("netsim.build", Network, "attach_capture"),
        ("netsim.run", Network, "run"),
        ("measure.validation", campaign, "validate_experiment"),
        ("measure.validation", campaign, "validate_multiflow"),
        ("model.maxmin", validation, "max_min_fair_rates"),
        ("model.pf", validation, "proportional_fair_rates"),
        ("model.fluid", FluidModel, "run"),
        ("experiments.store", campaign.ResultStore, "append"),
        ("experiments.store", campaign.ResultStore, "load"),
        ("experiments.campaign", campaign, "run_campaign"),
        ("experiments.point", campaign, "_execute_point"),
        ("experiments.run", harness, "run_experiment"),
        ("experiments.run", campaign, "run_experiment"),
        ("experiments.run", campaign, "run_multiflow"),
        ("workload.compile", spec.WorkloadSpec, "compile"),
        ("workload.run", runner, "run_workload"),
        ("flowsim.run", FlowLevelSim, "run"),
        ("measure.fct", FctReport, "from_records"),
        ("kernel.bypass", repro.kernel, "maybe_run_network"),
    ]
    for owner, names in (
        (harness, ("per_tag_timeseries", "total_timeseries", "analyze_convergence",
                   "analyze_dynamics", "connection_stats", "signal_plane_report")),
        (multiflow, ("per_tag_timeseries", "throughput_timeseries", "analyze_fairness",
                     "connection_stats", "signal_plane_report")),
    ):
        points += [("measure.post", owner, name) for name in names]
    for owner, names in (
        (harness, ("build_constraints", "max_total_throughput")),
        (multiflow, ("build_constraints", "max_total_throughput")),
        (validation, ("build_constraints", "max_total_throughput")),
        (campaign, ("build_constraints",)),
    ):
        points += [("model.lp", owner, name) for name in names]
    return points


def _network_events(args, result, before):
    return {"netsim.events": args[0].sim.events_processed - before}


def _native_windows(args, result, before):
    return {"kernel.native_windows": int(result is not None)}


def _flowsim_transitions(args, result, before):
    return {"flowsim.transitions": result.transitions}


#: Span name -> (read state before the call, counts after it).
_COUNTERS = {
    "netsim.run": (lambda args: args[0].sim.events_processed, _network_events),
    "kernel.bypass": (lambda args: None, _native_windows),
    "flowsim.run": (lambda args: None, _flowsim_transitions),
}


class Tracer:
    """In-memory span recorder that wraps program call sites."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, op id]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[object, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op: object = None
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # ------------------------------------------------------------ recording
    def call(self, name: str, fn: Callable, args=(), kwargs=None):
        counter = _COUNTERS.get(name)
        before = counter[0](args) if counter else None
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter:
            for key, value in counter[1](args, result, before).items():
                self.counts[self.op][key] += value
        return result

    def _wrap(self, name: str, original):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        return traced

    # ------------------------------------------------------------ install
    def install(self, points) -> None:
        for name, owner, attr in points:
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self._wrap(name, original)
            elif isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
            else:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ reading
    def self_times(self, op) -> Dict[str, float]:
        """Summed self time per span name over the spans of one op."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op == op:
                totals[name] += (end - start) - covered[index]
        return totals


def span_metrics(tracer: Tracer, ops) -> Dict[str, float]:
    """Median over ``ops`` of each layer's per-op self time and counts."""
    per_op = [tracer.self_times(op) for op in ops]
    metrics = {
        metric: statistics.median(times.get(name, 0.0) for times in per_op)
        for name, metric in SPAN_METRICS.items()
    }
    for key in COUNT_METRICS:
        metrics[key] = statistics.median_low(tracer.counts[op].get(key, 0) for op in ops)
    setup = tracer.self_times("setup")
    metrics["topologies.setup_build_s"] = setup.get("topologies.build", 0.0)
    return metrics


def module_group(filename: str, function: str) -> Optional[str]:
    """The :data:`PROFILE_GROUPS` entry a profiled function belongs to."""
    if filename == "~":
        return "kernel.native" if "_ckernel" in function else None
    parts = pathlib.PurePath(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    dotted = ".".join(parts[index + 1:])
    for group in PROFILE_GROUPS:
        if dotted == group or dotted.startswith(group + "."):
            return group
    return None


def profile_metrics(stats: dict) -> Dict[str, float]:
    """``<group>.self_s`` and ``<group>.calls`` from ``pstats.Stats.stats``."""
    metrics = {}
    for group in PROFILE_GROUPS:
        metrics[f"{group}.self_s"] = 0.0
        metrics[f"{group}.calls"] = 0
    for (filename, _, function), (_, calls, self_time, _, _) in stats.items():
        group = module_group(filename, function)
        if group is not None:
            metrics[f"{group}.self_s"] += self_time
            metrics[f"{group}.calls"] += calls
    return metrics
