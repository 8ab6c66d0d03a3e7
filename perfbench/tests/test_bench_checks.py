"""Each output check accepts real program output and rejects a corrupted copy.

The fixtures run one op of every workload exactly as the benchmark runs it
(seed 1, about 7 s in all); each test then corrupts one property of that
output and expects the check to name it.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy

import pytest

import checks
from workloads import WORKLOADS


def _run(name, tmp_path_factory):
    workload = WORKLOADS[name]
    inputs = workload.build_inputs(1, tmp_path_factory.mktemp(name))
    return workload, workload.digest(inputs, workload.op(inputs))


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return _run("paper_fig2", tmp_path_factory)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    return _run("campaign_grid", tmp_path_factory)


@pytest.fixture(scope="module")
def fct(tmp_path_factory):
    return _run("fct_flowlevel", tmp_path_factory)


def _corrupted(fixture, mutate):
    workload, digest = fixture
    broken = copy.deepcopy(digest)
    mutate(broken)
    return workload.check(broken)


# ---------------------------------------------------------------- paper_fig2
def test_closed_form_matches_the_paper():
    assert checks.closed_form_optimum(checks.PAPER_PAIR_CAPACITIES["as_stated"]) == (90.0, [30.0, 10.0, 50.0])
    assert checks.closed_form_optimum(checks.PAPER_PAIR_CAPACITIES["as_solution"]) == (90.0, [10.0, 30.0, 50.0])


def test_paper_output_passes(paper):
    workload, digest = paper
    assert [run["congestion_control"] for run in digest["runs"]] == ["cubic", "lia", "olia"]
    assert workload.check(digest) == []


def test_paper_checks_the_other_labelling(paper):
    workload, digest = paper
    other = copy.deepcopy(digest)
    for run in other["runs"]:
        run["labelling"] = "as_solution" if run["labelling"] == "as_stated" else "as_stated"
    # The optimum rates of one labelling are wrong for the other.
    assert any("optimum rates" in p for p in workload.check(other))


def test_paper_rejects_wrong_optimum(paper):
    def swap(digest):
        rates = digest["runs"][0]["optimum_rates"]
        rates[0], rates[1] = rates[1], rates[0]

    assert any("optimum rates" in p for p in _corrupted(paper, swap))


def test_paper_rejects_path_over_capacity(paper):
    def overload(digest):
        values = digest["runs"][0]["series"][0]
        values[len(values) // 2:] = [value + 45.0 for value in values[len(values) // 2:]]

    assert any("shared link" in p for p in _corrupted(paper, overload))


def test_paper_rejects_delivery_above_optimum(paper):
    def inflate(digest):
        run = digest["runs"][0]
        run["bytes_delivered"] = int(91e6 / 8 * run["duration"])
        run["subflow_bytes_acked"] = [run["bytes_delivered"]]

    assert any("exceeds the 90 Mbps optimum" in p for p in _corrupted(paper, inflate))


def test_paper_rejects_delivery_above_acked(paper):
    def unacked(digest):
        run = digest["runs"][0]
        run["bytes_delivered"] = sum(run["subflow_bytes_acked"]) + 1

    assert any("acked only" in p for p in _corrupted(paper, unacked))


# ------------------------------------------------------------- campaign_grid
def test_campaign_output_passes(campaign):
    workload, digest = campaign
    assert digest["line_count"] == 18
    assert workload.check(digest) == []


def test_campaign_rejects_missing_line(campaign):
    def drop(digest):
        digest["records"].pop()
        digest["line_count"] -= 1

    problems = _corrupted(campaign, drop)
    assert any("17 lines for 18 grid points" in p for p in problems)
    assert any("0 store lines" in p for p in problems)


def test_campaign_rejects_duplicate_key(campaign):
    def duplicate(digest):
        digest["records"][1]["key"] = digest["records"][0]["key"]

    assert any("not unique" in p for p in _corrupted(campaign, duplicate))


def test_campaign_rejects_failed_point(campaign):
    def fail(digest):
        digest["records"][0]["status"] = "error"

    assert any("status 'error'" in p for p in _corrupted(campaign, fail))


def test_campaign_rejects_wrong_scaled_optimum(campaign):
    def shift(digest):
        digest["records"][0]["summary"]["optimum_mbps"] += 1.0

    assert any("expected" in p for p in _corrupted(campaign, shift))


def test_campaign_rejects_aggregate_over_bottleneck(campaign):
    def overload(digest):
        record = next(r for r in digest["records"] if r["params"]["kind"] == "multiflow")
        record["summary"]["fairness"]["aggregate_mbps"] = 51.0

    assert any("over the 50 Mbps bottleneck" in p for p in _corrupted(campaign, overload))


def test_campaign_rejects_nan_validation(campaign):
    def nan(digest):
        digest["records"][0]["validation"]["predictions"]["lp"]["rel_error"] = None

    assert any("not finite" in p for p in _corrupted(campaign, nan))


def test_campaign_rejects_marks_on_droptail(campaign):
    def mark(digest):
        record = next(r for r in digest["records"] if r["params"].get("queue_kind") == "droptail")
        record["summary"]["signal_plane"]["ecn_marks"] = 3

    assert any("drop-tail run reports 3 ECN marks" in p for p in _corrupted(campaign, mark))


# ------------------------------------------------------------- fct_flowlevel
def test_fct_output_passes(fct):
    workload, digest = fct
    conferencing, web = digest["workloads"]
    assert conferencing["completed"] == 500 * 20
    assert web["completed"] == 400 * 3 * 9
    assert workload.check(digest) == []


def test_fct_rejects_incomplete_run(fct):
    def lose(digest):
        web = digest["workloads"][1]
        web["completed"] -= 1
        for column in ("size", "start", "finish", "path_min_mbps"):
            web[column].pop()

    assert any("completed" in p for p in _corrupted(fct, lose))


def test_fct_rejects_transfer_faster_than_line_rate(fct):
    def rush(digest):
        workload = digest["workloads"][0]
        index = workload["size"].index(max(workload["size"]))
        workload["finish"][index] = workload["start"][index] + 1e-6

    assert any("faster than their path's line rate" in p for p in _corrupted(fct, rush))


def test_fct_rejects_bytes_over_bottleneck(fct):
    def inflate(digest):
        workload = digest["workloads"][0]
        workload["size"] = [size * 1000 for size in workload["size"]]

    assert any("more than the bottleneck carries" in p for p in _corrupted(fct, inflate))


# ---------------------------------------------------------------- determinism
def test_repeated_ops_must_agree():
    assert checks.check_same_output(["a", "a"]) == []
    assert checks.check_same_output(["a", "b"]) != []
