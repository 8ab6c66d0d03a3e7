"""The benchmark's tracer, verdicts and failure exit, without the program."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import types

import compare
import tracing

RUN = pathlib.Path(__file__).resolve().parents[1] / "run.py"


class _Engine:
    def step(self, n):
        return helpers.inner(n) + 1


helpers = types.SimpleNamespace(inner=lambda n: n * 2)
registry = {"build": lambda: "built"}


def test_tracer_records_nested_spans_and_restores_originals():
    originals = (_Engine.__dict__["step"], helpers.inner, registry["build"])
    tracer = tracing.Tracer()
    tracer.install([("outer", _Engine, "step"), ("inner", helpers, "inner"), ("topo", registry, "build")])
    tracer.op = 0
    assert _Engine().step(3) == 7
    assert registry["build"]() == "built"
    tracer.uninstall()
    assert (_Engine.__dict__["step"], helpers.inner, registry["build"]) == originals

    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "topo"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    self_times = tracer.self_times(0)
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    inner = tracer.spans[1][2] - tracer.spans[1][1]
    assert abs(self_times["outer"] - (outer - inner)) < 1e-12


def test_profile_groups_follow_module_paths():
    assert tracing.module_group("/x/src/repro/netsim/link.py", "send") == "netsim.link"
    assert tracing.module_group("/x/src/repro/tcp/cc/cubic.py", "on_ack") == "tcp.cc"
    assert tracing.module_group("/x/src/repro/core/coupled/lia.py", "f") == "core.coupled"
    assert tracing.module_group("/x/src/repro/model/fluid.py", "run") == "model"
    assert tracing.module_group("/x/src/repro/cli.py", "main") is None
    assert tracing.module_group("~", "<method 'run' of 'repro.kernel._ckernel.KernelSim' objects>") == "kernel.native"


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [value * 0.8 for value in base]
    assert compare.verdict(base, faster, "lower", 0.1, list(zip(base, faster)))[0] == "better"
    slower = [value * 1.3 for value in base]
    assert compare.verdict(base, slower, "lower", 0.1, list(zip(base, slower)))[0] == "worse"
    same = list(reversed(base))
    assert compare.verdict(base, same, "lower", 0.1, list(zip(base, same)))[0] == "within bound"
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1, list(zip(noisy, noisy)))[0] == "unresolved"
    higher = [value * 1.5 for value in base]
    assert compare.verdict(base, higher, "higher", 0.1, list(zip(base, higher)))[0] == "better"


def test_no_gain_from_few_pairs_or_more_failures():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [value * 0.8 for value in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, "lower", 0.1, pairs[:9])[0] == "within bound"
    assert compare.verdict(base, faster, "lower", 0.1, pairs, failures_ok=False)[0] == "not counted"


def test_run_fails_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "paper_fig2", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "metrics" not in json.loads(line)
