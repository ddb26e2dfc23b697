"""The benchmark's trace contract: every per-layer metric it reports exists.

`perfbench/run.py --trace 1` fails a run with "did not report" when a
per-layer metric named in BENCHMARK.json is missing from the trace, which
happens when a traced public function is renamed, made private or no longer
called. This test runs one small pass of the benchmark's flow under the
benchmark's tracer and checks every name, so such a change fails here. It
also checks the loss-evaluation count, which a grad check that bypasses the
traced `priors.grad_check` would change, and the counters that
`perfbench/layer_map.json` calls "fixed": they are set by the artefacts, so
a performance change must leave them where they are.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# computed by run.py from two runs, not found in one pass's trace
NOT_TRACED = {"trace.overhead_frac"}
# the fixed counters of one pass of the 32x32, T=2 plan at seed 1; the
# scheduler's are the adaptive plan's own counts, from schedule's one
# simulate_execution call
FIXED = {
    "routing.tokens": 384,  # 3 routing runs x 2 frames x 64 tokens
    "scheduler.tokens_full": 77,
    "scheduler.tokens_light": 19,
    "scheduler.tokens_reuse": 32,
    "scheduler.forced_refreshes": 1,
    "metrics.skipped_cd": 0,
    "metrics.distance_transform.px": 1772,
}


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    import worker
    yield tracer, worker
    for name in ("tracer", "worker", "refspeed"):
        sys.modules.pop(name, None)


def test_trace_reports_every_per_layer_metric(tmp_path, perfbench_modules):
    tracer_mod, worker = perfbench_modules
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        wanted = {m["name"] for m in json.load(f)["per_layer"]} - NOT_TRACED
    steps = worker.plan(worker.Workload(size=32, frames=2), 1, str(tmp_path))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for label, cmd, _, call in steps:
            with tracer.span(f"cli.{cmd}"):
                assert call() == 0, label
        values, _ = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert sorted(wanted - set(values)) == []
    # 2 * 85 + 2 * 205 + 2 * 85 at any resolution: the cp, kp_alb and src
    # checks perturb every entry of (w, b), (outer_w, outer_b, token_w) and
    # (w, b) both ways, each through the traced grad_check
    assert values["priors.loss_evals"] == 750
    assert {name: values[name] for name in FIXED} == FIXED
