"""Quick test of the benchmark itself: every workload at a tiny size passes
its checks, and the same seed gives the same science outputs, traced or not.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import pytest

import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_checks_and_repeats(name, tmp_path):
    science = []
    for traced in (False, True):
        workload = workloads.WORKLOADS[name](seed=3, **workloads.TINY[name])
        tracer = tracing.Tracer(enabled=traced)
        tracer.run_id = "tiny"
        workload.setup(tracer)
        work = tmp_path / f"traced{int(traced)}"
        work.mkdir()
        out = workload.run(workload.inputs(0), work, tracer)
        assert workload.check(out) == []
        science.append(json.dumps(workload.science(out), sort_keys=True))
        if traced:
            counters = workload.counters(out, work)
            assert set(counters) <= set(workloads.COUNTERS)
            assert tracing.per_layer(tracer.spans)["tomography.bins_used"] == out.bins
    assert science[0] == science[1]


def test_per_layer_metrics_match_spec():
    names = set(tracing.per_layer([])) | set(workloads.COUNTERS)
    names |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
