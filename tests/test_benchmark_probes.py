"""The benchmark's small layer probes (perfbench/workloads.py PROBES), run once
each against the package: a renamed function, field or parameter that the
benchmark uses fails here, not only in the slow `pytest perfbench`."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import PROBES  # noqa: E402


@pytest.mark.parametrize("group", sorted(PROBES))
def test_benchmark_probe_runs_clean(group):
    workload = PROBES[group]
    inputs = workload.inputs(0)
    tracer = Tracer()
    tracer.pass_id = 1
    with tracer.span("bench.pass"):
        out = workload.run_pass(inputs, tracer)
    assert workload.check(inputs, out, None) == []
    metrics, failures, notes = workload.attribute(inputs, out, tracer, tracer.pass_id)
    assert failures == [] and notes == []
    assert metrics and all(math.isfinite(v) for v in metrics.values())
