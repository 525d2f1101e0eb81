"""The benchmark's own tests: what it compares against is what the acceptance
suite compares against, its deterministic outputs and counts repeat exactly,
and it refuses to run without the package sources.

    PYTHONPATH=src python3 -m pytest -q perfbench      # about four minutes on 2 cores
"""

import importlib.util
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from csaloha import run_trials  # noqa: E402
from speed import REFERENCE_S, SpeedSampler, at_reference_speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BLOCK_IT_3,
    G_STAR_3,
    MAP_BOUND_3,
    WORKLOADS,
    report_digest,
)

SIM_WORKLOADS = [name for name in WORKLOADS if name.startswith("sim-")]
COUNTS = (
    "de_coupled.probes", "de_coupled.iterations", "de_coupled.capped_probes",
    "de_block.probes", "de_block.iterations",
    "sim.frames", "sim.bursts", "sim.peel_rounds_mean", "sim.peel_rounds_max",
    "sim.peel_recovered_share", "sim.gje_extra_recovered",
)


def test_constants_match_the_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    assert (G_STAR_3, BLOCK_IT_3, MAP_BOUND_3) == (
        oracles.G_STAR[3], oracles.BLOCK_IT[3], oracles.MAP_BOUND[3]
    )


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("bench.pass"):
        with tracer.span("sim.run_trials"):
            with tracer.span("sim.peel"):
                pass
    by_root = tracer.layer_self_times()
    (outer, mid, inner) = tracer.spans
    assert set(by_root) == {"bench.pass"}
    assert by_root["bench.pass"]["bench"] == pytest.approx(outer.seconds - mid.seconds)
    assert by_root["bench.pass"]["sim"] == pytest.approx(mid.seconds)
    assert (mid.parent, inner.parent) == (0, 1)


def test_sampler_samples_inside_the_region_and_excludes_itself():
    t0 = time.perf_counter()
    with SpeedSampler(every_s=0.05) as sampler:
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    # one sample before and after, and some from the timer in between
    assert len(sampler.samples) >= 4
    in_region = sum(sampler.samples[1:-1])
    assert sampler.seconds == pytest.approx(time.perf_counter() - t0 - in_region - sampler.samples[0]
                                            - sampler.samples[-1], abs=0.05)


def test_reference_speed_scales_with_the_samples():
    # at half speed every reference sample takes twice as long
    assert at_reference_speed(2.0, [2 * REFERENCE_S] * 3) == pytest.approx(1.0)
    assert at_reference_speed(1.0, [REFERENCE_S, REFERENCE_S]) == pytest.approx(1.0)


def _traced(name, inputs):
    wl = WORKLOADS[name]
    tracer = Tracer()
    tracer.pass_id = 1
    out = wl.run_pass(inputs, tracer)
    metrics, fails, notes = wl.attribute(inputs, out, tracer, 1)
    assert fails == [] and notes == []
    return out, {k: v for k, v in metrics.items() if k in COUNTS}


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_sim_payload_and_counts_repeat(name):
    """Two passes give the same payload digest (SimReport.to_dict without
    wall_time_s) and the same counts, and workers=2 gives the digest of
    workers=1."""
    wl = WORKLOADS[name]
    configs = wl.inputs(0)
    first, counts = _traced(name, configs)
    second, counts_again = _traced(name, configs)
    assert wl.check(configs, first, None) == []
    assert report_digest(second) == report_digest(first)
    assert counts_again == counts
    two_workers = [run_trials(**asdict(c), workers=2) for c in configs]
    assert report_digest(two_workers) == report_digest(first)


def test_threshold_counts_repeat():
    """Both bisection re-walks land on the program's brackets, and repeat."""
    wl = WORKLOADS["thresholds-d3"]
    config = wl.inputs(0)
    tracer = Tracer()
    out = wl.run_pass(config, tracer)
    assert wl.check(config, out, None) == []
    runs = []
    for _ in range(2):
        metrics, fails, notes = wl.attribute(config, out, tracer, 0)
        assert fails == [] and notes == []
        runs.append({k: v for k, v in metrics.items() if k in COUNTS})
    assert runs[0] == runs[1]


def test_refuses_to_run_without_sources():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-coupled",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
