"""csaloha benchmark: one workload per call, closed loop, one process.

    python3 perfbench/run.py --workload thresholds-d3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

A run sets the workload up several times in fresh interpreters (setup_s),
warms it up in-process, then runs passes back to back until the next pass
would end after --seconds (always at least one). Every pass is checked; a
pass that raises or fails a check counts in `failed`. Pass times are given
at a fixed reference machine speed, sampled while they run (speed.py); the
raw wall times are in the record. The last line on stdout is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The whole record, with samples, checks and machine metadata,
goes to perfbench/out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_REPEATS = 7
CLI_REPEATS = 3
TOPOLOGY_REPEATS = 20
SUBPROCESS_TIMEOUT_S = 120


def timed_subprocess(cmd, env=None) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited with {proc.returncode}: {proc.stderr.strip()}")
    return seconds, proc.stdout


def supported_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def describe(samples: list[float]) -> dict:
    p = supported_percentile(len(samples))
    out = {"median": statistics.median(samples), "n": len(samples), "percentile": p}
    if p is not None:
        out["value_at_percentile"] = sorted(samples)[math.ceil(len(samples) * p / 100.0) - 1]
    return out


def metadata() -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        top, commit = git.stdout.split() if git.returncode == 0 else ("", "")
    except (OSError, ValueError, subprocess.TimeoutExpired):
        top, commit = "", ""
    return {
        "commit": commit if top and Path(top).resolve() == ROOT else "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_loc": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def result_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def measure_other_layers(wl, tracer, layer: dict) -> tuple[list[str], list[str]]:
    """Fill in the per-layer metrics the workload's own pass cannot give:
    layer groups it does not call (from their probes), core.topology_ms and
    cli.startup_s. Returns (metric names taken from probes, problems)."""
    from csaloha import build_topology
    from workloads import PROBE_OF_GROUP, PROBES

    probed, problems = [], []
    for i, group in enumerate(sorted({p for g, p in PROBE_OF_GROUP.items() if g not in wl.exercises})):
        probe = PROBES[group]
        probe_inputs = probe.inputs(0)
        probe.warm_up(probe_inputs)
        tracer.pass_id = -1 - i
        with tracer.span("bench.probe"):
            probe_out = probe.run_pass(probe_inputs, tracer)
        with tracer.span("bench.attribute"):
            probe_layer, more, _ = probe.attribute(probe_inputs, probe_out, tracer, tracer.pass_id)
        problems += more
        for key, value in probe_layer.items():
            if key not in layer:
                layer[key] = value
                probed.append(key)
    for _ in range(TOPOLOGY_REPEATS):
        with tracer.span("core.build_topology"):
            build_topology(200, 3)
    layer["core.topology_ms"] = 1e3 * statistics.median(tracer.durations("core.build_topology"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli = [sys.executable, "-m", "csaloha.cli", "bound", "--d", "3"]
    startup = []
    for _ in range(CLI_REPEATS):
        secs, stdout = timed_subprocess(cli, env)
        if stdout.strip() != "0.94048":
            problems.append(f"`csaloha bound --d 3` printed {stdout!r}")
        startup.append(secs)
    layer["cli.startup_s"] = statistics.median(startup)
    return probed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from speed import SAMPLE_EVERY_S, SpeedSampler
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    probe_cmd = [sys.executable, str(BENCH / "setup_probe.py"), name]
    # raw wall time: a fresh interpreter's start-up (imports, page faults)
    # does not track the reference's speed, and normalising it added noise
    setup = [timed_subprocess(probe_cmd)[0] for _ in range(SETUP_REPEATS)]

    inputs = wl.inputs(seed)
    wl.warm_up(inputs)
    tracer = Tracer() if trace else NullTracer()
    # a traced pass is not sampled: the sampler would land inside its spans
    every_s = 0 if trace else SAMPLE_EVERY_S
    walls, at_ref, ref_ms, notes, layer = [], [], [], [], {}
    failures: dict[int, list[str]] = {}  # pass id -> problems
    first = None
    t_run = time.perf_counter()
    while True:
        tracer.pass_id += 1
        problems = []
        sampler = SpeedSampler(every_s)
        try:
            with sampler, tracer.span("bench.pass"):
                out = wl.run_pass(inputs, tracer)
        except Exception:
            out = None
            problems.append(traceback.format_exc())
        walls.append(sampler.seconds)
        if not trace:
            at_ref.append(sampler.at_reference())
            ref_ms.append(1e3 * statistics.median(sampler.samples))
        if out is not None:
            try:
                problems += wl.check(inputs, out, first)
                if trace and not layer:
                    with tracer.span("bench.attribute"):
                        layer, more, pass_notes = wl.attribute(inputs, out, tracer, tracer.pass_id)
                    problems += more
                    notes += pass_notes
            except Exception:
                problems.append(traceback.format_exc())
            if first is None:
                first = out
        if problems:
            failures[tracer.pass_id] = problems
        if time.perf_counter() - t_run + statistics.median(walls) > seconds:
            break

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(walls), "failed": len(failures), "failures": failures, "notes": notes,
        "samples": {"wall_s": walls, "setup_s": setup},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if first is not None:
        summary = wl.summary(first)
        if "bursts" in summary:
            record["bursts_per_s"] = summary["bursts"] / statistics.median(walls)
        if "coupled_map_gap" in summary:
            record["coupled_map_gap"] = summary["coupled_map_gap"]

    if trace:
        # problems of the layer measurements count against the traced pass 1
        probed, problems = measure_other_layers(wl, tracer, layer)
        if problems:
            failures[1] = failures.get(1, []) + problems
        record.update(
            failed=len(failures), layer=layer, probed=probed,
            layer_self_s=tracer.layer_self_times(),
        )
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
        wanted, source = spec["per_layer"], layer
    else:
        record["samples"] |= {"pass_ref_s": at_ref, "reference_ms": ref_ms}
        wanted, source = spec["end_to_end"], {
            "pass_ref_s": statistics.median(at_ref), "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    record["metrics"] = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    record["summary"] = {k: describe(v) for k, v in record["samples"].items()}

    meta = metadata()
    other = result_path(name, seed, 0 if trace else 1)
    if other.is_file():
        other_wall = statistics.median(json.loads(other.read_text())["samples"]["wall_s"])
        wall = statistics.median(walls)
        traced, untraced = (wall, other_wall) if trace else (other_wall, wall)
        meta["tracing_overhead_s"] = traced - untraced
    record["metadata"] = meta
    OUT.mkdir(exist_ok=True)
    result_path(name, seed, int(trace)).write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record


def print_report(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} passes, ops_failed {record['failed']}/{record['attempted']}")
    for key, s in record["summary"].items():
        pct = (f"p{s['percentile']:g} {s['value_at_percentile']:.4f}" if s["percentile"]
               else "no percentile has 10 samples beyond it")
        unit = "ms" if key.endswith("_ms") else "s"
        print(f"  {key:<16} median {s['median']:.4f} {unit}  n={s['n']}  {pct}")
    print(f"  {'peak_rss_mb':<16} {record['peak_rss_mb']:.1f} MB")
    if "bursts_per_s" in record:
        print(f"  {'bursts_per_s':<16} {record['bursts_per_s']:.0f} 1/s")
    if "coupled_map_gap" in record:
        print(f"  {'coupled_map_gap':<16} {record['coupled_map_gap']:.4e} G")
    if record["trace"]:
        for key, value in record["layer"].items():
            mark = "  (probe)" if key in record["probed"] else ""
            print(f"  {key:<28} {value:.6g}{mark}")
    for pass_id, problems in record["failures"].items():
        for problem in problems:
            print(f"  FAILED pass {pass_id}: {problem}")
    for note in record["notes"]:
        print(f"  note: {note}")


def run_all(args, spec) -> int:
    """Every workload in its own process, untraced then traced, then a table."""
    rows, ok = [], True
    for w in spec["workloads"]:
        records = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode == 0:
                records[trace] = json.loads(result_path(w["name"], args.seed, trace).read_text())
            ok = ok and proc.returncode == 0 and records[trace]["failed"] == 0
        row = {"workload": w["name"]}
        if 0 in records:
            r = records[0]
            row |= {k: v["value"] for k, v in r["metrics"].items()}
            row["wall_s"] = statistics.median(r["samples"]["wall_s"])
            row |= {"bursts_per_s": r.get("bursts_per_s"), "coupled_map_gap": r.get("coupled_map_gap"),
                    "ops_failed": f"{r['failed']}/{r['attempted']}"}
        if 1 in records:
            row["tracing_overhead_s"] = records[1]["metadata"].get("tracing_overhead_s")
        rows.append(row)
    print()
    cols = ["workload", "pass_ref_s", "wall_s", "setup_s", "peak_rss_mb", "bursts_per_s",
            "coupled_map_gap", "ops_failed", "tracing_overhead_s"]
    units = ["", "s", "s", "s", "MB", "1/s", "G", "passes", "s"]
    print("  ".join(f"{c}[{u}]" if u else c for c, u in zip(cols, units)))
    for r in rows:
        print("  ".join("-" if r.get(c) is None else (f"{r[c]:.5g}" if isinstance(r[c], float) else str(r[c]))
                        for c in cols))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "csaloha" / "__init__.py").is_file():
        print(f"perfbench: no csaloha sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload == "all":
        return run_all(args, spec)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print_report(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
