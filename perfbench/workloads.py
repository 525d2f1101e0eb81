"""The benchmark's workloads: what one pass calls, how its output is checked,
and how a traced pass is split into per-layer numbers.

Every call into csaloha goes through a public name that the CLI, the README
or the acceptance suite use, plus the per-trial sampling entry points
rng_stream, sample_block_frame and sample_coupled_frame. Refactors of the
package internals therefore leave the benchmark intact.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import statistics
from dataclasses import asdict, dataclass

from csaloha import (
    BlockDeConfig,
    LoadPoint,
    SchemeParams,
    block_threshold,
    build_topology,
    coupled_threshold,
    de_block_run,
    de_coupled_run,
    efficiency,
    gje_decode,
    map_load_bound,
    peel,
    rng_stream,
    run_trials,
    sample_block_frame,
    sample_coupled_frame,
    solve_load_bound,
)

# Closed-form d=3 constants from tests/oracles.py (G_STAR, BLOCK_IT, MAP_BOUND);
# test_perfbench.py checks that the two copies agree.
G_STAR_3 = 0.94047979070735963
BLOCK_IT_3 = 0.81846916076137598
MAP_BOUND_3 = 0.91793527665808601

# Bisection bracket used by block_threshold and coupled_threshold.
BRACKET = (0.0, 1.2)


# ------------------------------------------------------------------ thresholds


@dataclass(frozen=True)
class ThresholdsConfig:
    """One row of `csaloha thresholds`; the defaults are the CLI defaults."""

    d: int = 3
    l: int = 200
    alpha: float = 100.0
    block_tol: float = 1e-5
    coupled_tol: float = 1e-4
    max_iters: int = 100_000

    @property
    def cfg(self) -> BlockDeConfig:
        return BlockDeConfig(max_iters=self.max_iters)


@dataclass(frozen=True)
class ThresholdsOutcome:
    block: object
    coupled: object
    g_map: float
    g_star: float
    eta: float

    @property
    def row(self) -> tuple:
        return (self.block.threshold, self.coupled.threshold, self.g_map, self.g_star, self.eta)

    @property
    def coupled_map_gap(self) -> float:
        return abs(self.coupled.threshold - MAP_BOUND_3)


def _rewalk(run, tol, tracer, span_name):
    """Replay block_threshold's / coupled_threshold's bisection probe by probe.

    Returns the final bracket and one (g, DeResult) per probe, in the order
    the bisection evaluates them (upper bracket end first).
    """
    probes = []

    def converged(g):
        with tracer.span(span_name):
            r = run(g)
        probes.append((g, r))
        return r.converged

    lo, hi = BRACKET
    converged(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converged(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, probes


class ThresholdsWorkload:
    """One pass is the d=3 row of the threshold table."""

    exercises = ("de",)
    block_rewalk_repeats = 20
    load_bound_repeats = 200

    def __init__(self, config: ThresholdsConfig):
        self.config = config

    def inputs(self, seed: int):
        # the threshold row is deterministic: the seed selects nothing
        return self.config

    def warm_up(self, c: ThresholdsConfig) -> None:
        topo = build_topology(c.l, c.d)
        de_coupled_run(topo, 0.5, c.cfg)
        de_block_run(SchemeParams(c.d, c.alpha), LoadPoint.from_g(0.5, c.alpha), c.cfg)

    def run_pass(self, c: ThresholdsConfig, tracer) -> ThresholdsOutcome:
        with tracer.span("de_block.block_threshold"):
            block = block_threshold(c.d, c.cfg, c.block_tol)
        with tracer.span("de_coupled.coupled_threshold"):
            coupled = coupled_threshold(c.d, c.l, c.cfg, c.coupled_tol)
        with tracer.span("map_bound.map_load_bound"):
            g_map = map_load_bound(SchemeParams(c.d, c.alpha))
        with tracer.span("de_block.solve_load_bound"):
            g_star = solve_load_bound(1.0 / c.d)
        with tracer.span("de_block.efficiency"):
            eta = efficiency(coupled.threshold, g_star)
        return ThresholdsOutcome(block, coupled, g_map, g_star, eta)

    def check(self, c: ThresholdsConfig, out: ThresholdsOutcome, first) -> list[str]:
        """Closed-form d=3 constants at the acceptance tolerances C1-C5."""
        fails = []

        def near(name, got, want, tol):
            if not abs(got - want) <= tol:
                fails.append(f"{name} {got:.8f} not within {tol:g} of {want:.8f}")

        near("block threshold (C1)", out.block.threshold, BLOCK_IT_3, 5e-4)
        near("coupled threshold (C2)", out.coupled.threshold, MAP_BOUND_3, 1e-3)
        near("MAP bound (C3)", out.g_map, MAP_BOUND_3, 2e-3)
        near("load bound G* (C4)", out.g_star, G_STAR_3, 5e-5)
        near("G* residual (C4)", out.g_star - 1.0 + math.exp(-out.g_star * c.d), 0.0, 1e-12)
        near("efficiency (C4)", out.eta, MAP_BOUND_3 / G_STAR_3, 1e-3)
        near("saturation coupled vs MAP (C5)", out.coupled.threshold, out.g_map, 2e-3)
        if not out.block.threshold < out.coupled.threshold <= out.g_map + 2e-3:
            fails.append("ordering block < coupled <= MAP bound violated")
        if not out.g_map <= out.g_star + 1e-9:
            fails.append("MAP bound exceeds the load bound")
        if first is not None and out.row != first.row:
            fails.append("threshold row differs from the run's first pass")
        return fails

    def summary(self, out: ThresholdsOutcome) -> dict:
        return {"coupled_map_gap": out.coupled_map_gap}

    def attribute(self, c: ThresholdsConfig, out: ThresholdsOutcome, tracer, pass_id):
        """Per-layer numbers of one pass: its spans, plus re-walks of both
        bisections through de_coupled_run / de_block_run for the counts.

        Returns (metrics, failures, notes). A re-walk that misses the
        program's bracket is a note: the counts then describe a walk the
        program no longer makes, which says nothing about its results."""
        topo = build_topology(c.l, c.d)
        lo, hi, probes = _rewalk(
            lambda g: de_coupled_run(topo, g, c.cfg), c.coupled_tol, tracer, "de_coupled.de_coupled_run"
        )
        iters = sum(r.iterations for _, r in probes)
        capped = [r for _, r in probes if not r.converged and r.iterations >= c.max_iters]
        run_s = sum(tracer.durations("de_coupled.de_coupled_run")[-len(probes):])
        notes = []
        if (lo, hi, len(probes)) != (out.coupled.bracket_lo, out.coupled.bracket_hi, out.coupled.evaluations):
            notes.append("coupled re-walk did not land on coupled_threshold's bracket")

        params = SchemeParams(c.d, c.alpha)
        walk_s = []
        for _ in range(self.block_rewalk_repeats):
            with tracer.span("de_block.rewalk"):
                blo, bhi, bprobes = _rewalk(
                    lambda g: de_block_run(params, LoadPoint.from_g(g, c.alpha), c.cfg),
                    c.block_tol, tracer, "de_block.de_block_run",
                )
            walk_s.append(tracer.durations("de_block.rewalk")[-1])
        biters = sum(r.iterations for _, r in bprobes)
        if (blo, bhi, len(bprobes)) != (out.block.bracket_lo, out.block.bracket_hi, out.block.evaluations):
            notes.append("block re-walk did not land on block_threshold's bracket")
        for _ in range(self.load_bound_repeats):
            with tracer.span("de_block.solve_load_bound_probe"):
                solve_load_bound(1.0 / c.d)

        metrics = {
            "de_coupled.threshold_s": tracer.total("de_coupled.coupled_threshold", pass_id),
            "de_coupled.probes": len(probes),
            "de_coupled.iterations": iters,
            "de_coupled.us_per_iter": 1e6 * run_s / iters,
            "de_coupled.capped_probes": len(capped),
            "de_coupled.capped_iter_share": sum(r.iterations for r in capped) / iters,
            "de_coupled.map_gap": out.coupled_map_gap,
            "de_block.threshold_s": tracer.total("de_block.block_threshold", pass_id),
            "de_block.probes": len(bprobes),
            "de_block.iterations": biters,
            "de_block.us_per_iter": 1e6 * statistics.median(walk_s) / biters,
            "de_block.load_bound_us": 1e6 * statistics.median(tracer.durations("de_block.solve_load_bound_probe")),
            "map_bound.s": tracer.total("map_bound.map_load_bound", pass_id),
        }
        return metrics, [], notes


# ------------------------------------------------------------------ simulation


@dataclass(frozen=True)
class SimConfig:
    """Keyword arguments of one run_trials call."""

    scenario: str
    m: int
    d: int
    g: float
    trials: int
    seed: int
    l: int | None = None
    decoder: str = "peeling"


def report_digest(reports) -> str:
    """SHA-256 of the deterministic payloads (SimReport.to_dict without wall_time_s)."""
    payload = []
    for r in reports:
        p = r.to_dict()
        p.pop("wall_time_s", None)
        payload.append(p)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class SimWorkload:
    """One pass is one run_trials call per config, in order."""

    def __init__(self, make_configs, check=None, exercises=("sim",)):
        self.inputs = make_configs
        self._check = check
        self.exercises = exercises

    def warm_up(self, configs) -> None:
        run_trials(**{**asdict(configs[0]), "trials": 1})

    def run_pass(self, configs, tracer):
        reports = []
        for c in configs:
            with tracer.span("sim.run_trials"):
                reports.append(run_trials(**asdict(c), workers=1))
        return reports

    def check(self, configs, reports, first) -> list[str]:
        fails = self._check(reports) if self._check else []
        if first is not None and report_digest(reports) != report_digest(first):
            fails.append("simulation payload differs from the run's first pass at the same seed")
        return fails

    def summary(self, reports) -> dict:
        return {"bursts": sum(r.n_bursts for r in reports)}

    def attribute(self, configs, reports, tracer, pass_id):
        """Replay every trial as rng_stream -> sample_*_frame -> peel / gje_decode
        with a span on each call. Returns (metrics, failures, notes); replay
        totals that differ from the reports are failures."""
        frames = bursts = peeled = extra = 0
        rounds = []
        fails = []
        run_gje = False
        for c, rep in zip(configs, reports):
            topo = build_topology(c.l, c.d) if c.scenario == "coupled" else None
            lost = c_gje_lost = c_extra = n = 0
            for t in range(c.trials):
                with tracer.span("core.rng_stream"):
                    rng = rng_stream(c.seed, t)
                with tracer.span("sim.sample"):
                    if topo is None:
                        frame = sample_block_frame(c.m, c.g, c.d, rng)
                    else:
                        frame = sample_coupled_frame(c.m, topo, c.g, rng)
                with tracer.span("sim.peel"):
                    pr = peel(frame)
                n += frame.n_active
                lost += frame.n_active - len(pr.recovered)
                peeled += len(pr.recovered)
                rounds.append(pr.peel_iterations)
                if c.decoder == "both":
                    run_gje = True
                    with tracer.span("sim.gje_decode"):
                        gr = gje_decode(frame)
                    c_gje_lost += frame.n_active - len(gr.recovered)
                    c_extra += len(gr.recovered - pr.recovered)
            frames += c.trials
            bursts += n
            extra += c_extra
            expected = (rep.n_bursts, rep.n_lost)
            if c.decoder == "both":
                expected += (rep.gje_n_lost, sum(rep.gje_extra_recovered))
                got = (n, lost, c_gje_lost, c_extra)
            else:
                got = (n, lost)
            if got != expected:
                fails.append(f"replay totals {got} differ from run_trials {expected} for {c}")

        run_s = tracer.total("sim.run_trials", pass_id)
        peel_s = sum(tracer.durations("sim.peel")[-frames:])
        sample_s = sum(tracer.durations("sim.sample")[-frames:])
        rng_calls = tracer.durations("core.rng_stream")[-frames:]
        gje_s = sum(tracer.durations("sim.gje_decode")[-frames:]) if run_gje else 0.0
        metrics = {
            "sim.peel_s": peel_s,
            "sim.peel_us_per_burst": 1e6 * peel_s / bursts,
            "sim.sample_s": sample_s,
            "sim.other_s": run_s - peel_s - sample_s - gje_s - sum(rng_calls),
            "sim.frames": frames,
            "sim.bursts": bursts,
            "sim.bursts_per_s": bursts / run_s,
            "sim.peel_rounds_mean": sum(rounds) / len(rounds),
            "sim.peel_rounds_max": max(rounds),
            "sim.peel_recovered_share": peeled / bursts,
            "core.rng_stream_us": 1e6 * statistics.median(rng_calls),
        }
        if run_gje:
            metrics |= {
                "sim.gje_s": gje_s,
                "sim.gje_us_per_burst": 1e6 * gje_s / bursts,
                "sim.gje_extra_recovered": extra,
            }
        return metrics, fails, []


def _block_configs(seed):
    # acceptance criterion C7; seed 0 reproduces its seeds 70, 90 and 75
    base = 1000 * seed
    return [
        SimConfig("block", m=2000, d=3, g=0.70, trials=200, seed=base + 70),
        SimConfig("block", m=2000, d=3, g=0.90, trials=200, seed=base + 90),
    ] + [SimConfig("block", m=m, d=3, g=0.75, trials=200, seed=base + 75) for m in (250, 1000, 4000)]


def _check_c7(reports):
    low, high, *by_m = reports
    fails = []
    if not low.plr < 1e-2:
        fails.append(f"C7: PLR {low.plr:.4g} at g=0.70 is not below 1e-2")
    if not high.plr > 0.05:
        fails.append(f"C7: PLR {high.plr:.4g} at g=0.90 is not above 0.05")
    for a, b in zip(by_m, by_m[1:]):
        slack = 2.0 * math.hypot(a.ci95 / 1.96, b.ci95 / 1.96)
        if not b.plr <= a.plr + slack:
            fails.append(f"C7: PLR rose from {a.plr:.4g} (m={a.m}) to {b.plr:.4g} (m={b.m})")
    return fails


def _coupled_configs(seed):
    # acceptance criterion C8; seed 0 reproduces its seed 88
    return [SimConfig("coupled", m=500, d=3, g=0.88, trials=100, seed=1000 * seed + 88, l=50)]


@functools.lru_cache(maxsize=4)
def _c8_block_reference(seed):
    # computed once per run: the block frame C8 compares the coupled run against
    return run_trials("block", m=500, d=3, g=0.88, trials=100, seed=seed)


def _check_c8(reports):
    (coupled,) = reports
    block = _c8_block_reference(coupled.seed)
    fails = []
    if not coupled.plr < block.plr:
        fails.append(f"C8: coupled PLR {coupled.plr:.4f} is not below block PLR {block.plr:.4f}")
    pp = coupled.per_position_plr
    third = len(pp) // 3
    mid = sum(pp[third : 2 * third]) / third
    if not (pp[0] < mid and pp[-1] < mid):
        fails.append("C8: no decoding-wave signature at the chain ends")
    return fails


def _exact_configs(seed):
    return [
        SimConfig("coupled", m=200, d=3, g=0.90, trials=20, seed=1000 * seed + 20, l=20, decoder="both")
    ]


def _check_exact(reports):
    fails = []
    for r in reports:
        if not r.gje_n_lost <= r.n_lost:
            fails.append(f"GJE lost {r.gje_n_lost} > peeling lost {r.n_lost}")
        if any(e < 0 for e in r.gje_extra_recovered):
            fails.append("negative GJE extra recovery in a trial")
        if r.n_lost - r.gje_n_lost != sum(r.gje_extra_recovered):
            fails.append("peeling's recovered set is not a subset of GJE's")
    return fails


WORKLOADS = {
    "thresholds-d3": ThresholdsWorkload(ThresholdsConfig()),
    "sim-block": SimWorkload(_block_configs, _check_c7),
    "sim-coupled": SimWorkload(_coupled_configs, _check_c8),
    "sim-exact": SimWorkload(_exact_configs, _check_exact, exercises=("sim", "gje")),
}

# Traced runs report every per-layer metric on every workload. A layer group
# the workload's pass does not call is measured on one of these small fixed
# inputs instead, so its numbers there track that layer's own cost.
PROBES = {
    "de": ThresholdsWorkload(ThresholdsConfig(l=20, coupled_tol=1e-3, max_iters=2_000)),
    "sim": SimWorkload(lambda seed: [
        SimConfig("coupled", m=200, d=3, g=0.90, trials=2, seed=20, l=20, decoder="both")
    ]),
}
PROBE_OF_GROUP = {"de": "de", "sim": "sim", "gje": "sim"}
