import math

import numpy as np
import pytest

from csaloha import (
    BlockDeConfig,
    LoadPoint,
    SchemeParams,
    build_circulant_topology,
    build_topology,
    rng_stream,
    run_trials,
)
from csaloha.core import CoupledTopology, rng_streams
from oracles import brute_force_occupancy


def test_scheme_params_derived_fields():
    p = SchemeParams(d=3, alpha=100.0)
    assert p.nominal_rate == pytest.approx(0.99, abs=1e-15)


@pytest.mark.parametrize("d,alpha", [(0, 100.0), (-1, 100.0), (3, 1.0), (3, 0.5)])
def test_scheme_params_rejects_bad_values(d, alpha):
    with pytest.raises(ValueError):
        SchemeParams(d=d, alpha=alpha)


def test_load_point_constructors():
    lp = LoadPoint.from_g(0.8, alpha=100.0)
    assert lp.epsilon == pytest.approx(0.008, abs=1e-15)
    with pytest.raises(ValueError):
        LoadPoint(g=-0.1, epsilon=0.0)
    with pytest.raises(ValueError):
        LoadPoint(g=0.1, epsilon=1.5)


@pytest.mark.parametrize("g", [math.nan, math.inf])
def test_load_point_rejects_non_finite_load(g):
    with pytest.raises(ValueError, match="offered traffic"):
        LoadPoint(g=g, epsilon=0.0)


def test_build_topology_small_examples():
    t = build_topology(3, 2)
    assert t.m_f == 4
    assert t.delta == (1, 2, 2, 1)
    t = build_topology(1, 3)
    assert t.m_f == 3
    assert t.delta == (1, 1, 1)


def occupancy_counts(l, d, wrap=False):
    """(m_f, delta) straight from the oracle's access rule."""
    occupancy = brute_force_occupancy(l, d, wrap)
    return len(occupancy), tuple(len(occupancy[j]) for j in range(1, len(occupancy) + 1))


def test_build_topology_long_chain_matches_access_rule():
    t = build_topology(200, 3)
    assert (t.m_f, t.delta) == occupancy_counts(200, 3)
    assert t.m_f == 202
    assert t.delta == (1, 2) + (3,) * 198 + (2, 1)


@pytest.mark.parametrize("l", range(1, 51, 7))
@pytest.mark.parametrize("d", range(1, 9))
def test_topology_invariants(l, d):
    t = build_topology(l, d)
    assert (t.m_f, t.delta) == occupancy_counts(l, d)
    assert t.m_f == l + d - 1
    assert sum(t.delta) == l * d
    assert t.delta == t.delta[::-1]  # palindromic chain
    if l >= d:
        c = build_circulant_topology(l, d)
        assert (c.m_f, c.delta) == occupancy_counts(l, d, wrap=True) == (l, (d,) * l)


@pytest.mark.parametrize(
    "l,d,wrap",
    [(0, 2, False), (3, 0, False), (-1, 3, False), (2, 3, True)],
    ids=["0-2", "3-0", "-1-3", "2-3-wrap"],
)
def test_build_topology_rejects(l, d, wrap):
    with pytest.raises(ValueError):
        CoupledTopology(l, d, wrap)
    with pytest.raises(ValueError):
        (build_circulant_topology if wrap else build_topology)(l, d)


def test_topology_refuses_non_integral_sizes():
    # build_topology(4.5, 3) used to build a topology whose delta raised
    # TypeError; an integral float is taken as the integer it names
    for l, d in ((4.5, 3), (4, 2.5), (math.nan, 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_topology(l, d)
    assert build_topology(4.0, np.int64(3)) == CoupledTopology(4, 3)
    assert build_topology(4.0, 3).delta == (1, 2, 3, 3, 2, 1)


def test_scheme_params_takes_an_integral_degree():
    # SchemeParams(d=np.int64(3)) and SchemeParams(d=3.0) used to raise,
    # while build_topology and block_threshold took the same values
    assert SchemeParams(d=np.int64(3)) == SchemeParams(d=3.0) == SchemeParams(d=3)
    assert type(SchemeParams(d=np.int64(3)).d) is type(SchemeParams(d=3.0).d) is int
    for bad in (3.5, math.nan, "3"):
        with pytest.raises(ValueError, match="repetition degree d must be an integer"):
            SchemeParams(d=bad)


def test_a_bool_is_not_an_integer():
    # True used to count as 1: a cap of one iteration, a chain of one frame
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        BlockDeConfig(max_iters=True)
    with pytest.raises(ValueError, match="chain length l must be an integer"):
        build_topology(True, 3)
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_trials("block", m=100, d=3, g=0.5, trials=True, seed=0)


def test_circulant_topology():
    t = build_circulant_topology(10, 3)
    assert (t.m_f, t.delta) == occupancy_counts(10, 3, wrap=True)
    assert t.m_f == 10
    assert t.delta == (3,) * 10
    assert brute_force_occupancy(10, 3, wrap=True)[1] == [1, 9, 10]


def test_rng_stream_determinism_and_separation():
    a = rng_stream(1, 0).integers(0, 2**62, size=100)
    b = rng_stream(1, 0).integers(0, 2**62, size=100)
    assert np.array_equal(a, b)
    c = rng_stream(1, 1).integers(0, 2**62, size=100)
    d = rng_stream(2, 0).integers(0, 2**62, size=100)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_pinned_sequence():
    # the stream contract (same platform-independent sequence forever) is
    # pinned by frozen draws; these must never change
    got = rng_stream(1234, 5).integers(0, 2**62, size=3)
    assert got.tolist() == [2657461097183085029, 1474683972429534055, 2191459893675301856]
    assert rng_stream(0, 0).random(2).tolist() == pytest.approx(
        [0.011546754286331562, 0.24154919656271812], abs=0.0
    )
    assert isinstance(rng_stream(0, 0).bit_generator, np.random.Philox)


def test_rng_stream_refuses_a_non_integral_argument():
    # 1.5 and True drew seed 1's stream, 2.7 stream 2's, and "3" died in a
    # string format; a whole number of another type draws the int's stream
    refused = ((1.5, 0, "seed"), (True, 0, "seed"), ("3", 0, "seed"), (1, 2.7, "stream id"), (1, None, "stream id"))
    for seed, stream_id, what in refused:
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            rng_stream(seed, stream_id)
    with pytest.raises(ValueError, match="seed must be an integer"):
        next(rng_streams(1.5, [0]))  # a batch's one stream is an rng_stream
    want = rng_stream(1, 2).integers(0, 2**62, size=4).tolist()
    for seed, stream_id in ((1.0, 2.0), (np.int64(1), np.uint8(2)), (np.float64(1), 2)):
        assert rng_stream(seed, stream_id).integers(0, 2**62, size=4).tolist() == want


@pytest.mark.parametrize(
    "requested,tasks,cpus,expect",
    [(1, 10, 8, 1), (64, 10, 8, 8), (64, 3, 8, 3), (4, 10, 8, 4), (4, 0, 8, 1), (0, 5, 8, 1), (4, 10, None, 1)],
)
def test_pool_size_is_clamped(monkeypatch, requested, tasks, cpus, expect):
    # only the arithmetic: no pool is started. cpus is os.cpu_count(), read
    # where the OS has no affinity mask; a mask clamps whatever it says
    import os

    from csaloha.core import pool_size

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert pool_size(requested, tasks) == expect
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus or 1)), raising=False)
    assert pool_size(requested, tasks) == expect
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_size(requested, tasks) == 1


def test_benchmark_imports_resolve():
    # the benchmark in perfbench/ calls the package only through the names it
    # imports from csaloha; losing one would fail every benchmark operation
    import ast
    from pathlib import Path

    import csaloha

    names = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "csaloha":
                names.setdefault(path.name, []).extend(alias.name for alias in node.names)
    assert {"workloads.py", "run.py"} <= names.keys()
    missing = {f: [n for n in ns if not hasattr(csaloha, n)] for f, ns in names.items()}
    assert not any(missing.values()), missing


def test_every_export_has_a_caller_outside_the_unit_tests():
    # an exported name is API only if the CLI, the README, the acceptance
    # suite or the benchmark names it; the unit tests import from modules
    import re
    import types
    from pathlib import Path

    import csaloha

    root = Path(__file__).resolve().parents[1]
    paths = [root / "src/csaloha/cli.py", root / "README.md", root / "tests/test_acceptance.py"]
    text = "\n".join(p.read_text() for p in paths + sorted((root / "perfbench").glob("*.py")))
    exported = [n for n, v in vars(csaloha).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert exported
    assert [n for n in exported if not re.search(rf"\b{n}\b", text)] == []


def test_no_private_name_crosses_a_module_boundary():
    # an underscore name belongs to its module: one imported by another
    # csaloha module means a decision is split across the two
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src/csaloha"
    crossing = [
        (path.name, alias.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []


def test_each_process_decision_stays_in_one_module():
    # the CPUs are read only in core.pool_size, which every process count
    # goes through, and only the coupled search forks
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src/csaloha"
    calls = {
        (path.name, node.func.attr)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
        and node.func.attr in ("cpu_count", "sched_getaffinity", "fork")
    }
    assert calls == {("core.py", "cpu_count"), ("core.py", "sched_getaffinity"), ("analysis.py", "fork")}


def test_no_ufunc_at_in_src_scatters_a_bare_int():
    # ufunc.at given a Python int as its value leaves numpy's indexed fast
    # loop on an int32 array: 88 against 2.3 us a 700-index scatter (numpy
    # 2.4). Every scatter passes a typed scalar or an array of its dtype
    import ast
    from pathlib import Path

    def bare_int(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, bool)

    src = Path(__file__).resolve().parents[1] / "src/csaloha"
    calls = [
        (path.name, node.lineno, node.args[2:3] + [k.value for k in node.keywords if k.arg == "b"])
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at"
    ]
    assert len(calls) >= 5
    assert [(name, line) for name, line, value in calls if any(map(bare_int, value))] == []
