import csv
import hashlib
import io
import json
import time

import pytest

from csaloha import ThresholdBracketError, analysis, block_threshold_grid, cli, solve_load_bound
from csaloha.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_bound_prints_six_significant_digits(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--d", "4")
    assert rc == 0
    assert out.strip() == f"{solve_load_bound(0.25):.6g}"


def test_bound_degenerate_degree_one(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--d", "1")
    assert rc == 0 and out.strip() == "0"


def test_bound_json_format(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--d", "5", "--format", "json")
    payload = json.loads(out)
    assert rc == 0
    assert payload["g_star"] == pytest.approx(solve_load_bound(0.2), abs=1e-15)


def test_sweep_empty_list_is_empty_success(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--d-list", "")
    assert rc == 0 and out == "" and err == ""


def test_sweep_row_matches_library(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "--d-list", "3", "--l", "30", "--tol", "1e-3"
    )
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "rate,g_it_block,g_it_coupled,g_star"
    rate, g_block, g_coupled, g_star = (float(tok) for tok in row.split(","))
    assert rate == pytest.approx(1 / 3, abs=1e-9)
    assert g_block == pytest.approx(block_threshold_grid(3), abs=1e-9)
    assert g_star == pytest.approx(solve_load_bound(1 / 3), abs=1e-9)
    assert g_coupled > g_block


def test_thresholds_d_max_guard(capsys):
    rc, _, err = run_cli(capsys, "thresholds", "--d-max", "9")
    assert rc == 2 and "d-max" in err


def test_thresholds_tolerance_below_float_spacing(capsys):
    # the coupled bisection at d=3 stops at adjacent floats instead of looping forever
    t0 = time.monotonic()
    rc, out, _ = run_cli(
        capsys, "thresholds", "--d-max", "3", "--l", "20", "--tol", "1e-20", "--max-iters", "200"
    )
    assert rc == 0 and time.monotonic() - t0 < 10.0
    vals = out.strip().splitlines()[1].split(",")
    assert float(vals[3]) == pytest.approx(0.5, abs=1e-8)


def test_block_column_is_the_closed_form(capsys):
    # the block column runs no density evolution: --tol and --max-iters leave it alone
    columns = []
    for extra in (["--tol", "0.1", "--max-iters", "50"], ["--tol", "1e-3", "--max-iters", "2000"]):
        rc, out, _ = run_cli(capsys, "thresholds", "--d-max", "8", "--l", "10", *extra)
        assert rc == 0
        columns.append([row.split(",")[1] for row in out.strip().splitlines()[1:]])
    assert columns[0] == columns[1] == [f"{block_threshold_grid(d):.10g}" for d in range(2, 9)]


@pytest.mark.parametrize(
    "command", [["thresholds", "--d-max", "2"], ["sweep", "--d-list", "2"]], ids=["thresholds", "sweep"]
)
@pytest.mark.parametrize("flag", ["--tol", "--max-iters"])
def test_zero_override_is_a_parameter_error(capsys, command, flag):
    # a zero is an override like any other, not a request for the default
    rc, out, err = run_cli(capsys, *command, "--l", "10", flag, "0")
    assert rc == 2 and out == "" and "parameter error" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_a_parameter_error(capsys, tol):
    # it used to return the untouched bracket: 0.6 for both thresholds
    rc, out, err = run_cli(capsys, "thresholds", "--d-max", "2", "--l", "10", "--tol", tol)
    assert rc == 2 and out == "" and "parameter error" in err


@pytest.mark.parametrize("tol", ["1.2", "5"])
def test_tolerance_at_bracket_width_is_a_parameter_error(capsys, tol):
    # it used to print 0.6, the untouched bracket's midpoint, for both thresholds
    rc, out, err = run_cli(capsys, "thresholds", "--d-max", "2", "--l", "10", "--tol", tol)
    assert rc == 2 and out == "" and "bracket width" in err


@pytest.mark.parametrize(
    "command",
    [
        ["thresholds", "--d-max", "2", "--l", "10", "--tol", "1e-3"],
        ["simulate", "block", "--d", "3", "--g", "0.5", "--slots", "100", "--trials", "2"],
    ],
    ids=["thresholds", "simulate"],
)
def test_infinite_alpha_is_a_parameter_error(capsys, command):
    rc, out, err = run_cli(capsys, *command, "--alpha", "inf")
    assert rc == 2 and out == "" and "parameter error" in err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "block", "--d", "3", "--g", "0.5", "--slots", "2000", "--trials", "1", "--alpha", "1e17"],
        ["simulate", "block", "--d", "3", "--g", "0.5", "--slots", "2000", "--trials", "1", "--alpha", "1e308"],
        ["thresholds", "--d-max", "2", "--alpha", "1e308", "--l", "10"],
        ["thresholds", "--d-max", "6", "--alpha", "2e307", "--l", "10"],
        ["thresholds", "--d-max", "3", "--l", "0"],
        ["sweep", "--d-list", "2,3", "--l", "-3"],
    ],
    ids=["population", "population-inf", "map-bound", "map-bound-d5", "chain-length", "chain-length-sweep"],
)
def test_huge_alpha_is_a_parameter_error(capsys, monkeypatch, command):
    # a binomial population alpha*m past int64 overflowed in numpy, and a
    # d*alpha past 2**1023 made map_load_bound return inf; at 2e307 only the
    # rows d=5 and d=6 overflow, and they are refused before any row's DE runs.
    # A chain length below 1 is refused there too, not after d=2's block bisection
    def fail(*args, **kwargs):
        raise AssertionError("a row ran before its parameters were checked")

    monkeypatch.setattr(cli, "_row", fail)
    rc, out, err = run_cli(capsys, *command)
    assert rc == 2 and out == ""
    assert err.startswith("csaloha: parameter error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [[], ["--alpha", "10"], ["--l", "4"]], ids=["block", "alpha", "coupled"])
@pytest.mark.parametrize("g", ["nan", "inf"])
def test_non_finite_load_is_a_parameter_error(capsys, g, extra):
    scenario = "coupled" if "--l" in extra else "block"
    rc, out, err = run_cli(
        capsys, "simulate", scenario, "--d", "3", "--g", g, "--slots", "100", "--trials", "2", *extra
    )
    assert rc == 2 and out == ""
    assert f"parameter error: offered traffic must be finite and >= 0, got {g}" in err


def test_bound_degree_zero_is_a_parameter_error(capsys):
    rc, out, err = run_cli(capsys, "bound", "--d", "0")
    assert rc == 2 and out == "" and "parameter error" in err


def test_simulate_block_rejects_chain_length(capsys):
    # a block frame has no chain; l is a coupled-only option
    rc, out, err = run_cli(
        capsys, "simulate", "block", "--d", "3", "--g", "0.5", "--slots", "100",
        "--trials", "2", "--l", "5",
    )
    assert rc == 2 and out == "" and "chain length" in err


def test_thresholds_table_does_not_depend_on_worker_count(capsys, monkeypatch):
    argv = ["thresholds", "--d-max", "3", "--l", "20", "--tol", "1e-3"]
    rc1, out1, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("CSA_THREADS", "2")
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0 and out1 == out2


@pytest.mark.parametrize(
    "threads,argv,rows,search",
    [
        (None, ["thresholds", "--d-max", "3"], 1, None),
        ("1", ["thresholds", "--d-max", "3"], 1, 1),
        ("2", ["thresholds", "--d-max", "3"], 2, 1),
        ("5", ["thresholds", "--d-max", "3"], 2, 2),
        ("4", ["sweep", "--d-list", "3"], 1, 4),
    ],
)
def test_csa_threads_bounds_rows_times_search_processes(capsys, monkeypatch, threads, argv, rows, search):
    # the row pool's workers times each row's search processes stay within
    # CSA_THREADS (8 CPUs reported); unset, the rows run in turn and each
    # search on coupled_threshold's default (None), which the benchmark's
    # thresholds row runs too. The rows run in-process here
    import os

    seen = []

    def in_process(fn, tasks, requested):
        seen.append((requested, {task[-1] for task in tasks}))
        return [fn(task) for task in tasks]

    monkeypatch.setattr(cli, "pool_map", in_process)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if threads is not None:
        monkeypatch.setenv("CSA_THREADS", threads)
    else:
        monkeypatch.delenv("CSA_THREADS", raising=False)
    rc, out, _ = run_cli(capsys, *argv, "--l", "20", "--tol", "1e-3")
    assert rc == 0 and seen == [(rows, {search})]
    monkeypatch.delenv("CSA_THREADS", raising=False)
    assert run_cli(capsys, *argv, "--l", "20", "--tol", "1e-3")[1] == out


def test_sweep_rows_equal_thresholds_rows(capsys):
    argv = ["--l", "20", "--tol", "1e-3"]
    _, sweep, _ = run_cli(capsys, "sweep", "--d-list", "2,3", *argv)
    _, table, _ = run_cli(capsys, "thresholds", "--d-max", "3", *argv)
    # sweep: rate,g_it_block,g_it_coupled,g_star; thresholds: d,g_it_block,g_it_coupled,g_map_bound,g_star,...
    sweep_rows = [r.split(",") for r in sweep.strip().splitlines()[1:]]
    table_rows = [r.split(",") for r in table.strip().splitlines()[1:]]
    assert len(sweep_rows) == len(table_rows) == 2
    for s, t in zip(sweep_rows, table_rows):
        assert s[1:] == [t[1], t[2], t[4]]


def test_thresholds_small_table(capsys):
    rc, out, _ = run_cli(
        capsys, "thresholds", "--d-max", "2", "--l", "40", "--tol", "1e-3"
    )
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "d,g_it_block,g_it_coupled,g_map_bound,g_star,efficiency"
    vals = row.split(",")
    assert vals[0] == "2"
    assert float(vals[1]) == pytest.approx(0.5, abs=2e-3)
    assert float(vals[3]) == pytest.approx(0.5, abs=1e-3)
    assert float(vals[4]) == pytest.approx(0.796812, abs=1e-5)
    assert float(vals[5]) == pytest.approx(float(vals[2]) / float(vals[4]), abs=1e-9)


def test_simulate_reproducible_payload(capsys):
    argv = [
        "simulate", "block", "--d", "3", "--g", "0.7", "--slots", "300",
        "--trials", "20", "--seed", "7",
    ]
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("wall_time_s"), p2.pop("wall_time_s")
    assert p1 == p2


def test_simulate_zero_load(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "block", "--d", "3", "--g", "0", "--slots", "100",
        "--trials", "5", "--seed", "1",
    )
    assert rc == 0 and json.loads(out)["plr"] == 0.0


def test_simulate_coupled_both_decoders(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "coupled", "--d", "3", "--l", "8", "--slots", "60",
        "--g", "0.88", "--trials", "20", "--decoder", "both", "--seed", "1",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["gje_plr"] <= payload["plr"]
    assert len(payload["per_position_plr"]) == 8
    assert payload["gje_extra_recovered_total"] >= 0


def test_simulate_worker_count_does_not_change_payload(capsys, monkeypatch):
    argv = [
        "simulate", "block", "--d", "3", "--g", "0.8", "--slots", "200",
        "--trials", "16", "--seed", "3",
    ]
    rc1, out1, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("CSA_THREADS", "3")
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("wall_time_s"), p2.pop("wall_time_s")
    assert p1 == p2


def test_simulate_parameter_errors_exit_two(capsys):
    rc, _, err = run_cli(
        capsys, "simulate", "coupled", "--d", "3", "--g", "0.8", "--slots", "100",
        "--trials", "5",
    )
    assert rc == 2 and "chain length" in err
    rc, _, err = run_cli(
        capsys, "simulate", "block", "--d", "3", "--g", "50", "--slots", "100",
        "--trials", "5", "--alpha", "10",
    )
    assert rc == 2


def test_non_integral_population_is_a_parameter_error(capsys):
    # 1.5 * 3 = 4.5 users was rounded to 4, so the run simulated 0.6675 bursts
    # a slot and reported offered_g 0.75; 1.1 * 50 is integral up to rounding
    argv = ["simulate", "block", "--d", "3", "--g", "0.75", "--trials", "4", "--seed", "1"]
    rc, out, err = run_cli(capsys, *argv, "--slots", "3", "--alpha", "1.5")
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert "parameter error: population alpha*m must be an integer, got 1.5*3 = 4.5" in err
    rc, out, _ = run_cli(capsys, *argv, "--slots", "50", "--alpha", "1.1")
    assert rc == 0 and json.loads(out)["alpha"] == 1.1


def test_slots_below_one_is_a_parameter_error(capsys):
    rc, out, err = run_cli(capsys, "simulate", "block", "--d", "3", "--g", "0.5", "--slots", "0", "--trials", "2")
    assert rc == 2 and out == "" and "at least one slot per frame" in err and err.count("\n") == 1


def test_malformed_thread_count_is_a_parameter_error(capsys, monkeypatch):
    monkeypatch.setenv("CSA_THREADS", "abc")
    rc, out, err = run_cli(capsys, "simulate", "block", "--d", "3", "--g", "0.5", "--slots", "100", "--trials", "2")
    assert rc == 2 and out == ""
    assert err == "csaloha: parameter error: CSA_THREADS must be an integer, got 'abc'\n"


def test_thresholds_json_rows_equal_csv_rows(capsys):
    argv = ["thresholds", "--d-max", "2", "--l", "10", "--tol", "1e-3"]
    rc1, as_csv, _ = run_cli(capsys, *argv)
    rc2, as_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc1 == rc2 == 0
    rows = json.loads(as_json)
    assert len(rows) == 1
    want = [{k: f"{v:.10g}" if isinstance(v, float) else str(v) for k, v in row.items()} for row in rows]
    assert list(csv.DictReader(io.StringIO(as_csv))) == want


def test_sweep_degree_below_two_is_refused_before_any_row(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a row ran before the degrees were checked")

    monkeypatch.setattr(cli, "_row", fail)
    rc, out, err = run_cli(capsys, "sweep", "--d-list", "1,3")
    assert rc == 2 and out == ""
    assert err == "csaloha: parameter error: sweep needs degrees >= 2, got [1, 3]\n"


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "row.csv"
    rc, out, _ = run_cli(capsys, "bound", "--d", "3", "--format", "csv", "--out", str(path))
    assert rc == 0 and out == ""
    assert path.read_text() == f"d,g_star\n3,{solve_load_bound(1 / 3):.6g}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--d", "3"),
        ("simulate", "block", "--d", "3", "--g", "0.5", "--slots", "50", "--trials", "2"),
    ],
)
def test_unwritable_out_is_a_parameter_error(tmp_path, capsys, argv):
    # the directory check refuses the path before the work: one line on
    # stderr and exit 2, not a traceback
    path = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert rc == 2 and out == ""
    assert err == f"csaloha: parameter error: cannot write --out {path}: No such file or directory\n"
    assert "Traceback" not in err and not path.parent.exists()


def test_out_that_is_a_directory_fails_at_the_write(tmp_path, capsys):
    # the path's parent is writable, so the early check passes; open then
    # fails, and the write reports it as one line with exit 2
    rc, out, err = run_cli(capsys, "bound", "--d", "3", "--out", str(tmp_path))
    assert rc == 2 and out == ""
    assert err == f"csaloha: parameter error: cannot write --out {tmp_path}: Is a directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("thresholds", "--d-max", "3", "--l", "40"),
        ("simulate", "block", "--d", "3", "--g", "0.5", "--slots", "50", "--trials", "2"),
    ],
)
def test_missing_out_directory_fails_before_the_work(tmp_path, capsys, monkeypatch, argv):
    # the default table takes ~40 s: a path that cannot be written is refused
    # before any row or trial is computed
    def fail(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "_row", fail)
    monkeypatch.setattr(cli, "run_trials", fail)
    path = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert rc == 2 and out == ""
    assert err == f"csaloha: parameter error: cannot write --out {path}: No such file or directory\n"


def test_out_directory_without_write_access_is_a_parameter_error(tmp_path, capsys, monkeypatch):
    # os.access is faked: a root user may write anywhere
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    path = tmp_path / "x.csv"
    rc, out, err = run_cli(capsys, "bound", "--d", "3", "--out", str(path))
    assert rc == 2 and out == "" and not path.exists()
    assert err == f"csaloha: parameter error: cannot write --out {path}: Permission denied\n"


def _bracket_error(*args, **kwargs):
    raise ThresholdBracketError("predicate still true at upper bracket 1.2")


@pytest.mark.parametrize(
    "module, name, fake",
    [(analysis, "_area", lambda u, d: 1.0), (cli, "coupled_threshold", _bracket_error)],
    ids=["area", "bracket"],
)
def test_numerical_failure_exits_three(capsys, monkeypatch, module, name, fake):
    # AreaSolutionError from the MAP bound, ThresholdBracketError from a
    # bisection: one line on stderr and exit 3, not a traceback
    monkeypatch.delenv("CSA_THREADS", raising=False)
    monkeypatch.setattr(module, name, fake)
    rc, out, err = run_cli(capsys, "thresholds", "--d-max", "2", "--l", "4", "--tol", "0.1")
    assert rc == 3 and out == ""
    assert err.startswith("csaloha: numerical failure: ") and err.count("\n") == 1


def test_csv_output_simulate(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "block", "--d", "2", "--g", "0.4", "--slots", "100",
        "--trials", "5", "--seed", "2", "--format", "csv",
    )
    assert rc == 0
    header, row = out.strip().splitlines()
    cols = header.split(",")
    assert "plr" in cols and "seed" in cols and "wall_time_s" in cols
    assert len(row.split(",")) == len(cols)


def test_simulate_csv_bytes_pinned(capsys):
    # sha256 of the header and row with the wall_time_s column cut, taken
    # before the CSV writer was shared with thresholds and sweep
    rc, out, _ = run_cli(
        capsys, "simulate", "coupled", "--d", "3", "--l", "8", "--slots", "60",
        "--g", "0.88", "--trials", "20", "--decoder", "both", "--seed", "1", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    cut = rows[0].index("wall_time_s")
    text = "".join(",".join(r[:cut] + r[cut + 1:]) + "\n" for r in rows)
    want = "12dfea1be979b52632608b0a9a85b244cd455f0e61ba8df3a4f134cef957127b"
    assert hashlib.sha256(text.encode()).hexdigest() == want
