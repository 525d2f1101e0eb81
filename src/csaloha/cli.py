"""Command-line front end.

Commands:
  bound       load bound G* for a repetition degree
  thresholds  comparison table: iterative thresholds (block, coupled), MAP
              bound, load bound, efficiency, for d = 2..d_max
  sweep       rate sweep (R = 1/d) of the block/coupled thresholds and G*
  simulate    Monte Carlo packet-loss run (block or coupled), JSON report

Exit codes: 0 success, 2 parameter error (or an unwritable --out), 3 numerical failure.
The CSA_THREADS environment variable sets the worker count used to fan out
independent rows / trial batches (default 1). The pool never has more
workers than CPUs or than rows / trials.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .core import SchemeParams, pool_map
from .de_block import (
    BlockDeConfig,
    ThresholdBracketError,
    block_threshold,
    efficiency,
    solve_load_bound,
)
from .de_coupled import coupled_threshold
from .map_bound import AreaSolutionError, map_load_bound
from .sim import run_trials

_THRESH_COLS = ["d", "g_it_block", "g_it_coupled", "g_map_bound", "g_star", "efficiency"]
_SWEEP_COLS = ["rate", "g_it_block", "g_it_coupled", "g_star"]


def _workers() -> int:
    raw = os.environ.get("CSA_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        raise ValueError(f"CSA_THREADS must be an integer, got {raw!r}")


def _row(task) -> dict:
    """Every column of a thresholds or sweep row for one degree."""
    d, l, alpha, tol, max_iters = task
    params = SchemeParams(d, alpha)  # checks alpha before the long DE runs
    cfg = BlockDeConfig() if max_iters is None else BlockDeConfig(max_iters=max_iters)
    g_block = block_threshold(d, cfg, 1e-5 if tol is None else tol).threshold
    g_coupled = coupled_threshold(d, l, cfg, 1e-4 if tol is None else tol).threshold
    g_star = solve_load_bound(1.0 / d)
    return {
        "d": d,
        "rate": 1.0 / d,
        "g_it_block": g_block,
        "g_it_coupled": g_coupled,
        "g_map_bound": map_load_bound(params),
        "g_star": g_star,
        "efficiency": efficiency(g_coupled, g_star),
    }


def _table(args, cols, ds, alpha) -> int:
    tasks = [(d, args.l, alpha, args.tol, args.max_iters) for d in ds]
    rows = pool_map(_row, tasks, _workers())
    _write(_emit_table(cols, rows, args), args.out)
    return 0


def _emit_table(cols, rows, args) -> str:
    if not rows:
        return ""
    if args.format == "json":
        payload = [{c: row[c] for c in cols} for row in rows]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([_fmt(row[c]) for c in cols] for row in rows)
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, list):  # simulate's per_position_plr
        return " ".join(map(_fmt, v))
    return f"{v:.10g}" if isinstance(v, float) else v


def _write(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # exit 2 with one line, not a traceback
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_bound(args) -> int:
    if args.d < 1:
        raise ValueError(f"d must be >= 1, got {args.d}")
    g_star = solve_load_bound(1.0 / args.d)
    if args.format == "json":
        _write(json.dumps({"d": args.d, "g_star": g_star}, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _write(f"d,g_star\n{args.d},{g_star:.6g}\n", args.out)
    else:
        _write(f"{g_star:.6g}\n", args.out)
    return 0


def _cmd_thresholds(args) -> int:
    if not 2 <= args.d_max <= 8:
        raise ValueError(f"d-max must lie in 2..8, got {args.d_max}")
    return _table(args, _THRESH_COLS, range(2, args.d_max + 1), args.alpha)


def _cmd_sweep(args) -> int:
    ds = [int(tok) for tok in args.d_list.split(",") if tok.strip()]
    if any(d < 2 for d in ds):
        raise ValueError(f"sweep needs degrees >= 2, got {ds}")
    # sweep has no --alpha; its rows take the thresholds default, alpha = 100
    return _table(args, _SWEEP_COLS, ds, 100.0)


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    report = run_trials(
        scenario=args.scenario,
        m=args.slots,
        d=args.d,
        g=args.g,
        trials=args.trials,
        seed=args.seed,
        l=args.l,
        alpha=args.alpha,
        decoder=args.decoder,
        workers=_workers(),
    )
    payload = report.to_dict()
    payload["wall_time_s"] = time.perf_counter() - t0
    if args.format == "csv":
        _write(_emit_table(sorted(payload), [payload], args), args.out)
    else:
        _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="csaloha", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, default, formats=("json", "csv")):
        p.add_argument("--format", choices=list(formats), default=default)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    def de_opts(p):
        p.add_argument("--tol", type=float, default=None,
                       help="bisection tolerance (default: 1e-5 for the block column, 1e-4 for the coupled column)")
        p.add_argument("--max-iters", type=int, default=None,
                       help="iteration cap of each density-evolution run (default: 1e5)")

    p = sub.add_parser("bound", help="load bound G* for rate R = 1/d")
    p.add_argument("--d", type=int, required=True)
    common(p, "text", formats=("text", "json", "csv"))
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("thresholds", help="threshold comparison table for d = 2..d_max")
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--l", type=int, default=200)
    p.add_argument("--alpha", type=float, default=100.0)
    de_opts(p)
    common(p, "csv")
    p.set_defaults(fn=_cmd_thresholds)

    p = sub.add_parser("sweep", help="rate sweep of thresholds vs the load bound")
    p.add_argument("--d-list", default="", help="comma-separated degrees, e.g. 2,3,4")
    p.add_argument("--l", type=int, default=200)
    de_opts(p)
    common(p, "csv")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo packet-loss run")
    p.add_argument("scenario", choices=["block", "coupled"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--slots", type=int, required=True, help="slots per frame")
    p.add_argument("--l", type=int, default=None, help="chain length (coupled only)")
    p.add_argument("--alpha", type=float, default=None,
                   help="finite population: binomial arrivals instead of Poisson")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decoder", choices=["peeling", "gje", "both"], default="peeling")
    common(p, "json")
    p.set_defaults(fn=_cmd_simulate)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"csaloha: parameter error: {exc}", file=sys.stderr)
        return 2
    except (ThresholdBracketError, AreaSolutionError) as exc:
        print(f"csaloha: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
