"""Command-line front end.

Subcommands::

    evaluate        analytic metrics and annual cost of one strategy
    simulate        Monte Carlo replications of the same strategy
    validate        model-vs-simulation error study over a sampled space
    optimize        genetic search for the cheapest feasible strategy
    sensitivity     optimized two-echelon vs single-echelon cost sweep
    fit-launch-data mean gap of a launch-date series

Every command reads one JSON config (``--config``, defaulting to the
bundled example) and writes CSV files under ``--out``. Output is fully
deterministic for a given config and seed: repeated runs produce byte
identical files.

Seed handling: one master seed (``--seed``, else the config's ``seed``)
gives each stochastic command its own child seed, from which every
replication, case, restart and sweep point derives its streams; the key
layout is listed once, in the `simulator` docstring. ``evaluate`` and
``fit-launch-data`` are deterministic and ignore the seed.

Exit status: 0 on success, 1 on configuration or input errors (among
them a search in which every candidate must fail, as on polar planes),
2 when a requested optimization or sizing is infeasible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

from .chain import STRATEGY_BOUNDS, PolicyMetrics, evaluate_inplane_only
from .config import (
    ConfigError,
    RunConfig,
    bundled_case_study_path,
    bundled_launch_dates_path,
    check_run_size,
    load_run_config,
)
from .costs import CostBreakdown, evaluate_design, tessac_inplane_only
from .optimizer import (
    OptimizationProblem,
    optimize,
    optimize_inplane_only,
    sensitivity_sweep,
)
from .simulator import Estimates, SimConfig, child_seed, run_batch
from .validation import OUTPUT_NAMES, fit_launch_gaps, read_launch_dates, run_validation

_COMMAND_IDS = {"simulate": 1, "validate": 2, "optimize": 3, "sensitivity": 4}


def command_seed(master: int, command: str) -> int:
    """Per-command child seed derived from the master seed."""
    return child_seed(master, _COMMAND_IDS[command])


def _fmt(value) -> str:
    # repr keeps full precision so CSV round-trips exactly
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def _emit(header: list[str], rows: list[list]) -> None:
    if len(rows) == 1:
        for name, value in zip(header, rows[0]):
            print(f"{name:<28} {_fmt(value)}")
    else:
        print(" ".join(header))
        for row in rows:
            print(" ".join(_fmt(x) for x in row))


def _strategy_fields(strategy) -> tuple[list[str], list]:
    names = list(STRATEGY_BOUNDS)
    return names, [getattr(strategy, n) for n in names]


_METRIC_COLUMNS = list(PolicyMetrics._fields)
_COST_COLUMNS = [f.name for f in dataclasses.fields(CostBreakdown)] + ["tessac"]
# ReplicationResult attributes, one column each after the index, in simulation_replications.csv.
_REPLICATION_COLUMNS = (
    *Estimates._fields,
    "failures",
    "served",
    "backorders_end",
    "transfers",
    "ground_orders",
)


def cmd_evaluate(rc: RunConfig, args, out: Path, master: int) -> int:
    rc.require("constellation", "launch", "costs")
    cfg = rc.constellation
    if args.inplane_only:
        rc.require("inplane_policy")
        metrics = evaluate_inplane_only(cfg, rc.inplane_policy, rc.launch)
        breakdown = tessac_inplane_only(cfg, rc.inplane_policy, metrics, rc.costs, rc.launch)
        header = ["q_plane", "s_plane"]
        row: list = [rc.inplane_policy.order_quantity_q, rc.inplane_policy.reorder_point_s]
    else:
        rc.require("strategy", "satellite")
        metrics, breakdown = evaluate_design(
            cfg, rc.strategy, rc.launch, rc.costs, rc.satellite, rc.earth
        )
        header, row = _strategy_fields(rc.strategy)
    header += _METRIC_COLUMNS + _COST_COLUMNS
    row += list(metrics)
    row += [getattr(breakdown, n) for n in _COST_COLUMNS]
    _write_csv(out / "evaluate.csv", header, [row])
    _emit(header, [row])
    return 0


def cmd_simulate(rc: RunConfig, args, out: Path, master: int) -> int:
    rc.require("constellation", "strategy", "launch", "costs", "satellite")
    sc = SimConfig(
        constellation=rc.constellation,
        strategy=rc.strategy,
        launch=rc.launch,
        costs=rc.costs,
        satellite=rc.satellite,
        seed=command_seed(master, "simulate"),
        capture_events=args.event_log,
        consts=rc.earth,
        **vars(rc.simulation),
    )
    res = run_batch(sc)
    header = ["metric", "mean", "se"]
    rows = list(zip(Estimates._fields, res.mean, res.se))
    _write_csv(out / "simulation_summary.csv", header, rows)
    rep_rows = [
        [i, *(getattr(r, n) for n in _REPLICATION_COLUMNS)]
        for i, r in enumerate(res.per_replication)
    ]
    _write_csv(
        out / "simulation_replications.csv", ["replication", *_REPLICATION_COLUMNS], rep_rows
    )
    if args.event_log:
        ev_rows = [
            [i, t, what, loc, stock]
            for i, r in enumerate(res.per_replication)
            for (t, what, loc, stock) in (r.events or ())
        ]
        _write_csv(
            out / "events.csv",
            ["replication", "time_days", "event", "location", "stock_after"],
            ev_rows,
        )
    _emit(header, rows)
    return 0


def cmd_validate(rc: RunConfig, args, out: Path, master: int) -> int:
    rc.require("costs", "satellite")
    flags = {
        "n_cases": "--n-cases",
        "replications": "--reps",
        "horizon_years": "--horizon",
        "warmup_years": "--warmup",
    }
    run_size = {field: getattr(args, field) for field in flags}
    check_run_size(run_size, flags)
    report = run_validation(
        rc.validation.space,
        costs=rc.costs,
        satellite=rc.satellite,
        consts=rc.earth,
        seed=command_seed(master, "validate"),
        **run_size,
    )
    param_names = [f.name for f in dataclasses.fields(rc.validation.space)]
    case_header = (
        ["case", "feasible"]
        + param_names
        + ["s_plane", "k_s_parking"]
        + [f"model_{n}" for n in OUTPUT_NAMES]
        + [f"sim_{n}" for n in OUTPUT_NAMES]
        + [f"err_pct_{n}" for n in OUTPUT_NAMES]
        + ["reason"]
    )
    case_rows = []
    for case in report.cases:
        row: list = [case.index, int(case.feasible)]
        row += [case.params[p] for p in param_names]
        row += [case.s_plane, case.k_s_parking]
        for source in (case.model_values, case.sim_values, case.errors_pct):
            row += [source.get(n) if source else None for n in OUTPUT_NAMES]
        row.append(case.reason or "")
        case_rows.append(row)
    _write_csv(out / "validation_cases.csv", case_header, case_rows)
    header = ["output", "avg_abs_error_pct"]
    rows = [[name, report.averaged_errors_pct[name]] for name in OUTPUT_NAMES]
    _write_csv(out / "validation_summary.csv", header, rows)
    _emit(header, rows)
    feasible = sum(1 for c in report.cases if c.feasible)
    print(f"cases: {feasible} feasible, {report.infeasible_count} infeasible", file=sys.stderr)
    if feasible == 0:
        return 2
    return 0


def _problem(rc: RunConfig) -> OptimizationProblem:
    rc.require("constellation", "launch", "costs", "satellite")
    return OptimizationProblem(
        constellation=rc.constellation,
        launch=rc.launch,
        costs=rc.costs,
        satellite=rc.satellite,
        consts=rc.earth,
        **vars(rc.optimization),
    )


def cmd_optimize(rc: RunConfig, args, out: Path, master: int) -> int:
    prob = _problem(rc)
    if args.inplane_only:
        res = optimize_inplane_only(prob)
        header = ["q_plane", "s_plane", "tessac", "fill_rate_product"]
        rows = [
            [
                res.best_policy.order_quantity_q,
                res.best_policy.reorder_point_s,
                res.best_cost,
                res.fill_rate_product,
            ]
        ]
        _write_csv(out / "optimize_inplane.csv", header, rows)
        _emit(header, rows)
        return 0
    res = optimize(prob, seed=command_seed(master, "optimize"))
    if not res.feasible:
        print("genetic search found no feasible strategy", file=sys.stderr)
        return 2
    names, values = _strategy_fields(res.best_strategy)
    header = names + ["q_parking", "tessac", "fill_rate_product"]
    rows = [values + [res.best_strategy.q_parking, res.best_cost, res.fill_rate_product]]
    _write_csv(out / "optimize_result.csv", header, rows)
    trace_rows = [[r, g, best, mean] for (r, g, best, mean) in res.trace]
    _write_csv(
        out / "optimize_trace.csv",
        ["restart", "generation", "best_penalized", "mean_penalized"],
        trace_rows,
    )
    _emit(header, rows)
    return 0


def cmd_sensitivity(rc: RunConfig, args, out: Path, master: int) -> int:
    prob = _problem(rc)
    try:
        rates = [float(tok) for tok in args.rates.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--rates: {exc}") from exc
    if not rates:
        raise ConfigError("--rates: need at least one failure rate")
    if not all(0.0 <= rate < math.inf for rate in rates):
        raise ConfigError(
            f"--rates: failure rates must be finite and nonnegative, got {args.rates}"
        )
    points = sensitivity_sweep(prob, rates, seed=command_seed(master, "sensitivity"))
    header = [
        "lambda_sat_per_year",
        "tessac_multi",
        "tessac_inplane",
        "savings_pct",
        *STRATEGY_BOUNDS,
        "q_inplane",
        "s_inplane",
        "error",
    ]
    rows = []
    for p in points:
        if p.error is not None:
            rows.append([p.lambda_sat_per_year] + [None] * (len(header) - 2) + [p.error])
            continue
        _, values = _strategy_fields(p.best_strategy)
        rows.append(
            [p.lambda_sat_per_year, p.tessac_multi, p.tessac_inplane, p.savings_pct]
            + values
            + [p.best_policy.order_quantity_q, p.best_policy.reorder_point_s, ""]
        )
    _write_csv(out / "sensitivity.csv", header, rows)
    _emit(header, rows)
    if all(p.error is not None for p in points):
        return 2
    return 0


def cmd_fit_launch_data(rc: RunConfig, args, out: Path, master: int) -> int:
    path = args.dates if args.dates is not None else bundled_launch_dates_path()
    dates = read_launch_dates(path)
    mean_gap = fit_launch_gaps(dates)
    header = ["n_dates", "n_gaps", "mean_gap_days"]
    rows = [[len(dates), len(dates) - 1, mean_gap]]
    _write_csv(out / "launch_fit.csv", header, rows)
    _emit(header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config",
        default=None,
        help="JSON config file (default: bundled case-study example)",
    )
    shared.add_argument("--seed", type=int, default=None, help="master seed override")
    shared.add_argument(
        "--jobs", type=int, default=None, help="accepted for compatibility; has no effect"
    )
    shared.add_argument("--out", default="out", help="directory for CSV outputs")

    parser = argparse.ArgumentParser(
        prog="sparechain",
        description="Spare-satellite supply chain evaluation and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", parents=[shared], help="analytic metrics and cost")
    p.add_argument("--inplane-only", action="store_true", help="single-echelon policy")
    p.set_defaults(run=cmd_evaluate)

    p = sub.add_parser("simulate", parents=[shared], help="Monte Carlo replications")
    p.add_argument("--event-log", action="store_true", help="also write events.csv")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("validate", parents=[shared], help="model-vs-simulation errors")
    p.add_argument("--n-cases", type=int, default=25, help="sampled cases")
    p.add_argument(
        "--reps", dest="replications", type=int, default=100, help="replications per case"
    )
    p.add_argument(
        "--horizon", dest="horizon_years", type=float, default=15.0, help="years per replication"
    )
    p.add_argument(
        "--warmup", dest="warmup_years", type=float, default=1.0, help="discarded years"
    )
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("optimize", parents=[shared], help="search for cheapest strategy")
    p.add_argument(
        "--inplane-only", action="store_true", help="exact (s,Q) baseline: least feasible s per Q"
    )
    p.set_defaults(run=cmd_optimize)

    p = sub.add_parser("sensitivity", parents=[shared], help="savings vs failure rate")
    p.add_argument("--rates", default="0.001,0.005,0.01,0.05,0.1", help="comma separated")
    p.set_defaults(run=cmd_sensitivity)

    p = sub.add_parser("fit-launch-data", parents=[shared], help="mean launch gap")
    p.add_argument(
        "--dates",
        default=None,
        help="file with one ISO date per line (default: bundled launch history)",
    )
    p.set_defaults(run=cmd_fit_launch_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config if args.config is not None else bundled_case_study_path()
        rc = load_run_config(config_path)
        master = args.seed if args.seed is not None else rc.seed
        if master < 0:
            raise ConfigError("--seed: must be nonnegative")
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError("--jobs: must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.run(rc, args, out, master)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
