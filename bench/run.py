"""sparechain benchmark: the real CLI, driven in-process over three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload optimize-case --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload, one process each

Each workload calls ``sparechain.cli.main([...])`` the way a user runs the
``sparechain`` command, with ``--jobs`` equal to the usable core count and
a derived config written under ``bench/work/``. Iteration 0 of a run passes
``--seed <seed * 1000>``, iteration 1 repeats it (its CSVs must be
byte-identical) and iteration k > 1 passes ``--seed <seed * 1000 + k - 1>``,
so the workload seed fixes every input. Every CLI call is an operation
whose outputs are checked; the last line of standard output is one JSON
object:

    {"correct": ..., "attempted": <operations>, "failed": <operations that
     failed a check>, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``cpu_s``, the median CPU
seconds of one iteration's CLI calls; ``setup_s``, the median time for a
fresh interpreter to import ``sparechain.cli`` and load the config; and
``peak_rss_mb``, the peak resident memory of this process. The lines
before the JSON also print ``wall_s``, ``ops_failed_frac`` and, on
``optimize-case``, ``tessac_gap_pct``. ``--trace 1`` alternates untraced
and traced iterations on iteration 0's inputs and reports the per-layer
metrics of ``tracer.layer_metrics`` plus the tracing overhead. Results,
with provenance, go to ``bench/work/results/``. ``bench/README.md`` says
why these workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import Tracer, function_snapshot, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
BUNDLED_CONFIG = SRC / "sparechain" / "data" / "case_study.json"

# Sizes keep one iteration at a few seconds (the default GA takes ~5 s), so
# a run takes the median of many iterations.
SIM_REPLICATIONS = 100
VALIDATE_CASES = 16
VALIDATE_REPS = 10
SETUP_REPEATS = 5
# A multi-echelon TESSAC below the reference optimum by more than this many
# percent means the reference is wrong.
GAP_FLOOR_PCT = -1e-6
REL_TOL = 1e-12

# Work counts that must repeat exactly between traced iterations at one seed.
EXACT_COUNTS = (
    "optimizer.genome_visits",
    "optimizer.fitness_calls",
    "inventory.shortage_points",
    "orbits.raan_drift_rate_calls",
    "simulator.events",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    overrides: dict

    @property
    def simulates(self) -> bool:
        return any(c[0] == "simulate" for c in self.commands)


WORKLOADS = {
    w.name: w
    for w in (
        # GA (60 x 150 x 5 restarts) then the exhaustive in-plane baseline:
        # the analytic chain under the search, no simulator.
        Workload("optimize-case", (("optimize",), ("optimize", "--inplane-only")), {}),
        # The pure event loop behind the thread pool; no analytic chain.
        Workload(
            "simulate-case",
            (("simulate",),),
            {"simulation": {"horizon_years": 15.0, "replications": SIM_REPLICATIONS}},
        ),
        # Many short simulator batches over Latin-hypercube constellations.
        Workload(
            "validate-lhs",
            (("validate", "--n-cases", str(VALIDATE_CASES), "--reps", str(VALIDATE_REPS)),),
            {},
        ),
    )
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import sparechain from this checkout's src/, and from nowhere else."""
    if not (SRC / "sparechain" / "cli.py").is_file():
        fail(f"no sparechain sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sparechain.cli

    if Path(sparechain.cli.__file__).resolve().parent != (SRC / "sparechain").resolve():
        fail(f"imported sparechain from {sparechain.cli.__file__}, not {SRC}")
    return sparechain


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(workload: Workload) -> Path:
    """Bundled case study plus the workload's overrides, under bench/work/."""
    data = json.loads(BUNDLED_CONFIG.read_text())
    for section, values in workload.overrides.items():
        data.setdefault(section, {}).update(values)
    path = WORK / "configs" / f"{workload.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def provenance(seed: int, configs: list[Path]) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "cores": usable_cores(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "workload_seed": seed,
        "config_sha256": {str(p.relative_to(ROOT)): sha256(p) for p in configs},
    }


SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import sparechain.cli; "
    "sparechain.cli.load_run_config(sys.argv[2]); print(repr(time.time()))"
)


def measure_setup(config: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until the CLI and config are loaded.

    The first spawn is discarded: it may compile the package's bytecode.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
            check=True,
        )
        if i:
            samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children.

    Unlike wall time it leaves out time the host steals from a shared
    virtual machine, which varies by tens of percent from minute to minute.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


class Checks:
    """Independent checks of each command's outputs, returning failure messages."""

    def __init__(self, rc, reference: dict):
        self.rc, self.ref = rc, reference

    def for_command(self, command: tuple[str, ...]):
        if command[0] == "optimize":
            return self.inplane if "--inplane-only" in command else self.ga
        if command[0] == "validate":
            return functools.partial(self.validate, int(command[command.index("--n-cases") + 1]))
        return self.simulate

    def ga(self, out: Path, extras: dict) -> list[str]:
        from sparechain.chain import SpareStrategy, evaluate_strategy
        from sparechain.costs import tessac
        from sparechain.orbits import CircularOrbit, hohmann_transfer

        rc, problems = self.rc, []
        rows = read_csv(out / "optimize_result.csv")
        if len(rows) != 1:
            return [f"optimize_result.csv has {len(rows)} rows"]
        row = rows[0]
        strategy = SpareStrategy(
            n_parking=int(row["n_parking"]),
            h_parking_km=float(row["h_parking_km"]),
            q_plane=int(row["q_plane"]),
            s_plane=int(row["s_plane"]),
            k_q_parking=int(row["k_q_parking"]),
            k_s_parking=int(row["k_s_parking"]),
        )
        cfg = rc.constellation
        metrics = evaluate_strategy(cfg, strategy, rc.launch, rc.earth)
        product = metrics.rho_plane**cfg.n_plane * metrics.rho_parking**strategy.n_parking
        transfer = hohmann_transfer(
            CircularOrbit(strategy.h_parking_km, cfg.inclination_deg),
            CircularOrbit(cfg.h_plane_km, cfg.inclination_deg),
            rc.satellite.m_dry_kg,
            rc.satellite.v_exhaust_km_s,
            rc.earth,
        )
        cost = tessac(cfg, strategy, metrics, transfer, rc.costs, rc.launch).tessac
        if product < rc.optimization.rho_target:
            problems.append(f"GA result infeasible: fill-rate product {product}")
        if strategy.q_parking > rc.launch.cap_launch:
            problems.append(f"GA result q_parking {strategy.q_parking} above capacity")
        if int(row["q_parking"]) != strategy.q_parking:
            problems.append("CSV q_parking differs from the strategy's")
        csv_cost = float(row["tessac"])
        if not close(csv_cost, cost):
            problems.append(f"CSV tessac {csv_cost} != library {cost}")
        if not close(float(row["fill_rate_product"]), product):
            problems.append(f"CSV fill_rate_product {row['fill_rate_product']} != library {product}")
        reference = self.ref["multi_echelon"]["tessac"]
        gap = (csv_cost - reference) / reference * 100.0
        extras.setdefault("tessac_gap_pct", []).append(gap)
        if gap < GAP_FLOOR_PCT:
            problems.append(f"TESSAC {csv_cost} beats the reference optimum {reference}")
        ga = rc.optimization.ga
        if len(read_csv(out / "optimize_trace.csv")) != ga.restarts * ga.generations:
            problems.append("optimize_trace.csv row count differs from restarts x generations")
        return problems

    def inplane(self, out: Path, extras: dict) -> list[str]:
        rows = read_csv(out / "optimize_inplane.csv")
        if len(rows) != 1:
            return [f"optimize_inplane.csv has {len(rows)} rows"]
        row, ref = rows[0], self.ref["inplane_only"]
        problems = []
        if (int(row["q_plane"]), int(row["s_plane"])) != (ref["q_plane"], ref["s_plane"]):
            problems.append(f"in-plane policy ({row['q_plane']}, {row['s_plane']}) is not the exact optimum")
        if not close(float(row["tessac"]), ref["tessac"], 1e-9):
            problems.append(f"in-plane TESSAC {row['tessac']} != exact optimum {ref['tessac']}")
        if float(row["fill_rate_product"]) < self.rc.optimization.rho_target:
            problems.append("in-plane policy misses the fill-rate target")
        return problems

    def simulate(self, out: Path, extras: dict) -> list[str]:
        rows = read_csv(out / "simulation_replications.csv")
        reps = self.rc.simulation.replications
        problems = []
        if [int(r["replication"]) for r in rows] != list(range(reps)):
            problems.append(f"simulation_replications.csv does not hold replications 0..{reps - 1}")
        for r in rows:
            if int(r["served"]) + int(r["backorders_end"]) != int(r["failures"]):
                problems.append(f"replication {r['replication']}: served + backorders != failures")
        summary = {r["metric"]: float(r["mean"]) for r in read_csv(out / "simulation_summary.csv")}
        mean_tessac = statistics.fmean(float(r["tessac"]) for r in rows) if rows else math.nan
        if not close(summary.get("tessac", math.nan), mean_tessac, 1e-9):
            problems.append("summary TESSAC is not the mean of the replications")
        return problems

    def validate(self, n_cases: int, out: Path, extras: dict) -> list[str]:
        rows = read_csv(out / "validation_cases.csv")
        problems = []
        if [int(r["case"]) for r in rows] != list(range(n_cases)):
            problems.append(f"validation_cases.csv does not hold one row per case 0..{n_cases - 1}")
        for r in rows:
            errors = [v for k, v in r.items() if k.startswith("err_pct_")]
            if r["feasible"] == "1":
                if not all(v and math.isfinite(float(v)) for v in errors):
                    problems.append(f"case {r['case']}: feasible without finite errors")
            elif not r["reason"]:
                problems.append(f"case {r['case']}: infeasible without a reason")
        # Criterion-3 error limits are for the full study size; at this size
        # the averaged errors are recorded, not gated.
        for r in read_csv(out / "validation_summary.csv"):
            extras.setdefault(f"avg_abs_error_pct.{r['output']}", []).append(float(r["avg_abs_error_pct"]))
        return problems

    @staticmethod
    def replications(reps, where: str) -> list[str]:
        """Satellite conservation and served + backorders = failures, per (q_parking, replication)."""
        problems = []
        for i, (q_parking, r) in enumerate(reps):
            launched = q_parking * r.ground_orders
            if r.final_on_hand + r.final_in_transit + r.served != r.initial_on_hand + launched:
                problems.append(f"{where} replication {i}: satellite conservation violated")
            if r.served + r.backorders_end != r.failures:
                problems.append(f"{where} replication {i}: served + backorders != failures")
        return problems


def csv_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def differing_csvs(a: Path, b: Path) -> list[str]:
    ca, cb = csv_bytes(a), csv_bytes(b)
    return sorted(n for n in set(ca) | set(cb) if ca.get(n) != cb.get(n))


class Bench:
    def __init__(self, sparechain, workload: Workload, seed: int, seconds: float):
        from sparechain.config import load_run_config

        self.cli = sparechain.cli
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cores = usable_cores()
        self.config = write_config(workload)
        self.rc = load_run_config(self.config)
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text())
        self.checks = Checks(self.rc, self.reference)
        self.functions = function_snapshot()
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.ops: list[dict] = []
        self.extras: dict[str, list[float]] = {}

    def sim_config(self, master: int):
        from sparechain.simulator import SimConfig

        rc = self.rc
        return SimConfig(
            constellation=rc.constellation,
            strategy=rc.strategy,
            launch=rc.launch,
            costs=rc.costs,
            satellite=rc.satellite,
            horizon_years=rc.simulation.horizon_years,
            replications=rc.simulation.replications,
            seed=self.cli.command_seed(master, "simulate"),
            warmup_years=rc.simulation.warmup_years,
            consts=rc.earth,
        )

    def argv(self, command, sub_seed: int, out: Path, jobs: int) -> list[str]:
        return [*command, "--config", str(self.config), "--seed", str(sub_seed),
                "--jobs", str(jobs), "--out", str(out)]

    def call(self, argv: list[str], tracer=None) -> tuple[int | None, float, float, str]:
        """One CLI call with its console output captured.

        Returns (exit code, wall seconds, CPU seconds, stderr).
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        code = self.cli.main(argv)
        except Exception:
            code = None
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - start
        return code, wall, cpu_seconds() - cpu, stderr.getvalue()

    def iteration(self, sub_seed: int, out: Path, jobs: int, tracer=None) -> tuple[float, float]:
        """Run every command of the workload once and check each.

        Returns the summed (wall, CPU) seconds of the CLI calls.
        """
        wall_total = cpu_total = 0.0
        for command in self.workload.commands:
            argv = self.argv(command, sub_seed, out, jobs)
            if tracer is None:
                code, wall, cpu, err = self.call(argv)
            else:
                with tracer:
                    code, wall, cpu, err = self.call(argv, tracer)
            problems = self.checks.for_command(command)(out, self.extras) if code == 0 else []
            if code != 0:
                problems = [f"exit status {code}: {err.strip()[-500:]}"]
            self.ops.append({"argv": argv, "exit": code, "wall_s": wall, "cpu_s": cpu, "failed_checks": problems})
            wall_total += wall
            cpu_total += cpu
        if tracer is not None:
            tracer.count("cli.csv_bytes", sum(len(b) for b in csv_bytes(out).values()))
        return wall_total, cpu_total

    def same_csvs(self, reference_out: Path, out: Path) -> None:
        """The last operation fails unless ``out`` holds byte-identical CSVs."""
        diff = differing_csvs(reference_out, out)
        if diff:
            self.ops[-1]["failed_checks"].append(f"{out.name}: CSVs differ from {reference_out.name}: {diff}")

    def library_check(self, reference_out: Path, sub_seed: int) -> None:
        """Simulate: check every replication of iteration 0 through the library."""
        from sparechain.simulator import run_batch

        sc = self.sim_config(sub_seed)
        res = run_batch(sc, jobs=self.cores)
        problems = self.checks.replications(
            [(sc.strategy.q_parking, r) for r in res.per_replication], "library"
        )
        rows = read_csv(reference_out / "simulation_replications.csv")
        for row, r in zip(rows, res.per_replication):
            if row["tessac"] != repr(r.tessac) or int(row["failures"]) != r.failures:
                problems.append(f"replication {row['replication']}: CSV differs from library result")
        self.ops[0]["failed_checks"].extend(problems)

    def run_untraced(self) -> dict:
        setup = measure_setup(self.config)
        deadline = time.perf_counter() + self.seconds
        walls, cpus = [], []
        k = 0
        while True:
            # Iteration 1 repeats iteration 0's inputs, to check determinism.
            sub_seed = self.seed * 1000 + max(k - 1, 0)
            out = self.dir / f"iter{k}"
            wall, cpu = self.iteration(sub_seed, out, self.cores)
            walls.append(wall)
            cpus.append(cpu)
            if k == 1:
                first = self.dir / "iter0"
                self.same_csvs(first, out)
                if self.workload.simulates:
                    jobs1 = self.dir / "iter0-jobs1"
                    self.iteration(sub_seed, jobs1, 1)
                    self.same_csvs(first, jobs1)
                    self.library_check(first, sub_seed)
            k += 1
            if k >= 2 and time.perf_counter() + statistics.median(walls) > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "metrics": {
                "cpu_s": (statistics.median(cpus), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            },
            "samples": {"cpu_s": cpus, "wall_s": walls, "setup_s": setup},
        }

    def run_traced(self) -> dict:
        sub_seed = self.seed * 1000
        deadline = time.perf_counter() + self.seconds
        plain, traced, layers = [], [], []
        baseline_out = None
        p = 0
        while True:
            outs = {}
            # Alternate which side runs first so drift favours neither.
            for with_trace in ((False, True) if p % 2 == 0 else (True, False)):
                out = self.dir / f"pair{p}-{'traced' if with_trace else 'plain'}"
                if with_trace:
                    tracer = Tracer()
                    traced.append(self.iteration(sub_seed, out, self.cores, tracer)[0])
                    layers.append(layer_metrics(tracer))
                    self.check_traced(tracer)
                    if p == 0:
                        self.write_spans(tracer.spans)
                    # Dropped now: kept, the spans would slow the garbage
                    # collector in the iterations that follow.
                    del tracer
                else:
                    plain.append(self.iteration(sub_seed, out, self.cores)[0])
                outs[with_trace] = out
            baseline_out = baseline_out or outs[False]
            for out in outs.values():
                self.same_csvs(baseline_out, out)
            for name in EXACT_COUNTS:
                if layers[-1][name] != layers[0][name]:
                    self.ops[-1]["failed_checks"].append(f"{name} did not repeat: {layers[0][name]} then {layers[-1][name]}")
            p += 1
            if time.perf_counter() + statistics.median(plain) + statistics.median(traced) > deadline:
                break
        # median_low keeps counts exact when the number of traced iterations is even.
        metrics = {name: (statistics.median_low(m[name] for m in layers), None) for name in layers[0]}
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (overhead / statistics.median(plain) * 100.0, "%")
        return {"metrics": metrics, "samples": {"plain_wall_s": plain, "traced_wall_s": traced}}

    def check_traced(self, tracer) -> None:
        """Wrapped functions are restored; every captured replication balances."""
        now = function_snapshot()
        problems = [f"{key} not restored after tracing" for key in self.functions if now.get(key) is not self.functions[key]]
        problems += self.checks.replications(tracer.replications, "traced")
        self.ops[-1]["failed_checks"].extend(problems)

    def write_spans(self, spans) -> None:
        path = self.dir / "spans.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            origin = min((s[2] for s in spans), default=0.0)
            for sid, name, start, end, parent in spans:
                writer.writerow([sid, name, repr(start - origin), repr(end - origin), parent])


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    sparechain = import_program()
    bench = Bench(sparechain, WORKLOADS[name], seed, seconds)
    started = time.time()
    measured = bench.run_traced() if trace else bench.run_untraced()
    failed = sum(1 for op in bench.ops if op["failed_checks"])
    report = dict(measured["metrics"])
    if not trace:
        report["ops_failed_frac"] = (failed / len(bench.ops), "fraction")
        if "tessac_gap_pct" in bench.extras:
            report["tessac_gap_pct"] = (statistics.median(bench.extras["tessac_gap_pct"]), "%")
    result = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "started_unix": started,
        "provenance": provenance(seed, [bench.config]),
        "report": {k: {"value": v, "unit": u or units[k]} for k, (v, u) in report.items()},
        "samples": measured["samples"],
        "outputs": bench.extras,
        "attempted": len(bench.ops),
        "failed": failed,
        "operations": bench.ops,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    result["path"] = path
    return result


def contract_line(result: dict, names: list[str], units: dict[str, str]) -> str:
    report = result["report"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": report[n]["value"], "unit": units[n]} for n in names},
        }
    )


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  trace {result['trace']}  "
          f"operations {result['attempted']}  failed {result['failed']}")
    for op in result["operations"]:
        for problem in op["failed_checks"]:
            print(f"  FAILED {' '.join(op['argv'][:1])}: {problem}")
    for name, m in result["report"].items():
        print(f"  {name:<40} {m['value']!r:>24} {m['unit']}")
    print(f"  results: {result['path'].relative_to(ROOT)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    metric_set = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in metric_set]
    units = {m["name"]: m["unit"] for m in metric_set}

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), units)
        print_report(result)
        print(contract_line(result, names, units))
        return 0

    # One process per workload, so peak memory is each workload's own.
    failed = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        failed += json.loads(proc.stdout.splitlines()[-1])["failed"]
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
