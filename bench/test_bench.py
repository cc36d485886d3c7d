"""Tests of the benchmark's own machinery, on workloads far smaller than the real ones.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import Tracer, function_snapshot, layer_metrics  # noqa: E402

sparechain = run.import_program()

SMALL = {
    "optimize": run.Workload(
        "test-optimize",
        (("optimize",), ("optimize", "--inplane-only")),
        {"optimization": {"ga": {"population": 8, "generations": 4, "restarts": 1}}},
    ),
    "simulate": run.Workload(
        "test-simulate",
        (("simulate",),),
        {"simulation": {"horizon_years": 3.0, "replications": 4}},
    ),
    "validate": run.Workload(
        "test-validate",
        (("validate", "--n-cases", "3", "--reps", "2", "--horizon", "3"),),
        {},
    ),
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def failures(bench: run.Bench) -> list[str]:
    return [p for op in bench.ops for p in op["failed_checks"]]


def test_tracer_restores_wrapped_functions_even_on_error():
    before = function_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert sparechain.optimizer.fitness is not before[("sparechain.optimizer", "fitness")]
            assert sparechain.chain.transfer_time is sparechain.orbits.transfer_time
            raise RuntimeError("inside the traced block")
    assert function_snapshot() == before


def test_self_time_overhead_and_efficiency_from_spans():
    tr = Tracer()
    tr.spans = [
        (1, "cli.main", 0.0, 12.0, 0),
        (2, "simulator.run_batch", 1.0, 11.0, 1),
        (3, "simulator.run_replication", 2.0, 7.0, 2),
        (4, "simulator.run_replication", 3.0, 8.0, 2),
    ]
    tr.notes[2] = 2
    m = layer_metrics(tr)
    assert m["simulator.batch_overhead_s"] == pytest.approx(10.0 - 6.0)
    assert m["simulator.parallel_efficiency"] == pytest.approx(10.0 / (2 * 10.0))
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["optimizer.fitness_calls"] == 0 and m["optimizer.cache_hit_ratio"] == 0.0


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_counts_repeat_and_csvs_match_untraced(kind):
    runs = []
    for _ in range(2):
        bench = run.Bench(sparechain, SMALL[kind], seed=5, seconds=0)
        runs.append(bench.run_traced()["metrics"])
        assert failures(bench) == []
    for name in run.EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name
    assert function_snapshot() == run.Bench(sparechain, SMALL[kind], 5, 0).functions
    first = runs[0]
    if kind == "optimize":
        assert first["optimizer.genome_visits"][0] == 8 * 4
        assert 0 < first["optimizer.fitness_calls"][0] <= 8 * 4
        assert first["inventory.shortage_points"][0] > 0
        assert first["orbits.raan_drift_rate_calls"][0] > 0
        assert first["simulator.events"][0] == 0
    else:
        assert first["simulator.events"][0] > 0
        assert first["optimizer.genome_visits"][0] == 0


def test_untraced_run_checks_determinism_and_library_results():
    bench = run.Bench(sparechain, SMALL["simulate"], seed=1, seconds=0)
    measured = bench.run_untraced()
    assert failures(bench) == []
    argvs = [op["argv"] for op in bench.ops]
    assert [a[a.index("--jobs") + 1] for a in argvs] == [str(bench.cores), str(bench.cores), "1"]
    assert measured["metrics"]["setup_s"][0] > 0
    assert len(measured["samples"]["setup_s"]) == run.SETUP_REPEATS


def test_check_failures_are_reported():
    bench = run.Bench(sparechain, SMALL["simulate"], seed=1, seconds=0)
    out = run.WORK / "broken"
    bench.iteration(1000, out, 1)
    path = out / "simulation_replications.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert bench.checks.simulate(out, {})


def test_fails_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, root / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-case", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
