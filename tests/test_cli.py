import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sparechain
from sparechain.cli import build_parser, command_seed, main
from sparechain.config import (
    ConfigError,
    RunConfig,
    ValidationSettings,
    bundled_case_study_path,
    child_seed,
    load_run_config,
)
from sparechain.simulator import SimConfig, run_batch
from sparechain.validation import OUTPUT_NAMES, lhs_sample

from golden_runs import GOLDEN


@pytest.fixture(scope="module")
def base_config():
    return json.loads(bundled_case_study_path().read_text())


@pytest.fixture()
def fast_config(tmp_path, base_config):
    """Case-study config with small simulation and search settings."""
    cfg = dict(base_config)
    cfg["simulation"] = {"horizon_years": 5.0, "replications": 4, "warmup_years": 1.0}
    cfg["optimization"] = {
        "rho_target": 0.95,
        "ga": {"population": 20, "generations": 15, "restarts": 1},
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


STRATEGY_COLUMNS = ["n_parking", "h_parking_km", "q_plane", "s_plane", "k_q_parking", "k_s_parking"]


def test_evaluate_bundled_default(tmp_path, capsys):
    assert main(["evaluate", "--out", str(tmp_path / "o")]) == 0
    assert read_table(tmp_path / "o" / "evaluate.csv")[0] == STRATEGY_COLUMNS + [
        "lambda_plane_per_day",
        "lambda_parking_batches_per_day",
        "p_av",
        "es_plane",
        "es_parking_batches",
        "rho_plane",
        "rho_parking",
        "mean_stock_plane",
        "mean_stock_parking_batches",
        "e_leadtime_plane_days",
        "e_leadtime_parking_days",
        "neglected_supply_mass",
        "manufacturing",
        "holding",
        "launch",
        "maneuvering",
        "tessac",
    ]
    (row,) = read_rows(tmp_path / "o" / "evaluate.csv")
    assert float(row["tessac"]) == pytest.approx(319.1326941382908, rel=1e-15)
    assert float(row["manufacturing"]) == 40.0
    assert float(row["launch"]) == 119.0
    assert row["n_parking"] == "3"
    # full precision repr round-trips through the file
    assert repr(float(row["mean_stock_plane"])) == row["mean_stock_plane"]
    out = capsys.readouterr().out
    assert "tessac" in out


def test_evaluate_inplane_policy(tmp_path):
    assert main(["evaluate", "--inplane-only", "--out", str(tmp_path / "o")]) == 0
    (row,) = read_rows(tmp_path / "o" / "evaluate.csv")
    assert row["q_plane"] == "20"
    assert row["s_plane"] == "4"
    assert float(row["tessac"]) == pytest.approx(503.22739726027396, rel=1e-15)


def test_evaluate_inplane_rejects_a_batch_past_the_launch_capacity(tmp_path, base_config, capsys):
    # A ground-only batch rides one rocket; the bundled rocket carries 34.
    cfg = json.loads(json.dumps(base_config))
    cfg["inplane_policy"]["order_quantity_q"] = 35
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    argv = ["evaluate", "--inplane-only", "--config", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    message = "inplane_policy.order_quantity_q: batch of 35 exceeds launch.cap_launch 34"
    assert message in capsys.readouterr().err


def test_evaluate_outputs_are_byte_identical(tmp_path):
    main(["evaluate", "--out", str(tmp_path / "a")])
    main(["evaluate", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "evaluate.csv").read_bytes()
    b = (tmp_path / "b" / "evaluate.csv").read_bytes()
    assert a == b


def test_missing_section_is_a_config_error(tmp_path, base_config, capsys):
    cfg = {k: v for k, v in base_config.items() if k != "strategy"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "strategy" in capsys.readouterr().err


def test_evaluate_inplane_only_needs_no_satellite_section(tmp_path, base_config, capsys):
    # The ground-only policy prices no transfer, so it reads no satellite.
    cfg = {k: v for k, v in base_config.items() if k != "satellite"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    args = ["--config", str(path), "--out", str(tmp_path / "o")]
    assert main(["evaluate", "--inplane-only", *args]) == 0
    golden = Path(__file__).parent / "golden" / "evaluate-inplane" / "evaluate.csv"
    assert (tmp_path / "o" / "evaluate.csv").read_bytes() == golden.read_bytes()
    capsys.readouterr()
    assert main(["evaluate", *args]) == 1
    assert "satellite: section required for this command" in capsys.readouterr().err


def test_unknown_key_names_the_path(tmp_path, base_config, capsys):
    # n_days_per_year is the fixed DAYS_PER_YEAR, not a setting.
    for key in ("bogus", "n_days_per_year"):
        cfg = json.loads(json.dumps(base_config))
        cfg["constellation"][key] = 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"constellation.{key}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys",
    [
        ("constellation",),
        ("strategy",),
        ("inplane_policy",),
        ("launch",),
        ("costs",),
        ("satellite",),
        ("simulation",),
        ("optimization",),
        ("optimization", "bounds"),
        ("optimization", "ga"),
        ("validation",),
        ("validation", "space"),
    ],
    ids=".".join,
)
def test_unknown_key_in_any_section_names_its_full_path(tmp_path, base_config, keys):
    cfg = json.loads(json.dumps(base_config))
    section = cfg
    for key in keys:
        section = section.setdefault(key, {})
    section["bogus"] = 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    keypath = ".".join(keys) + ".bogus"
    with pytest.raises(ConfigError, match=f"^{re.escape(keypath)}: unknown key$"):
        load_run_config(path)


@pytest.mark.parametrize(
    ("data", "message"),
    [
        ({"bogus": {}}, "bogus: unknown key"),
        ([], "top level of the config: expected an object"),
        ({"seed": -1}, "seed: must be nonnegative"),
        # Every run uses WGS-84; the Earth constants are not a setting.
        ({"earth": {"j2": 0.001}}, "earth: unknown key"),
        (
            {
                "constellation": {
                    "h_plane_km": 1200.0,
                    "inclination_deg": 50.0,
                    "n_sats": 40,
                    "lambda_sat_per_year": 0.1,
                }
            },
            "constellation.n_plane: required key missing",
        ),
    ],
    ids=["unknown-section", "not-an-object", "negative-seed", "earth", "missing-key"],
)
def test_top_level_errors(tmp_path, data, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_run_config(path)


def test_every_setting_is_listed_here():
    # A new flag or config key must be added to these tables.
    shared = ["-h", "--help", "--config", "--seed", "--jobs", "--out"]
    own = {
        "evaluate": ["--inplane-only"],
        "simulate": ["--event-log"],
        "validate": ["--n-cases", "--reps", "--horizon", "--warmup"],
        "optimize": ["--inplane-only"],
        "sensitivity": ["--rates"],
        "fit-launch-data": ["--dates"],
    }
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for action in sub._actions for s in action.option_strings]
        for name, sub in commands.choices.items()
    }
    assert options == {name: shared + flags for name, flags in own.items()}
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "constellation",
        "strategy",
        "inplane_policy",
        "launch",
        "costs",
        "satellite",
        "simulation",
        "optimization",
        "validation",
        "seed",
    ]
    assert [f.name for f in dataclasses.fields(ValidationSettings)] == ["space"]


@pytest.mark.parametrize(
    ("command", "section", "values", "keypath"),
    [
        ("optimize", "optimization", {"rho_target": 1.5}, "optimization.rho_target"),
        ("optimize", "optimization", {"rho_target": 0.0}, "optimization.rho_target"),
        (
            "simulate",
            "simulation",
            {"horizon_years": 2.0, "warmup_years": 2.0},
            "simulation.warmup_years",
        ),
        # The run size of a study is set by validate's flags only.
        *(
            ("validate", "validation", {key: value}, f"validation.{key}: unknown key")
            for key, value in (("warmup_years", 20.0), ("n_cases", 0))
        ),
        ("simulate", "simulation", {"replications": 0}, "simulation.replications"),
        ("simulate", "simulation", {"horizon_years": 0.0}, "simulation.horizon_years"),
        ("evaluate", "costs", {"p_sat_musd": math.nan}, "costs.p_sat_musd"),
        # The genetic operators are fixed constants, not settings.
        *(
            ("optimize", "optimization", {"ga": {key: 1}}, f"optimization.ga.{key}: unknown key")
            for key in (
                "elitism",
                "tournament_size",
                "crossover_rate",
                "mutation_rate",
                "mutation_sigma_km",
            )
        ),
        (
            "evaluate",
            "constellation",
            {"h_plane_km": "1200"},
            "constellation.h_plane_km: expected a number, got '1200'",
        ),
        *(
            ("evaluate", "constellation", {key: 0}, f"constellation: {key} must be >= 1, got 0")
            for key in ("n_plane", "n_sats")
        ),
        ("evaluate", "launch", {"cap_launch": 0}, "launch: launch capacity must be >= 1, got 0"),
    ],
)
def test_out_of_range_settings_name_the_key_path(
    tmp_path, base_config, capsys, command, section, values, keypath
):
    cfg = json.loads(json.dumps(base_config))
    cfg[section] = {**cfg.get(section, {}), **values}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert keypath in capsys.readouterr().err


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (
            ["--horizon", "2", "--warmup", "5"],
            "--warmup: must be nonnegative and shorter than --horizon",
        ),
        (["--n-cases", "0"], "--n-cases: need at least one case"),
        (["--reps", "0"], "--reps: need at least one replication"),
    ],
)
def test_validate_flag_overrides_name_the_flag(tmp_path, capsys, flags, message):
    assert main(["validate", *flags, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def _load_with(tmp_path, base_config, section, values):
    cfg = json.loads(json.dumps(base_config))
    cfg[section] = {**cfg.get(section, {}), **values}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return load_run_config(path)


@pytest.mark.parametrize(
    ("pair", "keypath"),
    [
        (["1", 2], "optimization.bounds.n_parking[0]: expected an integer"),
        ([True, 3], "optimization.bounds.n_parking[0]: expected an integer"),
        ([1, 2.9], "optimization.bounds.n_parking[1]: expected an integer"),
    ],
)
def test_integer_bounds_pair_checks_each_element(tmp_path, base_config, pair, keypath):
    with pytest.raises(ConfigError, match=re.escape(keypath)):
        _load_with(tmp_path, base_config, "optimization", {"bounds": {"n_parking": pair}})


def test_integer_bounds_pair_loads_as_ints(tmp_path, base_config):
    rc = _load_with(tmp_path, base_config, "optimization", {"bounds": {"n_parking": [1, 3]}})
    assert rc.optimization.bounds.n_parking == (1, 3)
    assert all(type(v) is int for v in rc.optimization.bounds.n_parking)


def test_narrowed_integer_dimension_loads_and_samples_ints(tmp_path, base_config):
    space = {"n_plane": [25, 30]}
    rc = _load_with(tmp_path, base_config, "validation", {"space": space})
    assert rc.validation.space.n_plane == (25, 30)
    cases = lhs_sample(rc.validation.space, 16, seed=0)
    assert {type(case["n_plane"]) for case in cases} == {int}
    assert {case["n_plane"] for case in cases} <= set(range(25, 31))


@pytest.mark.parametrize(
    ("n_plane", "message"),
    [
        # The old {"lo", "hi"} form fails at load; the message names the new one.
        (
            {"lo": 20, "hi": 40},
            "validation.space.n_plane: expected [lo, hi], got {'lo': 20, 'hi': 40}",
        ),
        ([20.0, 40], "validation.space.n_plane[0]: expected an integer, got 20.0"),
        ([20, 40.5], "validation.space.n_plane[1]: expected an integer, got 40.5"),
        ([40, 20], "validation.space: n_plane: lower bound 40 above upper bound 20"),
        ([20, 30, 40], "validation.space.n_plane: expected [lo, hi], got [20, 30, 40]"),
    ],
    ids=["old-lo-hi-object", "float-lo", "fractional-hi", "inverted", "three-values"],
)
def test_integer_trade_space_dimensions_are_fixed(tmp_path, base_config, n_plane, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _load_with(tmp_path, base_config, "validation", {"space": {"n_plane": n_plane}})


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400")]
)
def test_non_finite_numbers_are_rejected_at_load(tmp_path, base_config, value):
    # json writes the first three as Infinity, -Infinity and NaN, and reads
    # them back; the integer is too large for a float.
    with pytest.raises(ConfigError, match=r"simulation\.horizon_years: expected a finite"):
        _load_with(tmp_path, base_config, "simulation", {"horizon_years": value})
    with pytest.raises(ConfigError, match=r"costs\.p_sat_musd: expected a finite"):
        _load_with(tmp_path, base_config, "costs", {"p_sat_musd": value})


@pytest.mark.parametrize(
    "section,key,flags",
    [
        ("strategy", "s_plane", []),
        ("strategy", "k_s_parking", []),
        ("constellation", "n_plane", []),
        ("inplane_policy", "reorder_point_s", ["--inplane-only"]),
    ],
)
def test_huge_integers_fail_with_their_key_path(tmp_path, capsys, base_config, section, key, flags):
    # An integer too large for a float would overflow in the model.
    cfg = json.loads(json.dumps(base_config))
    cfg[section][key] = 10**400
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["evaluate", *flags, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}.{key}: expected a finite integer")
    assert "Traceback" not in err


def test_integers_past_the_digit_limit_name_the_config_file(tmp_path, capsys, base_config):
    # json refuses to read an integer of more than 4 300 digits; the error
    # names the file instead of the interpreter's limit alone.
    cfg = json.loads(json.dumps(base_config))
    cfg["strategy"]["s_plane"] = "DIGITS"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg).replace('"DIGITS"', "9" * 5000))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON in {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "values,path",
    [
        ({"ga": {"population": 10**400}}, "optimization.ga.population"),
        ({"bounds": {"s_plane": [1, 10**400]}}, "optimization.bounds.s_plane[1]"),
    ],
)
def test_huge_search_settings_are_rejected_at_load(tmp_path, base_config, values, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected a finite integer"):
        _load_with(tmp_path, base_config, "optimization", values)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field,flag", [("horizon_years", "--horizon"), ("warmup_years", "--warmup")])
def test_non_finite_validate_flags_name_the_flag(tmp_path, capsys, field, flag, value):
    assert main(["validate", flag, str(value), "--out", str(tmp_path / "o")]) == 1
    message = capsys.readouterr().err.removeprefix("error: ")
    assert re.match(f"^{flag}: ", message)
    assert field not in message


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(tmp_path, fast_config, capsys, jobs):
    argv = ["simulate", "--config", str(fast_config), "--jobs", jobs, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "--jobs: must be >= 1" in capsys.readouterr().err


def test_evaluate_runs_without_scipy(tmp_path):
    assert main(["evaluate", "--out", str(tmp_path / "in_process")]) == 0
    # A None entry in sys.modules makes every import of scipy fail.
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from sparechain.cli import main; raise SystemExit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sparechain.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code, "evaluate", "--out", str(tmp_path / "no_scipy")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "in_process" / "evaluate.csv").read_bytes()
    b = (tmp_path / "no_scipy" / "evaluate.csv").read_bytes()
    assert a == b


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(sparechain.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


LAZY_MODULES = ("optimizer", "simulator", "validation")

# Names of the lazy modules whose bodies have run: loading one turns it
# into a plain module (reading an attribute to ask would run it).
EXECUTED = (
    f"' '.join(n for n in {LAZY_MODULES} "
    "if type(sys.modules['sparechain.' + n]) is types.ModuleType)"
)


def test_startup_imports_no_numpy():
    # Every command imports the package and the CLI and loads its config
    # before it runs; numpy loads only when a command draws random numbers,
    # and the search, simulator and study modules only when it runs them.
    code = (
        "import sys, types; import sparechain, sparechain.cli; "
        "from sparechain.config import bundled_case_study_path, load_run_config; "
        "load_run_config(bundled_case_study_path()); "
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'; "
        f"assert all('sparechain.' + n in sys.modules for n in {LAZY_MODULES}); "
        f"executed = {EXECUTED}; "
        "assert not executed, f'executed at start-up: {executed}'"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["evaluate"], ""),
        (["evaluate", "--inplane-only"], ""),
        (["simulate"], "simulator"),
        (["optimize"], "optimizer"),
        (["optimize", "--inplane-only"], "optimizer"),
        (["sensitivity", "--rates", "0.05"], "optimizer"),
        (["validate", "--n-cases", "1", "--reps", "2", "--horizon", "2"], "simulator validation"),
        (["fit-launch-data"], "simulator validation"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_executes_only_the_modules_it_runs(tmp_path, fast_config, argv, executed):
    code = (
        "import sys, types; from sparechain import cli; "
        "code = cli.main(sys.argv[1:]); "
        f"print({EXECUTED}); raise SystemExit(code)"
    )
    proc = run_python(code, *argv, "--config", str(fast_config), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == executed


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate"],
        ["evaluate", "--inplane-only"],
        ["optimize", "--inplane-only"],
        ["fit-launch-data"],
    ],
    ids=" ".join,
)
def test_analytic_commands_run_without_numpy(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "in_process")]) == 0
    # A None entry in sys.modules makes every import of numpy fail.
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from sparechain.cli import main; raise SystemExit(main(sys.argv[1:]))"
    )
    proc = run_python(code, *argv, "--out", str(tmp_path / "no_numpy"))
    assert proc.returncode == 0, proc.stderr
    a, b = (
        {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("in_process", "no_numpy")
    )
    assert a == b


def test_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["evaluate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["evaluate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_negative_seed_rejected(tmp_path, capsys):
    assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1


def test_unknown_command_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_smoke_with_event_log(tmp_path, fast_config):
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(fast_config), "--event-log", "--out", str(out)])
    assert rc == 0
    summary = read_rows(out / "simulation_summary.csv")
    assert [r["metric"] for r in summary] == [
        "mean_stock_plane",
        "mean_stock_parking_batches",
        "rho_plane",
        "rho_parking",
        "tessac",
    ]
    for r in summary:
        float(r["mean"]), float(r["se"])
    assert read_table(out / "simulation_replications.csv")[0] == [
        "replication",
        "mean_stock_plane",
        "mean_stock_parking_batches",
        "rho_plane",
        "rho_parking",
        "tessac",
        "failures",
        "served",
        "backorders_end",
        "transfers",
        "ground_orders",
    ]
    reps = read_rows(out / "simulation_replications.csv")
    assert len(reps) == 4
    assert [r["replication"] for r in reps] == ["0", "1", "2", "3"]
    assert read_table(out / "events.csv")[0] == [
        "replication",
        "time_days",
        "event",
        "location",
        "stock_after",
    ]
    events = read_rows(out / "events.csv")
    assert events
    assert {r["event"] for r in events} >= {"failure", "plane_order"}


def test_simulate_is_seed_deterministic(tmp_path, fast_config):
    for name in ("a", "b"):
        main(["simulate", "--config", str(fast_config), "--out", str(tmp_path / name)])
    a = (tmp_path / "a" / "simulation_replications.csv").read_bytes()
    b = (tmp_path / "b" / "simulation_replications.csv").read_bytes()
    assert a == b
    main(["simulate", "--config", str(fast_config), "--seed", "99", "--out", str(tmp_path / "c")])
    c = (tmp_path / "c" / "simulation_replications.csv").read_bytes()
    assert c != a


def test_simulate_worker_count_is_invisible(tmp_path, fast_config):
    for jobs, name in (("1", "a"), ("3", "b")):
        argv = ["simulate", "--config", str(fast_config), "--jobs", jobs, "--event-log"]
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    for output in ("simulation_replications.csv", "events.csv"):
        assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()


def test_validate_smoke(tmp_path, fast_config, capsys):
    out = tmp_path / "o"
    rc = main(
        [
            "validate",
            "--config",
            str(fast_config),
            "--n-cases",
            "3",
            "--reps",
            "2",
            "--horizon",
            "2",
            "--warmup",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "feasible" in capsys.readouterr().err
    cases = read_rows(out / "validation_cases.csv")
    assert len(cases) == 3
    summary = read_rows(out / "validation_summary.csv")
    assert [r["output"] for r in summary] == [
        "mean_stock_plane",
        "mean_stock_parking",
        "rho_plane",
        "rho_parking",
        "tessac",
    ]
    for case in cases:
        if case["feasible"] == "1":
            assert case["reason"] == ""
            float(case["err_pct_tessac"])
        else:
            assert case["reason"]


def test_validate_reports_zero_simulated_values_per_case(tmp_path, base_config, capsys):
    # With every price 0 the simulated TESSAC is 0, so no case has a
    # defined relative error; each is still written, with its reason.
    cfg = dict(base_config)
    cfg["costs"] = {name: 0.0 for name in base_config["costs"]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    argv = ["validate", "--config", str(path), "--n-cases", "3", "--reps", "2", "--horizon", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "0 feasible, 3 infeasible" in capsys.readouterr().err
    cases = read_rows(out / "validation_cases.csv")
    assert len(cases) == 3
    for case in cases:
        assert case["feasible"] == "0"
        assert case["reason"]
    sized = [case for case in cases if case["s_plane"]]
    assert sized
    for case in sized:
        assert case["reason"] == "relative error undefined for a zero simulated value"
        assert float(case["model_tessac"]) == float(case["sim_tessac"]) == 0.0
        assert all(case[f"err_pct_{name}"] == "" for name in OUTPUT_NAMES)


def test_simulator_starts_no_thread(tmp_path, fast_config, monkeypatch):
    # run_batch and validate run on the calling thread whatever the job
    # count, and give the same results as without it.
    rc = load_run_config(fast_config)
    sc = SimConfig(
        constellation=rc.constellation,
        strategy=rc.strategy,
        launch=rc.launch,
        costs=rc.costs,
        satellite=rc.satellite,
        horizon_years=3.0,
        replications=4,
        seed=5,
    )
    validate = ["validate", "--config", str(fast_config), "--n-cases", "3", "--reps", "2"]
    expected = run_batch(sc)
    assert main(validate + ["--out", str(tmp_path / "a")]) == 0

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_batch(sc, jobs=4) == expected
    assert main(validate + ["--jobs", "2", "--out", str(tmp_path / "b")]) == 0
    for name in ("validation_cases.csv", "validation_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_validate_prices_with_the_config_costs(tmp_path, base_config):
    model_tessac = {}
    for p_sat in (0.5, 5.0):
        cfg = json.loads(json.dumps(base_config))
        cfg["costs"]["p_sat_musd"] = p_sat
        path = tmp_path / f"p{p_sat}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"o{p_sat}"
        argv = ["validate", "--config", str(path), "--n-cases", "2", "--reps", "2"]
        assert main(argv + ["--horizon", "2", "--warmup", "0.5", "--out", str(out)]) == 0
        rows = read_rows(out / "validation_cases.csv")
        model_tessac[p_sat] = [r["model_tessac"] for r in rows if r["feasible"] == "1"]
    assert model_tessac[0.5]
    for cheap, dear in zip(model_tessac[0.5], model_tessac[5.0]):
        assert float(dear) > float(cheap)


def test_validate_requires_the_cost_sections(tmp_path, base_config, capsys):
    cfg = dict(base_config)
    del cfg["costs"]
    path = tmp_path / "nocosts.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "costs: section required" in capsys.readouterr().err


def test_validate_needs_no_launch_section(tmp_path, base_config):
    cfg = dict(base_config)
    del cfg["launch"]
    path = tmp_path / "nolaunch.json"
    path.write_text(json.dumps(cfg))
    argv = ["validate", "--config", str(path), "--n-cases", "2", "--reps", "2"]
    assert main(argv + ["--horizon", "2", "--warmup", "0.5", "--out", str(tmp_path / "o")]) == 0


def test_optimize_smoke(tmp_path, fast_config):
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(fast_config), "--out", str(out)]) == 0
    assert read_table(out / "optimize_result.csv")[0] == STRATEGY_COLUMNS + [
        "q_parking",
        "tessac",
        "fill_rate_product",
    ]
    (row,) = read_rows(out / "optimize_result.csv")
    assert float(row["fill_rate_product"]) >= 0.95
    assert int(row["q_parking"]) <= 34
    assert float(row["tessac"]) > 0
    trace = read_rows(out / "optimize_trace.csv")
    assert len(trace) == 15  # restarts x generations
    assert {r["restart"] for r in trace} == {"0"}


# The cells of `optimize --seed 302005`'s result that name and price its winner.
SEED_302005_WINNER = dict(
    zip(
        [*STRATEGY_COLUMNS, "tessac"],
        ["3", "745.2726221998754", "4", "3", "8", "7", "314.2584479216584"],
    )
)


def test_optimize_reports_the_best_feasible_strategy_not_the_best_penalized(tmp_path):
    # At this seed the lowest penalized score of the search belongs to a
    # genome whose fill-rate product, 0.9499999978, just misses the target,
    # while 5 985 scored genomes are feasible; the search reports the
    # cheapest of those.
    out = tmp_path / "o"
    assert main(["optimize", "--seed", "302005", "--out", str(out)]) == 0
    (row,) = read_rows(out / "optimize_result.csv")
    assert {name: row[name] for name in SEED_302005_WINNER} == SEED_302005_WINNER
    assert float(row["fill_rate_product"]) >= 0.95


@pytest.mark.parametrize(
    "winner,flags",
    [
        (read_rows(GOLDEN / "optimize" / "optimize_result.csv")[0], []),
        (SEED_302005_WINNER, []),
        (read_rows(GOLDEN / "optimize-inplane" / "optimize_inplane.csv")[0], ["--inplane-only"]),
    ],
    ids=["golden-seed-1", "seed-302005", "golden-inplane"],
)
def test_searched_winner_costs_the_same_when_evaluated(tmp_path, base_config, winner, flags):
    # The GA scores candidates through its long-lived memo and evaluate
    # builds a one-use memo for the winner; the exact ground-only search
    # and evaluate --inplane-only both price through costs.annual_cost.
    # Either way evaluate must print the TESSAC the search wrote, which
    # test_golden and the seed-302005 test above pin.
    cfg = json.loads(json.dumps(base_config))
    if flags:
        cfg["inplane_policy"] = {
            "order_quantity_q": int(winner["q_plane"]),
            "reorder_point_s": int(winner["s_plane"]),
        }
    else:
        cfg["strategy"] = {
            name: (float if name == "h_parking_km" else int)(winner[name])
            for name in STRATEGY_COLUMNS
        }
    path = tmp_path / "winner.json"
    path.write_text(json.dumps(cfg))
    assert main(["evaluate", *flags, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    (row,) = read_rows(tmp_path / "o" / "evaluate.csv")
    assert row["tessac"] == winner["tessac"]


def test_optimize_inplane_smoke(tmp_path, fast_config):
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(fast_config), "--inplane-only", "--out", str(out)]) == 0
    (row,) = read_rows(out / "optimize_inplane.csv")
    assert row["q_plane"] == "21"
    assert row["s_plane"] == "3"
    assert float(row["tessac"]) == pytest.approx(484.16073059360735, rel=1e-12)


def test_optimize_inplane_has_no_reorder_point_cap(tmp_path, base_config):
    # At 0.5 failures per satellite-year the optimum needs s = 24, above
    # any fixed small scan range.
    cfg = json.loads(json.dumps(base_config))
    cfg["constellation"]["lambda_sat_per_year"] = 0.5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(path), "--inplane-only", "--out", str(out)]) == 0
    (row,) = read_rows(out / "optimize_inplane.csv")
    assert (row["q_plane"], row["s_plane"]) == ("34", "24")
    assert float(row["tessac"]) == 2178.27397260274
    assert float(row["fill_rate_product"]) >= 0.95


def test_optimize_infeasible_space_exits_2(tmp_path, base_config, capsys):
    cfg = json.loads(json.dumps(base_config))
    cfg["launch"]["cap_launch"] = 1
    # The ground-only batch must fit the rocket too, or the config fails at load.
    cfg["inplane_policy"]["order_quantity_q"] = 1
    cfg["optimization"] = {
        "rho_target": 0.95,
        "bounds": {
            "n_parking": [1, 3],
            "h_parking_km": [792.3, 792.3],
            "q_plane": [1, 2],
            "s_plane": [1, 3],
            "k_q_parking": [1, 2],
            "k_s_parking": [1, 3],
        },
        "ga": {"population": 12, "generations": 10, "restarts": 2},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "no feasible" in capsys.readouterr().err


def test_optimize_searches_a_box_wider_than_the_default(tmp_path, base_config):
    # A config widens a reorder point past the default cap of 10 with the
    # same key that narrows it.
    cfg = json.loads(json.dumps(base_config))
    cfg["optimization"] = {
        "bounds": {"k_s_parking": [1, 40]},
        "ga": {"population": 20, "generations": 10, "restarts": 1},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    box = load_run_config(path).optimization.bounds
    assert box.k_s_parking == (1, 40)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    (row,) = read_rows(tmp_path / "o" / "optimize_result.csv")
    for name in STRATEGY_COLUMNS:
        lo, hi = getattr(box, name)
        assert lo <= type(lo)(row[name]) <= hi, name


@pytest.mark.parametrize(
    "command", [["optimize"], ["sensitivity", "--rates", "0.01,0.1"], ["evaluate"], ["simulate"]]
)
def test_searches_on_orbits_that_never_align_exit_1(tmp_path, base_config, capsys, command):
    # Polar planes and parking orbits never drift apart, so no parking orbit
    # ever reaches a plane: each command names that cause, and the searches
    # check it before they score a candidate instead of finding nothing.
    cfg = json.loads(json.dumps(base_config))
    cfg["constellation"]["inclination_deg"] = 90
    path = tmp_path / "polar.json"
    path.write_text(json.dumps(cfg))
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "zero relative drift rate: planes never align" in capsys.readouterr().err


SENSITIVITY_HEADER = (
    ["lambda_sat_per_year", "tessac_multi", "tessac_inplane", "savings_pct"]
    + STRATEGY_COLUMNS
    + ["q_inplane", "s_inplane", "error"]
)


def test_sensitivity_single_rate(tmp_path, fast_config):
    out = tmp_path / "o"
    rc = main(["sensitivity", "--config", str(fast_config), "--rates", "0.05", "--out", str(out)])
    assert rc == 0
    assert read_table(out / "sensitivity.csv")[0] == SENSITIVITY_HEADER
    (row,) = read_rows(out / "sensitivity.csv")
    assert float(row["lambda_sat_per_year"]) == 0.05
    assert row["error"] == ""
    multi, inplane = float(row["tessac_multi"]), float(row["tessac_inplane"])
    assert float(row["savings_pct"]) == pytest.approx((inplane - multi) / inplane * 100.0, rel=1e-12)


def test_sensitivity_error_row_fills_every_column(tmp_path, fast_config, capsys):
    out = tmp_path / "o"
    rc = main(["sensitivity", "--config", str(fast_config), "--rates", "5", "--out", str(out)])
    assert rc == 2
    header, row = read_table(out / "sensitivity.csv")
    assert header == SENSITIVITY_HEADER
    assert len(row) == len(header)
    assert row[0] == "5.0"
    assert set(row[1:-1]) == {""}
    assert row[-1] == "no feasible strategy at this rate"


def test_sensitivity_rejects_bad_rates(tmp_path, fast_config, capsys):
    base = ["sensitivity", "--config", str(fast_config), "--out", str(tmp_path / "o")]
    assert main(base + ["--rates", "abc"]) == 1
    assert main(base + ["--rates", ""]) == 1
    capsys.readouterr()
    for rates in ("nan", "0.01,inf", "-0.5"):
        assert main(base + ["--rates", rates]) == 1
        message = f"--rates: failure rates must be finite and nonnegative, got {rates}"
        assert message in capsys.readouterr().err


def test_fit_launch_data_bundled(tmp_path):
    out = tmp_path / "o"
    assert main(["fit-launch-data", "--out", str(out)]) == 0
    (row,) = read_rows(out / "launch_fit.csv")
    assert row["n_dates"] == "46"
    assert row["n_gaps"] == "45"
    assert float(row["mean_gap_days"]) == pytest.approx(66.71111111111111, rel=1e-12)


def test_fit_launch_data_custom_file(tmp_path):
    dates = tmp_path / "d.csv"
    dates.write_text("launch_date\n2020-01-01\n2020-01-04\n2020-01-11\n")
    out = tmp_path / "o"
    assert main(["fit-launch-data", "--dates", str(dates), "--out", str(out)]) == 0
    (row,) = read_rows(out / "launch_fit.csv")
    assert float(row["mean_gap_days"]) == 5.0


def test_fit_launch_data_rejects_a_bad_first_date(tmp_path, capsys):
    # A headerless file: its malformed first date is an error, not a header.
    dates = tmp_path / "d.csv"
    dates.write_text("2020-13-04\n2020-01-01\n2020-01-04\n")
    assert main(["fit-launch-data", "--dates", str(dates), "--out", str(tmp_path / "o")]) == 1
    assert f"{dates}, line 1: '2020-13-04' is not a date" in capsys.readouterr().err


def test_command_seeds_are_decorrelated():
    seeds = {cmd: command_seed(0, cmd) for cmd in ("simulate", "validate", "optimize", "sensitivity")}
    assert list(seeds.values()) == [child_seed(0, key) for key in (1, 2, 3, 4)]
    assert len(set(seeds.values())) == 4
    assert command_seed(1, "simulate") != seeds["simulate"]
