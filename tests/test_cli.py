import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from hwmimo import cli
from hwmimo.cli import main
from hwmimo.experiments import (
    ConfigError,
    HardwareVariant,
    config_from_dict,
    config_to_dict,
    preset,
    run,
)

from oracles import full_cov


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_scenario_gen_and_rates_cf(tmp_path):
    rc = main([
        "scenario-gen", "--deployment", "distributed", "-N", "16", "--snr-db", "5",
        "-T", "30", "--seed", "3", "--out", str(tmp_path), "--name", "scen",
    ])
    assert rc == 0
    scen_file = tmp_path / "scen.json"
    assert scen_file.exists()
    payload = json.loads(scen_file.read_text())
    assert payload["format"] == "hwmimo-scenario" and payload["N"] == 16

    argv = [
        "rates-cf", "--scenario", str(scen_file), "--ideal", "--out", str(tmp_path),
        "--t-stride", "4", "--name", "rates",
    ]
    assert main(argv) == 0
    header, rows = read_csv(tmp_path / "rates.csv")
    assert header == ["N", "ue", "t", "sinr", "rate", "signal", "interference", "distortion", "noise"]
    assert len(rows) == 8 * math.ceil((30 - 8) / 4)
    assert all(float(r["sinr"]) > 0 for r in rows)
    manifest = (tmp_path / "rates_manifest.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "rates_manifest.json").read_bytes() == manifest
    payload = json.loads(manifest)
    assert payload["command"] == "rates-cf"
    assert "fn" not in payload["args"] and "command" not in payload["args"]


def test_cli_requires_single_hardware_source(tmp_path):
    rc = main([
        "rates-cf", "--deployment", "colocated", "-N", "8", "-T", "20",
        "--ideal", "--delta", "0.1", "--kappa2", "0", "--xi-over-sigma2", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 2
    assert not (tmp_path / "rates_cf.csv").exists()


_SMALL = ["--deployment", "colocated", "-N", "8", "-T", "20"]


@pytest.mark.parametrize("argv", [
    ["rates-cf", "--scenario", "{tmp}/not_a_scenario.json", "--ideal"],
    ["rates-cf", *_SMALL, "--delta", "nan", "--kappa2", "0", "--xi-over-sigma2", "1"],
    ["rates-cf", *_SMALL, "--ideal", "-B", "3"],
    ["rates-cf", "--deployment", "distributed", "-N", "15", "-T", "20", "--ideal"],
    ["rates-mc", *_SMALL, "--ideal", "--trials", "0"],
    ["rates-cf", *_SMALL, "--ideal", "--t-stride", "0"],
    ["sweep-n", *_SMALL, "--ideal", "--n-grid", "0"],
    ["rates-cf", *_SMALL, "--delta", "0", "--kappa2", "0", "--xi-over-sigma2", "0.5"],
    ["preset", "fig7", "--drops", "1", "--threads", "0"],
    ["rates-cf", "--scenario", "{tmp}/no_L.json", "--ideal"],
    ["rates-cf", "--scenario", "{tmp}/str_L.json", "--ideal"],
    ["scaling-law", "--z1", "0", "--z2", "0", "--z3", "1", "--delta0", "-1"],
    ["scaling-law", "--z1", "0", "--z2", "0", "--z3", "0", "-T", "8"],
    ["rates-cf", *_SMALL, "--ideal", "--snr-db", "1e308"],
    ["circuit", "--n-grid", ","],
    ["sweep-n", *_SMALL, "--ideal", "--n-grid", ","],
    ["scaling-law", *_SMALL, "--z1", "0", "--z2", "0", "--z3", "1", "--n-grid", ","],
    ["preset", "fig7", "--drops", "1", "--n-grid", ","],
    ["preset", "fig10", "--drops", "1", "--t-grid", ","],
    ["circuit", "--z1", "-1"],
    ["circuit", "--z1", "-1e-3"],
    ["rates-cf", "--ideal", "-T", "8"],
    ["sweep-n", "--ideal", "-T", "8", "--n-grid", "64"],
    ["asymptotic", "--ideal", "-T", "8"],
    ["rates-mc", "--ideal", "-N", "8", "-T", "8", "--trials", "2"],
    ["estimate", "--ideal", "-N", "8", "-T", "8", "--trials", "2"],
    ["rates-cf", *_SMALL, "--ideal", "--threads", "2"],
    # a Monte Carlo pass runs no pool, so its commands take no --threads either
    ["rates-mc", *_SMALL, "--ideal", "--trials", "2", "--threads", "2"],
    ["estimate", *_SMALL, "--ideal", "--trials", "2", "--threads", "2"],
    ["rates-cf", "--lo", "xyz"],
    ["rates-cf", "-N", "abc"],
    ["sweep-n", *_SMALL, "--ideal"],
    ["circuit", "--carrier-hz", "1e300"],
    ["circuit", "--lna-nf-db", "1e300"],
    ["circuit", "--z2", "1e300"],
    ["rates-cf", "-N", "8", "-T", "20", "--adc-bits", "1", "--lna-nf-db", "0",
     "--carrier-hz", "1e200", "--symbol-time-s", "1", "--lo-quality", "1"],
    ["scaling-law", "--z1", "0.5", "--z2", "1e300", "--z3", "0", "-N", "64", "-T", "40",
     "--deployment", "colocated", "--n-grid", "64"],
    # (seed, drop) keys of 2^32 or more would draw another key's stream
    ["rates-mc", *_SMALL, "--ideal", "--trials", "2", "--seed", "4294967296"],
    ["rates-cf", *_SMALL, "--ideal", "--drop-index", "4294967296"],
    ["preset", "fig7", "--drops", "1", "--seed", "4294967296"],
    # trial counts past the cap, rejected before any chunk is planned
    ["rates-mc", *_SMALL, "--ideal", "--trials", "99999999999999999999", "--t-stride", "20"],
    ["estimate", *_SMALL, "--ideal", "--trials", "99999999999999999999", "--t-stride", "20"],
    ["preset", "fig7", "--drops", "1", "--trials", "1000000001"],
], ids=["not-a-scenario", "delta-nan", "B-below-K", "N-not-multiple-of-4", "trials-0",
        "t-stride-0", "n-grid-0", "xi-below-sigma2", "threads-0", "scenario-without-L",
        "scenario-with-string-L", "delta0-negative", "pilots-fill-block", "snr-db-overflow",
        "circuit-empty-n-grid", "sweep-n-empty-n-grid", "scaling-law-empty-n-grid",
        "preset-empty-n-grid", "preset-empty-t-grid", "circuit-negative-z1",
        "circuit-negative-z1-exponent-notation", "rates-cf-pilots-fill-block",
        "sweep-n-pilots-fill-block", "asymptotic-pilots-fill-block",
        "rates-mc-pilots-fill-block", "estimate-pilots-fill-block", "rates-cf-threads-flag",
        "rates-mc-threads-flag", "estimate-threads-flag",
        "bad-choice", "non-number", "missing-required-flag", "carrier-overflow",
        "lna-noise-figure-overflow", "z2-overflow", "circuit-source-overflow",
        "scaled-profile-overflow", "seed-above-cap", "drop-index-above-cap",
        "preset-seed-above-cap", "rates-mc-trials-above-cap", "estimate-trials-above-cap",
        "preset-trials-above-cap"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    files = {
        "not_a_scenario": {"hello": "world"},
        "no_L": {"format": "hwmimo-scenario", "K": 2},
        "str_L": {"format": "hwmimo-scenario", "L": "1", "K": 2},
    }
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if any(a.endswith("_L.json") for a in argv):
        assert "field 'L'" in err
    if "-T" in argv and argv[argv.index("-T") + 1] == "8":
        assert "pilots fill the block" in err
    assert not list(tmp_path.glob("*.csv"))


_YAML_BASE = {
    "name": "bad",
    "seed": 1,
    "scenario": {"deployments": ["colocated"], "n_antennas": 16, "T": 40},
    "hardware": [{"label": "hw", "delta": 1e-3, "kappa2": 1e-4, "xi_over_sigma2": 1.3}],
    "pilots": {"length": 8},
    "experiment": {"kind": "sweep-n", "n_grid": [8, 16]},
}


@pytest.mark.parametrize("section,key,value", [
    ("hardware", "delta", -1.0),
    ("hardware", "delta", math.nan),
    ("hardware", "kappa2", math.inf),
    ("scenario", "snr_db", math.nan),
    ("scenario", "sigma2", -1.0),
    ("scenario", "T", 4),
    ("scenario", "n_antennas", 15),
    ("scenario", "shadow_std_db", math.inf),
    ("hardware", "xi_over_sigma2", 0.5),
    ("hardware", "exponents", [0.5, 0.5]),
    ("scenario", "n_antenna", 64),
    ("hardware", "kapa2", 1e-4),
    ("experiment", "t_grid", [10, 20]),
    ("experiment", "kind", "sweep-t"),
    ("experiment", "include_asymptote", True),
    ("scenario", "deployments", "colocated"),
    ("experiment", "trials", 0),
    (None, "threads", 2),  # the run settings come from the command line
    (None, "out", "elsewhere"),
    (None, "seed", 2**32),
    ("experiment", "trials", 10**30),
])
def test_bad_yaml_config_exits_2_with_one_line(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(_YAML_BASE))
    if section is None:
        cfg[key] = value
    else:
        (cfg["hardware"][0] if section == "hardware" else cfg[section])[key] = value
    if key == "n_antennas":
        cfg["scenario"]["deployments"] = ["distributed"]
    if key == "kind":  # a valid T sweep but for the N grid it cannot take
        cfg["experiment"]["t_grid"] = [20, 40]
    if key == "include_asymptote":  # the limit of a triple that grows with N
        cfg["hardware"][0]["exponents"] = [0.5, 0.5, 0.0]
    if key == "trials":  # the kind that runs the trials
        cfg["experiment"] = {"kind": "rates-mc", "trials": value}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["preset", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "np.int64" not in err
    if key == "snr_db":
        assert "first violation at (0, 0)" in err
    if key == "deployments":
        assert "deployments must be a list" in err
    assert not list(tmp_path.glob("*.csv"))


_MC_YAML = {
    "name": "mc",
    "scenario": {"deployments": ["colocated"], "n_antennas": 8, "T": 20},
    "hardware": [{"label": "hw", "delta": 1e-3, "kappa2": 1e-4, "xi_over_sigma2": 1.3}],
    "experiment": {"kind": "rates-mc", "trials": 4},
}


@pytest.mark.parametrize("section,key,value", [
    ("hardware", "exponents", [1.0, 0.0, 0.0]),
    ("experiment", "n_grid", [8, 64]),
    ("experiment", "t_grid", [10, 20]),
    ("experiment", "include_asymptote", True),
])
def test_rates_mc_kind_rejects_grid_keys(tmp_path, capsys, section, key, value):
    # the rates-mc kind evaluates one world at the scenario's own N and T
    cfg = json.loads(json.dumps(_MC_YAML))
    (cfg["hardware"][0] if section == "hardware" else cfg[section])[key] = value
    path = tmp_path / "mc.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["preset", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the rates-mc kind takes no ") and err.count("\n") == 1
    assert key in err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_runs_without_scipy(tmp_path):
    # one BLAS runtime: the package imports and runs on numpy alone
    import hwmimo

    src = os.path.dirname(os.path.dirname(hwmimo.__file__))
    small = ["--deployment", "colocated", "-N", "8", "-T", "20", "--delta", "1e-3",
             "--kappa2", "1e-4", "--xi-over-sigma2", "1.3", "--out", str(tmp_path)]
    code = "\n".join([
        "import sys",
        "from hwmimo import cli",
        f"assert cli.main(['rates-mc', '--trials', '4', *{small!r}]) == 0",
        f"assert cli.main(['rates-cf', *{small!r}]) == 0",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rates_mc.csv").exists() and (tmp_path / "rates_cf.csv").exists()


def test_cli_import_leaves_yaml_unloaded():
    # only `preset <file>` parses YAML, so the other commands do not pay its import
    import hwmimo

    src = os.path.dirname(os.path.dirname(hwmimo.__file__))
    code = "import sys, hwmimo.cli; assert 'yaml' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name,argv", [
    ("SEED", ["scenario-gen", *_SMALL]),
    ("THREADS", ["preset", "{tmp}/ok.yaml"]),
], ids=["SEED", "THREADS-preset"])
def test_bad_environment_default_exits_2_with_one_line(tmp_path, capsys, monkeypatch, name, argv):
    # a variable is read by the commands that take its flag
    monkeypatch.setenv(f"HWMIMO_{name}", "abc")
    (tmp_path / "ok.yaml").write_text(yaml.safe_dump(_YAML_BASE))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: bad HWMIMO_{name} environment value 'abc'\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv,env", [
    (["scenario-gen", *_SMALL, "--seed", "3"], {"HWMIMO_SEED": "abc"}),
    (["preset", "{tmp}/ok.yaml", "--seed", "3"], {"HWMIMO_SEED": "abc"}),
    (["preset", "{tmp}/ok.yaml"], {"HWMIMO_SEED": "abc"}),
    (["preset", "{tmp}/ok.yaml", "--threads", "1"], {"HWMIMO_THREADS": "abc"}),
    # a command without the flag never reads its variable
    (["rates-mc", *_SMALL, "--ideal", "--trials", "2"], {"HWMIMO_THREADS": "abc"}),
    (["estimate", *_SMALL, "--ideal", "--trials", "2"], {"HWMIMO_THREADS": "abc"}),
    (["circuit"], {"HWMIMO_THREADS": "abc", "HWMIMO_SEED": "abc"}),
    (["rates-cf", *_SMALL, "--ideal"], {"HWMIMO_THREADS": "abc"}),
    (["sweep-n", *_SMALL, "--ideal", "--n-grid", "8"], {"HWMIMO_THREADS": "abc"}),
    (["asymptotic", *_SMALL, "--ideal"], {"HWMIMO_THREADS": "abc"}),
    (["scaling-law", *_SMALL, "--z1", "0.5", "--z2", "0.5", "--z3", "0"],
     {"HWMIMO_THREADS": "abc"}),
    (["scenario-gen", *_SMALL], {"HWMIMO_THREADS": "abc"}),
], ids=["seed-flag", "preset-seed-flag", "preset-config-seed", "threads-flag", "rates-mc",
        "estimate", "circuit", "rates-cf", "sweep-n", "asymptotic", "scaling-law",
        "scenario-gen"])
def test_environment_is_read_only_for_flags_not_given(tmp_path, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "ok.yaml").write_text(yaml.safe_dump(_YAML_BASE))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv,env,message", [
    (["scenario-gen", *_SMALL, "--seed", "-1"], {}, "--seed must be >= 0, got -1"),
    (["rates-cf", *_SMALL, "--ideal", "--seed", "-1"], {}, "--seed must be >= 0, got -1"),
    (["rates-mc", *_SMALL, "--ideal", "--trials", "4", "--seed", "-1"], {},
     "--seed must be >= 0, got -1"),
    (["estimate", *_SMALL, "--ideal", "--trials", "4", "--seed", "-1"], {},
     "--seed must be >= 0, got -1"),
    (["preset", "fig7", "--drops", "1", "--seed", "-3"], {}, "--seed must be >= 0, got -3"),
    (["rates-cf", *_SMALL, "--ideal", "--drop-index", "-1"], {},
     "--drop-index must be >= 0, got -1"),
    (["scenario-gen", *_SMALL], {"HWMIMO_SEED": "-4"}, "HWMIMO_SEED must be >= 0, got -4"),
    (["preset", "{tmp}/negative_seed.yaml"], {}, "seed must be >= 0, got -2"),
], ids=["scenario-gen-seed", "rates-cf-seed", "rates-mc-seed", "estimate-seed", "preset-seed",
        "drop-index", "environment-seed", "yaml-seed"])
def test_negative_seed_or_drop_index_exits_2_naming_the_input(
    tmp_path, capsys, monkeypatch, argv, env, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "negative_seed.yaml").write_text(yaml.safe_dump({**_YAML_BASE, "seed": -2}))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))


def test_hwmimo_seed_above_the_cap_exits_2_naming_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HWMIMO_SEED", "4294967296")
    assert main(["scenario-gen", *_SMALL, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: HWMIMO_SEED must be <= 4294967295, got 4294967296\n"
    assert not list(tmp_path.glob("*.json"))


# a cheap run of every command; the bounds walk appends one bounded flag to it
_WALK_BASE = {
    "scenario-gen": _SMALL,
    "estimate": [*_SMALL, "--ideal", "--trials", "2"],
    "rates-cf": [*_SMALL, "--ideal"],
    "sweep-n": [*_SMALL, "--ideal", "--n-grid", "8"],
    "rates-mc": [*_SMALL, "--ideal", "--trials", "2"],
    "asymptotic": [*_SMALL, "--ideal"],
    "scaling-law": [*_SMALL, "--z1", "0.5", "--z2", "0.5", "--z3", "0"],
    "circuit": [],
    "preset": ["{tmp}/walk.yaml"],
}
_WALK_YAML = {"name": "walk", "seed": 1,
              "scenario": {"deployments": ["colocated"], "n_antennas": 8, "T": 20},
              "hardware": [{"label": "ideal", "ideal": True}],
              "experiment": {"kind": "rates-mc", "trials": 2}}
_CHEAP_MAX = {"seed", "drop_index"}  # the bounded flags whose maximum runs as cheaply


def _bound_cases():
    """(command, argv tail, environment, message or None for exit 0) of
    every bounded flag of every command, and of every HWMIMO_* variable
    that stands in for one: one past each bound exits 2 naming the input,
    the cheap bound values run."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_WALK_BASE)
    cases = []
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest not in cli._BOUNDS:
                continue
            low, high = cli._BOUNDS[action.dest]
            flag = f"--{action.dest.replace('_', '-')}"
            labels = [(flag, [])]
            if action.default is cli._FROM_ENV:
                labels.append((f"HWMIMO_{cli._ENV_DEFAULTS[action.dest][0]}", None))
            for label, tail in labels:
                past = [(low - 1, f"must be >= {low}")]
                if high is not None:
                    past.append((high + 1, f"must be <= {high}"))
                for value, rule in past:
                    env = {} if tail is not None else {label: str(value)}
                    argv = [flag, str(value)] if tail is not None else []
                    cases.append((command, argv, env, f"{label} {rule}, got {value}"))
            for value in [low, high] if action.dest in _CHEAP_MAX else [low]:
                cases.append((command, [flag, str(value)], {}, None))
    return cases


_BOUND_CASES = _bound_cases()


@pytest.mark.parametrize(
    "command,tail,env,message", _BOUND_CASES,
    ids=[" ".join([c, *t, *(f"{k}={v}" for k, v in e.items())]) for c, t, e, _ in _BOUND_CASES])
def test_every_bounded_flag_exits_2_one_past_its_bounds(tmp_path, capsys, monkeypatch,
                                                        command, tail, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "walk.yaml").write_text(yaml.safe_dump(_WALK_YAML))
    base = [a.replace("{tmp}", str(tmp_path)) for a in _WALK_BASE[command]]
    code = main([command, *base, *tail, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if message is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"error: {message}\n")
        assert not list(tmp_path.glob("*.csv"))


def test_seed_and_drop_index_at_the_cap_run(tmp_path):
    argv = ["rates-mc", *_SMALL, "--ideal", "--trials", "2", "--t-stride", "20",
            "--seed", "4294967295", "--drop-index", "4294967295"]
    assert main([*argv, "--out", str(tmp_path)]) == 0


def test_overflowing_pilot_covariance_exits_3(tmp_path, capsys):
    from hwmimo.model import Scenario
    from hwmimo.scenario_gen import save_scenario

    scen = Scenario(L=1, K=2, N=4, T=12, cov=np.full((1, 1, 2, 1), 1e200),
                    powers=np.full((1, 2), 1e200), sigma2=1.0)
    save_scenario(scen, tmp_path / "big.json")
    argv = ["rates-cf", "--scenario", str(tmp_path / "big.json"), "--ideal", "-B", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv,code", [
    (["rates-cf", "--ideal", "--shadow-std-db", "1e6", "-N", "8", "-T", "40"], 2),
    (["rates-cf", "--delta", "0", "--kappa2", "1e300", "--xi-over-sigma2", "1",
      "-N", "8", "-T", "40"], 3),
], ids=["shadow-overflow", "distortion-overflow"])
def test_overflow_exits_without_a_numpy_warning(tmp_path, capsys, argv, code):
    # pytest captures warnings, so they are recorded here to be seen
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path)]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_negative_value_in_exponent_notation_reads_as_a_number(tmp_path):
    base = ["rates-cf", *_SMALL, "--ideal", "--t-stride", "4"]
    assert main([*base, "--snr-db", "-1e1", "--out", str(tmp_path / "e")]) == 0
    assert main([*base, "--snr-db", "-10", "--out", str(tmp_path / "d")]) == 0
    csv = (tmp_path / "d" / "rates_cf.csv").read_bytes()
    assert (tmp_path / "e" / "rates_cf.csv").read_bytes() == csv


def test_sweep_n_on_a_per_antenna_file_matches_rates_cf(tmp_path):
    from hwmimo.scenario_gen import generate, save_scenario

    scen = generate("distributed", N=8, snr_db=5.0, T=20, seed=3)
    save_scenario(dataclasses.replace(scen, cov=full_cov(scen)), tmp_path / "full.json")
    common = ["--scenario", str(tmp_path / "full.json"), "--ideal", "--t-stride", "4"]
    assert main(["rates-cf", *common, "--out", str(tmp_path / "cf")]) == 0
    assert main(["sweep-n", *common, "--n-grid", "8", "--out", str(tmp_path / "sweep")]) == 0
    cf = (tmp_path / "cf" / "rates_cf.csv").read_bytes()
    assert (tmp_path / "sweep" / "sweep_n.csv").read_bytes() == cf


def test_cli_circuit_hardware_source(tmp_path):
    rc = main([
        "rates-cf", "--deployment", "colocated", "-N", "8", "-T", "20", "--seed", "1",
        "--adc-bits", "6", "--lna-nf-db", "2", "--carrier-hz", "2e9",
        "--symbol-time-s", "1e-7", "--lo-quality", "1e-17", "--lo", "slo",
        "--out", str(tmp_path), "--t-stride", "4",
    ])
    assert rc == 0


def test_circuit_power_table_relaxes_from_the_given_adc_bits(tmp_path):
    assert main(["circuit", "--out", str(tmp_path / "6")]) == 0
    assert main(["circuit", "--adc-bits", "8", "--out", str(tmp_path / "8")]) == 0
    six = read_csv(tmp_path / "6" / "circuit_power.csv")[1]
    eight = read_csv(tmp_path / "8" / "circuit_power.csv")[1]
    assert (six[0]["N"], six[0]["adc_bits"], eight[0]["adc_bits"]) == ("1", "6", "8")
    for a, b in zip(six, eight):
        assert float(b.pop("adc_bits")) == float(a.pop("adc_bits")) + 2
        assert a == b  # powers are relative to the reference ADC, whatever its bits


def test_estimate_csv_matches_mse_columns(tmp_path):
    rc = main([
        "estimate", "--deployment", "colocated", "-N", "4", "-T", "16", "--seed", "2",
        "--delta", "1e-3", "--kappa2", "1e-3", "--xi-over-sigma2", "1.2", "--lo", "clo",
        "--trials", "3000", "--t-stride", "4", "--out", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "estimate.csv")
    assert header == ["t", "mse_closed_form", "mse_monte_carlo"]
    for r in rows:
        cf, mc = float(r["mse_closed_form"]), float(r["mse_monte_carlo"])
        assert mc == pytest.approx(cf, rel=0.15)


def test_asymptotic_emits_inf_token(tmp_path):
    # single-cell file scenario with temporal pilots has no contamination
    from hwmimo.model import Scenario
    from hwmimo.scenario_gen import save_scenario

    scen = Scenario(
        L=1, K=2, N=8, T=20,
        cov=np.full((1, 1, 2, 1), 0.5), powers=np.ones((1, 2)), sigma2=1.0, subarrays=1,
    )
    save_scenario(scen, tmp_path / "one.json")
    rc = main([
        "asymptotic", "--scenario", str(tmp_path / "one.json"), "--ideal",
        "--pilot-book", "temporal", "--out", str(tmp_path), "--t-stride", "4",
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "asymptotic.csv")
    assert rows and all(r["sinr"] == "inf" for r in rows)
    assert all(r["N"] == "inf" for r in rows)


def test_scaling_law_command(tmp_path, capsys):
    rc = main(["scaling-law", "--z1", "0.5", "--z2", "0.5", "--z3", "0", "--lo", "clo",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "satisfied=True" in capsys.readouterr().out
    rc = main(["scaling-law", "--z1", "0.6", "--z2", "0", "--z3", "0", "--lo", "clo",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "satisfied=False" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "scaling_law_manifest.json").read_text())
    assert manifest["satisfied"] is False
    # without --n-grid the check writes no CSV; an empty --n-grid is a user error
    assert manifest["args"]["n_grid"] is None and not list(tmp_path.glob("*.csv"))


def test_scaling_law_reads_the_block_of_its_scenario_file(tmp_path):
    # the check takes its pilot times and worst channel use from the book
    # the CSV uses, so a T = 40 scenario file gives what -T 40 gives
    gen = ["--deployment", "colocated", "-N", "8", "-T", "40", "--seed", "2"]
    assert main(["scenario-gen", *gen, "--out", str(tmp_path), "--name", "s40"]) == 0
    law = ["scaling-law", "--z1", "0.3", "--z2", "0.3", "--z3", "1", "--delta0", "1e-3"]
    manifests = []
    for name, source in (("file", ["--scenario", str(tmp_path / "s40.json")]), ("flags", gen)):
        assert main([*law, *source, "--out", str(tmp_path), "--name", name]) == 0
        manifests.append(json.loads((tmp_path / f"{name}_manifest.json").read_text()))
    assert manifests[0]["worst_t"] == manifests[1]["worst_t"] == 40
    assert manifests[0]["lhs"] == manifests[1]["lhs"]


def test_scaling_law_n_grid_evaluates_at_each_n(tmp_path):
    law = ["scaling-law", "--z1", "0.5", "--z2", "0.5", "--z3", "0", "--deployment",
           "colocated", "-T", "100", "--n-grid", "16,64", "--t-stride", "16"]
    for n in ("32", "64"):
        assert main([*law, "-N", n, "--out", str(tmp_path / n)]) == 0
    csv = (tmp_path / "32" / "scaling_law.csv").read_bytes()
    assert csv == (tmp_path / "64" / "scaling_law.csv").read_bytes()

    # the fig9 preset kind evaluates the same law on the same drop
    cfg = {
        "name": "law", "seed": 0,
        "scenario": {"deployments": ["colocated"], "n_antennas": 64, "T": 100},
        "hardware": [{"label": "law", "delta": 7e-5, "kappa2": 0.05**2, "xi_over_sigma2": 3.0,
                      "lo": "slo", "exponents": [0.5, 0.5, 0.0]}],
        "experiment": {"kind": "scaling", "n_grid": [16, 64]},
    }
    (tmp_path / "law.yaml").write_text(yaml.safe_dump(cfg))
    assert main(["preset", str(tmp_path / "law.yaml"), "--out", str(tmp_path)]) == 0
    preset_rates = {(r["N"], r["ue"]): r["value"] for r in read_csv(tmp_path / "law.csv")[1]}
    rows = read_csv(tmp_path / "64" / "scaling_law.csv")[1]
    assert {(r["N"], r["ue"]) for r in rows} == set(preset_rates)
    for r in rows:
        assert r["rate"] == preset_rates[(r["N"], r["ue"])]


def test_scaling_law_n_grid_reads_its_drop_once(tmp_path, monkeypatch):
    # the check and the --n-grid CSV share one drop: a scenario file is read
    # and validated once, and gives the CSV the same flags give
    from hwmimo import cli

    gen = ["--deployment", "colocated", "-N", "8", "-T", "40", "--seed", "2"]
    assert main(["scenario-gen", *gen, "--out", str(tmp_path), "--name", "s40"]) == 0
    calls = []
    scenario_from = cli._scenario_from
    monkeypatch.setattr(cli, "_scenario_from",
                        lambda args: calls.append(args.scenario) or scenario_from(args))
    law = ["scaling-law", "--z1", "0.5", "--z2", "0.5", "--z3", "0", "--n-grid", "8,16",
           "--t-stride", "8"]
    for name, source in (("file", ["--scenario", str(tmp_path / "s40.json")]), ("flags", gen)):
        calls.clear()
        assert main([*law, *source, "--out", str(tmp_path), "--name", name]) == 0
        assert len(calls) == 1
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_rates_mc_matches_library_from_one_world_per_chunk(tmp_path, monkeypatch):
    from hwmimo import montecarlo
    from hwmimo.estimator import build_cache
    from hwmimo.experiments import _fmt, _pilot_book, _serving_cell
    from hwmimo.model import HardwareProfile, LoMode
    from hwmimo.scenario_gen import generate

    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 1)  # one trial per chunk
    draws = []
    draw_world = montecarlo.draw_world
    monkeypatch.setattr(montecarlo, "draw_world",
                        lambda *a, **kw: draws.append(a[5]) or draw_world(*a, **kw))
    trials = 6
    rc = main([
        "rates-mc", "--deployment", "colocated", "-N", "8", "-T", "20", "--seed", "3",
        "--delta", "1e-3", "--kappa2", "1e-3", "--xi-over-sigma2", "1.2", "--lo", "slo",
        "--filter", "mmse", "--ue", "1", "--trials", str(trials), "--t-stride", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "rates_mc.csv")[1]
    assert len(rows) == 12
    assert sorted(draws) == list(range(trials))  # one world per chunk for all 12 uses

    scen = generate("colocated", N=8, snr_db=5.0, T=20, seed=3)
    hw = HardwareProfile(delta=1e-3, kappa2=1e-3, xi=1.2 * scen.sigma2, lo_mode=LoMode.SLO)
    book = _pilot_book(scen, "dft", "beginning", None)
    cache, cell = build_cache(scen, hw, book), _serving_cell(scen)
    m = montecarlo.estimate_moments(cache, montecarlo.FilterKind.MMSE, cell, 1, book.data_times(),
                                    montecarlo.McConfig(trials=trials, seed=3))
    rate, traj = montecarlo._rate_from_means(cache, cell, 1, m)
    assert [r["t"] for r in rows] == [str(t) for t in book.data_times()]
    assert [r["sinr"] for r in rows] == [_fmt(float(x)) for x in traj.sinr]
    assert {r["rate"] for r in rows} == {_fmt(float(rate))}


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("filt", ["mrc", "mmse"])
def test_rates_mc_without_ue_writes_the_rows_of_each_ue(tmp_path, monkeypatch, filt, chunks):
    # one pass over the UEs of the cell writes, per UE, the bytes of a run
    # for that UE alone, in one chunk at the default budget and in two at
    # a small one
    from hwmimo import montecarlo

    if chunks == 2:
        monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**20)
    cuts = []
    chunk_sizes = montecarlo._chunk_sizes
    monkeypatch.setattr(montecarlo, "_chunk_sizes",
                        lambda *a: cuts.append(chunk_sizes(*a)) or cuts[-1])
    args = ["rates-mc", "--deployment", "colocated", "-N", "8", "-T", "20", "--seed", "3",
            "--delta", "1e-3", "--kappa2", "1e-3", "--xi-over-sigma2", "1.2", "--lo", "slo",
            "--trials", "40", "--t-stride", "3", "--filter", filt]
    assert main([*args, "--out", str(tmp_path / "all")]) == 0
    header, *rows = (tmp_path / "all" / "rates_mc.csv").read_text().splitlines()
    ues = sorted({int(r.split(",")[0]) for r in rows})
    assert ues == list(range(8))
    for k in ues:
        assert main([*args, "--ue", str(k), "--out", str(tmp_path / str(k))]) == 0
        one = (tmp_path / str(k) / "rates_mc.csv").read_text().splitlines()
        assert one == [header, *(r for r in rows if r.startswith(f"{k},"))]
    assert cuts and all(len(c) == chunks for c in cuts)


def test_rates_mc_drop_index_writes_the_rates_of_that_drop_of_a_run(tmp_path):
    # the Monte Carlo stream is keyed (seed, drop), so a one-drop run over
    # every data use at --drop-index 1 writes the rates of drop 1 of a run
    # configuration at the same seed
    cfg = {
        "name": "drops", "seed": 3,
        "scenario": {"deployments": ["colocated"], "n_antennas": 8, "T": 40, "drops": 2},
        "hardware": [{"label": "slo", "delta": 1e-3, "kappa2": 1e-4, "xi_over_sigma2": 1.3,
                      "lo": "slo"}],
        "pilots": {"length": 8},
        "experiment": {"kind": "rates-mc", "trials": 50},
    }
    path = tmp_path / "drops.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["preset", str(path), "--out", str(tmp_path)]) == 0
    run_rates = {r["ue"]: r["value"] for r in read_csv(tmp_path / "drops.csv")[1]
                 if r["drop"] == "1"}
    assert main(["rates-mc", "--deployment", "colocated", "-N", "8", "-T", "40", "-B", "8",
                 "--seed", "3", "--drop-index", "1", "--delta", "1e-3", "--kappa2", "1e-4",
                 "--xi-over-sigma2", "1.3", "--lo", "slo", "--trials", "50", "--t-stride", "1",
                 "--out", str(tmp_path / "cli")]) == 0
    cli_rates = {r["ue"]: r["rate"] for r in read_csv(tmp_path / "cli" / "rates_mc.csv")[1]}
    assert len(run_rates) == 8 and cli_rates == run_rates


def test_preset_reproducible_across_threads_and_seeds(tmp_path):
    args = ["preset", "fig10", "--drops", "1", "--t-grid", "40,80", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--threads", "3"]) == 0
    a = (tmp_path / "a" / "fig10.csv").read_bytes()
    b = (tmp_path / "b" / "fig10.csv").read_bytes()
    assert a == b
    # the manifest records what shapes the CSV, not where it went or the pool size
    manifest = (tmp_path / "a" / "fig10_manifest.json").read_bytes()
    assert (tmp_path / "b" / "fig10_manifest.json").read_bytes() == manifest
    assert main(["preset", "fig10", "--drops", "1", "--t-grid", "40,80", "--seed", "12",
                 "--out", str(tmp_path / "c")]) == 0
    assert a != (tmp_path / "c" / "fig10.csv").read_bytes()


def test_preset_manifest_recreates_run(tmp_path):
    assert main(["preset", "fig10", "--drops", "1", "--t-grid", "40,80", "--seed", "7",
                 "--out", str(tmp_path / "orig")]) == 0
    manifest = json.loads((tmp_path / "orig" / "fig10_manifest.json").read_text())
    result = run(config_from_dict(manifest["config"]), tmp_path / "redo")
    assert result.csv_path.read_bytes() == (tmp_path / "orig" / "fig10.csv").read_bytes()


def test_preset_from_yaml_config(tmp_path):
    cfg = {
        "name": "mini",
        "seed": 5,
        "scenario": {"deployments": ["colocated"], "n_antennas": 16, "snr_db": 5,
                     "T": 40, "drops": 2},
        "hardware": [
            {"label": "ideal", "ideal": True},
            {"label": "slo", "delta": 1e-3, "kappa2": 1e-4, "xi_over_sigma2": 1.3, "lo": "slo"},
            {"label": "clo", "delta": 1e-3, "kappa2": 1e-4, "xi_over_sigma2": 1.3, "lo": "clo"},
        ],
        "pilots": {"books": ["dft"], "placements": ["beginning"], "length": 8},
        "experiment": {"kind": "asymptotics", "n_grid": [8, 16], "include_asymptote": True},
    }
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["preset", str(path), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "mini.csv")
    assert header == ["experiment", "N", "T", "drop", "ue", "metric", "value", "stderr"]
    labels = {r["experiment"] for r in rows}
    assert labels == {f"mini:colocated:{hw}:dft:beginning" for hw in ("ideal", "slo", "clo")}
    assert len(rows) == 3 * 2 * (2 + 1) * 8  # hw x drops x (N grid + limit) x UEs

    # the single-run commands on drop 0 go through the same rate path
    preset_rows = {(r["experiment"], r["metric"], r["N"], r["ue"]): r["value"]
                   for r in rows if r["drop"] == "0"}
    scen = ["--deployment", "colocated", "-N", "16", "-T", "40", "--seed", "5", "-B", "8"]
    for hw in ("ideal", "clo"):
        source = ["--ideal"] if hw == "ideal" else [
            "--delta", "1e-3", "--kappa2", "1e-4", "--xi-over-sigma2", "1.3", "--lo", "clo"]
        label = f"mini:colocated:{hw}:dft:beginning"
        out = tmp_path / hw
        assert main(["sweep-n", *scen, *source, "--n-grid", "8,16", "--out", str(out)]) == 0
        assert main(["asymptotic", *scen, *source, "--out", str(out)]) == 0
        for r in read_csv(out / "sweep_n.csv")[1]:
            assert r["rate"] == preset_rows[(label, "rate", r["N"], r["ue"])]
        for r in read_csv(out / "asymptotic.csv")[1]:
            assert r["rate"] == preset_rows[(label, "rate_asymptotic", "0", r["ue"])]


def test_preset_writes_rate_0_when_pilots_fill_the_block(tmp_path):
    # unlike the one-drop commands, a preset reports such a block as rate 0
    cfg = {**_YAML_BASE, "name": "full", "scenario": {**_YAML_BASE["scenario"], "T": 8}}
    path = tmp_path / "full.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["preset", str(path), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "full.csv")
    assert len(rows) == 2 * 8 and all(float(r["value"]) == 0.0 for r in rows)


def test_malformed_yaml_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed")
    assert main(["preset", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err  # the parser's multi-line report, on one line
    assert err.startswith("error: unparseable config ") and err.count("\n") == 1
    bad.write_text("- just\n- a list\n")
    assert main(["preset", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(yaml.safe_dump({"name": "x", "experiment": {"kind": "nope"}}))
    assert main(["preset", str(bad), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_config_round_trip():
    cfg = preset("fig9")
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_config_validation_errors(tmp_path):
    cfg = preset("fig7")
    import dataclasses

    bad = dataclasses.replace(cfg, hardware=(
        HardwareVariant("a", ideal=True), HardwareVariant("a", ideal=True),
    ))
    with pytest.raises(ConfigError):
        run(bad, tmp_path)
    bad2 = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, n_grid=(64, 16)))
    with pytest.raises(ConfigError):
        run(bad2, tmp_path)


def test_preset_definitions_match_reference_parameters():
    fig7 = preset("fig7")
    assert fig7.scenario.T == 500 and fig7.pilots.length == 8
    assert fig7.scenario.snr_db == 5.0
    hv = {h.label: h for h in fig7.hardware}
    assert hv["impaired-clo"].delta == pytest.approx(1.58e-4)
    assert math.sqrt(hv["impaired-clo"].kappa2) == pytest.approx(0.0156)
    assert hv["impaired-slo"].xi_over_sigma2 == pytest.approx(1.58)
    fig9 = preset("fig9")
    assert fig9.scenario.snr_db == 15.0
    base = {h.label: h for h in fig9.hardware}["fixed-slo"]
    assert math.sqrt(base.kappa2) == pytest.approx(0.05)
    assert base.xi_over_sigma2 == pytest.approx(3.0)
    assert base.delta == pytest.approx(7e-5)
    fig8 = preset("fig8")
    assert 10**6 in fig8.experiment.n_grid
    assert set(fig8.pilots.books) == {"dft", "temporal"}
    with pytest.raises(ConfigError):
        preset("fig11")


def test_numerical_invariant_maps_to_exit_3(tmp_path, monkeypatch):
    from hwmimo import cli as cli_mod
    from hwmimo.rates import NumericalInvariantError

    def boom(cfg, out, threads):
        raise NumericalInvariantError("synthetic violation")

    monkeypatch.setattr(cli_mod, "run", boom)
    rc = main(["preset", "fig10", "--drops", "1", "--t-grid", "40", "--out", str(tmp_path)])
    assert rc == 3
