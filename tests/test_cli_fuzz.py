"""Every command line and YAML run configuration ends in exit 0, 2 or 3
(hypothesis).

Each example draws the argv of one subcommand from a grammar of its flags,
or a YAML run configuration for ``preset``, with values from edge pools: 0,
negative, huge, inf/nan, non-numbers, empty lists, out-of-range indices,
and flags a command does not take.  Sizes stay tiny (N <= 16, T <= 40,
trials <= 4; a huge trial count exits 2 before it runs), so each
in-process ``main`` call costs milliseconds.  Exit 0
writes nothing to stderr, exit 2 or 3 exactly one line (each warning counts
as a line), exit 2 writes no CSV, and every CSV of an exit 0 holds a row.

A draw reaches an edge value one time in eight, so two deterministic
walks read the same tables: every edge of every (command, flag) row,
preset row and YAML key, each set alone on a small valid base, and every
foreign flag on every command (1154 cases, about 8 s).
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hwmimo.cli import main
from hwmimo.experiments import ConfigError, config_from_dict

HUGE = str(10**30)
_NUMBER_EDGES = ("0", "-1", "1e300", "-1e300", "inf", "nan", "abc", "")
_COUNT_EDGES = ("0", "-1", "1.5", "abc", "")


_POOLS = {}  # id of a _values strategy -> (its valid values, its edge values)


def _values(valid, edges):
    """A valid value seven times in eight, else an edge value."""
    strategy = st.integers(0, 7).flatmap(lambda i: st.sampled_from(edges if i == 7 else valid))
    _POOLS[id(strategy)] = (valid, edges)
    return strategy


def _pool(*valid):  # the values of a choice flag, or a name that is none
    return _values(valid, ("bogus",))


def _float(*valid):
    return _values(valid, _NUMBER_EDGES)


def _count(*valid, edges=()):  # sizes stay tiny: no huge valid value
    return _values(valid, (*edges, *_COUNT_EDGES))


def _grid(*valid):
    return _values(valid, (",", "", "0", "-4", "abc", "8,8", "16,8", "inf"))


_INDEX = _values(("0", "1", "7"), ("8", "24", "25", "-1", HUGE))
_SEED = _values(("0", "3"), ("-1", "abc", HUGE))
_LO = {"--lo": _pool("clo", "slo")}
_SOURCE = {  # -N and -T are always given, so no drawn size reaches the defaults
    "-N": _count("8", "16", "4", edges=("15",)),
    "-T": _count("20", "40", "9", edges=("8",)),
}
_SCENARIO = {
    "--seed": _SEED,
    "--scenario": _values(("{tmp}/ok.json",), ("{tmp}/not_a_scenario.json",
                                               "{tmp}/garbage.json", "{tmp}/missing.json")),
    "--deployment": _pool("colocated", "distributed"),
    "--snr-db": _float("5", "-10", "1e308"),
    "--drop-index": _values(("0", "1"), ("-1", HUGE)),
    "--shadow-std-db": _float("3.16", "1e6"),
}
_DROP = {
    **_SCENARIO,
    "--pilot-book": _pool("dft", "temporal"),
    "--pilot-place": _pool("beginning", "middle", "uniform", "preamble"),
    "-B": _count("2", "8", "16", edges=("40", "41", str(10**9))),
    "--cell": _INDEX,
    "--t-stride": _count("4", "16", str(10**9)),
}
_TRIPLE = {
    "--delta": _float("1e-3", "50"),
    "--kappa2": _float("1e-4", "1"),
    "--xi-over-sigma2": _float("1.3", "0.5"),
}
_CIRCUIT = {
    "--adc-bits": _float("6", "1"),
    "--lna-nf-db": _float("2"),
    "--carrier-hz": _float("2e9"),
    "--symbol-time-s": _float("1e-7"),
    "--lo-quality": _float("1e-17"),
}
_EXPONENTS = {f"--z{i}": _float("0", "0.5", "1") for i in (1, 2, 3)}
# always given: the defaults run 10^4 trials; a huge count exits 2 before any chunk is planned
_TRIALS = {"--trials": _count("1", "4", edges=(HUGE,))}
_THREADS = {"--threads": _count("1", "2")}

# command -> (flags always given, flags each drawn or left out, draws a hardware source)
GRAMMAR = {
    "scenario-gen": (_SOURCE, _SCENARIO, False),
    "estimate": ({**_SOURCE, **_TRIALS},
                 {**_DROP, **_LO, "--source-cell": _INDEX, "--ue": _INDEX}, True),
    "rates-cf": (_SOURCE, {**_DROP, **_LO}, True),
    "sweep-n": ({**_SOURCE, "--n-grid": _grid("8", "8,16", "4,16")}, {**_DROP, **_LO}, True),
    "rates-mc": ({**_SOURCE, **_TRIALS},
                 {**_DROP, **_LO, "--ue": _INDEX, "--filter": _pool("mrc", "mmse")},
                 True),
    "asymptotic": (_SOURCE, {**_DROP, **_LO}, True),
    "scaling-law": ({**_SOURCE, **_EXPONENTS},
                    {**_DROP, **_LO, "--delta0": _float("7e-5"), "--kappa20": _float("0.0025"),
                     "--xi0": _float("3"), "--n-grid": _grid("8", "8,16")}, False),
    "circuit": ({}, {**_CIRCUIT, **_LO, **_EXPONENTS,
                     "--n-grid": _grid("1,4,16", str(10**400))}, False),
}
# where a command takes hardware: one source, none, or flags of two
_HARDWARE = _values(("ideal", "triple", "circuit"), ("none", "mixed"))
# preset: a built-in figure at one drop and a tiny grid, or a config file
_PRESET_SOURCE = _values(("fig7", "fig8", "fig9", "fig10", "{tmp}/ok.yaml"),
                         ("nope", "{tmp}/missing.yaml", "{tmp}/garbage.json"))
_PRESET_DROPS = _count("1")
_PRESET_GRID_FLAGS = ("--n-grid", "--t-grid")
_PRESET_GRID = _grid("16", "40,80")
_PRESET_OPTIONAL = {**_THREADS, **_TRIALS, "--seed": _SEED}
# flags the command may not take, appended after its own
_FOREIGN_FLAGS = [("--threads", "2"), ("--seed", "1"), ("--bogus", "1"), ("--trials", "2"),
                  ("--ideal",), ("--n-grid", "8")]
_FOREIGN = st.sampled_from(_FOREIGN_FLAGS)


@st.composite
def _flags(draw, flags: dict) -> list:
    """Each of ``flags`` one time in four, with a drawn value."""
    argv = []
    for flag, values in flags.items():
        if draw(st.integers(0, 3)) == 3:
            argv += [flag, draw(values)]
    return argv


def _given(draw, flags: dict) -> list:
    return [x for flag, values in flags.items() for x in (flag, draw(values))]


@st.composite
def command_lines(draw) -> list:
    command = draw(st.sampled_from([*GRAMMAR, "preset"]))
    if command == "preset":
        argv = [command, draw(_PRESET_SOURCE), "--drops", draw(_PRESET_DROPS),
                draw(st.sampled_from(_PRESET_GRID_FLAGS)), draw(_PRESET_GRID)]
        argv += draw(_flags(_PRESET_OPTIONAL))
    else:
        always, optional, hardware = GRAMMAR[command]
        argv = [command, *_given(draw, always), *draw(_flags(optional))]
        if hardware:
            source = draw(_HARDWARE)
            if source in ("ideal", "mixed"):
                argv.append("--ideal")
            if source in ("triple", "circuit"):
                argv += _given(draw, _TRIPLE if source == "triple" else _CIRCUIT)
            if source == "mixed":
                argv += draw(_flags({**_TRIPLE, **_CIRCUIT}))
    if draw(st.integers(0, 7)) == 7:
        argv += draw(_FOREIGN)
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Directory of the files a drawn argv names: a scenario, a JSON file
    that is not one, a file that is not JSON, and a YAML run config."""
    tmp = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scenario-gen", "-N", "8", "-T", "20", "--out", str(tmp), "--name", "ok"]) == 0
    (tmp / "not_a_scenario.json").write_text('{"hello": "world"}')
    (tmp / "garbage.json").write_text("{")
    (tmp / "ok.yaml").write_text(yaml.safe_dump(_YAML_BASE))
    return tmp


def _check_exit(argv: list) -> None:
    """Run ``argv`` into a fresh directory and check its exit code, its
    stderr lines (each warning counting as one), that exit 2 writes no CSV
    and that every CSV of an exit 0 holds at least one data row."""
    with tempfile.TemporaryDirectory() as d:
        out, err = Path(d), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([*argv, "--out", d])
        lines = err.getvalue().count("\n") + len(caught)
        report = (argv, code, err.getvalue(), [str(w.message) for w in caught])
        assert code in (0, 2, 3), report
        assert lines == (0 if code == 0 else 1), report
        csvs = list(out.rglob("*.csv"))
        if code == 2:
            assert not csvs, report
        if code == 0:
            for path in csvs:
                assert len(path.read_text().splitlines()) > 1, (report, path.name)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=command_lines())
# powers that overflow after power control: no numpy warning ahead of the error
@example(argv=["rates-cf", "--ideal", "-N", "8", "-T", "20", "--snr-db", "3000"])
# the float overflows of the circuit and scaling-law inputs
@example(argv=["circuit", "--carrier-hz", "1e300"])
@example(argv=["circuit", "--lna-nf-db", "1e300"])
@example(argv=["circuit", "--z2", "1e300"])
@example(argv=["rates-cf", "-N", "8", "-T", "20", "--adc-bits", "1", "--lna-nf-db", "0",
               "--carrier-hz", "1e200", "--symbol-time-s", "1", "--lo-quality", "1"])
@example(argv=["scaling-law", "--z1", "0.5", "--z2", "1e300", "--z3", "0", "-N", "64", "-T", "40",
               "--deployment", "colocated", "--n-grid", "64"])
# argparse errors: a flag the command does not take, a bad choice, a
# non-number, a missing required flag
@example(argv=["rates-cf", "--ideal", "-N", "8", "-T", "20", "--threads", "2"])
@example(argv=["rates-cf", "--lo", "xyz"])
@example(argv=["rates-cf", "-N", "abc"])
@example(argv=["sweep-n", "--ideal", "-N", "8", "-T", "20"])
# trial counts past the cap, which no chunk list could hold
@example(argv=["rates-mc", "--ideal", "-N", "8", "-T", "20", "--trials", HUGE])
@example(argv=["estimate", "--ideal", "-N", "8", "-T", "20", "--trials", HUGE])
def test_every_command_line_exits_0_2_or_3(files, argv):
    _check_exit([a.replace("{tmp}", str(files)) for a in argv])


_YAML_BASE = {
    "name": "fuzz",
    "seed": 1,
    "scenario": {"deployments": ["colocated"], "n_antennas": 8, "T": 20},
    "hardware": [{"label": "hw", "delta": 1e-3, "kappa2": 1e-4, "xi_over_sigma2": 1.3}],
    "pilots": {"length": 8},
    "experiment": {"kind": "sweep-n", "n_grid": [8]},
}
_YAML_NUMBER_EDGES = (0, -1, 1e300, -1e300, math.inf, math.nan, "abc", None, [1.0], {"a": 1})
_YAML_COUNT_EDGES = (0, -1, 1.5, math.inf, math.nan, "abc", None, [1])


def _number(*valid):
    return _values(valid, _YAML_NUMBER_EDGES)


def _size(*valid, edges=()):
    return _values(valid, (*edges, *_YAML_COUNT_EDGES))


def _yaml_grid(*valid):
    return _values(valid, ([], [0], [-8], [16, 8], [8, 8], ["abc"], [math.inf], "8", None))


# (section, key) -> values; section None is the top level, "hardware" the
# first variant
YAML_GRAMMAR = {
    (None, "name"): _values(("x",), ("", 7)),
    (None, "seed"): _size(0, 3, edges=(-1, 10**30)),
    (None, "threads"): _pool(2),  # run settings come from the command line
    (None, "out"): _pool("elsewhere"),
    (None, "hardware"): _values(([{"label": "a", "ideal": True}, {"label": "b", "lo": "slo"}],),
                                ([], {"label": "hw"}, [{"label": "a"}, {"label": "a"}], "hw")),
    (None, "scenario"): _values(({"n_antennas": 16, "T": 40},), ([], "x", None)),
    ("scenario", "deployments"): _values((["colocated", "distributed"], ["distributed"]),
                                         ([], ["bogus"], "colocated", None)),
    ("scenario", "n_antennas"): _size(4, 16, edges=(15,)),
    ("scenario", "T"): _size(9, 40, edges=(8,)),
    ("scenario", "drops"): _size(2),
    ("scenario", "snr_db"): _number(5.0, -10.0, 1e308),
    ("scenario", "shadow_std_db"): _number(3.16, 1e6),
    ("scenario", "sigma2"): _number(2.0),
    ("scenario", "file"): _values(("{tmp}/ok.json",),
                                  ("{tmp}/missing.json", "{tmp}/garbage.json")),
    ("scenario", "bogus"): _pool(1),
    ("hardware", "ideal"): _values((True,), ("abc",)),
    ("hardware", "delta"): _number(0.0, 50.0),
    ("hardware", "kappa2"): _number(0.0, 1.0),
    ("hardware", "xi_over_sigma2"): _number(1.0, 0.5),
    ("hardware", "lo"): _values(("slo",), ("bogus", None)),
    ("hardware", "exponents"): _values(([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]),
                                       ([0.5, 0.5], [], [math.inf, 0, 0], [1e300, 0, 0], "abc")),
    ("pilots", "books"): _values((["temporal", "dft"],), ([], ["bogus"], "dft")),
    ("pilots", "placements"): _values((["middle", "preamble"],), ([], ["bogus"])),
    ("pilots", "length"): _size(2, 16, None, edges=(20, 21, 10**9)),
    ("experiment", "n_grid"): _yaml_grid([8, 16], [4]),
    ("experiment", "t_grid"): _yaml_grid([20, 40], [9]),
    ("experiment", "trials"): _size(1, 4, edges=(10**30,)),
    ("experiment", "filter_kind"): _pool("mmse", "mrc"),
    ("experiment", "include_asymptote"): _values((True,), ("abc",)),
    ("experiment", "bogus"): _pool(1),
}


_KIND = _pool("sweep-n", "asymptotics", "scaling", "sweep-t", "rates-mc")


@st.composite
def run_configs(draw) -> dict:
    """The base configuration as one of the five kinds (no grid for
    rates-mc, a T grid for sweep-t), then up to three drawn (section, key)
    values."""
    cfg = _yaml_base(draw(_KIND))
    keys = list(YAML_GRAMMAR)
    for i in draw(st.lists(st.integers(0, len(keys) - 1), max_size=3, unique=True)):
        _put(cfg, *keys[i], draw(YAML_GRAMMAR[keys[i]]))
    return cfg


def _yaml_base(kind) -> dict:
    """A deep copy of the base configuration as experiment ``kind``."""
    cfg = yaml.safe_load(yaml.safe_dump(_YAML_BASE))
    grid = {"rates-mc": {"trials": 4}, "sweep-t": {"t_grid": [20, 40]}}.get(kind, {"n_grid": [8]})
    cfg["experiment"] = {"kind": kind, **grid}
    return cfg


def _put(cfg: dict, section, key, value) -> None:
    """Set ``key`` of ``section`` of ``cfg`` (see YAML_GRAMMAR), where an
    earlier value left that section in place."""
    if section is None:
        cfg[key] = value
    elif section == "hardware" and isinstance(cfg["hardware"], list) and cfg["hardware"]:
        if isinstance(cfg["hardware"][0], dict):
            cfg["hardware"][0][key] = value
    elif isinstance(cfg.get(section), dict):
        cfg[section][key] = value


def _with_files(value, tmp: Path):
    if isinstance(value, str):
        return value.replace("{tmp}", str(tmp))
    if isinstance(value, dict):
        return {k: _with_files(v, tmp) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_files(v, tmp) for v in value]
    return value


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cfg=run_configs())
# a count that int() cannot take
@example(cfg={**_YAML_BASE, "scenario": {**_YAML_BASE["scenario"], "T": math.inf}})
# powers that overflow after power control
@example(cfg={**_YAML_BASE, "scenario": {**_YAML_BASE["scenario"], "sigma2": 1e300}})
# an empty list would loop over nothing and write a CSV without rows
@example(cfg={**_YAML_BASE, "scenario": {**_YAML_BASE["scenario"], "deployments": []}})
@example(cfg={**_YAML_BASE, "pilots": {**_YAML_BASE["pilots"], "books": []}})
@example(cfg={**_YAML_BASE, "pilots": {**_YAML_BASE["pilots"], "placements": []}})
# a trial count past the cap
@example(cfg={**_YAML_BASE, "experiment": {"kind": "rates-mc", "trials": 10**30}})
def test_every_yaml_run_config_exits_0_2_or_3(files, cfg):
    cfg = _with_files(cfg, files)
    with contextlib.suppress(ConfigError):  # any other exception fails the test
        config_from_dict(cfg)
    path = files / "drawn.yaml"
    path.write_text(yaml.safe_dump(cfg))
    _check_exit(["preset", str(path)])


# -- every edge of every pool, walked ----------------------------------------


def _first(flags: dict) -> dict:
    """Each of ``flags`` at its first valid value."""
    return {flag: _POOLS[id(values)][0][0] for flag, values in flags.items()}


def _flat(flags: dict) -> list:
    return [x for item in flags.items() for x in item]


def _edge_lines() -> list:
    """(id, argv) of each edge value of each (command, flag) row of
    GRAMMAR, of the hardware rows and of preset's rows, set on a small valid
    base command: the command's always-given flags at their first valid
    value and ``--ideal`` where it takes hardware (the triple or circuit
    flags at theirs for the rows of those).  The hardware source's edges
    and each foreign flag, appended once, are set on each command's base."""
    cases = []

    def walk(head, base, rows, tail=()):
        for flag, values in rows.items():
            for edge in _POOLS[id(values)][1]:
                cases.append((f"{head[0]} {flag} {edge!r}",
                              [*head, *_flat({**base, flag: edge}), *tail]))

    for command, (always, optional, hardware) in GRAMMAR.items():
        base = _first(always)
        walk([command], base, {**always, **optional}, ["--ideal"] if hardware else [])
        if hardware:
            for rows in (_TRIPLE, _CIRCUIT):
                walk([command], {**base, **_first(rows)}, rows)
            # the source's edges (see _HARDWARE): none, and the ideal one beside a triple
            cases.append((f"{command} none", [command, *_flat(base)]))
            cases.append((f"{command} mixed",
                          [command, *_flat({**base, **_first(_TRIPLE)}), "--ideal"]))
        for foreign in _FOREIGN_FLAGS:
            tail = ["--ideal", *foreign] if hardware else list(foreign)
            cases.append((f"{command} {' '.join(foreign)}", [command, *_flat(base), *tail]))
    figure = _POOLS[id(_PRESET_SOURCE)][0][0]
    drops, grid = _first({"--drops": _PRESET_DROPS, "--n-grid": _PRESET_GRID}).values()
    cases += [(f"preset {edge!r}", ["preset", edge, "--drops", drops, "--n-grid", grid])
              for edge in _POOLS[id(_PRESET_SOURCE)][1]]
    for grid_flag in _PRESET_GRID_FLAGS:
        rows = {"--drops": _PRESET_DROPS, grid_flag: _PRESET_GRID}
        walk(["preset", figure], _first(rows), {**rows, **_PRESET_OPTIONAL})
    return cases


def _failures(cases, check) -> list:
    """The (id, report) of each case whose ``check`` fails, all cases run."""
    failed = []
    for name, case in cases:
        try:
            check(case)
        except AssertionError as e:
            failed.append((name, str(e)[:300]))
    return failed


def test_every_edge_of_every_flag_exits_0_2_or_3(files):
    assert _failures(_edge_lines(), lambda argv: _check_exit([a.replace("{tmp}", str(files))
                                                              for a in argv])) == []


def _edge_configs() -> list:
    """(id, config) of each edge value of the experiment kind and of each
    YAML_GRAMMAR key, set on the base configuration of the kind that reads
    the key."""
    kinds = {"trials": "rates-mc", "filter_kind": "rates-mc", "t_grid": "sweep-t"}
    cases = [(f"kind {edge!r}", _yaml_base(edge)) for edge in _POOLS[id(_KIND)][1]]
    for (section, key), values in YAML_GRAMMAR.items():
        for edge in _POOLS[id(values)][1]:
            cfg = _yaml_base(kinds.get(key, "sweep-n"))
            _put(cfg, section, key, edge)
            cases.append((f"{section}.{key} {edge!r}", cfg))
    return cases


def test_every_edge_of_every_yaml_key_exits_0_2_or_3(files):
    def check(cfg):
        cfg = _with_files(cfg, files)
        with contextlib.suppress(ConfigError):  # any other exception fails the test
            config_from_dict(cfg)
        path = files / "edge.yaml"
        path.write_text(yaml.safe_dump(cfg))
        _check_exit(["preset", str(path)])

    cases = _edge_configs()
    assert len(cases) == sum(len(_POOLS[id(values)][1])
                             for values in (_KIND, *YAML_GRAMMAR.values()))
    assert _failures(cases, check) == []
