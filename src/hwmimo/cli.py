"""Command-line interface.

Subcommands: scenario-gen, estimate, rates-cf, rates-mc, sweep-n,
asymptotic, scaling-law, circuit, preset.  Every command writes CSV plus a
JSON manifest with the resolved inputs; seeds make all outputs reproducible
(byte-identical at any thread count).  Exit codes: 0 success, 2 unusable
configuration or arguments, 3 violated numerical invariant.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    AdcSpec,
    LnaSpec,
    LoSpec,
    power_scaling_report,
    profile_from_circuits,
)
from .estimator import build_cache, error_covariance
from .experiments import (
    SEED_MAX,
    TRIALS_MAX,
    ConfigError,
    HardwareVariant,
    ScenarioSpec,
    _drop_scenario,
    _grid_caches,
    _pilot_book,
    _profile,
    _serving_cell,
    _trajectories,
    config_from_dict,
    preset,
    run,
    write_rows,
)
from .model import LoMode, user_input
from .montecarlo import FilterKind, McConfig, _rate_from_means, empirical_mse, estimate_moments
from .pilots import PlacementKind
from .rates import NumericalInvariantError, ScalingExponents, check_scaling_law
from .scenario_gen import SHADOW_STD_DB, save_scenario


# flag -> (HWMIMO_* variable, type, fallback) of the run settings that a
# subcommand takes through _add_common
_ENV_DEFAULTS = {
    "seed": ("SEED", int, 0),
    "out": ("OUT", Path, Path(".")),
    "threads": ("THREADS", int, 1),
}

# integer flag -> (minimum, maximum or None)
_BOUNDS = {"trials": (1, TRIALS_MAX), "t_stride": (1, None), "threads": (1, None),
           "seed": (0, SEED_MAX), "drop_index": (0, SEED_MAX)}

_FROM_ENV = object()  # the default of a run setting: see _fill_env_defaults


def _add_common(p: argparse.ArgumentParser, *dests: str) -> None:
    """The run settings ``dests`` of a subcommand: ``--out`` on every
    command, ``--seed`` where it draws, ``--threads`` on ``preset`` alone,
    whose (deployment, drop) jobs run on a pool.  A Monte Carlo pass runs
    on the calling thread and one helper, so ``estimate`` and ``rates-mc``
    take no ``--threads``."""
    for dest in dests:
        p.add_argument(f"--{dest}", type=_ENV_DEFAULTS[dest][1], default=_FROM_ENV)


def _fill_env_defaults(args) -> None:
    """Give each run setting of the command that the command line left out
    its HWMIMO_* value, or its fallback.  ``preset`` has its own ``--seed``
    (default: the config's seed), so it never reads HWMIMO_SEED."""
    for dest, (name, cast, fallback) in _ENV_DEFAULTS.items():
        if getattr(args, dest, None) is not _FROM_ENV:
            continue
        raw = os.environ.get(f"HWMIMO_{name}")
        try:
            value = fallback if raw is None else cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad HWMIMO_{name} environment value {raw!r}") from exc
        if dest in _BOUNDS:
            _check_bound(dest, value, f"HWMIMO_{name}")
        setattr(args, dest, value)


def _check_bound(dest: str, value: int, label: str) -> None:
    low, high = _BOUNDS[dest]
    if value < low:
        raise ConfigError(f"{label} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{label} must be <= {high}, got {value}")


def _add_scenario_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", type=Path, help="scenario JSON file (from scenario-gen)")
    p.add_argument("--deployment", choices=["colocated", "distributed"], default="distributed")
    p.add_argument("-N", "--n-antennas", type=int, default=128)
    p.add_argument("--snr-db", type=float, default=5.0)
    p.add_argument("-T", "--block-length", type=int, default=500)
    p.add_argument("--drop-index", type=int, default=0)
    p.add_argument("--shadow-std-db", type=float, default=SHADOW_STD_DB)


def _add_hardware(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ideal", action="store_true", help="drift/distortion-free, xi = sigma2")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)
    p.add_argument("--xi-over-sigma2", type=float, default=None)
    p.add_argument("--adc-bits", type=float, default=None)
    p.add_argument("--lna-nf-db", type=float, default=None)
    p.add_argument("--carrier-hz", type=float, default=None)
    p.add_argument("--symbol-time-s", type=float, default=None)
    p.add_argument("--lo-quality", type=float, default=None)
    p.add_argument("--lo", choices=["clo", "slo"], default="clo")


def _add_pilots(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pilot-book", choices=["temporal", "dft"], default="dft")
    p.add_argument(
        "--pilot-place",
        choices=[k.value for k in PlacementKind],
        default="beginning",
    )
    p.add_argument("-B", "--pilot-length", type=int, default=None)


def _check_args(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
        # a list flag left out is None or its default; given, it must name a value
        if isinstance(value, list) and not value:
            raise ConfigError(f"--{name.replace('_', '-')} must list at least one value")
    for name in _BOUNDS:
        value = getattr(args, name, None)
        if value is not None:
            _check_bound(name, value, f"--{name.replace('_', '-')}")


def _check_index(args, name: str, bound: int) -> None:
    value = getattr(args, name, None)
    if value is not None and not 0 <= value < bound:
        raise ConfigError(f"--{name.replace('_', '-')} {value} out of range 0..{bound - 1}")


def _scenario_from(args):
    spec = ScenarioSpec(
        file=args.scenario, n_antennas=args.n_antennas, snr_db=args.snr_db,
        T=args.block_length, shadow_std_db=args.shadow_std_db,
    )
    return _drop_scenario(spec, args.deployment, args.seed, args.drop_index)


def _circuit_variant(args) -> HardwareVariant:
    """Impairment triple of the circuit flags, with xi in units of sigma2."""
    with user_input():
        hw = profile_from_circuits(
            AdcSpec(args.adc_bits),
            LnaSpec.from_db(args.lna_nf_db),
            LoSpec(args.carrier_hz, args.symbol_time_s, args.lo_quality),
            sigma2=1.0,
        )
    return HardwareVariant("circuit", delta=hw.delta, kappa2=hw.kappa2,
                           xi_over_sigma2=hw.xi, lo=LoMode(args.lo))


def _hardware_from(args) -> HardwareVariant:
    triple = [args.delta, args.kappa2, args.xi_over_sigma2]
    circuit = [args.adc_bits, args.lna_nf_db, args.carrier_hz, args.symbol_time_s, args.lo_quality]
    sources = [args.ideal, any(v is not None for v in triple), any(v is not None for v in circuit)]
    if sum(sources) != 1:
        raise ConfigError(
            "exactly one hardware source is required: --ideal, a (--delta, --kappa2, "
            "--xi-over-sigma2) triple, or a circuit spec"
        )
    if args.ideal:
        return HardwareVariant("ideal", ideal=True, lo=LoMode(args.lo))
    if sources[1]:
        if any(v is None for v in triple):
            raise ConfigError("--delta, --kappa2 and --xi-over-sigma2 must be given together")
        return HardwareVariant("triple", delta=args.delta, kappa2=args.kappa2,
                               xi_over_sigma2=args.xi_over_sigma2, lo=LoMode(args.lo))
    if any(v is None for v in circuit):
        raise ConfigError(
            "--adc-bits, --lna-nf-db, --carrier-hz, --symbol-time-s and --lo-quality "
            "must be given together"
        )
    return _circuit_variant(args)


def _scenario_and_book(args):
    """Validated scenario and pilot book of a subcommand, and the cell it
    reports.  Every such command evaluates data channel uses, so pilots
    that fill the block are a user error."""
    scen = _scenario_from(args)
    book = _pilot_book(scen, args.pilot_book, args.pilot_place, args.pilot_length)
    if not book.data_times():
        raise ConfigError(f"the {book.B} pilots fill the block of {book.T} channel uses: "
                          "no data channel use to evaluate")
    _check_index(args, "cell", scen.L)
    _check_index(args, "source_cell", scen.L)
    _check_index(args, "ue", scen.K)
    return scen, book, args.cell if args.cell is not None else _serving_cell(scen)


def _inputs(args):
    """Estimator cache (scenario, hardware profile and pilot book) and
    reported cell of a subcommand with a hardware source."""
    scen, book, cell = _scenario_and_book(args)
    return build_cache(scen, _profile(_hardware_from(args), scen), book), cell


def _finish(args, path=None, **extra) -> int:
    """Write the subcommand's manifest: its resolved arguments plus
    ``extra``.  Prints ``path``, the main output, when given."""
    args.out.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
    payload = {"version": __version__, "command": args.command, "args": resolved, **extra}
    manifest = args.out / f"{args.name}_manifest.json"
    manifest.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    if path is not None:
        print(path)
    return 0


def _write_csv(args, columns, rows, suffix: str = "") -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.name}{suffix}.csv"
    write_rows(path, columns, rows)
    return path


# -- subcommand implementations -------------------------------------------------


def _cmd_scenario_gen(args) -> int:
    scen = _scenario_from(args)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.name}.json"
    save_scenario(
        scen,
        path,
        meta={
            "deployment": args.deployment,
            "seed": args.seed,
            "drop_index": args.drop_index,
            "snr_db": args.snr_db,
            "shadow_std_db": args.shadow_std_db,
        },
    )
    return _finish(args, path)


def _data_times(book, t_stride: int) -> np.ndarray:
    return np.asarray(book.data_times(), dtype=float)[::t_stride]


def _cmd_estimate(args) -> int:
    cache, j = _inputs(args)
    l = args.source_cell if args.source_cell is not None else j
    ts = _data_times(cache.book, args.t_stride)
    closed = np.array([error_covariance(cache, j, l, args.ue, t)[1] for t in ts])
    mc = McConfig(trials=args.trials, seed=(args.seed, args.drop_index))
    mc_mean, _ = empirical_mse(cache, j, l, args.ue, ts, mc)
    rows = [(int(t), closed[i], mc_mean[i]) for i, t in enumerate(ts)]
    return _finish(args, _write_csv(args, ("t", "mse_closed_form", "mse_monte_carlo"), rows))


_SINR_COLUMNS = ("N", "ue", "t", "sinr", "rate", "signal", "interference", "distortion", "noise")


def _sinr_rows(cache, cell, ns, t_stride, asymptote=False) -> list:
    """CSV rows of the closed-form trajectories: every ``t_stride``-th data
    channel use per UE and array size of ``ns``, then, with ``asymptote``,
    the large-array limit as N = inf."""
    labels = [*ns, "inf"]
    rows = []
    for k, _lo, i, traj, rate in _trajectories(cache, cell, [cache.hw.lo_mode], ns, asymptote):
        for it in range(0, traj.ts.size, t_stride):
            rows.append((
                labels[i], k, int(traj.ts[it]), traj.sinr[it], rate, traj.signal[it],
                traj.interference[it], traj.distortion[it], traj.noise[it],
            ))
    return rows


def _sinr_csv(args, scen, book, j, n_grid=None, asymptote=False, hv=None) -> Path:
    """CSV of the trajectory rows of cell j in the drop ``(scen, book)`` for
    ``hv`` (default: the hardware flags) over ``n_grid`` (default: the
    scenario's N)."""
    hv = hv or _hardware_from(args)
    rows = []
    for cache, ns in _grid_caches(hv, scen, book, (scen.N,) if n_grid is None else n_grid):
        rows += _sinr_rows(cache, j, ns, args.t_stride, asymptote)
    return _write_csv(args, _SINR_COLUMNS, rows)


def _cmd_rates_cf(args) -> int:
    return _finish(args, _sinr_csv(args, *_scenario_and_book(args)))


def _cmd_sweep_n(args) -> int:
    return _finish(args, _sinr_csv(args, *_scenario_and_book(args), args.n_grid))


def _cmd_asymptotic(args) -> int:
    return _finish(args, _sinr_csv(args, *_scenario_and_book(args), (), asymptote=True))


def _cmd_rates_mc(args) -> int:
    cache, j = _inputs(args)
    mc = McConfig(trials=args.trials, seed=(args.seed, args.drop_index))
    ts = _data_times(cache.book, args.t_stride)
    ues = np.arange(cache.scenario.K) if args.ue is None else np.array([args.ue])
    m = estimate_moments(cache, FilterKind(args.filter), j, ues, ts, mc)
    rates, traj = _rate_from_means(cache, j, ues, m)
    rows = [
        (k, int(t), m.norm2[u, i], m.norm2_se[u, i], m.first[u, i].real, m.first[u, i].imag,
         m.first_se[u, i], traj.interference[u, i], float(np.sum(m.second_se[u, i])),
         m.distortion[u, i], m.distortion_se[u, i], traj.noise[u, i], traj.sinr[u, i],
         float(rates[u]))
        for u, k in enumerate(ues.tolist()) for i, t in enumerate(ts)
    ]
    columns = (
        "ue", "t", "norm2", "norm2_se", "first_re", "first_im", "first_se",
        "interference", "interference_se", "distortion", "distortion_se",
        "noise", "sinr", "rate",
    )
    return _finish(args, _write_csv(args, columns, rows))


def _cmd_scaling_law(args) -> int:
    with user_input():
        exp = ScalingExponents(args.z1, args.z2, args.z3)
    scen, book, j = _scenario_and_book(args)  # the drop of the --n-grid CSV
    lo = LoMode(args.lo)
    worst_t = max(book.data_times(), key=lambda t: min(abs(t - x) for x in book.tau))
    with user_input():
        rep = check_scaling_law(exp, lo, t=worst_t, tau=book.tau, delta_0=args.delta0)
    print(f"satisfied={rep.satisfied} margin={rep.margin:.6g} lhs={rep.lhs:.6g}")
    path = None
    if args.n_grid is not None:
        law = HardwareVariant("law", delta=args.delta0, kappa2=args.kappa20,
                              xi_over_sigma2=args.xi0, lo=lo, exponents=(args.z1, args.z2, args.z3))
        path = _sinr_csv(args, scen, book, j, args.n_grid, hv=law)
    return _finish(
        args, path, satisfied=rep.satisfied, margin=rep.margin, lhs=rep.lhs, worst_t=worst_t
    )


def _cmd_circuit(args) -> int:
    with user_input():
        exp = ScalingExponents(args.z1, args.z2, args.z3)
    hv = _circuit_variant(args)
    with user_input():
        table = power_scaling_report(args.n_grid, exp.z1, exp.z2, exp.z3, args.adc_bits)
    print(f"delta={hv.delta:.6g} kappa2={hv.kappa2:.6g} xi_over_sigma2={hv.xi_over_sigma2:.6g}")
    rows = [("delta", hv.delta), ("kappa2", hv.kappa2), ("xi_over_sigma2", hv.xi_over_sigma2)]
    _write_csv(args, ("parameter", "value"), rows, "_triple")
    cols = tuple(table[0].keys())
    path = _write_csv(args, cols, [tuple(r[c] for c in cols) for r in table], "_power")
    return _finish(args, path)


def _cmd_preset(args) -> int:
    if args.which in {"fig7", "fig8", "fig9", "fig10"}:
        cfg = preset(args.which)
    else:
        path = Path(args.which)
        if not path.exists():
            raise ConfigError(f"unknown preset or missing config file: {args.which}")
        import yaml  # only a config file needs the YAML parser

        try:
            data = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            reason = " ".join(str(exc).split())  # one line, as every user error
            raise ConfigError(f"unparseable config {path}: {reason}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a mapping")
        cfg = config_from_dict(data)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.drops is not None:
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, drops=args.drops))
    exp = cfg.experiment
    if args.n_grid is not None:
        exp = dataclasses.replace(exp, n_grid=tuple(args.n_grid))
    if args.t_grid is not None:
        exp = dataclasses.replace(exp, t_grid=tuple(args.t_grid))
    if args.trials is not None:
        exp = dataclasses.replace(exp, trials=args.trials)
    cfg = dataclasses.replace(cfg, experiment=exp)
    result = run(cfg, args.out, args.threads)
    print(result.csv_path)
    return 0


# -- parser ----------------------------------------------------------------------


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x]


def _drop_parser(sub, name: str, help_text: str, fn, t_stride: int, hardware: bool = True):
    """Subparser of a command that evaluates one drop: ``--seed``, ``--out``,
    the scenario source, the hardware flags (unless ``hardware`` is False), the
    pilots, ``--cell``, ``--t-stride`` and ``--name`` (default: the command
    name with ``_`` for ``-``).  The caller adds the command's own flags."""
    p = sub.add_parser(name, help=help_text)
    _add_common(p, "seed", "out")
    _add_scenario_source(p)
    if hardware:
        _add_hardware(p)
    _add_pilots(p)
    p.add_argument("--cell", type=int, default=None)
    p.add_argument("--t-stride", type=int, default=t_stride)
    p.add_argument("--name", default=name.replace("-", "_"))
    p.set_defaults(fn=fn)
    return p


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (an unknown flag or choice, a value of the wrong
    type, a missing required flag) as a ConfigError: one line, exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as negative numbers, so a value
        # such as -1e1 would be taken for an unknown flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(" ".join(message.split()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hwmimo",
        description="Hardware-impaired massive MIMO uplink simulator",
    )
    parser.add_argument("--version", action="version", version=f"hwmimo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario-gen", help="generate and save a network scenario")
    _add_common(p, "seed", "out")
    _add_scenario_source(p)
    p.add_argument("--name", default="scenario")
    p.set_defaults(fn=_cmd_scenario_gen)

    p = _drop_parser(sub, "estimate", "channel-estimation MSE, closed form vs Monte Carlo",
                     _cmd_estimate, t_stride=1)
    p.add_argument("--source-cell", type=int, default=None)
    p.add_argument("--ue", type=int, default=0)
    p.add_argument("--trials", type=int, default=20_000)

    _drop_parser(sub, "rates-cf", "closed-form SINR and rates (MRC)", _cmd_rates_cf, t_stride=1)

    p = _drop_parser(sub, "sweep-n", "closed-form rates over an antenna-count grid",
                     _cmd_sweep_n, t_stride=16)
    p.add_argument("--n-grid", type=_int_list, required=True)

    p = _drop_parser(sub, "rates-mc", "simulated SINR expectations and rates",
                     _cmd_rates_mc, t_stride=16)
    p.add_argument("--ue", type=int, default=None, help="default: all UEs of the cell")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--filter", choices=["mrc", "mmse"], default="mrc")

    _drop_parser(sub, "asymptotic", "large-array SINR limits", _cmd_asymptotic, t_stride=16)

    p = _drop_parser(sub, "scaling-law", "check hardware scaling exponents", _cmd_scaling_law,
                     t_stride=64, hardware=False)
    p.add_argument("--z1", type=float, required=True)
    p.add_argument("--z2", type=float, required=True)
    p.add_argument("--z3", type=float, required=True)
    p.add_argument("--delta0", type=float, default=7e-5)
    p.add_argument("--kappa20", type=float, default=0.05**2)
    p.add_argument("--xi0", type=float, default=3.0, help="baseline xi in units of sigma2")
    p.add_argument("--lo", choices=["clo", "slo"], default="slo")
    p.add_argument("--n-grid", type=_int_list, default=None)

    p = sub.add_parser("circuit", help="impairment triple and power tables from circuit specs")
    _add_common(p, "out")
    p.add_argument("--adc-bits", type=float, default=6.0)
    p.add_argument("--lna-nf-db", type=float, default=2.0)
    p.add_argument("--carrier-hz", type=float, default=2e9)
    p.add_argument("--symbol-time-s", type=float, default=1e-7)
    p.add_argument("--lo-quality", type=float, default=1e-17)
    p.add_argument("--lo", choices=["clo", "slo"], default="slo")
    p.add_argument("--z1", type=float, default=0.5)
    p.add_argument("--z2", type=float, default=0.5)
    p.add_argument("--z3", type=float, default=1.0)
    p.add_argument("--n-grid", type=_int_list, default=[2**e for e in range(0, 13, 2)])
    p.add_argument("--name", default="circuit")
    p.set_defaults(fn=_cmd_circuit)

    p = sub.add_parser("preset", help="run a built-in experiment (fig7..fig10) or a YAML config")
    _add_common(p, "out", "threads")
    p.add_argument("which", help="fig7 | fig8 | fig9 | fig10 | path to YAML run config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--drops", type=int, default=None)
    p.add_argument("--n-grid", type=_int_list, default=None)
    p.add_argument("--t-grid", type=_int_list, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(fn=_cmd_preset)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _fill_env_defaults(args)
        _check_args(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
