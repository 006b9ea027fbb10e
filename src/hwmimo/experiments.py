"""Experiment orchestration behind the CLI: run configurations, the four
built-in presets, deterministic fan-out over drops, and CSV/manifest output.

A run produces one long-format CSV (columns: experiment, N, T, drop, ue,
metric, value, stderr) plus a JSON manifest holding the fully resolved
configuration; re-running the manifest's config with the same seed gives a
byte-identical CSV at any thread count.
"""

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import EstimatorCache, _one_blas_thread, build_cache
from .model import (
    ConfigError,
    HardwareProfile,
    LoMode,
    Scenario,
    conventional_profile,
    require_valid,
    user_input,
)
from .montecarlo import FilterKind, McConfig, _rate_from_means, estimate_moments
from .pilots import PilotBook, PlacementKind, dft_book, place, temporal_book
from .rates import (
    ScalingExponents,
    _asymptote,
    ergodic_rate,
    mrc_moment_coefficients,
    scaled_profile,
    sinr_trajectory_from_coefficients,
)
from .scenario_gen import CENTER_CELL, NUM_CELLS, SHADOW_STD_DB, generate, load_scenario


RESULT_COLUMNS = ("experiment", "N", "T", "drop", "ue", "metric", "value", "stderr")

# reference impairment triple derived from the 6-bit-ADC / 2-dB-LNA /
# free-running-LO circuit example
REFERENCE_KAPPA = 0.0156
REFERENCE_XI_OVER_SIGMA2 = 1.58
REFERENCE_DELTA = 1.58e-4

# a seed or drop index of 2^32 or more would draw another (seed, drop) key's
# stream: SeedSequence splits an int into 32-bit words
SEED_MAX = 2**32 - 1
# 10^9 MMSE trials run for about two weeks; far larger counts cannot even list their chunks
TRIALS_MAX = 10**9


@dataclass(frozen=True)
class HardwareVariant:
    """One named hardware configuration of a run: ideal hardware (no drift,
    no distortion, xi at the thermal floor) or the triple with xi in units of
    sigma2, on the ``lo`` oscillator topology."""

    label: str
    ideal: bool = False
    delta: float = 0.0
    kappa2: float = 0.0
    xi_over_sigma2: float = 1.0
    lo: LoMode = LoMode.CLO
    exponents: tuple[float, ...] | None = None  # (z1, z2, z3) scaling of the triple with N

    def profile(self, sigma2: float, N: int | None = None) -> HardwareProfile:
        if self.ideal:
            return dataclasses.replace(conventional_profile(sigma2), lo_mode=self.lo)
        hw = HardwareProfile(
            delta=self.delta, kappa2=self.kappa2, xi=self.xi_over_sigma2 * sigma2, lo_mode=self.lo
        )
        if self.exponents is None or N is None:
            return hw
        z1, z2, z3 = self.exponents
        return scaled_profile(hw, N, ScalingExponents(z1, z2, z3), sigma2=sigma2)


@dataclass(frozen=True)
class ScenarioSpec:
    """Where scenarios come from: a saved file or the layout generator."""

    file: str | None = None
    deployments: tuple[str, ...] = ("distributed",)
    n_antennas: int = 128
    snr_db: float = 5.0
    T: int = 500
    drops: int = 1
    shadow_std_db: float = SHADOW_STD_DB
    sigma2: float = 1.0


@dataclass(frozen=True)
class PilotSpec:
    books: tuple[str, ...] = ("dft",)
    placements: tuple[str, ...] = ("beginning",)
    length: int | None = None  # default: K


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str = "sweep-n"  # sweep-n | asymptotics | scaling | sweep-t | rates-mc
    n_grid: tuple[int, ...] = ()
    t_grid: tuple[int, ...] = ()
    trials: int = 10_000
    filter_kind: FilterKind = FilterKind.MRC
    include_asymptote: bool = False


@dataclass(frozen=True)
class RunConfig:
    name: str = "run"
    seed: int = 0
    scenario: ScenarioSpec = ScenarioSpec()
    hardware: tuple[HardwareVariant, ...] = ()
    pilots: PilotSpec = PilotSpec()
    experiment: ExperimentSpec = ExperimentSpec()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def validate_config(cfg: RunConfig) -> None:
    _require(bool(cfg.hardware), "at least one hardware variant is required")
    labels = [h.label for h in cfg.hardware]
    _require(len(set(labels)) == len(labels), "hardware variant labels must be unique")
    for h in cfg.hardware:
        _require(h.exponents is None or len(h.exponents) == 3,
                 f"exponents of {h.label!r} must be a (z1, z2, z3) triple")
    exp = cfg.experiment
    _require(exp.kind in _JOBS, f"unknown experiment kind {exp.kind!r}")
    if exp.kind == "rates-mc":  # one Monte Carlo run at the scenario's own N and T
        for key in ("n_grid", "t_grid", "include_asymptote"):
            _require(not getattr(exp, key), f"the rates-mc kind takes no {key}")
        for h in cfg.hardware:
            _require(h.exponents is None,
                     f"the rates-mc kind takes no exponents, but {h.label!r} has them")
    else:  # each closed-form kind sweeps one grid
        swept, other = ("t_grid", "n_grid") if exp.kind == "sweep-t" else ("n_grid", "t_grid")
        grid = getattr(exp, swept)
        _require(bool(grid), f"{swept} must be non-empty")
        _require(list(grid) == sorted(set(grid)), f"{swept} must be sorted and duplicate-free")
        _require(not getattr(exp, other), f"the {exp.kind} kind takes no {other}")
        for h in cfg.hardware:
            _require(not (exp.include_asymptote and h.exponents is not None),
                     f"include_asymptote needs fixed triples, but {h.label!r} has exponents")
    for what, values, known in (
        ("pilot book", cfg.pilots.books, {"temporal", "dft"}),
        ("placement", cfg.pilots.placements, {k.value for k in PlacementKind}),
        ("deployment", cfg.scenario.deployments, {"colocated", "distributed"}),
    ):
        _require(bool(values), f"at least one {what} is required")  # else a CSV without rows
        for v in values:
            _require(v in known, f"unknown {what} {v!r}")
    _require(cfg.seed >= 0, f"seed must be >= 0, got {cfg.seed}")
    _require(cfg.seed <= SEED_MAX, f"seed must be <= {SEED_MAX}, got {cfg.seed}")
    _require(cfg.scenario.drops >= 1, "drops must be >= 1")
    _require(exp.trials >= 1, f"trials must be >= 1, got {exp.trials}")
    _require(exp.trials <= TRIALS_MAX, f"trials must be <= {TRIALS_MAX}, got {exp.trials}")


# -- presets -------------------------------------------------------------------


def preset(name: str) -> RunConfig:
    """Built-in experiment configurations at desk scale.

    fig7: deployment and oscillator comparison, rate vs N at the reference
    impairment triple.  fig8: asymptotic behavior on the distributed layout
    with both pilot books, evaluated up to N = 10^6 plus the exact limits.
    fig9: hardware scaling laws (baselines kappa0 = 0.05, xi0 = 3 sigma^2,
    delta0 = 7e-5, 15 dB SNR) for exponent sets on and off the admissible
    region.  fig10: rate vs coherence-block length for pilots at the
    beginning vs the middle of the block.
    """
    ref = dict(
        delta=REFERENCE_DELTA,
        kappa2=REFERENCE_KAPPA**2,
        xi_over_sigma2=REFERENCE_XI_OVER_SIGMA2,
    )
    if name == "fig7":
        return RunConfig(
            name="fig7",
            seed=1,
            scenario=ScenarioSpec(deployments=("colocated", "distributed"),
                                  n_antennas=512, snr_db=5.0, T=500, drops=100),
            hardware=(
                HardwareVariant("ideal", ideal=True),
                HardwareVariant("impaired-clo", lo=LoMode.CLO, **ref),
                HardwareVariant("impaired-slo", lo=LoMode.SLO, **ref),
            ),
            pilots=PilotSpec(books=("dft",), placements=("beginning",), length=8),
            experiment=ExperimentSpec(kind="sweep-n", n_grid=(16, 32, 64, 128, 256, 400, 512)),
        )
    if name == "fig8":
        return RunConfig(
            name="fig8",
            seed=2,
            scenario=ScenarioSpec(deployments=("distributed",),
                                  n_antennas=2**20, snr_db=5.0, T=500, drops=50),
            hardware=(
                HardwareVariant("ideal", ideal=True),
                HardwareVariant("impaired-clo", lo=LoMode.CLO, **ref),
                HardwareVariant("impaired-slo", lo=LoMode.SLO, **ref),
            ),
            pilots=PilotSpec(books=("dft", "temporal"), placements=("beginning",), length=8),
            experiment=ExperimentSpec(
                kind="asymptotics",
                n_grid=tuple(4**e for e in range(2, 10)) + (10**6,),
                include_asymptote=True,
            ),
        )
    if name == "fig9":
        base = dict(delta=7e-5, kappa2=0.05**2, xi_over_sigma2=3.0)
        return RunConfig(
            name="fig9",
            seed=3,
            scenario=ScenarioSpec(deployments=("distributed",),
                                  n_antennas=2**20, snr_db=15.0, T=500, drops=10),
            hardware=(
                HardwareVariant("ideal", ideal=True),
                HardwareVariant("fixed-clo", lo=LoMode.CLO, **base),
                HardwareVariant("fixed-slo", lo=LoMode.SLO, **base),
                HardwareVariant("law-clo", lo=LoMode.CLO, exponents=(0.5, 0.5, 0.0), **base),
                HardwareVariant("law-slo", lo=LoMode.SLO, exponents=(0.45, 0.45, 1.0), **base),
                HardwareVariant("violating-clo", lo=LoMode.CLO, exponents=(1.0, 1.0, 0.0), **base),
                HardwareVariant("violating-slo", lo=LoMode.SLO, exponents=(0.6, 0.0, 0.0), **base),
            ),
            pilots=PilotSpec(books=("dft",), placements=("beginning",), length=8),
            experiment=ExperimentSpec(kind="scaling", n_grid=tuple(4**e for e in range(2, 11))),
        )
    if name == "fig10":
        return RunConfig(
            name="fig10",
            seed=4,
            scenario=ScenarioSpec(deployments=("distributed",),
                                  n_antennas=240, snr_db=5.0, T=2000, drops=10),
            hardware=(
                HardwareVariant("ideal", ideal=True),
                HardwareVariant("impaired-clo", lo=LoMode.CLO, **ref),
                HardwareVariant("impaired-slo", lo=LoMode.SLO, **ref),
            ),
            pilots=PilotSpec(books=("dft",), placements=("beginning", "middle"), length=8),
            experiment=ExperimentSpec(
                kind="sweep-t",
                t_grid=(50, 100, 150, 200, 300, 400, 500, 750, 1000, 1250, 1500, 1750, 2000),
            ),
        )
    raise ConfigError(f"unknown preset {name!r}; expected fig7, fig8, fig9 or fig10")


# -- scenario and pilot material ------------------------------------------------


def _pilot_book(scenario: Scenario, kind: str, placement: str, length: int | None) -> PilotBook:
    B = length if length is not None else scenario.K
    with user_input():  # a pilot length the block or the book cannot take
        pl = place(PlacementKind(placement), scenario.T, B)
        if kind == "temporal":
            return temporal_book(scenario.powers, pl)
        return dft_book(scenario.powers, pl)


def _serving_cell(scenario: Scenario) -> int:
    """Cell whose UEs are reported: the center of the generated 5 x 5 grid,
    cell 0 of any other network."""
    return CENTER_CELL if scenario.L == NUM_CELLS else 0


def _multiplicities(scenario: Scenario, n_grid) -> list:
    """Antennas per stored covariance entry for each array size of an N grid."""
    A = scenario.reduced_dim
    for n in n_grid:
        if n % A or n < A:
            raise ConfigError(
                f"N={n} is not a positive multiple of the per-link covariance length {A}"
            )
    return [n // A for n in n_grid]


def _drop_scenario(spec: ScenarioSpec, deployment: str, seed: int, drop_index: int) -> Scenario:
    """Validated scenario of one (deployment, drop): ``spec``'s file, or the
    generator's drop ``drop_index`` of ``seed``."""
    with user_input():
        scen = load_scenario(spec.file) if spec.file else generate(
            deployment, N=spec.n_antennas, snr_db=spec.snr_db, T=spec.T, seed=seed,
            drop_index=drop_index, sigma2=spec.sigma2, shadow_std_db=spec.shadow_std_db,
        )
    require_valid(scen)
    return scen


def _profile(hv: HardwareVariant, scenario: Scenario, N: int | None = None) -> HardwareProfile:
    """Validated impairment triple of a hardware variant on ``scenario``."""
    with user_input():
        hw = hv.profile(scenario.sigma2, N=N)
    require_valid(scenario, hw)
    return hw


# -- closed-form rates -----------------------------------------------------------


def _grid_caches(hv: HardwareVariant, scenario: Scenario, book: PilotBook, n_grid) -> list:
    """Estimator caches serving ``hv`` over the array sizes of ``n_grid``, as
    ``(cache, sizes)`` pairs in grid order: one cache for the whole grid when
    the triple is fixed, one per N when scaling exponents grow it with N."""
    if hv.exponents is None:
        return [(build_cache(scenario, _profile(hv, scenario), book), tuple(n_grid))]
    return [(build_cache(scenario, _profile(hv, scenario, N=n), book), (n,)) for n in n_grid]


def _trajectories(cache: EstimatorCache, cell: int, los, ns, asymptote: bool = False):
    """Closed-form SINR trajectories over every data channel use, from one
    coefficient pass over the UEs of ``cell`` and one SINR assembly per
    oscillator topology and array size.  Yields ``(k, lo, i, trajectory,
    rate)`` per UE k, for each oscillator topology in ``los`` and each
    array size ``ns[i]``; with ``asymptote``, entry ``len(ns)`` is the
    large-array limit.  The rate is :func:`rates.ergodic_rate` over the
    data uses."""
    scen = cache.scenario
    mults = _multiplicities(scen, ns)
    ts = np.asarray(cache.book.data_times(), dtype=float)
    co = mrc_moment_coefficients(cache, cell, np.arange(scen.K), ts)
    trajs = {}
    for lo in los:
        trajs[lo] = [
            sinr_trajectory_from_coefficients(co, scen, cache.hw, int(m), lo) for m in mults
        ]
        if asymptote:
            trajs[lo].append(_asymptote(co, scen, lo))
    for k in range(scen.K):
        for lo in los:
            for i, traj in enumerate(trajs[lo]):
                one = traj.ue(k)
                yield k, lo, i, one, ergodic_rate(one.sinr, scen.T, cache.B)


def _variant_rates(
    cfg: RunConfig, scenario: Scenario, book: PilotBook, cell: int, n_grid,
    asymptote: bool = False,
) -> dict:
    """Closed-form per-UE rates of every hardware variant, {label: array of
    shape (len(n_grid) + asymptote, K)}: one row per array size, plus the
    large-array limit of a fixed triple with ``asymptote``.  Variants
    sharing a triple (and its exponents) share the estimator caches and the
    coefficient passes, whose tensors carry both oscillator branches."""
    groups: dict = {}
    for hv in cfg.hardware:
        key = (hv.ideal, hv.delta, hv.kappa2, hv.xi_over_sigma2, hv.exponents)
        groups.setdefault(key, []).append(hv)
    out = {}
    for variants in groups.values():
        los = {hv.lo for hv in variants}
        rates = {lo: np.empty((len(n_grid) + asymptote, scenario.K)) for lo in los}
        row = 0
        for cache, ns in _grid_caches(variants[0], scenario, book, n_grid):
            for k, lo, i, _traj, rate in _trajectories(cache, cell, los, ns, asymptote):
                rates[lo][row + i, k] = rate
            row += len(ns)
        for hv in variants:
            out[hv.label] = rates[hv.lo]
    return out


# -- experiment kinds -----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".12g")
    return str(x)


def _books(cfg: RunConfig, deployment: str, scenario: Scenario):
    """Pilot book of every (book kind, placement) of the run, with the run
    label of each hardware variant on it, {variant label: run label}."""
    for kind in cfg.pilots.books:
        for placement in cfg.pilots.placements:
            labels = {
                hv.label: f"{cfg.name}:{deployment}:{hv.label}:{kind}:{placement}"
                for hv in cfg.hardware
            }
            yield labels, _pilot_book(scenario, kind, placement, cfg.pilots.length)


def _rate_rows(label: str, ns, T: int, drop: int, metric: str, rates: np.ndarray) -> list:
    """One row per (array size in ``ns``, UE) of a (len(ns), K) rate array."""
    return [
        (label, n, T, drop, k, metric, rates[i, k], "")
        for i, n in enumerate(ns)
        for k in range(rates.shape[1])
    ]


def _job_sweep_n(cfg: RunConfig, deployment: str, drop: int) -> list:
    """Rate rows of every closed-form kind: per block length of the T grid
    (default: the scenario's T), pilot book and array size of the N grid
    (default: the scenario's N), followed by the large-array limit rows
    (N = 0) with ``include_asymptote``."""
    exp = cfg.experiment
    base = _drop_scenario(cfg.scenario, deployment, cfg.seed, drop)
    rows, limits = [], []
    for T in exp.t_grid or (base.T,):
        scen = dataclasses.replace(base, T=int(T))
        n_grid = exp.n_grid or (scen.N,)
        for labels, book in _books(cfg, deployment, scen):
            rates = _variant_rates(cfg, scen, book, _serving_cell(scen), n_grid,
                                   exp.include_asymptote)
            for hv, label in labels.items():
                rows += _rate_rows(label, n_grid, scen.T, drop, "rate", rates[hv])
                if exp.include_asymptote:
                    limits += _rate_rows(label, [0], scen.T, drop, "rate_asymptotic",
                                         rates[hv][-1:])
    return rows + limits


def _job_rates_mc(cfg: RunConfig, deployment: str, drop: int) -> list:
    scen = _drop_scenario(cfg.scenario, deployment, cfg.seed, drop)
    cell = _serving_cell(scen)
    mc = McConfig(trials=cfg.experiment.trials, seed=(cfg.seed, drop))
    ues = np.arange(scen.K)
    rows = []
    for labels, book in _books(cfg, deployment, scen):
        for hv in cfg.hardware:
            cache = build_cache(scen, _profile(hv, scen), book)
            m = estimate_moments(cache, cfg.experiment.filter_kind, cell, ues, book.data_times(), mc)
            rates, _ = _rate_from_means(cache, cell, ues, m)
            rows += [(labels[hv.label], scen.N, scen.T, drop, k, "rate_mc", float(rates[k]), "")
                     for k in ues.tolist()]
    return rows


_JOBS = {
    "sweep-n": _job_sweep_n,
    "asymptotics": _job_sweep_n,
    "scaling": _job_sweep_n,
    "sweep-t": _job_sweep_n,
    "rates-mc": _job_rates_mc,
}


def _mark_t_maxima(rows) -> list:
    """Summary rows marking the preferable block length per curve: the T
    whose drop-and-UE-averaged rate is largest."""
    acc: dict = {}
    for (label, n, T, _drop, _ue, metric, value, _se) in rows:
        if metric != "rate":
            continue
        acc.setdefault((label, n), {}).setdefault(T, []).append(value)
    marks = []
    for (label, n), per_t in acc.items():
        curve = {T: float(np.mean(v)) for T, v in per_t.items()}
        best = max(sorted(curve), key=lambda T: curve[T])
        marks.append((label, n, best, -1, -1, "rate_max_at_T", curve[best], ""))
    return marks


@dataclass(frozen=True, eq=False)
class RunResult:
    csv_path: Path
    rows: list


def _fan_out(fn, jobs: list, threads: int):
    """``fn(job)`` for each of ``jobs``, yielded in job order as they
    finish, on a thread pool when ``threads > 1`` and there is more than
    one job."""
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            yield from pool.map(fn, jobs)
    else:
        yield from map(fn, jobs)


def run(cfg: RunConfig, out, threads: int = 1) -> RunResult:
    """Execute a run configuration: fan out independent (deployment, drop)
    jobs on ``threads`` workers, assemble rows in deterministic order and
    write CSV + manifest into ``out``; the manifest records neither.  The
    jobs run BLAS at one thread, serially and on the pool alike, so no idle
    BLAS worker spins beside them and no pool worker shares the cores with
    BLAS threads."""
    validate_config(cfg)
    job = _JOBS[cfg.experiment.kind]
    tasks = [(dep, drop) for dep in cfg.scenario.deployments for drop in range(cfg.scenario.drops)]

    with _one_blas_thread():  # rows collected in here, so no job outlives the pin
        rows = [r for chunk in _fan_out(lambda task: job(cfg, *task), tasks, threads)
                for r in chunk]
    if cfg.experiment.t_grid:
        rows.extend(_mark_t_maxima(rows))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.name}.csv"
    write_rows(csv_path, RESULT_COLUMNS, rows)
    manifest_path = out_dir / f"{cfg.name}_manifest.json"
    manifest = {
        "name": cfg.name,
        "seed": cfg.seed,
        "version": __version__,
        "config": config_to_dict(cfg),
        "outputs": [csv_path.name],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunResult(csv_path=csv_path, rows=rows)


def write_rows(path: Path, columns, rows) -> None:
    """Plain deterministic CSV: '.' decimals, no locale, 'inf' for infinities."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


# LoMode and FilterKind are str enums, so JSON writes their values
config_to_dict = dataclasses.asdict


def _field_value(tp, value, name: str):
    """``value`` as an instance of the type ``tp`` of the field ``name``."""
    args = getattr(tp, "__args__", ())
    if type(None) in args:  # an optional field: X | None
        if value is None:
            return None
        tp = args[0]
    if dataclasses.is_dataclass(tp):
        return _from_fields(tp, value, name)
    if getattr(tp, "__origin__", None) is tuple:  # tuple[X, ...]
        _require(not isinstance(value, str), f"{name} must be a list, got the string {value!r}")
        return tuple(_field_value(tp.__args__[0], v, name) for v in value)
    return tp(value)


def _from_fields(cls, data, where: str):
    """``cls`` from a mapping of its field names; absent fields keep their
    defaults, unknown names are an error."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    for key in data:
        _require(key in fields, f"unknown {where} key {key!r}")
    return cls(**{k: _field_value(fields[k], v, k) for k, v in data.items()})


def config_from_dict(data: dict) -> RunConfig:
    """Inverse of :func:`config_to_dict`; every key must name a field."""
    try:
        cfg = _from_fields(RunConfig, data, "top-level")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc
    validate_config(cfg)
    return cfg
