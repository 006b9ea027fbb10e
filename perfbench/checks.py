"""Correctness checks on the CSV each workload writes.

Every check returns ``(attempted, failed)`` in CSV rows; their ratio is the
run's fail ratio.  A missing or unexpected row counts as failed.

- ``reference`` (closed-form presets): every ``rate`` and ``rate_max_at_T``
  row equals the value recorded in references.json to 1e-12 relative plus
  one unit in the 12th significant digit, the precision the CSV keeps.
- ``mc-reference`` (Monte Carlo MMSE): each row's moments match the recorded
  row within 4 combined standard errors taken from both rows' ``*_se``
  columns, so a different random stream passes and a different filter fails.

The Monte Carlo check also recomputes ``noise``, ``sinr`` and ``rate`` from
the row's own moments.
"""

import csv
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCES = os.path.join(HERE, "references.json")

CF_METRICS = ("rate", "rate_max_at_T")
MC_MOMENTS = ("norm2", "first_re", "interference", "distortion")


def read_rows(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


# -- closed-form presets ------------------------------------------------------


def cf_key(row):
    return ",".join(row[c] for c in ("experiment", "N", "T", "drop", "ue", "metric"))


def cf_reference_rows(rows):
    """The rows a closed-form reference records, as [key, value] pairs."""
    return [[cf_key(r), float(r["value"])] for r in rows if r["metric"] in CF_METRICS]


def digits_close(value, ref):
    """|value - ref| within 1e-12 relative plus one unit in the 12th
    significant digit of ref (the CSV prints 12 significant digits)."""
    if value == ref:
        return True
    if not (math.isfinite(value) and math.isfinite(ref)):
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 11) if ref else 0.0
    return abs(value - ref) <= 1e-12 * abs(ref) + unit


def check_reference(rows, ref_rows):
    got = {cf_key(r): float(r["value"]) for r in rows if r["metric"] in CF_METRICS}
    expected = dict(ref_rows)
    failed = sum(1 for k, v in expected.items() if k not in got or not digits_close(got[k], v))
    failed += sum(1 for k in got if k not in expected)
    return len(expected), min(failed, len(expected))


# -- Monte Carlo rates ----------------------------------------------------------


def option_value(args, flag):
    return args[list(args).index(flag) + 1]


class McContext:
    """The scenario behind a ``rates-mc`` workload, rebuilt through the
    library outside the timed call: powers, serving cell and data times."""

    def __init__(self, args, seed):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from hwmimo.model import HardwareProfile, LoMode
        from hwmimo.pilots import PlacementKind, dft_book, place
        from hwmimo.scenario_gen import CENTER_CELL, generate

        scen = generate(option_value(args, "--deployment"), N=int(option_value(args, "-N")),
                        snr_db=5.0, T=int(option_value(args, "-T")), seed=seed)
        hw = HardwareProfile(
            delta=float(option_value(args, "--delta")),
            kappa2=float(option_value(args, "--kappa2")),
            xi=float(option_value(args, "--xi-over-sigma2")) * scen.sigma2,
            lo_mode=LoMode(option_value(args, "--lo")),
        )
        book = dft_book(scen.powers, place(PlacementKind.BEGINNING, scen.T, scen.K))
        self.j = CENTER_CELL if scen.L == 25 else 0
        self.k = int(option_value(args, "--ue"))
        self.p = scen.powers
        self.xi = hw.xi
        data = book.data_times()
        self.share = len(data) / scen.T
        self.ts = [int(t) for t in data[:: int(option_value(args, "--t-stride"))]]

    def se(self, row, name):
        if name == "interference":
            # the column sums the per-link SEs unweighted; max(p) times it
            # bounds the SE of the power-weighted sum
            return float(self.p.max()) * float(row.get("interference_se", 0.0))
        if name in ("first_re", "first_im"):
            return float(row.get("first_se", 0.0))
        return float(row.get(f"{name}_se", 0.0))


def mc_reference_rows(rows):
    return [{k: float(v) for k, v in r.items()} for r in rows]


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _consistent(row, ctx):
    """noise and sinr recomputed from the row's own moments."""
    f = {k: float(v) for k, v in row.items()}
    signal = ctx.p[ctx.j, ctx.k] * (f["first_re"] ** 2 + f["first_im"] ** 2)
    den = f["interference"] - signal + f["distortion"] + f["noise"]
    sinr = signal / den if den > 0 else math.inf
    return (_rel_close(f["noise"], ctx.xi * f["norm2"], 1e-9)
            and (sinr == f["sinr"] or _rel_close(sinr, f["sinr"], 1e-6)))


def check_mc(rows, ctx, expected, z):
    """Rows against ``expected[t]`` moments: each within z * SE, where SE
    combines the row's and the expected row's standard errors."""
    by_t = {int(float(r["t"])): r for r in rows}
    failed = sum(1 for t in ctx.ts if t not in by_t) + sum(1 for t in by_t if t not in ctx.ts)
    sinrs = []
    for t in ctx.ts:
        row = by_t.get(t)
        if row is None:
            continue
        exp = expected[t]
        ok = int(float(row["ue"])) == ctx.k and _consistent(row, ctx)
        for name in MC_MOMENTS + ("first_im",):
            se = math.hypot(ctx.se(row, name), ctx.se(exp, name))
            ok &= abs(float(row[name]) - exp[name]) <= z * se
        sinrs.append(float(row["sinr"]))
        failed += not ok
    if sinrs and len(sinrs) == len(by_t):
        rate = ctx.share * sum(math.log2(1.0 + s) for s in sinrs) / len(sinrs)
        if not all(_rel_close(rate, float(by_t[t]["rate"]), 1e-9) for t in by_t):
            failed = len(ctx.ts)
    return len(ctx.ts), min(failed, len(ctx.ts))


# -- dispatch ---------------------------------------------------------------------


class Checker:
    """Expected outputs of one workload at one program seed, prepared before
    any timed call."""

    def __init__(self, workload, seed):
        self.kind = workload.check
        refs = load_references()
        if self.kind == "reference":
            self.expected = refs[workload.name][str(seed)]
        else:
            self.ctx = McContext(workload.args, seed)
            self.expected = {int(r["t"]): r for r in refs[workload.name][str(seed)]}

    def __call__(self, rows):
        if self.kind == "reference":
            return check_reference(rows, self.expected)
        return check_mc(rows, self.ctx, self.expected, z=4.0)
