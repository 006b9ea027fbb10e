"""List the cells that moved between two Monte Carlo CSVs.

    python tools/mc_shift.py BEFORE.csv AFTER.csv

Takes two CSVs of the same command (``rates-mc``, ``estimate`` or a run
configuration's long-format results) and prints one line per moved cell:
its row key, column, both values, the relative change and, where the
column has a standard error, the shift in combined SEs.  The combined SE
of a cell is the root sum of squares of its SE on both sides: ``norm2_se``
for ``norm2``, ``first_se`` for ``first_re`` and ``first_im``,
``distortion_se`` for ``distortion`` and ``stderr`` for ``value``.
``interference_se`` is left out: it sums the per-link SEs without the
power weights, so it does not measure the spread of ``interference``.

A last line sums up: moved cells of all, the largest relative change and
the largest shift.  Rows are matched by their key columns (those of
``KEY_COLUMNS`` the file has).  A cell is within the 12-digit rule when
it moved by at most 1e-12 relative plus one unit in its 12th significant
digit.  Exit status: 0 when every cell is within the rule, 1 when some
cell moved beyond it, 2 when the files cannot be compared (other columns
or other row keys).
"""

import csv
import math
import sys
from dataclasses import dataclass

KEY_COLUMNS = ("experiment", "N", "T", "drop", "ue", "t", "metric")
SE_OF = {"norm2": "norm2_se", "first_re": "first_se", "first_im": "first_se",
         "distortion": "distortion_se", "value": "stderr"}


@dataclass(frozen=True)
class Shift:
    """One moved cell; ``rel`` and ``nse`` are None where they are undefined."""

    key: str  # the row's key columns, "ue=0 t=9"
    column: str
    before: str
    after: str
    rel: float | None
    nse: float | None
    within_rule: bool


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def within_12_digits(a: float, b: float) -> bool:
    """|a - b| at most 1e-12 relative plus one unit in the 12th significant digit."""
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    if not math.isfinite(scale):
        return False
    return abs(a - b) <= 1e-12 * scale + 10.0 ** (math.floor(math.log10(scale)) - 11)


def _se(row: dict, column: str) -> float | None:
    se = _number(row.get(SE_OF.get(column, ""), ""))
    return se if se is not None and math.isfinite(se) else None


def shifts(before: list, after: list) -> list:
    """The moved cells of two lists of CSV rows (dicts of strings) with the
    same columns and row keys; raises ValueError when they differ."""
    if len(before) != len(after):
        raise ValueError(f"{len(before)} rows against {len(after)}")
    if before and list(before[0]) != list(after[0]):
        raise ValueError("the files have other columns")
    keys = [c for c in KEY_COLUMNS if before and c in before[0]]
    out = []
    for a, b in zip(before, after):
        key = " ".join(f"{c}={a[c]}" for c in keys)
        other = " ".join(f"{c}={b[c]}" for c in keys)
        if key != other:
            raise ValueError(f"row {key} against {other}")
        for column in a:
            x, y = _number(a[column]), _number(b[column])
            if a[column] == b[column] or (x is not None and x == y):
                continue
            if x is None or y is None:
                out.append(Shift(key, column, a[column], b[column], None, None, False))
                continue
            scale = max(abs(x), abs(y))
            rel = abs(y - x) / scale if math.isfinite(scale) else math.inf
            se_a, se_b = _se(a, column), _se(b, column)
            nse = None
            if se_a is not None and se_b is not None and math.hypot(se_a, se_b) > 0:
                nse = (y - x) / math.hypot(se_a, se_b)
            out.append(Shift(key, column, a[column], b[column], rel, nse,
                             within_12_digits(x, y)))
    return out


def _read(path: str) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _fmt(value: float | None, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def report(moved: list, cells: int) -> list:
    """Lines of the per-cell listing and its summary."""
    lines = []
    for s in moved:
        lines.append(f"{s.key} {s.column}: {s.before} -> {s.after} rel {_fmt(s.rel, '.3g')} "
                     f"shift {_fmt(s.nse, '+.2f')} SE{'' if s.within_rule else ' (beyond 12 digits)'}")
    rels = [s.rel for s in moved if s.rel is not None]
    nses = [abs(s.nse) for s in moved if s.nse is not None]
    beyond = sum(not s.within_rule for s in moved)
    lines.append(f"{len(moved)} of {cells} cells moved, {beyond} beyond the 12-digit rule; "
                 f"largest relative change {_fmt(max(rels, default=None), '.3g')}, "
                 f"largest shift {_fmt(max(nses, default=None), '.2f')} combined SE")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    before, after = _read(argv[0]), _read(argv[1])
    try:
        moved = shifts(before, after)
    except ValueError as err:
        print(f"mc_shift: cannot compare {argv[0]} and {argv[1]}: {err}", file=sys.stderr)
        return 2
    print("\n".join(report(moved, sum(len(row) for row in before))))
    return 1 if any(not s.within_rule for s in moved) else 0


if __name__ == "__main__":
    sys.exit(main())
