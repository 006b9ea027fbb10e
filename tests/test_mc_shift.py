import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import mc_shift  # noqa: E402

_RATES = ("ue,t,norm2,norm2_se,first_re,first_im,first_se,interference,interference_se,"
          "distortion,distortion_se,noise,sinr,rate")


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_identical_files_move_no_cell(tmp_path, capsys):
    rows = [_RATES, "0,9,1.0,0.1,2.0,0.0,0.2,3.0,1e-20,0.5,0.05,1.0,4.0,1.5"]
    a = _write(tmp_path, "a.csv", rows)
    assert mc_shift.main([a, a]) == 0
    assert capsys.readouterr().out.strip() == (
        "0 of 14 cells moved, 0 beyond the 12-digit rule; largest relative change -, "
        "largest shift - combined SE")


def test_rates_mc_cells_shift_in_combined_se(tmp_path, capsys):
    before = [_RATES,
              "0,9,1.0,0.3,2.0,0.0,0.2,3.0,1e-20,0.5,0.05,1.0,4.0,1.5",
              "0,173,1.0,0.3,2.0,0.0,0.2,3.0,1e-20,0.5,0.05,1.0,inf,1.5"]
    after = [_RATES,
             "0,9,1.5,0.4,2.0,0.01,0.2,3.0,2e-20,0.5,0.05,1.0,4.0,1.5",
             "0,173,1.0,0.3,2.0,0.0,0.2,3.3,1e-20,0.5,0.05,1.0,inf,1.5"]
    moved = mc_shift.shifts(mc_shift._read(_write(tmp_path, "a.csv", before)),
                            mc_shift._read(_write(tmp_path, "b.csv", after)))
    by_cell = {(s.key, s.column): s for s in moved}
    # the SE columns move too, and are listed like any other cell
    assert sorted(by_cell) == [("ue=0 t=173", "interference"), ("ue=0 t=9", "first_im"),
                               ("ue=0 t=9", "interference_se"), ("ue=0 t=9", "norm2"),
                               ("ue=0 t=9", "norm2_se")]
    norm2 = by_cell["ue=0 t=9", "norm2"]
    assert norm2.rel == pytest.approx(0.5 / 1.5)
    assert norm2.nse == pytest.approx(0.5 / 0.5)  # hypot(0.3, 0.4) = 0.5
    assert by_cell["ue=0 t=9", "first_im"].nse == pytest.approx(0.01 / math.hypot(0.2, 0.2))
    # interference_se is not the spread of interference, so no shift is given
    assert by_cell["ue=0 t=173", "interference"].nse is None
    assert by_cell["ue=0 t=173", "interference"].rel == pytest.approx(0.3 / 3.3)
    assert not any(s.within_rule for s in moved)
    assert mc_shift.main([str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "ue=0 t=9 norm2: 1.0 -> 1.5 rel 0.333 shift +1.00 SE (beyond 12 digits)" in out
    assert out[-1] == ("5 of 28 cells moved, 5 beyond the 12-digit rule; largest relative "
                       "change 1, largest shift 1.00 combined SE")  # first_im from 0


def test_estimate_cells_have_no_se(tmp_path):
    before = ["t,mse_closed_form,mse_monte_carlo", "9,2.0,2.1", "173,3.0,3.5"]
    after = ["t,mse_closed_form,mse_monte_carlo", "9,2.0,2.1", "173,3.0,3.15"]
    moved = mc_shift.shifts(mc_shift._read(_write(tmp_path, "a.csv", before)),
                            mc_shift._read(_write(tmp_path, "b.csv", after)))
    assert [(s.key, s.column, s.nse) for s in moved] == [("t=173", "mse_monte_carlo", None)]
    assert moved[0].rel == pytest.approx(0.35 / 3.5)


def test_long_format_value_shifts_in_its_stderr(tmp_path):
    head = "experiment,N,T,drop,ue,metric,value,stderr"
    before = [head, "mc,64,500,1,0,rate,2.0,0.1"]
    after = [head, "mc,64,500,1,0,rate,2.2,0.1"]
    moved = mc_shift.shifts(mc_shift._read(_write(tmp_path, "a.csv", before)),
                            mc_shift._read(_write(tmp_path, "b.csv", after)))
    assert [s.key for s in moved] == ["experiment=mc N=64 T=500 drop=1 ue=0 metric=rate"]
    assert moved[0].nse == pytest.approx(0.2 / math.hypot(0.1, 0.1))


def test_last_digit_moves_are_within_the_12_digit_rule(tmp_path):
    assert mc_shift.within_12_digits(1.35305000854e-09, 1.35305000855e-09)
    assert mc_shift.within_12_digits(4.7576467785e-13, 4.7576467785e-13)
    assert not mc_shift.within_12_digits(1.3530500085e-09, 1.3530500095e-09)
    assert not mc_shift.within_12_digits(1.0, math.inf)
    before = [_RATES, "0,9,1.0,0.1,2.0,0.0,0.2,3.0,1e-20,0.5,0.05,1.0,4.00000000001,1.5"]
    after = [_RATES, "0,9,1.0,0.1,2.0,0.0,0.2,3.0,1e-20,0.5,0.05,1.0,4.00000000002,1.5"]
    a, b = _write(tmp_path, "a.csv", before), _write(tmp_path, "b.csv", after)
    assert [s.within_rule for s in mc_shift.shifts(mc_shift._read(a), mc_shift._read(b))] == [True]
    assert mc_shift.main([a, b]) == 0


@pytest.mark.parametrize("after", [
    ["t,mse_closed_form,mse_monte_carlo", "9,2.0,2.1"],  # a row fewer
    ["t,mse_monte_carlo,mse_closed_form", "9,2.1,2.0", "173,3.5,3.0"],  # other columns
    ["t,mse_closed_form,mse_monte_carlo", "9,2.0,2.1", "337,3.0,3.5"],  # other keys
])
def test_files_that_do_not_match_exit_2(tmp_path, capsys, after):
    a = _write(tmp_path, "a.csv", ["t,mse_closed_form,mse_monte_carlo", "9,2.0,2.1",
                                   "173,3.0,3.5"])
    assert mc_shift.main([a, _write(tmp_path, "b.csv", after)]) == 2
    assert "cannot compare" in capsys.readouterr().err
    assert mc_shift.main([a]) == 2
