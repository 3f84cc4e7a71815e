"""The scripts under scripts/ run at small arguments and print what their
docstrings promise.

Each script is loaded from its file and its main(argv) called in-process,
so a run costs no interpreter start.
"""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(out: str, n_cols: int) -> list[list[str]]:
    """The whitespace-separated rows of a printed table whose first cell is
    a number."""
    rows = []
    for line in out.splitlines():
        cells = line.split()
        if len(cells) == n_cols:
            try:
                float(cells[0])
            except ValueError:
                continue
            rows.append(cells)
    return rows


def test_rwa_validation_marks_gt_past_the_guard(capsys):
    assert load_script("rwa_validation").main(["--gt", "0.05", "0.5"]) == 0
    rows = table_rows(capsys.readouterr().out, 8)
    assert [float(r[0]) for r in rows] == [0.05, 0.5]
    for gt, law, pert, exact, *_ in rows:
        # the exact scheme is the rotating-wave law sin^2(gt / 2)
        assert exact == law
        assert float(law) == pytest.approx(math.sin(float(gt) / 2.0) ** 2,
                                           rel=1e-6)
    # inside the guard the first-order state sits within (gt/2)^2 of the law;
    # past it the perturbative column is empty, not evaluated
    assert float(rows[0][2]) == pytest.approx(float(rows[0][1]), rel=1e-3)
    assert rows[1][2] == "-"


def test_window_convergence_small_windows(capsys):
    load_script("window_convergence").main(["--windows", "0", "1"])
    rows = table_rows(capsys.readouterr().out, 5)
    assert [(int(r[0]), int(r[1])) for r in rows] == [(0, 6), (1, 24)]
    p0, p1 = (float(r[2]) for r in rows)
    assert 0.0 < p0 < 1.0
    assert abs(p1 - p0) < 1e-6


def test_fig2_profiles_writes_both_runs(tmp_path, capsys):
    assert load_script("fig2_profiles").main(["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("series  vs closed") == 2
    assert out.count("modesum quadrature") == 2
    for name in ("profile_v0.5_t0.25.csv", "profile_v2.5_t0.1.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "phi_closed", "phi_series", "phi_modesum",
                           "phi_comoving", "phi_ripple_right", "phi_ripple_left"]
        assert len(rows) == 802
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
