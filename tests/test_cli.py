"""Command-line interface: exit codes, file outputs, manifests, determinism.

Most tests drive ginzburg.cli.run() in process; two subprocess checks cover
the module entry point and the thread-cap environment hook.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ginzburg
import ginzburg.cli
from ginzburg.cli import run
from ginzburg.io_utils import write_csv, write_json
from ginzburg.params import load_params
from ginzburg.superpose import (branch_spec_from_resonance, density_matrix,
                                discriminate, evolve_superposed,
                                mixed_density_matrix, reduce_chain,
                                reduce_detector)

from reference_values import G_ALPHA_10, OMEGA_10

PAPER_N501 = {"units": {"preset": "paper"}, "chain": {"N": 501},
              "detector": {"w": 0.02}}


def write_config(tmp_path, name="params.json", **overrides):
    cfg = {"units": {"preset": "paper"}, "chain": {"N": 2001},
           "detector": {"w": 0.01}}
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- exit codes ----------------------------------------------------------------

def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["modes", "--nope"]) == 2
    assert run(["not-a-subcommand"]) == 2
    assert run([]) == 2
    # validation failures inside a handler use the same code
    assert run(["meanfield", "--route", "closed", "--v", "0.5", "--t", "0.1",
                "--grid", "1", "--csv", str(tmp_path / "x.csv")]) == 2
    assert run(["oracle-compare", "--v", "0.5", "--t", "0.1", "--stride", "-4",
                "--csv", str(tmp_path / "x.csv")]) == 2
    # a zero detector frequency in the params file is refused
    assert run(["modes", "--params", write_config(tmp_path, detector={"omega_d": 0}),
                "--csv", str(tmp_path / "x.csv")]) == 2
    assert run(["oracle-compare", "--v", "0.5", "--t", "0.01", "--dt", "0",
                "--csv", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    assert run(["oracle-compare", "--v", "0.5", "--t", "0.01", "--dt", "-1e-5",
                "--csv", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--dt" in err and "-1e-05" in err
    # a zero time or a negative tolerance is named as the option given
    for argv, option in ((["oracle-compare", "--v", "0.5", "--t", "0"], "--t"),
                         (["oracle-compare", "--v", "0.5", "--t", "0.01",
                           "--tol", "-1"], "--tol")):
        assert run([*argv, "--csv", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and f"argument {option}:" in err
    assert not (tmp_path / "x.csv").exists()


def test_no_subcommand_takes_y_max(tmp_path, capsys):
    # the mode cutoff is the model constant modes.Y_MAX and the detector
    # frequencies come from the params file: every subcommand refuses
    # --y-max, --omega-d and --omega-d2 with a one-line usage error naming it
    good = [["modes", "--csv", "{}.csv"],
            ["meanfield", "--route", "modesum", "--v", "0.5", "--t", "0.01",
             "--grid", "11", "--csv", "{}.csv"],
            ["oracle-compare", "--v", "0.5", "--t", "0.01", "--csv", "{}.csv"],
            ["resonance", "--v", "2.0", "--json", "{}.json"],
            ["evolve", "--scheme", "exact", "--v", "2.0", "--gt", "0.1",
             "--csv", "{}.csv"],
            ["reduced-state", "--theta", "0.5", "--v1", "2.0", "--v2", "1.5",
             "--gt", "0.1", "--json", "{}.json"],
            ["regime", "--v", "0.5", "--t-end", "0.25"],
            ["rerun", "{}.manifest.json"]]
    sub = next(a for a in ginzburg.cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in good} == set(sub.choices)
    for argv in good:
        argv = [a.format(tmp_path / argv[0]) for a in argv]
        for removed in (["--y-max", "10"], ["--omega-d", "20"],
                        ["--omega-d2", "35.19"]):
            assert run([*argv, *removed]) == 2, (argv, removed)
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1 and removed[0] in err, (argv, removed)
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert ginzburg.__version__ in capsys.readouterr().out


def test_subsonic_resonance_exits_2(tmp_path, capsys):
    assert run(["resonance", "--v", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


# -- modes ---------------------------------------------------------------------

def test_modes_csv(tmp_path):
    out = tmp_path / "modes.csv"
    assert run(["modes", "--csv", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0].keys()) == ["alpha", "omega", "g_alpha", "f_factor",
                                    "retained"]
    assert len(rows) == 2000
    tenth = rows[9]
    assert int(tenth["alpha"]) == 10
    assert float(tenth["omega"]) == pytest.approx(OMEGA_10, rel=1e-12)
    assert float(tenth["g_alpha"]) == pytest.approx(G_ALPHA_10, rel=1e-12)
    assert tenth["retained"] == "1"
    assert rows[-1]["retained"] == "0"

    manifest = tmp_path / "modes.manifest.json"
    assert manifest.exists()
    data = json.loads(manifest.read_text())
    assert data["subcommand"] == "modes"
    assert data["argv"][0] == "modes"
    assert data["outputs"][0]["path"].endswith("modes.csv")


# -- meanfield -----------------------------------------------------------------

def test_meanfield_csv_components(tmp_path):
    out = tmp_path / "prof.csv"
    assert run(["meanfield", "--route", "closed", "--v", "0.5", "--t", "0.1",
                "--grid", "201", "--csv", str(out)]) == 0
    table = np.genfromtxt(out, delimiter=",", names=True)
    assert table.dtype.names == ("x", "phi_total", "phi_comoving",
                                 "phi_ripple_right", "phi_ripple_left")
    total = (table["phi_comoving"] + table["phi_ripple_right"]
             + table["phi_ripple_left"])
    np.testing.assert_allclose(table["phi_total"], total, atol=1e-6)
    assert np.max(table["phi_total"]) > 0  # subsonic pile-up is positive
    # a negative number in exponent form is a value, not an option flag
    assert run(["meanfield", "--route", "closed", "--v", "-1e-3", "--t", "0.1",
                "--grid", "201", "--csv", str(out)]) == 0


def test_meanfield_route_flag_conflicts(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["meanfield", "--v", "0.5", "--t", "0.1", "--csv", out]
    assert run(base + ["--route", "closed", "--alpha-max", "5"]) == 2
    assert run(base + ["--route", "series", "--include-image"]) == 2
    assert run(base + ["--route", "closed", "--longwave"]) == 2
    assert run(base + ["--route", "series", "--longwave"]) == 2
    assert run(base + ["--route", "series", "--rel-tol", "1e-3"]) == 2
    assert run(base + ["--route", "bogus"]) == 2
    assert not Path(out).exists()


# -- resonance -----------------------------------------------------------------

def test_resonance_single_json(tmp_path):
    out = tmp_path / "res.json"
    assert run(["resonance", "--v", "2.0", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "single"
    assert data["alpha0"] == 10
    assert data["alpha_linear"] == 10
    assert data["omega_star"] == pytest.approx(10.0 * math.pi, rel=1e-12)
    assert abs(data["detuning"]) < 1e-3
    assert data["params"]["chain"]["N"] == 2001


def test_resonance_pair_json(tmp_path):
    out = tmp_path / "pair.json"
    assert run(["resonance", "--v", "2.0", "--v2", "3.0",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "pair"
    assert (data["alpha1"], data["alpha2"]) == (10, 5)
    assert data["selectivity_violated"] is True
    assert data["cross_nearest"]["v2_omega_d1"]["alpha"] == 5


def test_resonance_pair_either_order(tmp_path):
    out = tmp_path / "pair.json"
    assert run(["resonance", "--v", "2.0", "--v2", "1.5",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["alpha1"], data["alpha2"]) == (10, 20)


@pytest.mark.parametrize("argv", [
    ["resonance", "--v", "2.0", "--v2", "2.0"],
    ["reduced-state", "--theta", "0.3", "--v1", "2.0", "--v2", "2.0", "--gt", "0.1"],
])
def test_equal_branch_velocities_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run(argv + ["--json", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "v1 and v2 must differ" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["resonance", "--v", "1e308"],
    ["reduced-state", "--theta", "0.3", "--v1", "1e308", "--v2", "2.0", "--gt", "0.1"],
])
def test_overflowing_detuning_exits_2(tmp_path, capsys, argv):
    # a finite v whose detuning overflows would be written as Infinity,
    # which is not JSON
    out = tmp_path / "out.json"
    assert run(argv + ["--json", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "overflows the detuning" in err
    assert list(tmp_path.iterdir()) == []


def test_resonance_two_frequency_params_without_v2_exits_2(tmp_path, capsys):
    # the params file's second frequency pairs with --v2; the single-mode
    # answer would drop it
    cfg = write_config(tmp_path, detector={"omega_d": [31.4159, 35.19]})
    out = tmp_path / "res.json"
    assert run(["resonance", "--params", cfg, "--v", "2.0",
                "--json", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "--v2" in err and len(err.splitlines()) == 1
    assert not out.exists()
    assert run(["resonance", "--params", cfg, "--v", "2.0", "--v2", "2.6",
                "--json", str(out)]) == 0


# -- evolve ----------------------------------------------------------------------

def test_evolve_exact_and_perturbative(tmp_path):
    out = tmp_path / "ev.csv"
    assert run(["evolve", "--scheme", "exact", "--v", "2.0",
                "--gt", "0.1,0.2", "--csv", str(out)]) == 0
    rows = read_csv(out)
    assert [float(r["gt"]) for r in rows] == [0.1, 0.2]
    for row, gt in zip(rows, (0.1, 0.2)):
        assert float(row["p_excite"]) == pytest.approx(math.sin(gt / 2.0) ** 2,
                                                       rel=1e-10)

    out2 = tmp_path / "ev2.csv"
    assert run(["evolve", "--scheme", "perturbative", "--v", "2.0",
                "--gt", "0.1", "--csv", str(out2)]) == 0
    x = 0.05
    assert float(read_csv(out2)[0]["p_excite"]) == pytest.approx(
        x * x / (1.0 + x * x), rel=1e-10)

    assert run(["evolve", "--scheme", "exact", "--v", "2.0",
                "--gt", "0.1,,nope", "--csv", str(out2)]) == 2


# explicit units with hbar = 2.5: c_s = L = 1 as in the paper preset, so
# v = 2 resonates with mode 10 there too
HBAR_2_5 = {"units": {"hbar": 2.5},
            "chain": {"N": 2001, "m_c": 5e-4, "k_c": 2000.0, "a_c": 5e-4},
            "detector": {"M_d": 4.0, "m_tilde_d": 1.0, "k_d": (10 * math.pi) ** 2,
                         "a_d": 1.0, "omega_d": 10 * math.pi, "w": 0.01},
            "coupling": {"g": 1.0}}


@pytest.mark.parametrize("scheme", ["exact", "perturbative"])
def test_evolve_carries_hbar_through(tmp_path, scheme):
    """At hbar = 2.5 the laws hold in g t / hbar; an evolution that took
    hbar = 1 would follow sin^2(1.25 g t / hbar) instead."""
    pfile = tmp_path / "hbar.json"
    pfile.write_text(json.dumps(HBAR_2_5))
    out = tmp_path / "ev.csv"
    assert run(["evolve", "--scheme", scheme, "--params", str(pfile),
                "--v", "2.0", "--gt", "0.05,0.1,0.2", "--csv", str(out)]) == 0
    rows = read_csv(out)
    assert [float(r["gt"]) for r in rows] == [0.05, 0.1, 0.2]
    for row in rows:
        x = float(row["gt"]) / 2.0
        if scheme == "exact":
            assert abs(float(row["p_excite"]) - math.sin(x) ** 2) <= 1e-12
        else:
            assert float(row["p_excite"]) == pytest.approx(x * x / (1.0 + x * x),
                                                           rel=1e-10)


def test_evolve_full_scheme_with_weak_coupling(tmp_path):
    pfile = write_config(tmp_path, coupling={"g": 0.05 / abs(G_ALPHA_10)})
    out = tmp_path / "full.csv"
    assert run(["evolve", "--scheme", "full", "--params", pfile, "--v", "2.0",
                "--gt", "0.1", "--window", "1", "--csv", str(out)]) == 0
    row = read_csv(out)[0]
    assert float(row["p_excite"]) == pytest.approx(math.sin(0.05) ** 2, rel=1e-2)


# --gt value -> the token its usage error must name
_BAD_GT = {"nan": "nan", "inf": "inf", "-1": "-1", "0.1,-0.2": "-0.2",
           "0.1,abc": "abc", ",": ",", "-1,2": "-1"}


@pytest.mark.parametrize("argv", [
    ["--scheme", "full", "--gt", "nan"],
    ["--scheme", "full", "--gt", "inf"],
    ["--scheme", "exact", "--gt", "nan"],
    ["--scheme", "full", "--gt", "0.1", "--window", "-5"],
    ["--scheme", "perturbative", "--gt", "nan"],
    ["--scheme", "exact", "--gt", "-1"],
    ["--scheme", "exact", "--gt", "0.1,-0.2"],
    ["--scheme", "full", "--gt", "0.1,abc"],
    ["--scheme", "perturbative", "--gt", ","],
    ["--scheme", "exact", "--gt", "-1,2"],
])
def test_evolve_bad_time_or_window_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "bad.csv"
    assert run(["evolve", "--v", "2.0", *argv, "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not out.exists()
    gt = argv[argv.index("--gt") + 1]
    if gt in _BAD_GT:
        # a usage error naming the option and the token given
        assert len(err.strip().splitlines()) == 1
        assert "--gt" in err and repr(_BAD_GT[gt]) in err


@pytest.mark.parametrize("argv, option", [
    (["evolve", "--scheme", "perturbative", "--v", "2.0", "--gt", "0.1,0.5",
      "--csv"], "--scheme exact"),
    (["reduced-state", "--theta", "0.7", "--v1", "2.0", "--v2", "1.5",
      "--gt", "0.5", "--json"], "--method exact"),
], ids=["evolve", "reduced_state"])
def test_perturbative_guard_names_the_exact_option(tmp_path, capsys, argv, option):
    # past the weak-coupling guard the remedy is the option, not the library call
    assert run([*argv, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "perturbative guard" in err and f"use {option}" in err
    assert "evolve_exact" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--scheme", "full", "--gt", "0.1", "--window", "8"],      # dim 393,216
    ["--scheme", "full", "--gt", "0.1", "--window", "20"],     # 48 GiB vector
    ["--scheme", "full", "--gt", "0.1", "--window", "60"],     # dim past int64
])
def test_evolve_over_operator_budget_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "big.csv"
    assert run(["evolve", "--v", "2.0", *argv, "--csv", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "MiB budget" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["modes", "--csv"],
    ["regime", "--v", "2.0", "--t-end", "0.1", "--json"],
])
def test_chain_too_large_to_allocate_exits_2(tmp_path, capsys, argv):
    # 8e18 bytes of mode indices exceed any address space, so numpy refuses
    # the array at once, before anything is allocated
    cfg = write_config(tmp_path, chain={"N": 10 ** 18 + 1})
    out = tmp_path / "out"
    assert run([argv[0], "--params", cfg, *argv[1:], str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"ginzburg {argv[0]}: error: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["20000", "1000"])
def test_evolve_exact_ignores_n_max(tmp_path, n_max):
    # from the vacuum the exact scheme lives on |0, g> and |1, e>, so a
    # truncation that once overran the operator budget changes nothing
    golden = json.loads((Path(__file__).parent / "golden" / "cases.json")
                        .read_text(encoding="utf-8"))["cases"]
    sha = next(c for c in golden if c["name"] == "evolve_exact")["outputs"][
        "exact.csv"]["sha256"]
    out = tmp_path / "exact.csv"
    assert run(["evolve", "--v", "2.0", "--scheme", "exact", "--gt", "0.05,0.1,0.2",
                "--n-max", n_max, "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("argv", [
    ["meanfield", "--route", "modesum", "--v", "0.5", "--t", "nan"],
    ["meanfield", "--route", "modesum", "--v", "0.5", "--t", "inf"],
    ["meanfield", "--route", "modesum", "--v", "0.5", "--t", "0.1", "--x0", "nan"],
    ["meanfield", "--route", "modesum", "--v", "0.5", "--t", "0.1", "--rel-tol", "0"],
    ["meanfield", "--route", "closed", "--v", "0.5", "--t", "-1"],
    ["meanfield", "--route", "closed", "--v", "nan", "--t", "0.1"],
    ["meanfield", "--route", "series", "--v", "0.5", "--t", "inf"],
    ["oracle-compare", "--v", "0.5", "--t", "nan"],
    ["reduced-state", "--theta", "0.5", "--v1", "2.0", "--v2", "2.5", "--t", "nan"],
    ["regime", "--v", "0.5", "--t-end", "-1"],
    ["reduced-state", "--theta", "0.5", "--v1", "2.0", "--v2", "1.5", "--t", "-1"],
    ["reduced-state", "--theta", "0.5", "--v1", "2.0", "--v2", "1.5", "--gt", "-1"],
])
def test_bad_time_or_trajectory_exits_2(tmp_path, capsys, argv):
    out = ["--csv" if argv[0] in ("meanfield", "oracle-compare") else "--json",
           str(tmp_path / "bad")]
    assert run([*argv, *out]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    if "-1" in argv:
        # a negative time is a usage error naming the option given
        option = argv[argv.index("-1") - 1]
        assert len(err.strip().splitlines()) == 1 and f"argument {option}:" in err


@pytest.mark.parametrize("argv", [
    ["resonance", "--v", "2.0", "--v2", "nan", "--json"],
    ["oracle-compare", "--v", "0.5", "--t", "0.01", "--tol", "nan", "--csv"],
    ["oracle-compare", "--v", "0.5", "--t", "0.01", "--tol", "inf", "--csv"],
])
def test_non_finite_float_option_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "bad"
    assert run([*argv, str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "error" in err and "finite" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_modesum_refuses_oversized_first_pass(tmp_path, capsys):
    # t = 1000 would need ~4.6e8 (time nodes x modes) elements per block
    t0 = time.perf_counter()
    code = run(["meanfield", "--route", "modesum", "--v", "0.5", "--t", "1000",
                "--csv", str(tmp_path / "big.csv")])
    assert code == 2
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# -- reduced-state ---------------------------------------------------------------

def test_reduced_state_json_and_sweep(tmp_path, monkeypatch):
    # the exact method normalizes each branch unitarily, making the mixture
    # comparison exact; the perturbative route is covered in test_superpose
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve_superposed(*args, **kwargs)

    # the mixture and every sweep phase reuse the one evolution
    monkeypatch.setattr(ginzburg.cli, "evolve_superposed", counted)
    monkeypatch.setattr(ginzburg.superpose, "evolve_superposed", counted)
    out = tmp_path / "red.json"
    sweep = tmp_path / "sweep.csv"
    assert run(["reduced-state", "--theta", str(math.pi / 4.0), "--v1", "2.0",
                "--v2", "1.5", "--gt", "0.1", "--method", "exact",
                "--json", str(out), "--sweep-csv", str(sweep)]) == 0
    data = json.loads(out.read_text())
    assert data["detector_model"] == "single"
    assert data["method"] == "exact"
    assert [b["alpha"] for b in data["branches"]] == [10, 20]
    assert "(1, 0)" in data["populations"]["chain"]
    chain_cmp = data["coherent_vs_mixed"]["chain"]["pairs"][0]
    assert chain_cmp["trace_distance"] < 1e-10
    assert chain_cmp["verdict"] == "indistinguishable"
    det_cmp = data["coherent_vs_mixed"]["detector"]["pairs"][0]
    assert det_cmp["trace_distance"] < 1e-10

    table = np.genfromtxt(sweep, delimiter=",", names=True)
    assert table.dtype.names == ("phi", "p_chain_00", "p_chain_10", "p_chain_01",
                                 "p_det_e1", "p_det_e2", "td_chain_vs_phi0",
                                 "td_det_vs_phi0")
    assert table.shape == (4,)
    assert np.max(table["td_chain_vs_phi0"]) < 1e-12
    assert np.max(table["td_det_vs_phi0"]) < 1e-12
    assert np.all(np.isnan(table["p_det_e2"]))  # single detector has one level
    assert len(calls) == 1


def test_reduced_state_two_level(tmp_path):
    # the selectivity guard band scales with |g|, so a weak-coupling params
    # file is needed for a clean two-frequency pairing; both frequencies come
    # from that file and are recorded with the run
    omega_d = [10 * math.pi, 11.2 * math.pi]
    pfile = write_config(tmp_path, coupling={"g": 5e-8}, detector={"omega_d": omega_d})
    out = tmp_path / "red2.json"
    assert run(["reduced-state", "--params", pfile,
                "--theta", str(math.pi / 4.0), "--v1", "2.0",
                "--v2", "2.6", "--gt", "0.1", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["detector_model"] == "two-level"
    assert data["params"]["detector"]["omega_d"] == omega_d
    assert [b["omega_d"] for b in data["branches"]] == omega_d
    assert [b["alpha"] for b in data["branches"]] == [10, 7]
    # each branch populates its own level: x^2 / (1 + x^2) of its normalized
    # first-order run, x = |g_alpha| t / 2 hbar
    det_pop = data["populations"]["detector"]
    hbar = data["params"]["coupling"]["hbar"]
    x1, x2 = (abs(b["g_alpha"]) * data["t"] / (2.0 * hbar) for b in data["branches"])
    assert det_pop["(2,)"] > 0 and det_pop["(1,)"] > 0
    assert det_pop["(1,)"] / det_pop["(2,)"] == pytest.approx(
        (x2 ** 2 / (1.0 + x2 ** 2)) / (x1 ** 2 / (1.0 + x1 ** 2)), rel=1e-6)


def test_reduced_state_two_level_either_order(tmp_path):
    # swapping the branches, velocities and frequencies both, gives the same
    # reduced states with theta -> pi/2 - theta, the mode axes swapped and
    # the detector levels swapped
    theta = 0.3
    runs = {}
    for name, v1, v2, omega_d, th in (
            ("forward", "2.0", "2.6", [10 * math.pi, 11.2 * math.pi], theta),
            ("reversed", "2.6", "2.0", [11.2 * math.pi, 10 * math.pi],
             math.pi / 2.0 - theta)):
        pfile = write_config(tmp_path, name=f"{name}.json", coupling={"g": 5e-8},
                             detector={"omega_d": omega_d})
        out = tmp_path / f"{name}_red.json"
        assert run(["reduced-state", "--params", pfile, "--theta", repr(th),
                    "--v1", v1, "--v2", v2, "--t", "1e-6", "--json", str(out)]) == 0
        runs[name] = json.loads(out.read_text())
    fwd, rev = runs["forward"], runs["reversed"]
    assert rev["detector_model"] == "two-level"
    assert [b["alpha"] for b in rev["branches"]] == [7, 10]
    fwd_chain, rev_chain = fwd["populations"]["chain"], rev["populations"]["chain"]
    assert sorted(fwd_chain) == ["(0, 0)", "(0, 1)", "(1, 0)"]
    for (i, j) in ((0, 0), (0, 1), (1, 0)):
        assert rev_chain[str((j, i))] == pytest.approx(fwd_chain[str((i, j))],
                                                        rel=0, abs=1e-12)
    fwd_det, rev_det = fwd["populations"]["detector"], rev["populations"]["detector"]
    for a, b in (("(0,)", "(0,)"), ("(1,)", "(2,)"), ("(2,)", "(1,)")):
        assert rev_det[a] == pytest.approx(fwd_det[b], rel=0, abs=1e-12)


@pytest.mark.parametrize("omega_d", [[10 * math.pi], [10 * math.pi, 11.2 * math.pi]],
                         ids=["single", "two-level"])
def test_reduced_state_blocks_are_discriminate(tmp_path, omega_d):
    # the JSON's coherent_vs_mixed blocks are discriminate()'s own return
    # values for the same run, and its populations their coherent entries
    pfile = write_config(tmp_path, coupling={"g": 5e-8}, detector={"omega_d": omega_d})
    out = tmp_path / "red.json"
    assert run(["reduced-state", "--params", pfile, "--theta", "0.3", "--phi", "0.5",
                "--v1", "2.0", "--v2", "2.6", "--gt", "0.1", "--json", str(out)]) == 0
    data = json.loads(out.read_text())

    params = load_params(pfile)
    spec = branch_spec_from_resonance(params, 2.0, 2.6, theta=0.3, phi=0.5)
    state = evolve_superposed(spec, data["t"])
    rho, rho_mix = density_matrix(state), mixed_density_matrix(state)
    for name, reduce in (("chain", reduce_chain), ("detector", reduce_detector)):
        block = discriminate(reduce(rho), reduce(rho_mix), ["coherent", "mixed"])
        assert data["coherent_vs_mixed"][name] == json.loads(json.dumps(block))
        assert data["populations"][name] == data["coherent_vs_mixed"][name][
            "populations"]["coherent"]
    couplings = [b.coupling for b in spec.branches]
    assert data["branches"] == [
        {"x0": 0.0, "v": v, "alpha": c.alpha, "g_alpha": c.g_alpha,
         "omega_d": c.omega_d, "omega_alpha": c.omega_alpha}
        for v, c in zip((2.0, 2.6), couplings)]


def test_reduced_state_detector_option_is_gone(tmp_path):
    # the model follows the frequencies: a second one makes it two-level
    pfile = write_config(tmp_path, coupling={"g": 5e-8},
                         detector={"omega_d": [10 * math.pi, 11.2 * math.pi]})
    out = tmp_path / "red.json"
    base = ["reduced-state", "--params", pfile, "--theta", "0.3", "--v1", "2.0",
            "--v2", "2.6", "--gt", "0.1", "--json", str(out)]
    assert run(base) == 0
    out.unlink()
    for model in ("single", "two-level", "auto"):
        assert run(base + ["--detector", model]) == 2
    assert not out.exists()


# -- regime ----------------------------------------------------------------------

def test_regime_json(tmp_path, capsys):
    # default g = 1 violates the weak-coupling budget
    out = tmp_path / "regime.json"
    assert run(["regime", "--v", "0.5", "--t-end", "0.25",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is False
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    assert "weak_coupling" in failed
    assert "FAILED" in capsys.readouterr().out

    pfile = write_config(tmp_path, coupling={"g": 1e-7})
    out2 = tmp_path / "regime2.json"
    assert run(["regime", "--params", pfile, "--v", "0.5", "--t-end", "0.25",
                "--json", str(out2)]) == 0
    data2 = json.loads(out2.read_text())
    assert data2["all_pass"] is True
    assert "all pass" in capsys.readouterr().out


def test_regime_x0_2_needs_v2(tmp_path, capsys):
    # a second start without a second velocity would be dropped without a word
    out = tmp_path / "regime.json"
    argv = ["regime", "--v", "0.5", "--x0-2", "0.45", "--t-end", "0.25"]
    assert run(argv + ["--json", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--v2" in err
    assert "Traceback" not in err and not out.exists()

    # with --v2 the second start reaches the checks
    assert run(argv + ["--v2", "0.6", "--json", str(out)]) == 0
    failed = [c["name"] for c in json.loads(out.read_text())["checks"]
              if not c["passed"]]
    assert "edge_distance" in failed


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_regime_without_coupled_modes_writes_strict_json(tmp_path, capsys):
    # at w = 0.5 no retained mode has f >= 1/2, so the wavelength check has
    # nothing to measure: its ratio is null, not Infinity
    pfile = write_config(tmp_path, detector={"w": 0.5})
    out = tmp_path / "reg.json"
    assert run(["regime", "--params", pfile, "--v", "0.5", "--t-end", "0.25",
                "--json", str(out)]) == 0
    checks = _strict_json(out.read_text())["checks"]
    check, = [c for c in checks if c["name"] == "mode_wavelength"]
    assert check["ratio"] is None and check["passed"] is True
    assert check["note"] == "no retained mode with f >= 1/2"


def test_write_json_refuses_non_finite_numbers(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(ginzburg.ValidationError, match="not written"):
        write_json(out, {"ratio": math.inf})
    assert not out.exists()


def test_write_csv_spells_non_finite_and_signed_zero(tmp_path):
    # the CSV spellings of the non-finite floats, whatever the sign of a NaN
    values = [math.nan, -math.nan, math.copysign(math.nan, -1.0), math.inf,
              -math.inf, -0.0, np.float64(math.nan), np.float64(-math.inf),
              np.float64(-0.0)]
    out = write_csv(tmp_path / "x.csv", [f"c{i}" for i in range(len(values))],
                    [values])
    assert out.read_text().splitlines()[1] == "nan,nan,nan,inf,-inf,-0,nan,-inf,-0"


@pytest.mark.parametrize("section,key", [
    ("chain", "k_C"), ("detector", "omgea_d"), ("coupling", "gg"),
    ("units", "hbr"), (None, "coupling_"),
])
def test_misspelt_params_key_exits_2(tmp_path, capsys, section, key):
    overrides = {key: {"g": 2.0}} if section is None else {section: {key: 2.0}}
    pfile = write_config(tmp_path, **overrides)
    out = tmp_path / "modes.csv"
    assert run(["modes", "--params", pfile, "--csv", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    name = key if section is None else f"{section}.{key}"
    assert len(err.splitlines()) == 1 and f"unknown config key {name} " in err
    assert not out.exists()


# -- oracle-compare ----------------------------------------------------------------

def test_oracle_compare_pass_and_tolerance_failure(tmp_path, capsys):
    pfile = tmp_path / "p501.json"
    pfile.write_text(json.dumps(PAPER_N501))
    out = tmp_path / "oc.csv"
    args = ["oracle-compare", "--params", str(pfile), "--v", "0.5",
            "--t", "0.1", "--csv", str(out)]
    assert run(args) == 0
    assert "L2/peak" in capsys.readouterr().out
    rows = read_csv(out)
    assert list(rows[0].keys()) == ["x", "phi_discrete", "phi_closed"]
    assert len(rows) == 501

    out_strided = tmp_path / "oc10.csv"
    args_strided = ["oracle-compare", "--params", str(pfile), "--v", "0.5",
                    "--t", "0.1", "--stride", "10", "--csv", str(out_strided)]
    assert run(args_strided) == 0
    capsys.readouterr()
    assert len(read_csv(out_strided)) == 51

    assert run(args + ["--tol", "1e-4"]) == 3
    assert "tolerance failure" in capsys.readouterr().err


def test_oracle_compare_nonpositive_tol_exits_2(tmp_path, capsys):
    # an L2/peak bound <= 0 can never pass, so it is refused before the run
    out = tmp_path / "oc.csv"
    for tol in ("-1", "0"):
        assert run(["oracle-compare", "--v", "0.5", "--t", "0.1",
                    "--tol", tol, "--csv", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "argument --tol:" in err
    assert list(tmp_path.iterdir()) == []


# -- manifests and determinism -------------------------------------------------

def test_rerun_verifies_outputs(tmp_path, capsys):
    out = tmp_path / "modes.csv"
    assert run(["modes", "--csv", str(out)]) == 0
    manifest = tmp_path / "modes.manifest.json"
    capsys.readouterr()

    assert run(["rerun", str(manifest)]) == 0
    assert "byte-identical" in capsys.readouterr().out

    # corrupting a recorded hash must be caught
    data = json.loads(manifest.read_text())
    data["outputs"][0]["sha256"] = "0" * 64
    bad = tmp_path / "tampered.manifest.json"
    bad.write_text(json.dumps(data))
    assert run(["rerun", str(bad)]) == 3

    # rerunning a rerun is refused
    data = json.loads(manifest.read_text())
    data["argv"] = ["rerun", str(manifest)]
    loop = tmp_path / "loop.manifest.json"
    loop.write_text(json.dumps(data))
    assert run(["rerun", str(loop)]) == 2

    assert run(["rerun", str(tmp_path / "missing.json")]) == 2


_MANIFEST_KEYS = {"subcommand", "argv", "params", "options", "outputs",
                  "version", "wall_time_s", "created_utc"}


@pytest.mark.parametrize("argv, names", [
    (["modes", "--csv", "{d}/modes.csv"], ["modes.csv"]),
    (["reduced-state", "--theta", "0.7", "--phi", "0.3", "--v1", "2.0",
      "--v2", "1.5", "--gt", "0.1", "--json", "{d}/reduced.json",
      "--sweep-csv", "{d}/sweep.csv"], ["reduced.json", "sweep.csv"]),
], ids=["modes", "reduced_state"])
def test_manifest_record(tmp_path, argv, names):
    """The manifest's keys, and per output its path, SHA-256 and size."""
    argv = [a.format(d=tmp_path) for a in argv]
    assert run(argv) == 0
    data = json.loads((tmp_path / (Path(names[0]).stem + ".manifest.json"))
                      .read_text())
    assert set(data) == _MANIFEST_KEYS
    assert data["subcommand"] == argv[0] and data["argv"] == argv
    assert data["version"] == ginzburg.__version__
    assert data["params"]["chain"]["N"] == 2001 and data["wall_time_s"] > 0
    assert [o["path"] for o in data["outputs"]] == [str(tmp_path / n) for n in names]
    for entry in data["outputs"]:
        blob = Path(entry["path"]).read_bytes()
        assert set(entry) == {"path", "sha256", "bytes"}
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)
    time.strptime(data["created_utc"], "%Y-%m-%dT%H:%M:%SZ")


def test_seed_refused_and_runs_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["modes", "--csv", str(a), "--seed", "1"]) == 2
    assert not a.exists()
    assert run(["modes", "--csv", str(a)]) == 0
    assert run(["modes", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rerun_of_manifest_with_removed_option_exits_2(tmp_path):
    # a manifest written before --seed, --detector, --y-max, --omega-d or
    # --omega-d2 were removed replays its argv, which argparse now refuses
    out = tmp_path / "modes.csv"
    assert run(["modes", "--csv", str(out)]) == 0
    manifest = tmp_path / "modes.manifest.json"
    for removed in (["--seed", "7"], ["--y-max", "10"], ["--omega-d", "20"],
                    ["--omega-d2", "35.19"]):
        data = json.loads(manifest.read_text())
        data["argv"] += removed
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(data))
        assert run(["rerun", str(old)]) == 2, removed


# -- subprocess entry point ------------------------------------------------------

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def test_module_entry_point_and_thread_cap():
    # GINZBURG_NUM_THREADS fills only the BLAS variables the caller left unset
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["GINZBURG_NUM_THREADS"] = "3"
    probe = ("import os; import ginzburg; "
             "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    got = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0
    assert got.stdout.split() == ["3", "3"]

    got = subprocess.run([sys.executable, "-c", probe],
                         env=dict(env, OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0
    assert got.stdout.split() == ["1", "3"]

    version = subprocess.run([sys.executable, "-m", "ginzburg", "--version"],
                             capture_output=True, text=True, timeout=120)
    assert version.returncode == 0
    assert ginzburg.__version__ in version.stdout
