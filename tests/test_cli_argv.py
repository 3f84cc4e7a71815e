"""Generated argv over every subcommand: the CLI exits 0, 2 or 3, never with
a traceback, and a successful run writes no NaN or inf outside the
documented NaN columns, and only strict JSON (no NaN or Infinity tokens).

Each argv is built from good values, then maybe spoiled once: one value
swapped for a bad token (nan, inf, negative numbers, exponent forms, junk),
one option dropped, or --y-max added, which no subcommand accepts: the mode
cutoff is the constant modes.Y_MAX.  The detector frequencies and the
coupling vary through --params, drawn from the files of PARAMS_FILES or left
out.  The good values are kept cheap: short times, small grids, modesum
--rel-tol no finer than 1e-6, and --window / --n-max up to 70 / 50, where the
large windows must be refused by the memory budget before anything is
allocated.  Every option of every subcommand is drawn.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ginzburg.cli import _build_parser, run

BAD = ("nan", "inf", "-inf", "-1", "-1e-3", "1e400", "0", "2.5e-7", "abc", "")

# documented NaN columns: the modesum route has no packet decomposition, and
# a single-level detector has no second excited level
MODESUM_NAN = {"phi_comoving", "phi_ripple_right", "phi_ripple_left"}
SINGLE_DETECTOR_NAN = {"p_det_e2"}

OUT = {"--csv": "{d}/out.csv", "--json": "{d}/out.json",
       "--sweep-csv": "{d}/sweep.csv"}

# params files written into the run directory: one detector frequency of
# 10 or 1e2, the two frequencies of a two-level detector at a coupling weak
# enough for a selective pair, in either order, the one paper frequency at
# that coupling, and a detector distance w = 0.5 that leaves no retained
# mode with f >= 1/2
_PAPER = {"units": {"preset": "paper"}, "chain": {"N": 2001}}
PARAMS_FILES = {
    "omega_d_10.json": {**_PAPER, "detector": {"w": 0.01, "omega_d": 10.0}},
    "omega_d_1e2.json": {**_PAPER, "detector": {"w": 0.01, "omega_d": 1e2}},
    "two_level.json": {**_PAPER, "detector": {"w": 0.01,
                                              "omega_d": [10 * math.pi, 11.2 * math.pi]},
                       "coupling": {"g": 5e-8}},
    "two_level_reversed.json": {**_PAPER,
                                "detector": {"w": 0.01,
                                             "omega_d": [11.2 * math.pi, 10 * math.pi]},
                                "coupling": {"g": 5e-8}},
    "weak.json": {**_PAPER, "detector": {"w": 0.01}, "coupling": {"g": 5e-8}},
    "w05.json": {**_PAPER, "detector": {"w": 0.5}},
}
PARAMS = ("--params", tuple(f"{{d}}/{name}" for name in PARAMS_FILES), False)

# subcommand -> (option, good values, required); no values: a flag or an
# output path
SUBCOMMANDS = {
    "modes": [PARAMS, ("--csv", (), True)],
    "meanfield": [
        PARAMS,
        ("--route", ("closed", "series", "modesum"), True),
        ("--v", ("0.5", "2.5", "-0.5", "1.0", "0.999"), True),
        ("--x0", ("0.1", "-0.4"), False),
        ("--t", ("0.01", "0.002", "0"), True),
        ("--grid", ("2", "11", "101"), False),
        ("--alpha-max", ("1", "7", "120"), False),
        ("--include-image", (), False),
        ("--longwave", (), False),
        ("--extended-domain", (), False),
        ("--rel-tol", ("1e-4", "1e-6", "1e-2"), False),
        ("--csv", (), True)],
    "oracle-compare": [
        PARAMS,
        ("--v", ("0.5", "2.5", "-0.3"), True),
        ("--x0", ("0.1", "-0.3"), False),
        ("--t", ("0.01", "0.03"), True),
        ("--dt", ("1e-4", "5e-5", "1e-2"), False),
        ("--stride", ("1", "7"), False),
        ("--tol", ("0.05", "1e-9"), False),
        ("--csv", (), True)],
    "resonance": [
        PARAMS,
        ("--v", ("2.0", "2.6", "1.2"), True),
        ("--v2", ("2.6", "1.5", "2.0"), False),
        ("--json", (), False)],
    "evolve": [
        PARAMS,
        ("--scheme", ("exact", "perturbative", "full"), True),
        ("--v", ("2.0", "2.6"), True),
        ("--x0", ("0.1",), False),
        ("--gt", ("0.1", "0.05,0.2", "1", "0"), True),
        ("--n-max", ("1", "3", "50"), False),
        ("--n-max-offres", ("1", "2"), False),
        ("--window", ("0", "1", "2", "3", "8", "15", "20", "60", "70"), False),
        ("--csv", (), True)],
    "reduced-state": [
        PARAMS,
        ("--theta", ("0.785", "0.3", "0"), True),
        ("--phi", ("1.5",), False),
        ("--v1", ("2.0", "2.6"), True),
        ("--v2", ("1.5", "2.6"), True),
        ("--x0", ("0.1",), False),
        ("--x0-2", ("-0.1",), False),
        ("--method", ("perturbative", "exact"), False),
        ("--gt", ("0.1", "0.2"), True),
        ("--t", ("1e-7", "1e-6"), False),
        ("--json", (), True),
        ("--sweep-csv", (), False)],
    "regime": [
        PARAMS,
        ("--v", ("0.5", "2.5"), True),
        ("--x0", ("0.1",), False),
        ("--v2", ("2.6",), False),
        ("--x0-2", ("0.1",), False),
        ("--t-end", ("0.25", "0"), True),
        ("--json", (), False)],
    "rerun": [],
}


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    opts = []   # [option, value or None]
    if sub == "rerun":
        opts.append([draw(st.sampled_from(["{d}/missing.manifest.json", ""])), None])
    for option, good, required in SUBCOMMANDS[sub]:
        if required or draw(st.booleans()):
            value = OUT.get(option) or (draw(st.sampled_from(good)) if good else None)
            opts.append([option, value])
    # reduced-state's --t stands in for its --gt: the two are exclusive
    if {"--t", "--gt"} <= {o for o, _ in opts}:
        opts = [o for o in opts if o[0] != "--gt"]
    spoil = draw(st.sampled_from(("none", "none", "bad", "drop", "y-max")))
    valued = [o for o in opts if o[1] is not None and o[0] not in OUT]
    if spoil == "bad" and valued:
        draw(st.sampled_from(valued))[1] = draw(st.sampled_from(BAD))
    elif spoil == "drop" and opts:
        opts.remove(draw(st.sampled_from(opts)))
    elif spoil == "y-max":
        opts.append(["--y-max", draw(st.sampled_from(("10",) + BAD))])
    return [sub] + [tok for pair in opts for tok in pair if tok is not None]


def nan_allowed(argv, d: Path) -> set:
    if argv[0] == "meanfield" and "modesum" in argv:
        return MODESUM_NAN
    if argv[0] == "reduced-state":
        if json.loads((d / "out.json").read_text())["detector_model"] == "single":
            return SINGLE_DETECTOR_NAN
    return set()


def _no_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def check(argv):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, config in PARAMS_FILES.items():
            (d / name).write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([a.format(d=d) for a in argv])
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code != 0:
            return
        allowed = nan_allowed(argv, d)
        for path in d.glob("*.csv"):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, cell in row.items():
                        if column not in allowed:
                            assert math.isfinite(float(cell)), (argv, path.name, column)
        # every JSON written, the outputs and their manifests, is strict
        for path in d.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


@given(argvs())
@example(["evolve", "--scheme", "full", "--v", "2.0", "--gt", "0.1",
          "--window", "20", "--csv", "{d}/out.csv"])
@example(["evolve", "--scheme", "full", "--v", "2.0", "--gt", "0.1",
          "--window", "60", "--csv", "{d}/out.csv"])
@example(["meanfield", "--route", "modesum", "--v", "0.5", "--t", "0.01",
          "--grid", "11", "--csv", "{d}/out.csv"])
@example(["reduced-state", "--theta", "0.785", "--v1", "2.0", "--v2", "1.5",
          "--gt", "0.1", "--json", "{d}/out.json", "--sweep-csv", "{d}/sweep.csv"])
@example(["reduced-state", "--params", "{d}/two_level.json", "--theta", "0.785",
          "--v1", "2.0", "--v2", "2.6", "--t", "1e-6", "--json", "{d}/out.json",
          "--sweep-csv", "{d}/sweep.csv"])
@example(["reduced-state", "--params", "{d}/two_level_reversed.json",
          "--theta", "0.785", "--v1", "2.6", "--v2", "2.0", "--t", "1e-6",
          "--json", "{d}/out.json", "--sweep-csv", "{d}/sweep.csv"])
@example(["regime", "--params", "{d}/w05.json", "--v", "0.5", "--t-end", "0.25",
          "--json", "{d}/out.json"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_generated_argv_exit_cleanly(argv):
    check(argv)


def test_every_option_is_drawn():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {a.option_strings[0] for a in parser._actions
                     if a.option_strings and a.option_strings[0] != "-h"}
              for name, parser in sub.choices.items()}
    drawn = {name: {option for option, _, _ in opts}
             for name, opts in SUBCOMMANDS.items()}
    assert drawn == parsed
