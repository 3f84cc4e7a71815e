"""Generated argv over every subcommand: the CLI exits 0, 2 or 3, never with
a traceback, and a successful run writes no NaN or inf outside the
documented NaN columns.

Each argv is built from good values, then maybe spoiled once: one value
swapped for a bad token (nan, inf, negative numbers, exponent forms, junk),
one option dropped, or --y-max added, which no subcommand accepts: the mode
cutoff is the constant modes.Y_MAX.  The good values are kept cheap: short
times, small grids, modesum --rel-tol no finer than 1e-6, and --window /
--n-max up to 70 / 50, where the large windows must be refused by the memory
budget before anything is allocated.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ginzburg.cli import run

BAD = ("nan", "inf", "-inf", "-1", "-1e-3", "1e400", "0", "2.5e-7", "abc", "")

# documented NaN columns: the modesum route has no packet decomposition, and
# a single-level detector has no second excited level
MODESUM_NAN = {"phi_comoving", "phi_ripple_right", "phi_ripple_left"}
SINGLE_DETECTOR_NAN = {"p_det_e2"}

OUT = {"--csv": "{d}/out.csv", "--json": "{d}/out.json",
       "--sweep-csv": "{d}/sweep.csv"}

# subcommand -> (option, good values, required); no values: a flag or an
# output path
SUBCOMMANDS = {
    "modes": [("--omega-d", ("31.4", "10", "1e2"), False),
              ("--csv", (), True)],
    "meanfield": [
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
        ("--v", ("0.5", "2.5", "-0.3"), True),
        ("--x0", ("0.1", "-0.3"), False),
        ("--t", ("0.01", "0.03"), True),
        ("--dt", ("1e-4", "5e-5", "1e-2"), False),
        ("--stride", ("1", "7"), False),
        ("--tol", ("0.05", "1e-9"), False),
        ("--csv", (), True)],
    "resonance": [
        ("--v", ("2.0", "2.6", "1.2"), True),
        ("--omega-d", ("31.4", "10"), False),
        ("--v2", ("2.6", "1.5", "2.0"), False),
        ("--omega-d2", ("35.19", "31.4"), False),
        ("--json", (), False)],
    "evolve": [
        ("--scheme", ("exact", "perturbative", "full"), True),
        ("--v", ("2.0", "2.6"), True),
        ("--omega-d", ("31.4", "20"), False),
        ("--x0", ("0.1",), False),
        ("--gt", ("0.1", "0.05,0.2", "1", "0"), True),
        ("--n-max", ("1", "3", "50"), False),
        ("--n-max-offres", ("1", "2"), False),
        ("--window", ("0", "1", "2", "3", "8", "15", "20", "60", "70"), False),
        ("--csv", (), True)],
    "reduced-state": [
        ("--theta", ("0.785", "0.3", "0"), True),
        ("--phi", ("1.5",), False),
        ("--v1", ("2.0", "2.6"), True),
        ("--v2", ("1.5", "2.6"), True),
        ("--x0", ("0.1",), False),
        ("--x0-2", ("-0.1",), False),
        ("--omega-d", ("31.4",), False),
        ("--omega-d2", ("35.19", "31.4"), False),
        ("--method", ("perturbative", "exact"), False),
        ("--gt", ("0.1", "0.2"), True),
        ("--json", (), True),
        ("--sweep-csv", (), False)],
    "regime": [
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


def check(argv):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
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


@given(argvs())
@example(["evolve", "--scheme", "full", "--v", "2.0", "--gt", "0.1",
          "--window", "20", "--csv", "{d}/out.csv"])
@example(["evolve", "--scheme", "full", "--v", "2.0", "--gt", "0.1",
          "--window", "60", "--csv", "{d}/out.csv"])
@example(["meanfield", "--route", "modesum", "--v", "0.5", "--t", "0.01",
          "--grid", "11", "--csv", "{d}/out.csv"])
@example(["reduced-state", "--theta", "0.785", "--v1", "2.0", "--v2", "1.5",
          "--gt", "0.1", "--json", "{d}/out.json", "--sweep-csv", "{d}/sweep.csv"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_generated_argv_exit_cleanly(argv):
    check(argv)
