#!/usr/bin/env python3
"""Generate the golden-output fixtures that tests/test_golden.py checks.

Runs a fixed set of CLI argv in process against the package of a source
tree and writes tests/golden/cases.json next to this script.  The cases are

  * the benchmark's CLI calls (perfbench/workloads.py, cli_calls) at seeds
    7 and 301, the seed-independent ones once, `rerun` left out,
  * the README examples the benchmark does not already run, `regime --params`
    given the README's sample config,
  * a `reduced-state` run with the default perturbative method, and a
    two-level `reduced-state --sweep-csv` run on the weak-coupling config of
    tests/test_cli.py::test_reduced_state_two_level, its two detector
    frequencies given in the params file,
  * the route and option paths no call above takes: modesum at Fig. 2 and
    supersonic with every modesum option, closed with the image term on a
    coarser grid, series with an explicit alpha cutoff, a strided
    oracle-compare, the perturbative and a widened full evolve, a supersonic
    two-trajectory regime, and an exact reduced-state at a given t from
    offset starts,
  * the detector frequencies from a params file: modes and an exact evolve
    at omega_d = 20, and a resonance pair on the two-frequency config.

For each case it records the argv (`{d}` stands for the output directory),
any input file the argv names, and per output file its sha256 plus a
fingerprint: for a CSV, each column's max |v|, its sum and its values at 65
evenly spaced rows; for a JSON file, the whole payload.

Generate from a tree whose outputs are trusted, such as the parent commit of
a refactor, never from the code the fixtures are meant to check:

    mkdir /tmp/parent && git archive <commit> | tar -x -C /tmp/parent
    python3 scripts/gen_golden.py /tmp/parent

Every regeneration is recorded in CHANGES.md with this command and the
commit it was run on.

A change meant to move outputs (round-off from a cut normalization, a
corrected formula) regenerates from its own tree instead, in four steps:

  1. Run tests/test_golden.py against the parent's fixtures.  Every output
     the change is not meant to move must still match by sha256; the
     tolerance pass warns with the name of each file that moved (a column
     of round-off zeros, such as a trace distance to the phi = 0 state,
     can fail it, since its tolerance is relative to its own max).
  2. Run every case on the parent tree and on the change's tree and compare
     the moved files value by value: the same text apart from numbers, and
     each number within a stated absolute bound.
  3. Regenerate with `python3 scripts/gen_golden.py <change tree>` and
     check that `git diff tests/golden/cases.json` touches only the records
     of the cases named in step 1.
  4. List each moved file with its old and new sha256 in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cases.json"
SEEDS = (7, 301)
SAMPLES = 65

_PAPER = {"units": {"preset": "paper"}, "chain": {"N": 2001},
          "detector": {"w": 0.01}}
README_CONFIG = {**_PAPER, "coupling": {"g": 1e-7}}
TWO_LEVEL_CONFIG = {**_PAPER,
                    "detector": {"w": 0.01, "omega_d": [10 * math.pi, 11.2 * math.pi]},
                    "coupling": {"g": 5e-8}}
OMEGA_D_20_CONFIG = {**_PAPER, "detector": {"w": 0.01, "omega_d": 20.0}}
QUARTER_PI = repr(math.pi / 4.0)

# (name, argv, input files written into {d} before the run)
EXTRA_CASES = [
    ("readme_modes", ["modes", "--csv", "{d}/modes.csv"], {}),
    ("readme_meanfield", ["meanfield", "--route", "closed", "--v", "0.5",
                          "--t", "0.25", "--csv", "{d}/profile.csv"], {}),
    ("readme_resonance", ["resonance", "--v", "2.0", "--json", "{d}/res.json"], {}),
    ("readme_evolve", ["evolve", "--scheme", "exact", "--v", "2.0",
                       "--gt", "0.05,0.1,0.2", "--csv", "{d}/pair.csv"], {}),
    ("readme_reduced_state", ["reduced-state", "--theta", QUARTER_PI,
                              "--v1", "2.0", "--v2", "1.5", "--gt", "0.1",
                              "--method", "exact", "--json", "{d}/red.json",
                              "--sweep-csv", "{d}/sweep.csv"], {}),
    ("readme_regime", ["regime", "--params", "{d}/config.json", "--v", "0.5",
                       "--t-end", "0.25", "--json", "{d}/regime.json"],
     {"config.json": README_CONFIG}),
    ("reduced_state_perturbative", ["reduced-state", "--theta", QUARTER_PI,
                                    "--v1", "2.0", "--v2", "1.5", "--gt", "0.1",
                                    "--json", "{d}/red.json",
                                    "--sweep-csv", "{d}/sweep.csv"], {}),
    ("reduced_state_two_level", ["reduced-state", "--params", "{d}/config.json",
                                 "--theta", QUARTER_PI, "--v1", "2.0",
                                 "--v2", "2.6", "--gt", "0.1", "--json", "{d}/red2.json",
                                 "--sweep-csv", "{d}/sweep2.csv"],
     {"config.json": TWO_LEVEL_CONFIG}),
    ("meanfield_modesum_fig2", ["meanfield", "--route", "modesum", "--v", "0.5",
                                "--t", "0.25", "--csv", "{d}/modesum.csv"], {}),
    ("meanfield_modesum_supersonic", ["meanfield", "--route", "modesum",
                                      "--v", "2.5", "--t", "0.25", "--longwave",
                                      "--extended-domain", "--rel-tol", "1e-3",
                                      "--alpha-max", "200", "--csv", "{d}/modesum.csv"],
     {}),
    ("meanfield_closed_image", ["meanfield", "--route", "closed", "--include-image",
                                "--v", "0.5", "--t", "0.25", "--grid", "801",
                                "--csv", "{d}/closed.csv"], {}),
    ("meanfield_series_alpha_max", ["meanfield", "--route", "series",
                                    "--alpha-max", "300", "--v", "0.5", "--t", "0.25",
                                    "--csv", "{d}/series.csv"], {}),
    ("oracle_compare_strided", ["oracle-compare", "--v", "0.5", "--t", "0.05",
                                "--dt", "1e-4", "--stride", "7", "--tol", "0.5",
                                "--csv", "{d}/oracle.csv"], {}),
    ("evolve_perturbative", ["evolve", "--scheme", "perturbative", "--v", "2.0",
                             "--gt", "0.05,0.1", "--csv", "{d}/pert.csv"], {}),
    ("evolve_full_window3", ["evolve", "--scheme", "full", "--v", "2.0",
                             "--window", "3", "--n-max", "3", "--n-max-offres", "2",
                             "--gt", "0.1,0.2", "--csv", "{d}/full.csv"], {}),
    ("regime_supersonic_pair", ["regime", "--v", "2.5", "--v2", "2.0",
                                "--x0-2", "0.1", "--t-end", "0.25",
                                "--json", "{d}/regime.json"], {}),
    ("reduced_state_offset_exact", ["reduced-state", "--theta", QUARTER_PI,
                                    "--v1", "2.0", "--v2", "1.5", "--x0", "0.05",
                                    "--x0-2", "-0.05", "--t", "1e-6",
                                    "--method", "exact", "--json", "{d}/red.json"], {}),
    ("params_modes_omega_d", ["modes", "--params", "{d}/config.json",
                              "--csv", "{d}/modes.csv"],
     {"config.json": OMEGA_D_20_CONFIG}),
    ("params_evolve_exact_omega_d", ["evolve", "--scheme", "exact",
                                     "--params", "{d}/config.json", "--v", "2.0",
                                     "--gt", "0.05,0.1,0.2", "--csv", "{d}/exact.csv"],
     {"config.json": OMEGA_D_20_CONFIG}),
    ("params_resonance_two_frequency", ["resonance", "--params", "{d}/config.json",
                                        "--v", "2.0", "--v2", "2.6",
                                        "--json", "{d}/pair.json"],
     {"config.json": TWO_LEVEL_CONFIG}),
]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def csv_fingerprint(path) -> dict:
    """Row count, sampled row indices, and per column max |v| over the
    finite values, the plain sum, and the values at the sampled rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    data = data.reshape(len(lines) - 1, len(header))
    rows = np.unique(np.linspace(0, len(data) - 1, SAMPLES).round().astype(int))
    columns = {}
    for name, col in zip(header, data.T):
        columns[name] = {
            "max_abs": float(np.max(np.abs(col), where=np.isfinite(col),
                                    initial=0.0)),
            "sum": float(np.sum(col)),
            "values": [float(v) for v in col[rows]]}
    return {"n_rows": len(data), "rows": rows.tolist(), "columns": columns}


def fingerprint(path) -> dict:
    path = Path(path)
    record = {"sha256": sha256(path)}
    if path.suffix == ".csv":
        record["csv"] = csv_fingerprint(path)
    else:
        record["json"] = json.loads(path.read_text(encoding="utf-8"))
    return record


def output_files(d: Path, inputs) -> list[Path]:
    """Files a run wrote into d: everything but manifests and inputs."""
    return sorted(p for p in d.iterdir()
                  if not p.name.endswith(".manifest.json") and p.name not in inputs)


def collect_cases(workloads) -> list:
    """The benchmark's CLI calls at SEEDS, then EXTRA_CASES; an argv that
    repeats (a call the same at every seed, a README example the benchmark
    already runs) is kept once."""
    calls = {seed: workloads.cli_calls(workloads.draw_inputs(seed)) for seed in SEEDS}
    cases, seen = [], set()
    for seed in SEEDS:
        for label, argv, _ in calls[seed]:
            if label == "rerun" or tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            shared = all(argv in (a for _, a, _ in calls[s]) for s in SEEDS)
            cases.append((label if shared else f"{label}_seed{seed}", argv, {}))
    return cases + [c for c in EXTRA_CASES if tuple(c[1]) not in seen]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, help="source tree holding src/ and perfbench/")
    args = ap.parse_args()
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import ginzburg.cli as cli
    import workloads
    if not Path(cli.__file__).resolve().is_relative_to(tree):
        print(f"imported ginzburg from {cli.__file__}, not from {tree}",
              file=sys.stderr)
        return 2

    records = []
    for name, argv, inputs in collect_cases(workloads):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for fname, config in inputs.items():
                (d / fname).write_text(json.dumps(config), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.run([a.replace("{d}", str(d)) for a in argv])
            if code != 0:
                print(f"{name}: exit code {code}: {err.getvalue().strip()}",
                      file=sys.stderr)
                return 1
            outputs = {p.name: fingerprint(p) for p in output_files(d, inputs)}
        records.append({"name": name, "argv": argv, "inputs": inputs,
                        "outputs": outputs})
        print(f"{name}: {', '.join(outputs)}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"cases": records}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} cases -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
