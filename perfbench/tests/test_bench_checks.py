"""Self-test of the benchmark's checker: injected faults must count as failed
operations.  The faults go into the checker's inputs, never into the package.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import run
import tracing
import workloads
from ginzburg import cli, meanfield, params, quantum
from workloads import Tally

ROOT = Path(__file__).resolve().parents[2]


def test_profile_scaled_by_five_percent_fails():
    p = params.build_params(workloads.FIG2_CONFIG)
    grid = np.linspace(-0.5, 0.5, workloads.FIG2_GRID)
    traj = meanfield.Trajectory(0.0, 0.5)
    closed = meanfield.profile("closed", grid, 0.25, traj, p).values
    series = meanfield.profile("series", grid, 0.25, traj, p).values
    tally = Tally()
    for values in (series, 1.05 * series):
        tally.op("modesum", lambda: (None, workloads.check_profile(
            tally, "series", values, closed, grid)))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "series vs closed" in tally.failures[0]


def test_evolve_full_probability_off_by_twenty_percent_fails():
    tally = Tally()
    law = math.sin(0.1 / 2.0) ** 2
    for p_full in (law, 1.2 * law):
        tally.op("evolve_full", lambda: (None, workloads.check_rwa_node(
            tally, 0.1, p_full, 1.0, [1e-8, 1e-8], [1e-6, 1e-6])))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_flipped_byte_in_cli_output_fails(tmp_path):
    argv = ["resonance", "--v", "2.0", "--json", str(tmp_path / "resonance.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0
    tally, first = Tally(), {}
    check = lambda: (None, workloads.check_cli_call(  # noqa: E731
        tally, "resonance", 0, tmp_path, ["resonance.json"], first))
    tally.op("cli resonance", check)
    out = tmp_path / "resonance.json"
    data = bytearray(out.read_bytes())
    data[10] ^= 0x01
    out.write_bytes(bytes(data))
    tally.op("cli resonance", check)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs" in tally.failures[0]


def test_renamed_function_is_a_missing_layer_metric(monkeypatch):
    monkeypatch.delattr(quantum, "evolve_full")
    tracer = tracing.Tracer("rwa_full")
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["quantum.evolve_full"]
    metrics = tracing.layer_metrics(tracer, {})
    assert "quantum.evolve_full.self_s" not in metrics
    assert "quantum.interaction_hamiltonian_full.self_s" in metrics


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
