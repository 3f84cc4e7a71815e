"""The three benchmark workloads: inputs, set-up, one checked pass, and the checks.

Every workload is a closed loop with one client.  The seed draws only inputs
that leave the amount of work unchanged: the trajectory start x0 and the
superposition angles theta and phi.  Every other input is fixed.

Checks reuse the package's acceptance bounds, none loosened.  An operation
(one profile, one integrate, one evolution, one CLI call) fails on an
exception, a non-finite value, a check outside its bound, or a CLI output
whose sha256 differs from the first pass of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import ginzburg.cli as cli
from ginzburg import (discrete_oracle, io_utils, meanfield, modes, params,
                      quantum)

FIG2_CONFIG = {"units": {"preset": "paper"}, "chain": {"N": 2001},
               "detector": {"w": 0.01}}
FIG2_RUNS = ((0.5, 0.25), (2.5, 0.1))      # (v, t) of both Fig. 2 profiles
FIG2_GRID = 801
DYNAMIC_RUN = (0.5, 0.25)

# acceptance bounds (tests/test_acceptance.py)
ROUTE_TOL = 0.02          # criterion 1: route vs closed, share of the peak
NET_DISP_TOL = 1e-4       # criterion 3: |int phi| / int |phi|
LEAPFROG_TOL = 0.05       # criterion 4: L2 / peak
RWA_TOL = 0.10            # criterion 8: |p - sin^2(gt/2)| / sin^2(gt/2)
TD_TOL = 1e-10            # criterion 10: coherent vs mixed trace distance
ROUND_OFF = 1e-12         # evolve_exact against sin^2(gt/2)

# criterion 3 integrates the closed form over the whole packet support,
# which reaches past the chain ends
WIDE_SUPPORT = np.linspace(-1.5, 1.5, 30001)

RWA_V = 2.0
RWA_ALPHA = 10
RWA_G_OVER_HBAR = 0.05
# Beat nodes only: at gt = 0.05 the neighbour modes sit on their beat maximum
# and p_full is 1.84x the rotating-wave law, where criterion 8 claims nothing.
RWA_GT = (0.1, 0.2)


def draw_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"x0": rng.uniform(-0.05, 0.05),
            "theta": rng.random() * math.pi / 2.0,
            "phi": rng.random() * math.pi}


class Tally:
    """Attempted and failed operations of one run, plus numerical health."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.health: dict[str, float] = {}

    def op(self, label: str, fn):
        """Run one operation; fn returns (result, problems).  Returns the
        result, or None when the operation raised."""
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception as exc:   # a failing operation is counted, the run goes on
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}"[:500])
        return result

    def note(self, name: str, value: float):
        """Keep the worst value of a health figure across the run."""
        value = float(value)
        old = self.health.get(name)
        if old is None or not value <= old:
            self.health[name] = value


# -- checks ------------------------------------------------------------------------


def within(problems: list, what: str, value: float, limit: float):
    if not value <= limit:          # NaN fails too
        problems.append(f"{what} = {value:.4g} exceeds {limit:.4g}")


def finite(problems: list, what: str, values):
    if not np.all(np.isfinite(values)):
        problems.append(f"{what} has non-finite values")


def route_deviation(closed, other) -> float:
    closed = np.asarray(closed)
    return float(np.max(np.abs(np.asarray(other) - closed)) / np.max(np.abs(closed)))


def net_displacement(values, x) -> float:
    return abs(float(np.trapezoid(values, x))) / float(np.trapezoid(np.abs(values), x))


def leapfrog_l2(phi_discrete, phi_closed) -> float:
    diff = np.asarray(phi_discrete) - np.asarray(phi_closed)
    return float(np.sqrt(np.mean(diff ** 2)) / np.max(np.abs(phi_closed)))


def check_profile(tally: Tally, route: str, values, closed, grid) -> list:
    """Criterion 1 against the closed form and criterion 3 on the chain."""
    problems = []
    finite(problems, route, values)
    dev = route_deviation(closed, values)
    tally.note("meanfield.route_dev", dev)
    within(problems, f"{route} vs closed / peak", dev, ROUTE_TOL)
    net = net_displacement(values, grid)
    tally.note("meanfield.net_disp", net)
    within(problems, f"{route} net displacement", net, NET_DISP_TOL)
    return problems


def check_rwa_node(tally: Tally, gt: float, p_full: float, norm: float,
                   occupations, bounds) -> list:
    """Criterion 8 at a beat node: the RWA law within 10 %, and each neighbour
    occupation below (|g|/hbar delta)^2."""
    problems = []
    law = math.sin(gt / 2.0) ** 2
    rel = abs(p_full - law) / law
    tally.note("quantum.rwa_dev", rel)
    tally.note("quantum.norm_drift", abs(norm - 1.0))
    within(problems, f"evolve_full gt={gt} |p - sin^2| / sin^2", rel, RWA_TOL)
    for occ, bound in zip(occupations, bounds):
        tally.note("quantum.neighbor_occ_ratio", occ / bound)
        if not occ < bound:
            problems.append(f"neighbour occupation {occ:.3e} >= {bound:.3e}")
    return problems


def check_exact(gt: float, p: float) -> list:
    law = math.sin(gt / 2.0) ** 2
    if not math.isclose(p, law, rel_tol=ROUND_OFF):
        return [f"evolve_exact gt={gt}: p = {p!r} != sin^2(gt/2) = {law!r}"]
    return []


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_hashes(path: Path, manifest_sha: str | None, first: dict) -> list:
    """The file re-reads to the sha256 its manifest recorded, and to the
    sha256 it had in the first pass of the run."""
    if not path.is_file():
        return [f"{path.name} missing"]
    digest = sha256(path)
    problems = []
    if manifest_sha is not None and digest != manifest_sha:
        problems.append(f"{path.name} differs from its manifest sha256")
    if first.setdefault(path.name, digest) != digest:
        problems.append(f"{path.name} differs from the first pass")
    return problems


# -- classical_fig2 -----------------------------------------------------------------


def setup_classical_fig2(inputs: dict):
    p = params.build_params(FIG2_CONFIG)
    chain = p.chain
    half = chain.L / 2.0
    # integrate's step limit is a tenth of the shortest chain period
    dt_max = 0.1 * 2.0 * math.pi / (2.0 * math.sqrt(chain.k_c / chain.m_c))
    runs = []
    for v, t in FIG2_RUNS:
        steps = max(1, round(t / (0.5 * dt_max)))
        runs.append((meanfield.Trajectory(inputs["x0"], v), t, t / steps, steps))
    return SimpleNamespace(params=p, runs=runs,
                           grid=np.linspace(-half, half, FIG2_GRID),
                           sites=discrete_oracle.site_positions(p))


def _closed_op(ctx, tally, traj, t):
    prof = meanfield.profile("closed", ctx.grid, t, traj, ctx.params)
    problems = []
    finite(problems, "closed", prof.values)
    wide = meanfield.meanfield_closed(WIDE_SUPPORT, t, traj, ctx.params)
    net = net_displacement(wide, WIDE_SUPPORT)
    tally.note("meanfield.net_disp", net)
    within(problems, "closed net displacement", net, NET_DISP_TOL)
    return prof.values, problems


def _route_op(ctx, tally, route, traj, t, closed):
    if closed is None:
        return None, ["no closed profile to compare with"]
    prof = meanfield.profile(route, ctx.grid, t, traj, ctx.params)
    problems = check_profile(tally, route, prof.values, closed, ctx.grid)
    if route == "modesum" and not prof.meta["quadrature"].converged:
        problems.append("modesum quadrature did not converge")
    return None, problems


def _leapfrog_op(ctx, tally, traj, t, dt, steps):
    state = discrete_oracle.initial_state(ctx.params, x_d=traj.x0, v=traj.v)
    run = discrete_oracle.integrate(state, ctx.params, dt, steps,
                                    mode="prescribed", store_every=steps)
    phi_closed = meanfield.meanfield_closed(ctx.sites, t, traj, ctx.params)
    problems = []
    finite(problems, "leapfrog", run.final.phi)
    l2 = leapfrog_l2(run.final.phi, phi_closed)
    tally.note("discrete_oracle.l2_over_peak", l2)
    within(problems, "leapfrog L2 / peak", l2, LEAPFROG_TOL)
    return None, problems


def _dynamic_op(ctx, tally, traj, dt, steps):
    # No bound applies: at the default coupling the back-action is not weak.
    # Energy drift is reported as health only.
    state = discrete_oracle.initial_state(ctx.params, x_d=traj.x0, v=traj.v)
    run = discrete_oracle.integrate(state, ctx.params, dt, steps,
                                    mode="dynamic", store_every=steps)
    final = run.final
    problems = []
    finite(problems, "dynamic leapfrog", np.concatenate(
        [final.phi, final.p, [final.x_d, final.p_d]]))
    e0 = discrete_oracle.total_energy(run[0], ctx.params)
    e1 = discrete_oracle.total_energy(final, ctx.params)
    tally.note("discrete_oracle.energy_drift", abs(e1 - e0) / abs(e0))
    return None, problems


def pass_classical_fig2(ctx, tally: Tally, span):
    for traj, t, dt, steps in ctx.runs:
        tag = f"v={traj.v} t={t}"
        closed = tally.op(f"closed {tag}", lambda: _closed_op(ctx, tally, traj, t))
        for route in ("series", "modesum"):
            tally.op(f"{route} {tag}",
                     lambda: _route_op(ctx, tally, route, traj, t, closed))
        tally.op(f"integrate {tag}",
                 lambda: _leapfrog_op(ctx, tally, traj, t, dt, steps))
        if (traj.v, t) == DYNAMIC_RUN:
            tally.op(f"integrate dynamic {tag}",
                     lambda: _dynamic_op(ctx, tally, traj, dt, steps))


# -- rwa_full ---------------------------------------------------------------------


def setup_rwa_full(inputs: dict):
    """Criterion 8 configuration: |g_10|/hbar = 0.05 at the v = 2 resonance,
    modes (9, 10, 11) with n_max (2, 3, 2), dim 72."""
    base = params.build_params(FIG2_CONFIG)
    omega_d = modes.mode_frequency(RWA_ALPHA, base.chain) / (RWA_V - 1.0)
    probe = modes.mode_coupling(RWA_ALPHA, base, omega_d=omega_d)
    p = params.build_params({**FIG2_CONFIG, "coupling": {
        "g": RWA_G_OVER_HBAR * base.hbar / abs(probe.g_alpha)}})
    couplings = [modes.mode_coupling(a, p, omega_d=omega_d)
                 for a in (RWA_ALPHA - 1, RWA_ALPHA, RWA_ALPHA + 1)]
    space = quantum.FockSpace(modes=((RWA_ALPHA - 1, 2), (RWA_ALPHA, 3),
                                     (RWA_ALPHA + 1, 2)), detector_qubits=1)
    pair = quantum.FockSpace(modes=((RWA_ALPHA, 1),), detector_qubits=1)
    neighbours = (couplings[0], couplings[2])
    bounds = []
    for c in neighbours:
        detuning = abs(c.omega_alpha * (RWA_V - 1.0) - omega_d)
        bounds.append((abs(c.g_alpha) / (p.hbar * detuning)) ** 2)
    return SimpleNamespace(
        params=p, omega_d=omega_d, couplings=couplings, space=space, pair=pair,
        h_pair=quantum.build_ndpa(couplings[1], pair),
        traj=meanfield.Trajectory(inputs["x0"], RWA_V),
        g10=abs(couplings[1].g_alpha), bounds=bounds,
        number_ops=[space.number_operator(c.alpha) for c in neighbours])


def _full_op(ctx, tally, gt):
    t = gt * ctx.params.hbar / ctx.g10
    psi = quantum.evolve_full(ctx.space.vacuum(), t, ctx.traj, ctx.couplings,
                              ctx.space, ctx.params, ctx.omega_d)
    problems = []
    finite(problems, "evolve_full", psi.amplitudes)
    occupations = [psi.expectation(n) for n in ctx.number_ops]
    problems += check_rwa_node(tally, gt, psi.excitation_probability(), psi.norm,
                               occupations, ctx.bounds)
    return None, problems


def _exact_op(ctx, gt):
    t = gt * ctx.params.hbar / ctx.g10
    psi = quantum.evolve_exact(ctx.h_pair, ctx.pair.vacuum(), t, ctx.params.hbar)
    return None, check_exact(gt, psi.excitation_probability())


def pass_rwa_full(ctx, tally: Tally, span):
    for gt in RWA_GT:
        tally.op(f"evolve_full gt={gt}", lambda: _full_op(ctx, tally, gt))
        tally.op(f"evolve_exact gt={gt}", lambda: _exact_op(ctx, gt))


# -- cli_sweep --------------------------------------------------------------------


def cli_calls(inputs: dict) -> list:
    """(label, argv with {d} for the output directory, primary outputs)."""
    x0 = repr(inputs["x0"])
    return [
        ("modes", ["modes", "--csv", "{d}/modes.csv"], ["modes.csv"]),
        ("meanfield_closed", ["meanfield", "--route", "closed", "--v", "0.5",
                              "--t", "0.25", "--x0", x0, "--csv", "{d}/closed.csv"],
         ["closed.csv"]),
        ("meanfield_series", ["meanfield", "--route", "series", "--v", "0.5",
                              "--t", "0.25", "--x0", x0, "--csv", "{d}/series.csv"],
         ["series.csv"]),
        ("oracle_compare", ["oracle-compare", "--v", "0.5", "--t", "0.25",
                            "--x0", x0, "--csv", "{d}/oracle.csv"], ["oracle.csv"]),
        ("resonance", ["resonance", "--v", "2.0", "--json", "{d}/resonance.json"],
         ["resonance.json"]),
        ("evolve_exact", ["evolve", "--scheme", "exact", "--v", "2.0",
                          "--gt", "0.05,0.1,0.2", "--csv", "{d}/exact.csv"],
         ["exact.csv"]),
        ("evolve_full", ["evolve", "--scheme", "full", "--v", "2.0", "--x0", x0,
                         "--gt", "0.1", "--csv", "{d}/full.csv"], ["full.csv"]),
        ("reduced_state", ["reduced-state", "--theta", repr(inputs["theta"]),
                           "--phi", repr(inputs["phi"]), "--v1", "2.0",
                           "--v2", "1.5", "--gt", "0.1", "--method", "exact",
                           "--json", "{d}/reduced.json",
                           "--sweep-csv", "{d}/sweep.csv"],
         ["reduced.json", "sweep.csv"]),
        ("regime", ["regime", "--v", "0.5", "--x0", x0, "--t-end", "0.25",
                    "--json", "{d}/regime.json"], ["regime.json"]),
        ("rerun", ["rerun", "{d}/series.manifest.json"], ["series.csv"]),
    ]


def read_csv(path) -> dict:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


# Per-call content checks on the files as written; NaN columns the CLI
# documents (p_det_e2 for a single-level detector) are exempt from finiteness.
def _content_problems(tally: Tally, label: str, d: Path) -> list:
    problems = []
    if label == "modes":
        cols = read_csv(d / "modes.csv")
        finite(problems, "modes.csv", list(cols.values()))
    elif label in ("meanfield_closed", "meanfield_series", "rerun"):
        name = "closed.csv" if label == "meanfield_closed" else "series.csv"
        cols = read_csv(d / name)
        finite(problems, name, list(cols.values()))
        if label == "meanfield_series":
            closed = read_csv(d / "closed.csv")["phi_total"]
            problems += check_profile(tally, "series", cols["phi_total"],
                                      closed, cols["x"])
    elif label == "oracle_compare":
        cols = read_csv(d / "oracle.csv")
        finite(problems, "oracle.csv", list(cols.values()))
        l2 = leapfrog_l2(cols["phi_discrete"], cols["phi_closed"])
        tally.note("discrete_oracle.l2_over_peak", l2)
        within(problems, "leapfrog L2 / peak", l2, LEAPFROG_TOL)
    elif label == "evolve_exact":
        cols = read_csv(d / "exact.csv")
        for gt, p in zip(cols["gt"], cols["p_excite"]):
            problems += check_exact(float(gt), float(p))
    elif label == "evolve_full":
        finite(problems, "full.csv", list(read_csv(d / "full.csv").values()))
    elif label == "reduced_state":
        payload = json.loads((d / "reduced.json").read_text(encoding="utf-8"))
        td = max(pair["trace_distance"] for part in ("chain", "detector")
                 for pair in payload["coherent_vs_mixed"][part]["pairs"])
        tally.note("superpose.coherent_vs_mixed_td", td)
        within(problems, "coherent vs mixed trace distance", td, TD_TOL)
        cols = read_csv(d / "sweep.csv")
        finite(problems, "sweep.csv",
               [v for k, v in cols.items() if k != "p_det_e2"])
    elif label in ("resonance", "regime"):
        json.loads((d / f"{label}.json").read_text(encoding="utf-8"))
    return problems


def check_cli_call(tally: Tally, label: str, code: int, d: Path, outputs: list,
                   first: dict, stderr: str = "") -> list:
    """Exit code 0, outputs byte-identical to their manifest and to the first
    pass, and the content checks of the call."""
    if code != 0:
        return [f"exit code {code}: {stderr}"]
    problems = []
    manifest = {}
    if label != "rerun":
        path = io_utils.manifest_path_for(d / outputs[0])
        data = json.loads(path.read_text(encoding="utf-8"))
        manifest = {Path(rec["path"]).name: rec["sha256"] for rec in data["outputs"]}
    for name in outputs:
        problems += check_hashes(d / name, manifest.get(name), first)
    if not problems:
        problems += _content_problems(tally, label, d)
    return problems


def setup_cli_sweep(inputs: dict):
    """The runner adds out_root, env, first (hashes) and in_process."""
    return SimpleNamespace(calls=cli_calls(inputs), passes=0)


def _run_call(ctx, argv: list) -> tuple[int, str]:
    """Exit code and the last line of standard error of one CLI call."""
    if ctx.in_process:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.run(argv)
        stderr = err.getvalue()
    else:
        proc = subprocess.run([sys.executable, "-m", "ginzburg", *argv],
                              env=ctx.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        code, stderr = proc.returncode, proc.stderr
    return code, (stderr.strip().splitlines() or [""])[-1]


def pass_cli_sweep(ctx, tally: Tally, span):
    d = ctx.out_root / f"pass{ctx.passes}"
    ctx.passes += 1
    d.mkdir(parents=True)
    try:
        for label, argv, outputs in ctx.calls:
            argv = [a.replace("{d}", str(d)) for a in argv]
            with span(f"cli.{label}"):
                code, err = _run_call(ctx, argv)
            tally.op(f"cli {label}",
                     lambda: (None, check_cli_call(tally, label, code, d,
                                                   outputs, ctx.first, err)))
    finally:
        shutil.rmtree(d, ignore_errors=True)


WORKLOADS = {
    "classical_fig2": (setup_classical_fig2, pass_classical_fig2),
    "rwa_full": (setup_rwa_full, pass_rwa_full),
    "cli_sweep": (setup_cli_sweep, pass_cli_sweep),
}
