"""Command-line front end.

Subcommands: modes, meanfield, oracle-compare, resonance, evolve,
reduced-state, regime, rerun.  Exit codes: 0 success, 2 validation /
usage error, 3 numerical-tolerance failure.  Every run that writes files
also writes a manifest (see io_utils) that `rerun` can replay and verify.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GinzburgError, GuardError, ToleranceError, ValidationError
from .io_utils import (load_manifest, sha256_file, write_csv, write_json,
                       write_manifest)
from .params import build_params, load_params, regime_check
from .modes import (Y_MAX, coupling_strengths, mode_coupling, mode_spectrum,
                    resonance_mode, resonance_pair)
from .meanfield import Trajectory, meanfield_closed, profile
from .discrete_oracle import (initial_state, integrate, max_stable_dt,
                              site_positions)
from .quantum import (FockSpace, build_ndpa, evolve_exact, evolve_full,
                      evolve_perturbative, trace_distance)
from .superpose import (branch_spec_from_resonance, density_matrix,
                        discriminate, evolve_superposed, mixed_density_matrix,
                        reduce_chain, reduce_detector)

# Fig. 2-style default configuration when no --params file is given
_DEFAULT_CONFIG = {"units": {"preset": "paper"},
                   "chain": {"N": 2001},
                   "detector": {"w": 0.01}}

_PHI_SWEEP = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)


def _load_params(args):
    if getattr(args, "params", None):
        return load_params(args.params)
    return build_params(_DEFAULT_CONFIG)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, like the handlers' errors, and
    takes -1e-3 and -1,2 for values, not for option flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,.*)?$")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see {self.prog} -h)\n")


def _finite_float(text: str) -> float:
    """argparse type for float options: NaN and +-inf are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a finite number > 0."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for a finite number >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _times_list(text: str) -> list[float]:
    """argparse type for a comma-separated list of finite numbers >= 0."""
    values = [_nonnegative_float(tok) for tok in filter(str.strip, text.split(","))]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _grid(params, n: int) -> np.ndarray:
    if n < 2:
        raise ValidationError(f"--grid must be >= 2 points, got {n}")
    half = params.chain.L / 2.0
    return np.linspace(-half, half, n)


# -- subcommand handlers (return (summary, [output paths])) --------------------


def _cmd_modes(args, params):
    spec = mode_spectrum(params)
    g = coupling_strengths(params, params.detector.omega_d1, alphas=spec.alphas)
    rows = [(int(a), float(om), float(gv), float(fv), bool(r))
            for a, om, gv, fv, r in zip(spec.alphas, spec.omega, g, spec.f, spec.retained)]
    out = write_csv(args.csv, ["alpha", "omega", "g_alpha", "f_factor", "retained"], rows)
    return (f"modes: {len(rows)} modes, {spec.n_retained} retained (y_max={Y_MAX}), "
            f"max |g_alpha|/hbar = {np.max(np.abs(g)) / params.hbar:.6g} -> {out}",
            [out])


def _cmd_meanfield(args, params):
    traj = Trajectory(x0=args.x0, v=args.v)
    grid = _grid(params, args.grid)
    # only the options given; profile refuses those the route does not read
    options = {name: value for name in ("include_image", "alpha_max", "longwave",
                                        "extended_domain", "rel_tol")
               if (value := getattr(args, name)) is not None}
    prof = profile(args.route, grid, args.t, traj, params, **options)
    # the modesum route has no packet decomposition: NaN columns
    packets = ("comoving", "ripple_right", "ripple_left")
    comp = prof.components or dict.fromkeys(packets, np.full(grid.size, np.nan))
    out = write_csv(args.csv, ["x", "phi_total", *(f"phi_{p}" for p in packets)],
                    zip(grid, prof.values, *(comp[p] for p in packets)))
    extra = ""
    if "quadrature" in prof.meta:
        q = prof.meta["quadrature"]
        extra = f", quadrature error {q.error_estimate:.2e}"
    return (f"meanfield[{args.route}]: t={args.t}, v={args.v}, "
            f"peak |phi| = {np.max(np.abs(prof.values)):.6g}, "
            f"integral {prof.constraint_integral:.3e}{extra} -> {out}",
            [out])


def _cmd_oracle_compare(args, params):
    chain = params.chain
    traj = Trajectory(x0=args.x0, v=args.v)
    traj.validate(params)
    if args.stride < 1:
        raise ValidationError(f"--stride must be >= 1, got {args.stride}")
    if args.dt is not None and args.dt <= 0:
        raise ValidationError(f"--dt must be > 0, got {args.dt}")
    dt = 0.5 * max_stable_dt(params) if args.dt is None else args.dt
    steps = max(1, int(round(args.t / dt)))
    dt = args.t / steps

    state = initial_state(params, x_d=args.x0, v=args.v)
    run = integrate(state, params, dt, steps, mode="prescribed", store_every=steps)
    phi_d = run.final.phi
    x = site_positions(params)
    phi_c = meanfield_closed(x, args.t, traj, params)

    peak = float(np.max(np.abs(phi_c)))
    l2 = float(np.sqrt(np.mean((phi_d - phi_c) ** 2))) / peak
    rows = [(float(x[i]), float(phi_d[i]), float(phi_c[i]))
            for i in range(0, x.size, args.stride)]
    out = write_csv(args.csv, ["x", "phi_discrete", "phi_closed"], rows)
    summary = (f"oracle-compare: N={chain.N}, steps={steps}, "
               f"L2/peak = {l2:.4e} (tol {args.tol}) -> {out}")
    if l2 > args.tol:
        print(summary)
        raise ToleranceError(
            f"discrete-vs-closed L2/peak = {l2:.4e} exceeds tol = {args.tol}")
    return summary, [out]


def _cmd_resonance(args, params):
    det = params.detector
    if args.v2 is None and det.two_level:
        raise ValidationError("a second detector frequency in the params file "
                              "needs a second trajectory; give --v2")
    outputs = []
    if args.v2 is not None:
        pair = resonance_pair(args.v, args.v2, params)
        c1, c2 = pair.couplings
        payload = {**asdict(pair), "mode": "pair", "v1": args.v, "v2": args.v2,
                   "omega_d1": c1.omega_d, "omega_d2": c2.omega_d}
        summary = (f"resonance pair: alpha1={pair.alpha1}, alpha2={pair.alpha2}, "
                   f"selectivity_violated={pair.selectivity_violated}")
    else:
        res = resonance_mode(args.v, det.omega_d1, params)
        payload = {**asdict(res), "mode": "single", "v": args.v,
                   "omega_d": det.omega_d1}
        summary = (f"resonance: alpha0={res.alpha0}, Omega*={res.omega_star:.6g}, "
                   f"detuning={res.detuning:.4e}")
    if args.json:
        payload["params"] = params.to_dict()
        outputs.append(write_json(args.json, payload))
        summary += f" -> {outputs[0]}"
    return summary, outputs


def _exact_option(err: GuardError, option: str) -> GuardError:
    """The weak-coupling guard's error with its remedy, the library's
    evolve_exact, named as the CLI option that runs it; any other guard's
    error unchanged."""
    reason, remedy, _ = str(err).partition("; use evolve_exact")
    return GuardError(f"{reason}; use {option}") if remedy else err


def _cmd_evolve(args, params):
    omega_d = params.detector.omega_d1
    res = resonance_mode(args.v, omega_d, params)
    coupling = mode_coupling(res.alpha0, params, omega_d)
    g_abs = abs(coupling.g_alpha)
    if g_abs == 0.0:
        raise ValidationError("resonant coupling is zero; nothing to evolve")
    hbar = params.hbar
    if args.scheme == "full":
        if args.window < 0:
            raise ValidationError(f"--window must be >= 0, got {args.window}")
        lo, hi = res.alpha0 - args.window, res.alpha0 + args.window
        couplings = [mode_coupling(a, params, omega_d)
                     for a in range(max(1, lo), min(params.chain.N - 1, hi) + 1)]
        space = FockSpace(modes=tuple(
            (c.alpha, args.n_max if c.alpha == res.alpha0 else args.n_max_offres)
            for c in couplings))
    else:
        # from the vacuum the rotating-wave H couples |0, g> with |1, e>
        # only, so the exact and perturbative schemes need no more than that
        space = FockSpace(modes=((res.alpha0, 1),))
        h = build_ndpa(coupling, space)
    rows = []
    for gt in args.gt:
        t = gt * hbar / g_abs
        if args.scheme == "perturbative":
            try:
                psi = evolve_perturbative(h, space.vacuum(), t, hbar=hbar)
            except GuardError as err:
                raise _exact_option(err, "--scheme exact") from None
            psi = psi.normalized()
        elif args.scheme == "exact":
            psi = evolve_exact(h, space.vacuum(), t, hbar=hbar)
        else:
            psi = evolve_full(space.vacuum(), t, Trajectory(x0=args.x0, v=args.v),
                              couplings, space, params)
        occ = tuple(1 if a == res.alpha0 else 0 for a in space.mode_labels)
        amp = psi.amplitudes[space.basis_index(1, occ)]
        rows.append((float(gt), float(t), float(psi.excitation_probability()),
                     float(amp.real), float(amp.imag)))
    out = write_csv(args.csv, ["gt", "t", "p_excite", "amp_re", "amp_im"], rows)
    return (f"evolve[{args.scheme}]: alpha0={res.alpha0}, "
            f"|g|/hbar={g_abs / hbar:.6g}, {len(rows)} gt values -> {out}",
            [out])


def _cmd_reduced_state(args, params):
    spec = branch_spec_from_resonance(params, args.v1, args.v2, args.theta,
                                      args.phi, x0_1=args.x0, x0_2=args.x0_2)
    g1 = abs(spec.branches[0].coupling.g_alpha)
    t = args.t if args.t is not None else args.gt * params.hbar / g1

    try:
        state = evolve_superposed(spec, t, method=args.method)
    except GuardError as err:
        raise _exact_option(err, "--method exact") from None
    rho, rho_mix = density_matrix(state), mixed_density_matrix(state)
    reports = {name: discriminate(reduce(rho), reduce(rho_mix), ["coherent", "mixed"])
               for name, reduce in (("chain", reduce_chain),
                                    ("detector", reduce_detector))}

    payload = {
        "detector_model": spec.detector_model, "method": args.method,
        "theta": args.theta, "phi": args.phi, "t": t,
        "branches": [{"x0": b.x0, "v": b.v, **asdict(b.coupling)}
                     for b in spec.branches],
        "populations": {name: rep["populations"]["coherent"]
                        for name, rep in reports.items()},
        "coherent_vs_mixed": reports,
        "params": params.to_dict(),
    }
    outputs = [write_json(args.json, payload)]

    if args.sweep_csv:
        # the phase only reweights the branches already evolved
        reduced = [(reduce_chain(r), reduce_detector(r)) for r in (
            density_matrix(replace(state, spec=replace(spec, phi=phi)))
            for phi in _PHI_SWEEP)]
        ref_chain, ref_det = reduced[0]
        # the detector levels branches 1 and 2 excite; one shared level has no second
        levels = ((2,), (1,)) if spec.two_level else ((1,), None)
        rows = [(phi, *map(rc.population, ((0, 0), (1, 0), (0, 1))),
                 *(rd.population(lv) if lv else math.nan for lv in levels),
                 trace_distance(rc, ref_chain), trace_distance(rd, ref_det))
                for phi, (rc, rd) in zip(_PHI_SWEEP, reduced)]
        outputs.append(write_csv(
            args.sweep_csv,
            ["phi", "p_chain_00", "p_chain_10", "p_chain_01",
             "p_det_e1", "p_det_e2", "td_chain_vs_phi0", "td_det_vs_phi0"],
            rows))

    worst = max(rep["pairs"][0]["trace_distance"] for rep in reports.values())
    a1, a2 = (b.coupling.alpha for b in spec.branches)
    return (f"reduced-state[{spec.detector_model},{args.method}]: "
            f"alpha1={a1}, alpha2={a2}, coherent-vs-mixed max trace distance "
            f"= {worst:.3e} -> {outputs[0]}",
            outputs)


def _cmd_regime(args, params):
    if args.v2 is None and args.x0_2 is not None:
        raise ValidationError("--x0-2 starts a second trajectory; give --v2")
    trajectories = [(args.x0, args.v)]
    if args.v2 is not None:
        trajectories.append((0.0 if args.x0_2 is None else args.x0_2, args.v2))
    report = regime_check(params, args.t_end, trajectories)
    outputs = []
    if args.json:
        payload = report.to_dict()
        payload["params"] = params.to_dict()
        outputs.append(write_json(args.json, payload))
    failed = [c.name for c in report.checks if not c.passed]
    status = "all pass" if report.all_pass else f"FAILED: {', '.join(failed)}"
    summary = f"regime: {len(report.checks)} checks, {status}"
    if outputs:
        summary += f" -> {outputs[0]}"
    return summary, outputs


def _cmd_rerun(args):
    data = load_manifest(args.manifest)
    argv = list(data["argv"])
    if argv and argv[0] == "rerun":
        raise ValidationError("refusing to rerun a rerun manifest")
    code = run(argv)
    if code != 0:
        raise ValidationError(f"replayed command exited with code {code}")
    mismatched = []
    for rec in data["outputs"]:
        path = Path(rec["path"])
        if not path.exists() or sha256_file(path) != rec["sha256"]:
            mismatched.append(str(path))
    if mismatched:
        raise ToleranceError(
            "rerun outputs differ from manifest hashes: " + ", ".join(mismatched))
    return (f"rerun: {len(data['outputs'])} outputs verified byte-identical "
            f"against {args.manifest}", [])


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ginzburg",
        description="Sound-speed analogue of Ginzburg radiation: mean-field, "
                    "discrete-oracle, and quantized detector-chain runs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", type=str, default=None,
                        help="JSON config file (default: paper units, N=2001, w=0.01)")

    p = sub.add_parser("modes", parents=[common],
                       help="mode table: frequency, coupling, cutoff factor")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("meanfield", parents=[common],
                       help="mean displacement field profile by one route")
    p.add_argument("--route", required=True, choices=["closed", "series", "modesum"])
    p.add_argument("--v", type=_finite_float, required=True)
    p.add_argument("--x0", type=_finite_float, default=0.0)
    p.add_argument("--t", type=_nonnegative_float, required=True)
    p.add_argument("--grid", type=int, default=4001)
    p.add_argument("--csv", required=True)
    # route options: None when not given, so the library keeps its defaults
    p.add_argument("--alpha-max", type=int, default=None)
    p.add_argument("--include-image", action="store_true", default=None)
    p.add_argument("--longwave", action="store_true", default=None)
    p.add_argument("--extended-domain", action="store_true", default=None)
    p.add_argument("--rel-tol", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("oracle-compare", parents=[common],
                       help="discrete leapfrog vs closed form")
    p.add_argument("--v", type=_finite_float, required=True)
    p.add_argument("--x0", type=_finite_float, default=0.0)
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument("--dt", type=_finite_float, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--tol", type=_positive_float, default=0.05)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("resonance", parents=[common],
                       help="resonant mode index for one or two trajectories")
    p.add_argument("--v", type=_finite_float, required=True)
    p.add_argument("--v2", type=_finite_float, default=None)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=_cmd_resonance)

    p = sub.add_parser("evolve", parents=[common],
                       help="detector excitation for a localized trajectory")
    p.add_argument("--scheme", required=True,
                   choices=["exact", "perturbative", "full"])
    p.add_argument("--v", type=_finite_float, required=True)
    p.add_argument("--x0", type=_finite_float, default=0.0)
    p.add_argument("--gt", type=_times_list, required=True,
                   help="comma-separated |g_alpha| t / hbar values")
    p.add_argument("--n-max", type=int, default=2,
                   help="full scheme: resonant-mode Fock truncation")
    p.add_argument("--n-max-offres", type=int, default=1,
                   help="full scheme: Fock truncation of the other modes")
    p.add_argument("--window", type=int, default=2,
                   help="full scheme: modes alpha0 +/- window")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("reduced-state", parents=[common],
                       help="superposed-trajectory reduced states and verdicts")
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--phi", type=_finite_float, default=0.0)
    p.add_argument("--v1", type=_finite_float, required=True)
    p.add_argument("--v2", type=_finite_float, required=True)
    p.add_argument("--x0", type=_finite_float, default=0.0)
    p.add_argument("--x0-2", type=_finite_float, default=0.0)
    p.add_argument("--method", choices=["perturbative", "exact"],
                   default="perturbative")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gt", type=_nonnegative_float, help="|g_alpha1| t / hbar")
    group.add_argument("--t", type=_nonnegative_float)
    p.add_argument("--json", required=True)
    p.add_argument("--sweep-csv", type=str, default=None,
                   help="also sweep phi over {0, pi/4, pi/2, 3pi/4}")
    p.set_defaults(func=_cmd_reduced_state)

    p = sub.add_parser("regime", parents=[common],
                       help="approximation-regime report for a run window")
    p.add_argument("--v", type=_finite_float, required=True)
    p.add_argument("--x0", type=_finite_float, default=0.0)
    p.add_argument("--v2", type=_finite_float, default=None)
    p.add_argument("--x0-2", type=_finite_float, default=None)
    p.add_argument("--t-end", type=_nonnegative_float, required=True)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("rerun", help="replay a manifest and verify output hashes")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_rerun, params=None)

    return parser


def run(argv) -> int:
    """Dispatch argv (without the program name); returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse handles usage/help text itself
        return int(exc.code or 0)

    t_start = time.perf_counter()
    try:
        if args.subcommand == "rerun":
            summary, outputs = _cmd_rerun(args)
            params = None
        else:
            params = _load_params(args)
            summary, outputs = args.func(args, params)
    except ToleranceError as exc:
        print(f"ginzburg {args.subcommand}: tolerance failure: {exc}", file=sys.stderr)
        return 3
    except (GinzburgError, OSError, MemoryError) as exc:
        print(f"ginzburg {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2

    if outputs:
        options = {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in vars(args).items() if k != "func"}
        write_manifest(
            outputs, subcommand=args.subcommand, argv=list(argv),
            params=params.to_dict() if params is not None else {},
            options=options, version=__version__,
            wall_time_s=time.perf_counter() - t_start)
    print(summary)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
