#!/usr/bin/env python3
"""Pair-creation probability: perturbative vs exact vs full-Hamiltonian.

Rescales the coupling so |g_10| / hbar = 0.05 at the v = 2 resonance, then
sweeps g t and prints the detector excitation probability from all three
evolution schemes next to the rotating-wave law sin^2(g t / 2 hbar).  Past
the perturbative guard (g t / hbar > 0.3) the perturbative column reads -.
The full scheme keeps both neighbor modes, so their reported occupations
bound the off-resonant leakage.

The neighbor detunings are +-pi here, so their contribution to the excited
population beats with period t = 2: sweeping gt moves the full scheme
through maxima (gt = 0.05, t = 1) and nodes (gt = 0.1, t = 2) of that beat
while the resonant law is untouched.

    python3 scripts/rwa_validation.py --gt 0.05 0.1 0.2
"""

import argparse
import math
import sys

from ginzburg.errors import GuardError
from ginzburg.meanfield import Trajectory
from ginzburg.modes import mode_coupling, mode_frequency
from ginzburg.params import build_params
from ginzburg.quantum import (FockSpace, build_ndpa, evolve_exact,
                              evolve_full, evolve_perturbative)

V = 2.0
ALPHA0 = 10


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gt", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    ap.add_argument("--g-over-hbar", type=float, default=0.05,
                    help="target |g_10| / hbar after rescaling")
    ap.add_argument("--n-max", type=int, default=3,
                    help="resonant-mode truncation in the full scheme")
    args = ap.parse_args(argv)

    base = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                         "detector": {"w": 0.01}})
    omega_d = mode_frequency(ALPHA0, base.chain) / (V - 1.0)
    probe = mode_coupling(ALPHA0, base, omega_d=omega_d)
    params = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                           "detector": {"w": 0.01},
                           "coupling": {"g": args.g_over_hbar * base.hbar
                                        / abs(probe.g_alpha)}})

    couplings = [mode_coupling(a, params, omega_d=omega_d)
                 for a in (ALPHA0 - 1, ALPHA0, ALPHA0 + 1)]
    g10 = abs(couplings[1].g_alpha)
    side = args.n_max - 1
    space = FockSpace(modes=((ALPHA0 - 1, side), (ALPHA0, args.n_max),
                             (ALPHA0 + 1, side)), detector_qubits=1)
    pair_space = FockSpace(modes=((ALPHA0, 1),), detector_qubits=1)
    h_pair = build_ndpa(couplings[1], pair_space)
    traj = Trajectory(0.0, V)

    print(f"|g_10| / hbar = {g10 / params.hbar:.4g}, omega_d = {omega_d:.6g}, "
          f"full space dim = {space.dim}")
    print(f"{'gt':>6} {'sin^2':>12} {'pert':>12} {'exact':>12} {'full':>12} "
          f"{'full rel dev':>12} {'<n_9>':>10} {'<n_11>':>10}")
    for gt in args.gt:
        t = gt * params.hbar / g10
        law = math.sin(gt / 2.0) ** 2
        try:
            pert = evolve_perturbative(h_pair, pair_space.vacuum(), t,
                                       params.hbar).normalized()
            p_pert = f"{pert.excitation_probability():12.6e}"
        except GuardError:  # past the weak-coupling guard
            p_pert = f"{'-':>12}"
        exact = evolve_exact(h_pair, pair_space.vacuum(), t, params.hbar)
        full = evolve_full(space.vacuum(), t, traj, couplings, space, params,
                           omega_d)
        p_full = full.excitation_probability()
        print(f"{gt:6.3f} {law:12.6e} {p_pert} "
              f"{exact.excitation_probability():12.6e} "
              f"{p_full:12.6e} {p_full / law - 1.0:12.3e} "
              f"{full.expectation(space.number_operator(ALPHA0 - 1)):10.3e} "
              f"{full.expectation(space.number_operator(ALPHA0 + 1)):10.3e}")

    for c in (couplings[0], couplings[2]):
        detuning = abs(c.omega_alpha * (V - 1.0) - omega_d)
        print(f"mode {c.alpha}: detuning = {detuning:.4f} "
              f"(guard 20 |g|/hbar = {20.0 * abs(c.g_alpha) / params.hbar:.4f}), "
              f"occupation bound (|g|/hbar delta)^2 = "
              f"{(abs(c.g_alpha) / (params.hbar * detuning)) ** 2:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
