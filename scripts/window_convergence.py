#!/usr/bin/env python3
"""Convergence of `evolve --scheme full` in the mode window.

At the CLI defaults (Fig. 2 parameters, unscaled coupling, v = 2, x0 = 0,
n_max 2 on the resonant mode and 1 on the others) this evolves the vacuum
to g t / hbar = --gt over the modes alpha0 +/- window and prints, for each
window, the Fock dimension, the detector excitation probability, the CPU
seconds of the evolve_full call and the process's peak RSS after it.  The
windows run in increasing size, so the peak RSS (a high-water mark) is
that of the largest window so far.

    GINZBURG_NUM_THREADS=1 python3 scripts/window_convergence.py
    python3 scripts/window_convergence.py --gt 3 --windows 2 3 4
"""

import argparse
import resource
import time

from ginzburg.meanfield import Trajectory
from ginzburg.modes import mode_coupling, resonance_mode
from ginzburg.params import build_params
from ginzburg.quantum import FockSpace, evolve_full

V = 2.0
FIG2 = {"units": {"preset": "paper"}, "chain": {"N": 2001},
        "detector": {"w": 0.01}}


def peak_rss_mb() -> float:
    # ru_maxrss is in kB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gt", type=float, default=1.0,
                    help="|g_alpha0| t / hbar of the evolution")
    ap.add_argument("--windows", type=int, nargs="+", default=[2, 3, 4, 5])
    args = ap.parse_args(argv)

    params = build_params(FIG2)
    omega_d = params.detector.omega_d1
    alpha0 = resonance_mode(V, omega_d, params).alpha0
    g_res = abs(mode_coupling(alpha0, params, omega_d).g_alpha)
    t = args.gt * params.hbar / g_res
    print(f"alpha0={alpha0}, gt={args.gt}, t={t:.6e}")
    print(f"{'window':>6} {'dim':>7} {'p_excite':>14} {'cpu_s':>8} "
          f"{'peak_rss_mb':>11}")
    for window in sorted(args.windows):
        # the CLI's window: alpha0 +/- window, clipped to the chain's modes
        alphas = range(max(1, alpha0 - window),
                       min(params.chain.N - 1, alpha0 + window) + 1)
        couplings = [mode_coupling(a, params, omega_d) for a in alphas]
        space = FockSpace(modes=tuple((a, 2 if a == alpha0 else 1)
                                      for a in alphas), detector_qubits=1)
        c0 = time.process_time()
        psi = evolve_full(space.vacuum(), t, Trajectory(0.0, V), couplings,
                          space, params, omega_d)
        cpu_s = time.process_time() - c0
        print(f"{window:>6} {space.dim:>7} {psi.excitation_probability():>14.10f} "
              f"{cpu_s:>8.3f} {peak_rss_mb():>11.1f}")


if __name__ == "__main__":
    main()
