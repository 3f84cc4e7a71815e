#!/usr/bin/env python3
"""Chain displacement profiles for a subsonic and a supersonic detector.

Evaluates all three mean-field routes (closed form, image series, mode-sum
quadrature) on the canonical 2001-site chain, writes one CSV per run, and
prints the pairwise route agreement, the mode-sum quadrature report (final
panels, doublings, error estimate) and the packet positions.

    python3 scripts/fig2_profiles.py --out profiles/
    python3 -c "import pandas as pd, matplotlib.pyplot as plt; \
        d = pd.read_csv('profiles/profile_v0.5_t0.25.csv'); \
        d.plot(x='x'); plt.show()"
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from ginzburg.io_utils import write_csv
from ginzburg.meanfield import Trajectory, profile
from ginzburg.params import build_params

RUNS = ((0.5, 0.25), (2.5, 0.1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("profiles"))
    ap.add_argument("--n-sites", type=int, default=2001)
    ap.add_argument("--w", type=float, default=0.01)
    ap.add_argument("--grid", type=int, default=801)
    args = ap.parse_args(argv)

    params = build_params({"units": {"preset": "paper"},
                           "chain": {"N": args.n_sites},
                           "detector": {"w": args.w}})
    half = params.chain.L / 2.0
    grid = np.linspace(-half, half, args.grid)
    args.out.mkdir(parents=True, exist_ok=True)

    for v, t in RUNS:
        traj = Trajectory(0.0, v)
        t0 = time.perf_counter()
        routes = {name: profile(name, grid, t, traj, params)
                  for name in ("closed", "series", "modesum")}
        elapsed = time.perf_counter() - t0
        closed = routes["closed"]
        peak = float(np.max(np.abs(closed.values)))

        comp = closed.components
        rows = [(float(x),) + tuple(float(routes[r].values[i]) for r in
                                    ("closed", "series", "modesum"))
                + (float(comp["comoving"][i]), float(comp["ripple_right"][i]),
                   float(comp["ripple_left"][i]))
                for i, x in enumerate(grid)]
        out = args.out / f"profile_v{v}_t{t}.csv"
        write_csv(out, ["x", "phi_closed", "phi_series", "phi_modesum",
                        "phi_comoving", "phi_ripple_right", "phi_ripple_left"],
                  rows)

        regime = "subsonic" if v < params.chain.c_s else "supersonic"
        print(f"v = {v} ({regime}), t = {t}: peak |phi| = {peak:.6g}, "
              f"packets at {v * t:+.3f} (comoving) and +-{t:.3f} (ripples)")
        for name in ("series", "modesum"):
            dev = float(np.max(np.abs(routes[name].values - closed.values)))
            print(f"  {name:7s} vs closed: max |diff| / peak = {dev / peak:.3e}")
        q = routes["modesum"].meta["quadrature"]
        print(f"  modesum quadrature: {q.panels_x}x{q.panels_t} panels, "
              f"{q.doublings} doubling(s), estimate {q.error_estimate:.2e} "
              f"(tol {q.tolerance:.0e})")
        l1 = float(np.trapezoid(np.abs(closed.values), grid))
        print(f"  net displacement / L1 = "
              f"{abs(closed.constraint_integral) / l1:.3e}, {elapsed:.1f}s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
