#!/usr/bin/env python3
"""Before/after benchmark record of the package: BENCH_<tag>.json.

    python3 scripts/bench.py --tag mychange --src ../base/src --repeats 5
    python3 scripts/bench.py --tag ci --repeats 1

Measures the package under src/ next to this script (the "after" section)
and, with --src DIR, the package under DIR too (the "before" section),
alternating the two trees within every repeat.  Each measurement runs in a
fresh interpreter with GINZBURG_NUM_THREADS=1, and the record holds the
median over the repeats (the minimum for evolve_full_s_per_step,
leapfrog_us_per_step and series_s) of:

  evolve_full_s_per_step  CPU seconds per Magnus-2 step of evolve_full at the
                          criterion-8 configuration (|g_10|/hbar = 0.05 at
                          the v = 2 resonance, modes 9, 10, 11 with n_max
                          2, 3, 2, dim 72, 36 rows stepped) at gt 0.1 and
                          0.2 and, at the same coupling, on modes 7..13
                          with n_max 2 on mode 10 and 1 elsewhere (dim 384,
                          192 rows stepped, above the size rule of the
                          dense step) at gt 0.1, and of the one step of
                          `evolve --scheme full --v 2.0 --gt 3` at the CLI
                          defaults (window 2, dim 96, 48 rows stepped);
                          each the minimum over KERNEL_CALLS = 25 calls
                          after a warm-up call, the configurations taking
                          turns, and then over
                          the repeats: host load only ever adds time to a
                          call, and on a shared 2-vCPU host it came and went
                          over seconds (the criterion-8 step ran at about
                          20 us, or at about 33 us, for seconds at a time)
  modesum                 CPU seconds of the two Fig. 2 modesum profiles
                          (v = 0.5, t = 0.25 and v = 2.5, t = 0.1, x0 = 0,
                          801 grid points), timed in a fresh child after
                          its imports, that child's peak RSS in MB, and the
                          larger tracemalloc peak, in MB, of one profile run
                          again after the timing
  leapfrog_us_per_step    CPU microseconds per step of the prescribed and the
                          dynamic leapfrog chain at the Fig. 2 defaults
                          (v = 0.5, x0 = 0, t = 0.25 in steps of half the
                          stability bound), each the minimum over
                          LAYER_CALLS calls after a warm-up call, the modes
                          taking turns, and then over the repeats, as for
                          evolve_full
  series_s                CPU seconds of the series profile (v = 0.5,
                          t = 0.25, x0 = 0) at 801 and at 4001 grid points,
                          each the minimum over LAYER_CALLS calls after a
                          warm-up call, the grids taking turns, and then over
                          the repeats
  import_floor_s          child CPU seconds of `python -c "import ginzburg.cli"`
  cli_cpu_s               child CPU seconds of each subcommand at the Fig. 2
                          defaults (N = 2001, w = 0.01)

and, once per tree, the counts of scripts/src_stats.py.  The machine is
recorded once.  The file is written to the current directory.  It is
informational: no number makes the script fail, only a failed call does.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
OWN_SRC = SCRIPTS.parent / "src"
# timed evolve_full calls per configuration and repeat; the fastest counts
KERNEL_CALLS = 25
# timed leapfrog and series calls per configuration and repeat; the fastest counts
LAYER_CALLS = 5
FIG2 = {"units": {"preset": "paper"}, "chain": {"N": 2001},
        "detector": {"w": 0.01}}
# the cli_sweep calls of the benchmark, at x0 = 0 and fixed angles; series
# runs before rerun, which replays its manifest
CLI_CALLS = (
    ("modes", ["modes", "--csv", "{d}/modes.csv"]),
    ("meanfield_closed", ["meanfield", "--route", "closed", "--v", "0.5",
                          "--t", "0.25", "--csv", "{d}/closed.csv"]),
    ("meanfield_series", ["meanfield", "--route", "series", "--v", "0.5",
                          "--t", "0.25", "--csv", "{d}/series.csv"]),
    ("oracle_compare", ["oracle-compare", "--v", "0.5", "--t", "0.25",
                        "--csv", "{d}/oracle.csv"]),
    ("resonance", ["resonance", "--v", "2.0", "--json", "{d}/resonance.json"]),
    ("evolve_exact", ["evolve", "--scheme", "exact", "--v", "2.0",
                      "--gt", "0.05,0.1,0.2", "--csv", "{d}/exact.csv"]),
    ("evolve_full", ["evolve", "--scheme", "full", "--v", "2.0", "--gt", "0.1",
                     "--csv", "{d}/full.csv"]),
    ("reduced_state", ["reduced-state", "--theta", "0.7", "--phi", "0.3",
                       "--v1", "2.0", "--v2", "1.5", "--gt", "0.1",
                       "--method", "exact", "--json", "{d}/reduced.json",
                       "--sweep-csv", "{d}/sweep.csv"]),
    ("regime", ["regime", "--v", "0.5", "--t-end", "0.25",
                "--json", "{d}/regime.json"]),
    ("rerun", ["rerun", "{d}/series.manifest.json"]),
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["GINZBURG_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(SCRIPTS)])
    return env


def child_cpu(cmd: list, env: dict, cwd: str) -> float:
    """CPU seconds of one child process; raises if it fails."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, env=env, cwd=cwd, check=True, timeout=600,
                   stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def child_json(code: str, env: dict, cwd: str, *args: str) -> dict:
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                         check=True, timeout=600, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def kernel_child():
    """Runs in a fresh interpreter: prints the evolve_full CPU seconds per
    step of each configuration as one JSON line.  The timed calls take the
    configurations in turn, so each one's minimum is drawn from the whole
    span of the child rather than from one stretch of it."""
    from ginzburg import modes, params, quantum
    from ginzburg.meanfield import Trajectory

    def configured(gt, p, omega_d, couplings, space):
        """The evolve_full call of one configuration and its step count."""
        # the resonant mode sits in the middle of every mode window
        t = gt * p.hbar / abs(couplings[len(couplings) // 2].g_alpha)
        traj = Trajectory(0.0, 2.0)

        def call():
            quantum.evolve_full(space.vacuum(), t, traj, couplings, space, p,
                                omega_d)
        # evolve_full's step count
        omega_fast = max(c.omega_alpha for c in couplings) + omega_d
        steps = max(1, math.ceil(t * quantum.FULL_STEPS_PER_CYCLE * omega_fast
                                 / (2.0 * math.pi)))
        return call, steps

    base = params.build_params(FIG2)
    omega_d = modes.mode_frequency(10, base.chain) / (2.0 - 1.0)
    probe = modes.mode_coupling(10, base, omega_d=omega_d)
    scaled = params.build_params({**FIG2, "coupling": {
        "g": 0.05 * base.hbar / abs(probe.g_alpha)}})
    couplings = [modes.mode_coupling(a, scaled, omega_d=omega_d)
                 for a in (9, 10, 11)]
    space = quantum.FockSpace(modes=((9, 2), (10, 3), (11, 2)))
    configs = {f"criterion8_gt{gt}": configured(gt, scaled, omega_d, couplings,
                                                space)
               for gt in (0.1, 0.2)}
    # the same coupling on modes 7..13, a sector above the dense size rule
    couplings = [modes.mode_coupling(a, scaled, omega_d=omega_d)
                 for a in range(7, 14)]
    space = quantum.FockSpace(modes=tuple((c.alpha, 2 if c.alpha == 10 else 1)
                                          for c in couplings))
    configs["window3_gt0.1"] = configured(0.1, scaled, omega_d, couplings, space)

    # evolve --scheme full --v 2.0 --gt 3 at the CLI defaults
    omega_d = base.detector.omega_d1
    alpha0 = modes.resonance_mode(2.0, omega_d, base).alpha0
    couplings = [modes.mode_coupling(a, base, omega_d)
                 for a in range(alpha0 - 2, alpha0 + 3)]
    space = quantum.FockSpace(modes=tuple((c.alpha, 2 if c.alpha == alpha0 else 1)
                                          for c in couplings))
    configs["cli_default_gt3"] = configured(3.0, base, omega_d, couplings, space)

    for call, _ in configs.values():
        call()
    samples = {name: [] for name in configs}
    for _ in range(KERNEL_CALLS):
        for name, (call, _) in configs.items():
            c0 = time.process_time()
            call()
            samples[name].append(time.process_time() - c0)
    print(json.dumps({name: (min(samples[name]) / steps, steps)
                      for name, (_, steps) in configs.items()}))


def modesum_child():
    """Runs in a fresh interpreter: prints the CPU seconds of both Fig. 2
    modesum profiles, the peak RSS of the process and the larger tracemalloc
    peak of one profile, each run again after the timing, as one JSON line."""
    # the package caps the BLAS threads only if it loads before numpy does
    from ginzburg import params
    from ginzburg.meanfield import Trajectory, meanfield_modesum
    import numpy as np

    p = params.build_params(FIG2)
    grid = np.linspace(-p.chain.L / 2.0, p.chain.L / 2.0, 801)
    runs = ((0.5, 0.25), (2.5, 0.1))
    c0 = time.process_time()
    for v, t in runs:
        meanfield_modesum(grid, t, Trajectory(0.0, v), p)
    cpu = time.process_time() - c0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peaks = []
    for v, t in runs:
        tracemalloc.start()
        meanfield_modesum(grid, t, Trajectory(0.0, v), p)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
    print(json.dumps({"cpu_s": cpu, "peak_rss_mb": rss,
                      "profile_alloc_peak_mb": max(peaks)}))


def layer_minima(calls: dict) -> dict:
    """CPU seconds of each call, the minimum over LAYER_CALLS timed calls
    after a warm-up call, the calls taking turns."""
    for call in calls.values():
        call()
    samples = {name: [] for name in calls}
    for _ in range(LAYER_CALLS):
        for name, call in calls.items():
            c0 = time.process_time()
            call()
            samples[name].append(time.process_time() - c0)
    return {name: min(s) for name, s in samples.items()}


def leapfrog_child():
    """Runs in a fresh interpreter: prints the CPU microseconds per step of
    the prescribed and the dynamic leapfrog as one JSON line."""
    from ginzburg import discrete_oracle, params

    p = params.build_params(FIG2)
    steps = round(0.25 / (0.5 * discrete_oracle.max_stable_dt(p)))
    state = discrete_oracle.initial_state(p, x_d=0.0, v=0.5)
    calls = {mode: (lambda mode=mode: discrete_oracle.integrate(
        state, p, 0.25 / steps, steps, mode=mode, store_every=steps))
        for mode in ("prescribed", "dynamic")}
    print(json.dumps({mode: cpu / steps * 1e6
                      for mode, cpu in layer_minima(calls).items()}))


def series_child():
    """Runs in a fresh interpreter: prints the CPU seconds of the series
    profile at 801 and 4001 grid points as one JSON line."""
    from ginzburg import params
    from ginzburg.meanfield import Trajectory, meanfield_series
    import numpy as np

    p = params.build_params(FIG2)
    half = p.chain.L / 2.0
    calls = {f"grid{n}": (lambda grid=np.linspace(-half, half, n): meanfield_series(
        grid, 0.25, Trajectory(0.0, 0.5), p)) for n in (801, 4001)}
    print(json.dumps(layer_minima(calls)))


def stats_child(src: str):
    """Runs in a fresh interpreter: prints the src_stats counts of <src>."""
    import src_stats

    package = Path(src) / "ginzburg"
    lines = src_stats.module_lines(package)
    options = src_stats.cli_options(Path(src))
    params, fields = src_stats.default_knobs(package)
    print(json.dumps({"lines": lines, "total_lines": sum(lines.values()),
                      "default_parameters": params,
                      "default_fields": fields,
                      "cli_options": sum(map(len, options.values()))}))


def measure(src: Path, work: str) -> dict:
    """One repeat on one tree."""
    env = child_env(src)
    kernels = child_json("import bench; bench.kernel_child()", env, work)
    modesum = child_json("import bench; bench.modesum_child()", env, work)
    leapfrog = child_json("import bench; bench.leapfrog_child()", env, work)
    series = child_json("import bench; bench.series_child()", env, work)
    floor = child_cpu([sys.executable, "-c", "import ginzburg.cli"], env, work)
    cli = {}
    with tempfile.TemporaryDirectory(dir=work) as d:
        for label, argv in CLI_CALLS:
            cli[label] = child_cpu(
                [sys.executable, "-m", "ginzburg",
                 *[a.replace("{d}", d) for a in argv]], env, work)
    return {"kernels": kernels, "modesum": modesum, "leapfrog": leapfrog,
            "series": series, "import_floor_s": floor, "cli_cpu_s": cli}


def summarize(runs: list, stats: dict) -> dict:
    first = runs[0]
    cli = {label: statistics.median(r["cli_cpu_s"][label] for r in runs)
           for label in first["cli_cpu_s"]}
    return {
        "evolve_full_s_per_step": {
            name: min(r["kernels"][name][0] for r in runs)
            for name in first["kernels"]},
        "evolve_full_steps": {name: steps
                              for name, (_, steps) in first["kernels"].items()},
        "modesum": {key: statistics.median(r["modesum"][key] for r in runs)
                    for key in first["modesum"]},
        "leapfrog_us_per_step": {key: min(r["leapfrog"][key] for r in runs)
                                 for key in first["leapfrog"]},
        "series_s": {key: min(r["series"][key] for r in runs)
                     for key in first["series"]},
        "import_floor_s": statistics.median(r["import_floor_s"] for r in runs),
        "cli_cpu_s": cli,
        "cli_cpu_total_s": sum(cli.values()),
        "src_stats": stats,
    }


def machine() -> dict:
    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu, "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "system": platform.system(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--src", type=Path, default=None,
                    help="src/ of the tree to record as 'before'")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error(f"--repeats must be >= 1, got {args.repeats}")
    trees = {"after": OWN_SRC}
    if args.src is not None:
        if not (args.src / "ginzburg" / "__init__.py").is_file():
            ap.error(f"--src {args.src} holds no ginzburg package")
        trees = {"before": args.src.resolve(), **trees}

    runs = {name: [] for name in trees}
    stats = {}
    with tempfile.TemporaryDirectory() as work:
        for name, src in trees.items():
            # untimed: a first import compiles the package where it may
            child_cpu([sys.executable, "-c", "import ginzburg.cli"],
                      child_env(src), work)
            stats[name] = child_json("import bench, sys; bench.stats_child(sys.argv[1])",
                                     child_env(src), work, str(src))
        for r in range(args.repeats):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for name in order:
                runs[name].append(measure(trees[name], work))
                print(f"repeat {r + 1}/{args.repeats} {name}: cli "
                      f"{sum(runs[name][-1]['cli_cpu_s'].values()):.3f} s",
                      file=sys.stderr)

    record = {"tag": args.tag, "repeats": args.repeats,
              "statistic": "median of the repeats",
              "env": {"GINZBURG_NUM_THREADS": "1"}, "machine": machine()}
    for name in trees:
        record[name] = summarize(runs[name], stats[name])
    out = Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
