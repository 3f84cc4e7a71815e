#!/usr/bin/env python3
"""Benchmark of the ginzburg package: three checked workloads, end-to-end
metrics from untraced passes and per-layer metrics from one traced pass.

    python3 perfbench/run.py --workload rwa_full --seed 3 --seconds 38 --trace 0
    python3 perfbench/run.py --all --seed 0     # every workload, untraced and traced

Run it from the root of a source checkout; the package is imported from
src/.  Every process sets GINZBURG_NUM_THREADS=1 before it imports the
package.  A workload run

  * starts SETUP_SAMPLES fresh interpreters that each set the workload up and
    report ready; setup_s is the median CPU time a child used from launch to
    ready,
  * sets the workload up in this process and repeats checked passes, one at a
    time, for --seconds: at least MIN_PASSES, then a pass starts only if the
    median pass so far would end within --seconds; cpu_s is the median CPU
    time of a pass, this process and its child processes together,
  * with --trace 1, then installs the span wrappers, sets up again and runs one
    traced pass, from which the per-layer metrics come.

The last line of standard output is one JSON object with correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).  failed / attempted is failed_frac.  A fuller
record, with the drawn inputs and the environment, goes to
.bench_out/results/, and the spans of a traced pass to .bench_out/traces/.

The gated times are CPU times, not wall times.  Every process runs one
thread, so on an idle machine the two agree to about 1%; the wall time also
counts the time a process waits for a core, which depends on whatever else
the machine runs.  Wall times are still measured: the record gives wall_s
(median wall time of a pass) and the wall time of each set-up, and --all
prints wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("classical_fig2", "rwa_full", "cli_sweep")
SETUP_SAMPLES = 5
MIN_PASSES = 3
BLAS_VARS = ("GINZBURG_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["GINZBURG_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cpu_seconds(who=resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def setup_child(workload: str, seed: int):
    """Runs in a fresh interpreter: import, set up, report ready and the CPU
    time used since launch."""
    t0 = time.perf_counter()
    import ginzburg.cli  # noqa: F401  (the import floor every CLI call pays)
    import_s = time.perf_counter() - t0
    import workloads
    setup, _ = workloads.WORKLOADS[workload]
    setup(workloads.draw_inputs(seed))
    print(json.dumps({"cpu_s": cpu_seconds(), "import_s": import_s,
                      "blas": {v: os.environ.get(v) for v in BLAS_VARS}}),
          flush=True)


def setup_sample(workload: str, seed: int) -> tuple[float, dict]:
    """Wall seconds from launching a fresh interpreter to its ready line, and
    the ready line (with the child's CPU seconds to ready)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up of {workload} failed with exit code {code}")
    return ready, json.loads(line)


def upper_percentile(samples: list) -> dict | None:
    """Highest percentile with at least 10 samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(samples)[k - 1]}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(blas: dict) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_env_children": blas, "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "ginzburg").glob("*.py"))),
    }


def cpu_with_children() -> float:
    """CPU seconds of this process and of its children that have ended."""
    return cpu_seconds() + cpu_seconds(resource.RUSAGE_CHILDREN)


def timed_pass(run_pass, ctx, tally, span) -> tuple[float, float]:
    """Wall and CPU seconds of one pass."""
    c0, t0 = cpu_with_children(), time.perf_counter()
    run_pass(ctx, tally, span)
    return time.perf_counter() - t0, cpu_with_children() - c0


def run_workload(args) -> dict:
    # the package caps the BLAS threads only if it loads before numpy does
    import ginzburg  # noqa: F401
    import tracing
    import workloads

    inputs = workloads.draw_inputs(args.seed)
    setup, run_pass = workloads.WORKLOADS[args.workload]
    samples = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    setup_walls = [s for s, _ in samples]
    setup_cpus = [info["cpu_s"] for _, info in samples]

    OUT.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    first_hashes: dict = {}

    def ready(ctx):
        if args.workload == "cli_sweep":
            # the traced pass calls cli.run in-process so spans nest under each
            # call; a trace run times its untraced passes the same way
            ctx.out_root, ctx.env, ctx.first = out_root, child_env(), first_hashes
            ctx.in_process = bool(args.trace)
        return ctx

    tally = workloads.Tally()
    walls, cpus = [], []
    traced_wall = None
    tracer = None
    try:
        ctx = ready(setup(inputs))
        t_end = time.perf_counter() + args.seconds
        while (len(walls) < MIN_PASSES
               or time.perf_counter() + statistics.median(walls) <= t_end):
            wall, cpu = timed_pass(run_pass, ctx, tally, tracing.null_span)
            walls.append(wall)
            cpus.append(cpu)
        if args.trace:
            tracer = tracing.Tracer(args.workload)
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    tctx = ready(setup(inputs))
                with tracer.span("bench.pass"):
                    traced_wall, _ = timed_pass(run_pass, tctx, tally, tracer.span)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    wall_s = statistics.median(walls)
    cpu_s = statistics.median(cpus)
    record = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(samples[0][1]["blas"]),
        "setup_s": {"median": statistics.median(setup_cpus), "samples": setup_cpus},
        "setup_wall_s": {"median": statistics.median(setup_walls),
                         "samples": setup_walls},
        "cpu_s": {"median": cpu_s, "n": len(cpus), "samples": cpus,
                  "upper": upper_percentile(cpus)},
        "wall_s": {"median": wall_s, "n": len(walls), "samples": walls,
                   "upper": upper_percentile(walls)},
        "peak_rss_mb": peak_rss_mb(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures[:20], "health": tally.health,
    }
    if args.trace:
        external = {
            "cli.import_s": statistics.median(s["import_s"] for _, s in samples),
            "trace.overhead_s": traced_wall - wall_s}
        # a health figure the workload does not compute reads 0
        health = [name for name, _, _, needs, _, _ in tracing.LAYER_METRICS
                  if needs is None and name not in external]
        external.update({n: tally.health.get(n, 0.0) for n in health})
        record["health_not_measured"] = [n for n in health if n not in tally.health]
        layers = tracing.layer_metrics(tracer, external)
        record["missing_targets"] = tracer.missing
        record["layers"] = {k: v for k, (v, _) in layers.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        (OUT / "traces").mkdir(exist_ok=True)
        (OUT / "traces" / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))
    else:
        values = {"setup_s": record["setup_s"]["median"], "cpu_s": cpu_s,
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} x0={inputs['x0']:.6f} "
          f"setup_s={record['setup_s']['median']:.4f} cpu_s={cpu_s:.4f} "
          f"wall_s={wall_s:.4f} (n={len(walls)}) peak_rss_mb={record['peak_rss_mb']:.1f} "
          f"failed_frac={record['failed_frac']:.4g}")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload, untraced then traced, one process at a time."""
    rows = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit code {proc.returncode}")
                return proc.returncode
            record = json.loads((OUT / "results" / f"{workload}-seed{args.seed}"
                                 f"-trace{trace}.json").read_text())
            rows.append((workload, trace, record,
                         json.loads(proc.stdout.strip().splitlines()[-1])))
    for workload, trace, record, res in rows:
        frac = res["failed"] / res["attempted"]
        print(f"\n{workload} ({'per-layer, traced' if trace else 'end to end'}): "
              f"failed_frac = {frac:.4g} ({res['failed']}/{res['attempted']})")
        for name, m in res["metrics"].items():
            print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
        if not trace:
            print(f"  {'wall_s (not gated)':45s} {record['wall_s']['median']:.6g} s")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced and print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    if not (SRC / "ginzburg" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'ginzburg'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    os.environ["GINZBURG_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
