"""Span tracing for the benchmark's traced pass, installed from outside the package.

Each public function in TARGETS is replaced by a span-recording wrapper on
every loaded ginzburg module that holds it: the defining module, modules that
imported the name (`from .specfun import kernel_h_deriv` in meanfield and
discrete_oracle, the imports at the top of cli) and the package namespace.
Calls that look a name up when they run, function-local imports included,
therefore pass through the wrapper.  Nothing under src/ changes.

A target that no longer exists is recorded as missing and skipped; every
layer metric built on it is then left out of the result rather than the run
failing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

# Public functions wrapped per module.  io_utils.format_value is left out:
# it runs once per CSV cell, so a span around it would time the tracer.
# Test-only helpers (build_two_mode_squeezer, free_hamiltonian,
# density_from_state) are left out because no caller uses them.
TARGETS = {
    "params": ("build_params", "load_params", "regime_check"),
    "specfun": ("kernel_h", "kernel_h_deriv", "bessel_k1", "cutoff_f"),
    "modes": ("mode_frequency", "mode_frequencies", "mode_function",
              "mode_spectrum", "coupling_strengths", "mode_coupling",
              "resonance_mode", "resonance_pair"),
    "meanfield": ("meanfield_closed", "meanfield_series", "meanfield_modesum",
                  "profile"),
    "discrete_oracle": ("site_positions", "initial_state", "force_field",
                        "total_energy", "integrate"),
    "quantum": ("build_ndpa", "trace_distance", "evolve_exact",
                "evolve_perturbative", "interaction_hamiltonian_full",
                "evolve_full"),
    "superpose": ("branch_spec_from_resonance", "evolve_superposed",
                  "density_matrix", "mixed_density_matrix", "reduce_chain",
                  "reduce_detector", "discriminate"),
    "io_utils": ("write_csv", "write_json", "sha256_file", "write_manifest",
                 "load_manifest"),
    "cli": ("run",),
}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _modesum_attrs(fn, args, kwargs, result):
    if not isinstance(result, tuple):
        return None
    report = result[1]
    return {"panel_pairs": report.panels_x * report.panels_t,
            "doublings": report.doublings, "err_est": report.error_estimate}


def _series_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n_modes = a["alpha_max"] or a["params"].chain.N - 1
    return {"matrix_mb": np.size(a["x"]) * n_modes * 8 / 1e6}


def _integrate_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"mode": a["mode"], "site_steps": a["state"].phi.size * a["steps"]}


def _evolve_full_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"t": float(a["t"]), "dim": a["space"].dim}


def _evolve_exact_attrs(fn, args, kwargs, result):
    return {"dim": result.space.dim}


def _file_attrs(fn, args, kwargs, result):
    return {"bytes": result.stat().st_size}


# Counts recorded at the boundary where the work happens.
ANNOTATE = {
    "meanfield.meanfield_modesum": _modesum_attrs,
    "meanfield.meanfield_series": _series_attrs,
    "discrete_oracle.integrate": _integrate_attrs,
    "quantum.evolve_full": _evolve_full_attrs,
    "quantum.evolve_exact": _evolve_exact_attrs,
    "io_utils.write_csv": _file_attrs,
    "io_utils.write_json": _file_attrs,
}


def null_span(name: str):
    """The span hook of an untraced pass."""
    return nullcontext()


class Tracer:
    """In-memory spans: [name, start, end, parent index, workload, attrs]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.workload, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self.spans[idx][5] = annotate(fn, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target on every loaded ginzburg module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ginzburg" or n.startswith("ginzburg."))]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules.get(f"ginzburg.{mod_name}")
            for func in funcs:
                name = f"{mod_name}.{func}"
                original = getattr(home, func, None) if home else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrapper(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._installed.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def to_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "workload": w,
                 **({"attrs": a} if a else {})}
                for n, s, e, p, w, a in self.spans]


class LayerStats:
    """Per-name self time, call counts and annotations over a set of spans."""

    def __init__(self, spans):
        child = defaultdict(float)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.attrs = defaultdict(list)
        self.total_s = defaultdict(float)
        for i, (name, start, end, _, _, attrs) in enumerate(spans):
            if name == "discrete_oracle.integrate" and attrs and \
                    attrs["mode"] == "dynamic":
                name = "discrete_oracle.integrate_dynamic"
            self.self_s[name] += end - start - child[i]
            self.total_s[name] += end - start
            self.calls[name] += 1
            if attrs:
                self.attrs[name].append(attrs)

    def self_prefix(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def attr_sum(self, names, key) -> float:
        return float(sum(a[key] for n in names for a in self.attrs[n]))

    def attr_max(self, names, key) -> float:
        return float(max((a[key] for n in names for a in self.attrs[n]),
                         default=0.0))


def _rate(num, den):
    return num / den if den > 0 else 0.0


INTEGRATE = ("discrete_oracle.integrate", "discrete_oracle.integrate_dynamic")
CLI_CALLS = ("modes", "meanfield_closed", "meanfield_series", "oracle_compare",
             "resonance", "evolve_exact", "evolve_full", "reduced_state",
             "regime", "rerun")

# (metric, unit, better, wrapped functions it needs, what it should move,
#  value from LayerStats).  Metrics with needs=None come from the run itself
# (setup children, pass checks, pass timing), not from spans.
LAYER_METRICS = [
    ("meanfield.modesum.self_s", "s", "lower", ("meanfield.meanfield_modesum",),
     "cpu_s, peak_rss_mb on classical_fig2; none on cli_sweep, rwa_full",
     lambda s: s.self_s["meanfield.meanfield_modesum"]),
    ("meanfield.modesum.panel_pairs", "count", "lower",
     ("meanfield.meanfield_modesum",),
     "cpu_s, peak_rss_mb on classical_fig2",
     lambda s: s.attr_sum(["meanfield.meanfield_modesum"], "panel_pairs")),
    ("meanfield.modesum.doublings", "count", "lower",
     ("meanfield.meanfield_modesum",), "cpu_s on classical_fig2",
     lambda s: s.attr_sum(["meanfield.meanfield_modesum"], "doublings")),
    ("meanfield.modesum.err_est", "ratio", "lower",
     ("meanfield.meanfield_modesum",), "cpu_s on classical_fig2",
     lambda s: s.attr_max(["meanfield.meanfield_modesum"], "err_est")),
    ("meanfield.series.self_s", "s", "lower", ("meanfield.meanfield_series",),
     "cpu_s on classical_fig2 (small share) and cli_sweep",
     lambda s: s.self_s["meanfield.meanfield_series"]),
    ("meanfield.series.matrix_mb", "MB-computed", "lower",
     ("meanfield.meanfield_series",), "peak_rss_mb on cli_sweep",
     lambda s: s.attr_max(["meanfield.meanfield_series"], "matrix_mb")),
    ("meanfield.closed.self_s", "s", "lower", ("meanfield.meanfield_closed",),
     "cpu_s on classical_fig2 and cli_sweep (small share)",
     lambda s: s.self_s["meanfield.meanfield_closed"]),
    ("specfun.kernel_h_deriv.self_s", "s", "lower", ("specfun.kernel_h_deriv",),
     "cpu_s on classical_fig2",
     lambda s: s.self_s["specfun.kernel_h_deriv"]),
    ("specfun.kernel_h_deriv.calls", "count", "lower", ("specfun.kernel_h_deriv",),
     "cpu_s on classical_fig2",
     lambda s: float(s.calls["specfun.kernel_h_deriv"])),
    ("specfun.cutoff_f.self_s", "s", "lower", ("specfun.cutoff_f",),
     "cpu_s on cli_sweep (through modes)",
     lambda s: s.self_s["specfun.cutoff_f"]),
    ("discrete_oracle.integrate.self_s", "s", "lower", ("discrete_oracle.integrate",),
     "cpu_s on classical_fig2 and cli_sweep (oracle-compare)",
     lambda s: s.self_s["discrete_oracle.integrate"]),
    ("discrete_oracle.integrate_dynamic.self_s", "s", "lower",
     ("discrete_oracle.integrate",), "cpu_s on classical_fig2",
     lambda s: s.self_s["discrete_oracle.integrate_dynamic"]),
    ("discrete_oracle.site_steps_per_s", "1/s", "higher",
     ("discrete_oracle.integrate",),
     "cpu_s on classical_fig2 and cli_sweep (oracle-compare)",
     lambda s: _rate(s.attr_sum(INTEGRATE, "site_steps"),
                     sum(s.self_s[n] for n in INTEGRATE))),
    ("quantum.evolve_full.self_s", "s", "lower", ("quantum.evolve_full",),
     "cpu_s on rwa_full; none on classical_fig2",
     lambda s: s.self_s["quantum.evolve_full"]),
    ("quantum.interaction_hamiltonian_full.self_s", "s", "lower",
     ("quantum.interaction_hamiltonian_full",), "cpu_s on rwa_full",
     lambda s: s.self_s["quantum.interaction_hamiltonian_full"]),
    ("quantum.interaction_hamiltonian_full.calls", "count", "lower",
     ("quantum.interaction_hamiltonian_full",), "cpu_s on rwa_full",
     lambda s: float(s.calls["quantum.interaction_hamiltonian_full"])),
    ("quantum.evolve_full.s_per_unit_t", "s/t_unit", "lower",
     ("quantum.evolve_full",), "cpu_s on rwa_full",
     lambda s: _rate(s.self_s["quantum.evolve_full"],
                     s.attr_sum(["quantum.evolve_full"], "t"))),
    ("quantum.evolve_exact.self_s", "s", "lower", ("quantum.evolve_exact",),
     "cpu_s on rwa_full and cli_sweep (small share)",
     lambda s: s.self_s["quantum.evolve_exact"]),
    ("quantum.fock_dim", "count", "lower",
     ("quantum.evolve_full", "quantum.evolve_exact"), "cpu_s on rwa_full",
     lambda s: s.attr_max(["quantum.evolve_full", "quantum.evolve_exact"], "dim")),
    ("superpose.evolve_superposed.self_s", "s", "lower",
     ("superpose.evolve_superposed",), "cpu_s on cli_sweep (small share)",
     lambda s: s.self_s["superpose.evolve_superposed"]),
    ("superpose.density_matrix.self_s", "s", "lower", ("superpose.density_matrix",),
     "cpu_s on cli_sweep (small share)",
     lambda s: s.self_s["superpose.density_matrix"]),
    ("superpose.reduce.self_s", "s", "lower",
     ("superpose.reduce_chain", "superpose.reduce_detector"),
     "cpu_s on cli_sweep (small share)",
     lambda s: s.self_s["superpose.reduce_chain"]
     + s.self_s["superpose.reduce_detector"]),
    ("superpose.discriminate.self_s", "s", "lower", ("superpose.discriminate",),
     "cpu_s on cli_sweep (small share)",
     lambda s: s.self_s["superpose.discriminate"]),
    ("io_utils.write_csv.self_s", "s", "lower", ("io_utils.write_csv",),
     "cpu_s on cli_sweep", lambda s: s.self_s["io_utils.write_csv"]),
    ("io_utils.write_json.self_s", "s", "lower", ("io_utils.write_json",),
     "cpu_s on cli_sweep", lambda s: s.self_s["io_utils.write_json"]),
    ("io_utils.write_manifest.self_s", "s", "lower", ("io_utils.write_manifest",),
     "cpu_s on cli_sweep", lambda s: s.self_s["io_utils.write_manifest"]),
    ("io_utils.sha256_file.self_s", "s", "lower", ("io_utils.sha256_file",),
     "cpu_s on cli_sweep", lambda s: s.self_s["io_utils.sha256_file"]),
    ("io_utils.bytes_written", "B", "lower",
     ("io_utils.write_csv", "io_utils.write_json"), "cpu_s on cli_sweep",
     lambda s: s.attr_sum(["io_utils.write_csv", "io_utils.write_json"], "bytes")),
    ("cli.run.self_s", "s", "lower", ("cli.run",),
     "cpu_s on cli_sweep (time in the subcommand handlers)",
     lambda s: s.self_s["cli.run"]),
    *[(f"cli.{call}.wall_s", "s", "lower", ("cli.run",), "cpu_s on cli_sweep",
       functools.partial(lambda c, s: s.total_s[f"cli.{c}"], call))
      for call in CLI_CALLS],
    ("params.build_params.self_s", "s", "lower", ("params.build_params",),
     "setup_s on every workload", lambda s: s.self_s["params.build_params"]),
    ("params.regime_check.self_s", "s", "lower", ("params.regime_check",),
     "setup_s on every workload; cpu_s on cli_sweep (regime)",
     lambda s: s.self_s["params.regime_check"]),
    ("modes.self_s", "s", "lower", tuple(f"modes.{f}" for f in TARGETS["modes"]),
     "setup_s on every workload", lambda s: s.self_prefix("modes.")),
    # from the setup children
    ("cli.import_s", "s", "lower", None,
     "cpu_s on cli_sweep (most of it); setup_s on every workload", None),
    # numerical health, reported and not gated, from the pass checks
    ("meanfield.route_dev", "ratio", "lower", None, "none (health)", None),
    ("meanfield.net_disp", "ratio", "lower", None, "none (health)", None),
    ("discrete_oracle.l2_over_peak", "ratio", "lower", None, "none (health)", None),
    ("discrete_oracle.energy_drift", "ratio", "lower", None, "none (health)", None),
    ("quantum.rwa_dev", "ratio", "lower", None, "none (health)", None),
    ("quantum.norm_drift", "ratio", "lower", None, "none (health)", None),
    ("quantum.neighbor_occ_ratio", "ratio", "lower", None, "none (health)", None),
    ("superpose.coherent_vs_mixed_td", "ratio", "lower", None, "none (health)", None),
    ("trace.overhead_s", "s", "lower", None,
     "none (traced minus untraced pass time)", None),
]


def layer_metrics(tracer: Tracer, external: dict) -> dict:
    """Per-layer metric values; a metric whose wrapped function is missing is
    left out.  `external` supplies the metrics that do not come from spans."""
    stats = LayerStats(tracer.spans)
    out = {}
    for name, unit, _, needs, _, value in LAYER_METRICS:
        if needs is None:
            if name in external:
                out[name] = (float(external[name]), unit)
        elif not any(n in tracer.missing for n in needs):
            out[name] = (float(value(stats)), unit)
    return out
