"""Classical mean-field chain response to a uniformly moving detector.

With the interaction switched on at t = 0 from an undeformed chain, the mean
displacement field obeys

    rho_c * phi_tt = Upsilon_c * phi_xx - g a_d * h''(x, x_d(t)),
    x_d(t) = x0 + v t,

and is computed by three independent routes:

  modesum   brute-force double quadrature of the mode expansion
            phi(x,t) = -(g a_d/rho_c) sum_alpha u_a(x)/Omega_a
                       * int_0^t dt' sin[Omega_a (t-t')]
                       * int dx' u_a(x') h''(x', x_d(t'))
  series    the analytic time integral of the mode sum (long-wavelength
            mode functions), three cosine families per mode weighted by the
            cutoff f(Omega_a w/c_s)
  closed    the three-wave-packet form
            phi = (g a_d/rho_c) [ h(x, x_d)/(c_s^2 - v^2)
                                  - h(x, x0 + c_s t)/(2 c_s (c_s - v))
                                  - h(x, x0 - c_s t)/(2 c_s (c_s + v)) ]

The closed and series routes split into a packet co-moving with the detector
plus right/left sound ripples launched from x0 at switch-on; the three
packets integrate to zero net displacement at every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .modes import _on_chain, mode_spectrum
from .params import SystemParams, _check_time, _require_finite, _require_positive
from .specfun import _BLOCK_ELEMENTS, _finite_array, kernel_h, kernel_h_deriv

# the most (time nodes x modes) elements modesum's first pass may cover; past
# it the route is refused before any work starts
_CHUNK_ELEMENTS = 2_000_000
# detector-centered half-width of the extended integration domain, in units of w
_EXTENDED_HALFWIDTH_W = 250.0
# panel doublings modesum may take after its first pass: 32x on each axis
_MAX_DOUBLINGS = 5


@dataclass(frozen=True)
class Trajectory:
    """Uniform detector trajectory x_d(t) = x0 + v*t, switched on at t = 0."""

    x0: float
    v: float

    def __post_init__(self):
        _require_finite(x0=self.x0, v=self.v)

    def position(self, t):
        return self.x0 + self.v * np.asarray(t, dtype=float)

    def validate(self, params: SystemParams):
        half = params.chain.L / 2.0
        if abs(self.x0) >= half:
            raise ValidationError(f"|x0| = {abs(self.x0)} must be < L/2 = {half}")


@dataclass(frozen=True)
class QuadReport:
    """Panel-doubling diagnostics for the modesum route."""

    panels_x: int
    panels_t: int
    doublings: int
    error_estimate: float
    tolerance: float
    converged: bool


@dataclass(frozen=True)
class FieldProfile:
    """phi-bar sampled on a grid at one time, plus route metadata."""

    values: np.ndarray
    components: dict | None     # packet decomposition; None for modesum
    constraint_integral: float  # trapezoid of phi over the grid
    meta: dict                  # "quadrature": the modesum QuadReport


def _pole_check(v, c_s):
    if abs(abs(v) - c_s) <= 1e-12 * c_s:
        raise ValidationError(
            f"|v| = c_s is a pole of the closed/series forms (v = {v}); "
            "use the modesum route for sonic trajectories")


# -- closed form --------------------------------------------------------------


def meanfield_closed(x, t, traj: Trajectory, params: SystemParams,
                     include_image: bool = False, components: bool = False):
    """Three-packet closed form; optionally returns the packet decomposition.

    include_image adds, for each packet, the reflected-argument term
    [ (x + X + L)^2 + w^2 ]^(-3/2) that the far-from-edge approximation
    drops (debug/error-budget use only).
    """
    chain, det = params.chain, params.detector
    c, v, w = chain.c_s, traj.v, det.w
    _check_time(t)
    _pole_check(v, c)
    pref = params.g * det.a_d / chain.rho_c
    x = _finite_array(x, "x")

    centers = {
        "comoving": (traj.x0 + v * t, pref / (c * c - v * v)),
        "ripple_right": (traj.x0 + c * t, -pref / (2.0 * c * (c - v))),
        "ripple_left": (traj.x0 - c * t, -pref / (2.0 * c * (c + v))),
    }
    parts = {}
    for name, (center, coeff) in centers.items():
        term = coeff * kernel_h(x, center, w)
        if include_image:
            term = term + coeff * kernel_h(x, -center - chain.L, w)
        parts[name] = term
    total = parts["comoving"] + parts["ripple_right"] + parts["ripple_left"]
    if components:
        return total, parts
    return total


# -- mode series --------------------------------------------------------------


def _uniform(a) -> bool:
    """True when every point of a lies within 4 ulp of max|a| of the line
    through its end points; a linspace stays within 0.5 ulp."""
    line = np.linspace(a[0], a[-1], a.size)
    return bool(np.max(np.abs(a - line)) <= 4.0 * np.spacing(np.max(np.abs(a))))


def _trig_dot(fn, a, b, weights):
    """fn(outer(a, b)) @ weights for fn = np.cos or np.sin.

    Works on blocks of rows of _BLOCK_ELEMENTS elements, so the
    (len(a) x len(b)) matrix is never held whole.  When a is a uniform grid
    (_uniform) longer than one block, the rows of the block starting at i0
    sit at a[i0] + o_r, with o_r = a[r] - a[0] the offsets of the first
    block, and by angle addition

        cos((a[i0] + o_r) b) = C c_r - S s_r,   sin(...) = S c_r + C s_r,

    with (C, S) = cos, sin(a[i0] b) and (c_r, s_r) = cos, sin(o_r b).  The
    offset table is built once and shared by every block, whose start values
    come from its actual first point, so a block costs two rows of
    transcendentals and two products of the table with the weights scaled by
    C and S.  That pays from three rows per block on; other inputs take fn of
    each block directly.
    """
    out = np.empty((a.size,) + weights.shape[1:])
    rows = max(1, _BLOCK_ELEMENTS // b.size)
    if not (a.size > rows > 2 and _uniform(a)):
        for i0 in range(0, a.size, rows):
            arg = np.multiply.outer(a[i0:i0 + rows], b)
            out[i0:i0 + rows] = fn(arg, out=arg) @ weights
        return out
    arg = np.multiply.outer(a[:rows] - a[0], b)
    c_r = np.cos(arg)
    s_r = np.sin(arg, out=arg)
    w_t = weights.T
    for i0 in range(0, a.size, rows):
        n = min(rows, a.size - i0)
        start = a[i0] * b
        cos_b, sin_b = np.cos(start), np.sin(start)
        u, v = (cos_b, -sin_b) if fn is np.cos else (sin_b, cos_b)
        out[i0:i0 + n] = c_r[:n] @ (w_t * u).T + s_r[:n] @ (w_t * v).T
    return out


def meanfield_series(x, t, traj: Trajectory, params: SystemParams,
                     alpha_max: int | None = None, components: bool = False):
    """Analytic-time-integral mode series (three cosine families per mode).

    Per mode alpha, with k = Omega_alpha/c_s and f = f(Omega_alpha w/c_s):

        phi_alpha = -(2 g a_d / (rho_c w^2)) f cos[k (x + L/2)]
                    * { cos[k(x0 + c t + L/2)] / (L c (c - v))
                      - 2 cos[k(x0 + v t + L/2)] / (L (c^2 - v^2))
                      + cos[k(x0 - c t + L/2)] / (L c (c + v)) }

    The three families cancel mode-by-mode at t = 0.
    """
    chain, det = params.chain, params.detector
    c, v, w, L = chain.c_s, traj.v, det.w, chain.L
    _check_time(t)
    _pole_check(v, c)
    x = np.atleast_1d(_on_chain(x, chain))
    spec = mode_spectrum(params)
    if alpha_max is not None:
        spec = spec.upto(alpha_max)
    k, f = spec.omega / c, spec.f          # long-wavelength convention
    pref = -2.0 * params.g * det.a_d / (chain.rho_c * w * w)
    coeff = {
        "ripple_right": (traj.x0 + c * t, 1.0 / (L * c * (c - v))),
        "comoving": (traj.x0 + v * t, -2.0 / (L * (c * c - v * v))),
        "ripple_left": (traj.x0 - c * t, 1.0 / (L * c * (c + v))),
    }
    weights = np.stack([pref * f * a * np.cos(k * (center + L / 2.0))
                        for center, a in coeff.values()], axis=1)   # (nmodes, 3)
    families = _trig_dot(np.cos, x + L / 2.0, k, weights)
    parts = {name: families[:, j] for j, name in enumerate(coeff)}
    total = parts["comoving"] + parts["ripple_right"] + parts["ripple_left"]
    if components:
        return total, parts
    return total


# -- brute-force mode sum ------------------------------------------------------


def _panels(a, b, n_panels):
    """Edges, nodes (panel by panel) and the 8 node weights of one panel of
    the composite 8-node Gauss-Legendre rule on n_panels uniform panels."""
    xg, wg = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (b - a) / n_panels
    nodes = np.add.outer(0.5 * (edges[1:] + edges[:-1]), half * xg).ravel()
    return edges, nodes, half * wg


def _block_tables(freq, edges, nodes, weights, per_block, shift, scale):
    """Angle-addition tables for scale * w * cos/sin(freq * (x + shift)) at the
    Gauss nodes x, in blocks of per_block panels.

    Node r of block b sits at x = e_b + o_r, with e_b the block's first edge;
    the panels are uniform, so the offset o_r and the weight w_r are the same
    in every block, and

        scale * w_r * cos(freq * (x + shift)) = C_b c_r - S_b s_r
        scale * w_r * sin(freq * (x + shift)) = S_b c_r + C_b s_r

    Returns (C, S)_b = cos, sin(freq * (e_b + shift)), shape (2, blocks, freq),
    and (c, s)_r = scale * w_r * cos, sin(freq * o_r), shape (2, rows, freq):
    the transcendentals of one block and two per block, not two per node.
    """
    rows = min(8 * per_block, nodes.size)
    tables = []
    for x in (edges[:-1:per_block] + shift, nodes[:rows] - edges[0]):
        arg = np.multiply.outer(x, freq)
        tables.append(np.stack([np.cos(arg), np.sin(arg, out=arg)]))
    tables[1] *= scale * np.tile(weights, rows // 8)[:, None]
    return tables


def _mode_amplitudes(t, traj, params, k, omega, panels_x, panels_t,
                     extended_domain):
    """q_alpha of one fixed-resolution pass of the double quadrature,

        q_alpha = -(g a_d / rho_c) sqrt(2/L) / Omega_alpha
                  * sum_t' w_t' sin[Omega_alpha (t - t')] S_alpha(t'),

    S_alpha(t') the spatial integral of u_alpha against h''(x', x_d(t')).
    The pass runs time-major over blocks of whole panels: a block of time
    rows sums kernel @ U over the space blocks into one (rows x modes)
    accumulator, every kernel value computed once, and contracts it with the
    weighted sin Omega(t - t') in one einsum.  U, the weighted cos
    k(x' + L/2) of a space block, is rebuilt from _block_tables for every
    time block; the sine comes from those of the time axis.  On the extended
    domain S_alpha of a time block is one cos/sin phase factor per row.
    Only the node arrays and the start rows of the tables, one row of modes
    per block, grow with the panel counts.
    """
    chain, det = params.chain, params.detector
    L, w = chain.L, det.w
    norm = math.sqrt(2.0 / L)
    n_modes = k.size
    # the block arrays: of (rows x modes), the cos and sin offset tables of
    # the time axis, the accumulator and the product, and off the extended
    # domain those of the space axis and U; of (rows x rows), kernel_h_deriv's
    # three.  A block takes the most whole panels, up to a whole axis, that
    # keep them within 4 _BLOCK_ELEMENTS (2 MB).  Past 348 modes fewer than
    # 12 panels fit: the arrays outgrow a core's cache at any block size,
    # and U is rebuilt once per time block, so blocks of 16 panels keep the
    # rebuilds few against the products
    arrays, square = (4, 0) if extended_domain else (7, 24)
    per_block = 1
    while (per_block < max(panels_x, panels_t) and 8 * (per_block + 1)
           * (arrays * n_modes + square * (per_block + 1)) <= 4 * _BLOCK_ELEMENTS):
        per_block += 1
    if per_block < 12 and not extended_domain:
        per_block = 16
    rows = 8 * per_block
    edges_t, tq, wt = _panels(0.0, t, panels_t)
    xd = traj.position(tq)
    if extended_domain:
        # detector-centered offsets; exploits translation invariance so the
        # kernel factor is computed once
        R = _EXTENDED_HALFWIDTH_W * w
        _, xiq, wx = _panels(-R, R, panels_x)
        hpp = kernel_h_deriv(2, xiq, 0.0, w) * np.tile(wx, panels_x)
        c_alpha = norm * _trig_dot(np.cos, k, xiq, hpp)    # (nmodes,)
        s_alpha = norm * _trig_dot(np.sin, k, xiq, hpp)
    else:
        edges_x, xq, wx = _panels(-L / 2.0, L / 2.0, panels_x)
        starts_x, offsets_x = _block_tables(k, edges_x, xq, wx, per_block,
                                            L / 2.0, norm)
        # norm * w * cos k(x' + L/2) = C_j c_r - S_j s_r: one einsum per
        # block with the sign of S_j folded into the table
        starts_x[1] *= -1.0
        u = np.empty((rows, n_modes))
    # sin[Omega (t - t')] = sin[-Omega (t' - t)] = S_b c_r + C_b s_r: the
    # block tables pair with the offset tables in reverse order
    starts_t, offsets_t = _block_tables(-omega, edges_t, tq, wt, per_block, -t, 1.0)
    starts_t = starts_t[::-1]
    # buffers filled block by block (a fresh array per block costs more)
    spatial, product = np.empty((2, rows, n_modes))
    q_alpha = np.zeros(n_modes)
    for b, i0 in enumerate(range(0, tq.size, rows)):
        i1 = min(i0 + rows, tq.size)
        s_b = spatial[:i1 - i0]
        if extended_domain:
            phase = np.multiply.outer(xd[i0:i1] + L / 2.0, k, out=product[:i1 - i0])
            np.multiply(np.cos(phase, out=s_b), c_alpha, out=s_b)
            s_b -= np.multiply(np.sin(phase, out=phase), s_alpha, out=phase)
        else:
            s_b.fill(0.0)
            for j, j0 in enumerate(range(0, xq.size, rows)):
                j1 = min(j0 + rows, xq.size)
                u_j = np.einsum("kra,ka->ra", offsets_x[:, :j1 - j0], starts_x[:, j],
                                out=u[:j1 - j0])
                kernel = kernel_h_deriv(2, xq[j0:j1], xd[i0:i1, None], w)
                s_b += np.matmul(kernel, u_j, out=product[:i1 - i0])
        q_alpha += np.einsum("ka,kra,ra->a", starts_t[:, b],
                             offsets_t[:, :i1 - i0], s_b)
    q_alpha *= -params.g * det.a_d / chain.rho_c * norm / omega
    return q_alpha


def meanfield_modesum(x, t, traj: Trajectory, params: SystemParams,
                      alpha_max: int | None = None, longwave: bool = False,
                      extended_domain: bool = False,
                      rel_tol: float = 1e-4) -> tuple[np.ndarray, QuadReport]:
    """Brute-force double quadrature of the mode expansion; returns the
    profile and its QuadReport.

    Both the spatial integral (u_alpha against the kernel curvature) and the
    time integral (sin[Omega (t-t')] against the moving kernel) use composite
    8-node Gauss-Legendre panels.  The first pass is coarse: panels no wider
    than 1.6 w and 4/3 of the shortest mode wavelength (6 nodes per
    wavelength), and 0.75 time panels per cycle of the fastest phase
    Omega_max + k_max |v| (at least 8 space and 4 time panels).  The whole
    evaluation is then repeated with doubled panel counts on both axes until
    two consecutive profiles agree to rel_tol of the profile peak, and the
    finer one is returned, so the cost follows rel_tol.  The budget of
    _MAX_DOUBLINGS = 5 reaches 32x the first pass on each axis.

    Every pass works on blocks of whole panels on both axes, time blocks
    outside (_mode_amplitudes), so no (nodes x modes) matrix is held: its
    block arrays take at most 2 MB up to 348 modes (2.3 MB allocated in all
    by one Fig. 2 profile), and memory grows only by one row of modes per
    block.  The work grows with t: a first pass covering more than
    _CHUNK_ELEMENTS (time nodes x modes) elements (at Fig. 2 defaults, t past
    4.3 for v=0.5 and 1.8 for v=2.5) is refused with ValidationError before
    it starts.

    longwave switches the mode wavenumber to Omega_alpha/c_s; extended_domain
    integrates over a detector-centered window instead of the physical chain
    (the far-from-edge idealization the analytic routes make).  Raises
    ToleranceError, naming the estimate reached, if the doubling budget
    runs out.
    """
    chain, det = params.chain, params.detector
    _check_time(t)
    _require_positive(rel_tol=rel_tol)
    x_out = np.atleast_1d(_on_chain(x, chain))
    if t == 0.0:
        return np.zeros_like(x_out), QuadReport(0, 0, 0, 0.0, rel_tol, True)

    spec = mode_spectrum(params)
    if alpha_max is None:
        alpha_max = spec.n_retained or 1
    spec = spec.upto(alpha_max)
    omega = spec.omega
    k = omega / chain.c_s if longwave else spec.alphas * math.pi / chain.L

    w = det.w
    k_max = float(k.max())
    # coarse first pass over the kernel width w, the shortest wavelength and
    # the fastest phase; doubling refines it until two passes agree
    dx_target = min(1.6 * w, (4.0 / 3.0) * (2.0 * math.pi / k_max))
    span_x = 2.0 * _EXTENDED_HALFWIDTH_W * w if extended_domain else chain.L
    panels_x = max(8, int(math.ceil(span_x / dx_target)))
    rate = float(omega.max()) + k_max * abs(traj.v)
    panels_t = max(4, int(math.ceil(t * rate / (2.0 * math.pi) * 0.75)))
    # the time panels, and with them every pass's work, grow linearly with t;
    # refuse a first pass past the budget instead of starting it
    block = 8 * panels_t * k.size
    if block > _CHUNK_ELEMENTS:
        raise ValidationError(
            f"modesum at t={t} needs {block} (time nodes x modes) elements in its "
            f"first pass, over the budget of {_CHUNK_ELEMENTS}; use a shorter t "
            "or the series/closed route")

    # pass d has 2^d times the first pass's panels on each axis; its q_alpha
    # is projected on sqrt(2/L) cos k(x + L/2) once its tables are released
    for doublings in range(_MAX_DOUBLINGS + 1):
        q_alpha = _mode_amplitudes(t, traj, params, k, omega, panels_x, panels_t,
                                   extended_domain)
        cur = _trig_dot(np.cos, x_out + chain.L / 2.0, k, q_alpha)
        if doublings:
            scale = float(np.max(np.abs(cur))) or 1.0
            est = float(np.max(np.abs(cur - prev))) / scale
            if est <= rel_tol:
                return cur, QuadReport(panels_x=panels_x, panels_t=panels_t,
                                       doublings=doublings, error_estimate=est,
                                       tolerance=rel_tol, converged=True)
        prev = cur
        panels_x *= 2
        panels_t *= 2
    raise ToleranceError(
        f"modesum quadrature did not reach rel_tol={rel_tol:.2e} after "
        f"{_MAX_DOUBLINGS} doublings (achieved {est:.2e})")


# -- profiles ------------------------------------------------------------------

# the options each route reads; profile refuses any other
_ROUTE_OPTIONS = {
    "closed": ("include_image",),
    "series": ("alpha_max",),
    "modesum": ("alpha_max", "longwave", "extended_domain", "rel_tol"),
}


def profile(route: str, grid, t, traj: Trajectory, params: SystemParams,
            **route_options) -> FieldProfile:
    """Evaluate one route on a spatial grid and attach the constraint report.

    route_options are the keywords of the route's function that
    _ROUTE_OPTIONS lists for it; any other raises ValidationError.  The
    constraint integral (trapezoid of phi over the grid) should vanish
    relative to the L1 norm on grids that resolve the packets.
    """
    if route not in _ROUTE_OPTIONS:
        raise ValidationError(
            f"unknown route {route!r}; choose from {tuple(_ROUTE_OPTIONS)}")
    unread = sorted(set(route_options) - set(_ROUTE_OPTIONS[route]))
    if unread:
        raise ValidationError(
            f"the {route} route does not read {', '.join(unread)} "
            f"(it reads {', '.join(_ROUTE_OPTIONS[route])})")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid must be a 1-d array with at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing")
    _on_chain(grid, params.chain)
    traj.validate(params)

    meta = {}
    components = None
    if route == "closed":
        values, components = meanfield_closed(grid, t, traj, params,
                                              components=True, **route_options)
    elif route == "series":
        values, components = meanfield_series(grid, t, traj, params,
                                              components=True, **route_options)
    else:
        values, meta["quadrature"] = meanfield_modesum(grid, t, traj, params,
                                                       **route_options)

    return FieldProfile(values=values, components=components,
                        constraint_integral=float(np.trapezoid(values, grid)),
                        meta=meta)
