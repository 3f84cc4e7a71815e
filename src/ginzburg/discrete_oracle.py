"""Brute-force integration of the discrete N-dipole chain plus detector.

Hamilton's equations for the site displacements phi_n (n spanning
-(N-1)/2 .. (N-1)/2, free ends) and the detector center of mass:

    dphi_n/dt = p_n / m_c
    dp_n/dt   = k_c (phi_{n+1} - 2 phi_n + phi_{n-1}) - G h''(n a_c - x_d)
    dx_d/dt   = p_d / M_d
    dp_d/dt   = G sum_n [ -h''(n a_c - x_d) + phi_n h'''(n a_c - x_d) ]

with G = g a_d a_c and h(s) = (s^2 + w^2)^(-3/2).  All forces derive from
one Hamiltonian, so the kick-drift-kick (velocity Verlet) stepping below is
symplectic and the total energy is a clean drift diagnostic.

This module is the validation oracle for the continuum mean-field routes:
no continuum approximation, no mode truncation, no switch-on idealization
beyond starting from the undeformed chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import SystemParams
from .specfun import kernel_h_deriv

# center-of-mass constraint slack per site, relative to the field scale
_CONSTRAINT_TOL = 1e-10


def site_positions(params: SystemParams) -> np.ndarray:
    """Dipole positions n*a_c for n = -(N-1)/2 .. (N-1)/2."""
    chain = params.chain
    n = np.arange(chain.N) - (chain.N - 1) // 2
    return n * chain.a_c


@dataclass
class ChainState:
    """Phase-space snapshot: chain displacements/momenta plus detector."""

    t: float
    phi: np.ndarray
    p: np.ndarray
    x_d: float
    p_d: float

    def constraint_residuals(self) -> tuple[float, float]:
        """(|sum phi_n|, |sum p_n|) scaled by N * max amplitude."""
        n = self.phi.size
        phi_scale = max(float(np.max(np.abs(self.phi))), 1e-300)
        p_scale = max(float(np.max(np.abs(self.p))), 1e-300)
        return (abs(float(self.phi.sum())) / (n * phi_scale),
                abs(float(self.p.sum())) / (n * p_scale))

    def validate(self, params: SystemParams):
        if self.phi.shape != (params.chain.N,) or self.p.shape != (params.chain.N,):
            raise ValidationError(
                f"state arrays must have shape ({params.chain.N},)")
        r_phi, r_p = self.constraint_residuals()
        if r_phi > _CONSTRAINT_TOL or r_p > _CONSTRAINT_TOL:
            raise ValidationError(
                "center-of-mass constraint violated: "
                f"sum(phi) residual {r_phi:.2e}, sum(p) residual {r_p:.2e}")


def initial_state(params: SystemParams, x_d: float = 0.0,
                  v: float = 0.0) -> ChainState:
    """Undeformed chain at rest, detector at x_d moving at v, at t = 0.

    A displaced start is a ChainState built directly and checked with
    validate(params)."""
    N = params.chain.N
    return ChainState(t=0.0, phi=np.zeros(N), p=np.zeros(N), x_d=float(x_d),
                      p_d=float(v) * params.detector.M_d)


def max_stable_dt(params: SystemParams) -> float:
    """Leapfrog stability bound: a tenth of the shortest chain period."""
    return 0.1 * 2.0 * math.pi / params.chain.omega_max


def _elastic_force(phi, k_c, diff, out):
    """k_c (phi_{n+1} - 2 phi_n + phi_{n-1}) with free ends, written into out.

    diff is an (N+1) buffer whose two end entries stay zero; its interior
    takes the N-1 neighbour differences, so one second difference of diff
    covers the interior sites and both free ends.
    """
    np.subtract(phi[1:], phi[:-1], out=diff[1:-1])
    np.subtract(diff[1:], diff[:-1], out=out)
    out *= k_c
    return out


def _point_forces(phi, x_d, x_sites, params: SystemParams, diff, f,
                  include_detector: bool) -> float:
    """Chain force into f at one phase-space point; returns the detector force.

    h'' is evaluated once and serves both forces.
    """
    _elastic_force(phi, params.chain.k_c, diff, f)
    big_g = params.g * params.detector.a_d * params.chain.a_c
    if big_g == 0.0:
        return 0.0
    w = params.detector.w
    h2 = kernel_h_deriv(2, x_sites, x_d, w)
    f -= big_g * h2
    if not include_detector:
        return 0.0
    h3 = kernel_h_deriv(3, x_sites, x_d, w)
    return big_g * float(np.sum(-h2 + phi * h3))


def force_field(state: ChainState, params: SystemParams):
    """(dp_n/dt, dp_d/dt) at the given phase-space point."""
    n = state.phi.size
    f_chain = np.empty(n)
    f_det = _point_forces(state.phi, state.x_d, site_positions(params), params,
                          np.zeros(n + 1), f_chain, True)
    return f_chain, f_det


def total_energy(state: ChainState, params: SystemParams) -> float:
    """Chain kinetic + elastic + interaction energy + detector kinetic."""
    chain, det = params.chain, params.detector
    e = float(np.sum(state.p ** 2)) / (2.0 * chain.m_c)
    e += 0.5 * chain.k_c * float(np.sum(np.diff(state.phi) ** 2))
    e += state.p_d ** 2 / (2.0 * det.M_d)
    big_g = params.g * det.a_d * chain.a_c
    if big_g != 0.0:
        x_sites = site_positions(params)
        h1 = kernel_h_deriv(1, x_sites, state.x_d, det.w)
        h2 = kernel_h_deriv(2, x_sites, state.x_d, det.w)
        e += big_g * float(np.sum(-h1 + state.phi * h2))
    return e


@dataclass(frozen=True)
class ChainTrajectory:
    """Stored snapshots of an integrate() run (stride store_every)."""

    times: np.ndarray
    phi: np.ndarray     # (n_snapshots, N)
    p: np.ndarray
    x_d: np.ndarray
    p_d: np.ndarray

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i: int) -> ChainState:
        return ChainState(float(self.times[i]), self.phi[i].copy(),
                          self.p[i].copy(), float(self.x_d[i]), float(self.p_d[i]))

    @property
    def final(self) -> ChainState:
        return self[len(self) - 1]


def integrate(state: ChainState, params: SystemParams, dt: float, steps: int,
              mode: str = "prescribed", store_every: int = 1) -> ChainTrajectory:
    """Kick-drift-kick leapfrog for `steps` steps of size dt.

    prescribed: x_d(t) = x_d(0) + (p_d/M_d) t exactly, p_d untouched.
    dynamic:    detector kicked and drifted alongside the chain.

    dt may be negative (time-reversed run).  Raises ValidationError when
    |dt| exceeds max_stable_dt, a tenth of the shortest chain period.

    The steps update fixed buffers in place.  Each step evaluates h'' once,
    and in dynamic mode h''' once, for the chain and detector forces together.
    """
    chain, det = params.chain, params.detector
    if mode not in ("prescribed", "dynamic"):
        raise ValidationError(f"mode must be 'prescribed' or 'dynamic', got {mode!r}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if store_every < 1:
        raise ValidationError(f"store_every must be >= 1, got {store_every}")
    dt_max = max_stable_dt(params)
    if dt == 0.0 or abs(dt) > dt_max:
        raise ValidationError(
            f"|dt| = {abs(dt):.3e} outside (0, {dt_max:.3e}] "
            "(0.1 x shortest chain period)")
    state.validate(params)

    n = chain.N
    x_sites = site_positions(params)
    phi = state.phi.copy()
    p = state.p.copy()
    t0, x_d, p_d = state.t, state.x_d, state.p_d
    v_d = p_d / det.M_d
    dynamic = mode == "dynamic"
    half = 0.5 * dt
    diff = np.zeros(n + 1)
    f = np.empty(n)
    work = np.empty(n)

    n_rec = 1 + steps // store_every + (steps % store_every != 0)
    times = np.empty(n_rec)
    rec_phi = np.empty((n_rec, n))
    rec_p = np.empty((n_rec, n))
    rec_xd = np.empty(n_rec)
    rec_pd = np.empty(n_rec)
    times[0], rec_phi[0], rec_p[0], rec_xd[0], rec_pd[0] = t0, phi, p, x_d, p_d
    rec = 1
    for step in range(steps + 1):
        # forces at this step's positions serve the second half kick of this
        # step and the first half kick of the next
        f_det = _point_forces(phi, x_d, x_sites, params, diff, f, dynamic)
        if step:
            p += np.multiply(f, half, out=work)
            if dynamic:
                p_d += half * f_det
            if step % store_every == 0 or step == steps:
                times[rec], rec_phi[rec], rec_p[rec] = t0 + step * dt, phi, p
                rec_xd[rec], rec_pd[rec] = x_d, p_d
                rec += 1
        if step < steps:
            p += np.multiply(f, half, out=work)
            np.multiply(p, dt, out=work)
            work /= chain.m_c
            phi += work
            if dynamic:
                p_d += half * f_det
                x_d += dt * p_d / det.M_d
            else:
                x_d = state.x_d + v_d * ((step + 1) * dt)

    return ChainTrajectory(times=times, phi=rec_phi, p=rec_p, x_d=rec_xd, p_d=rec_pd)
