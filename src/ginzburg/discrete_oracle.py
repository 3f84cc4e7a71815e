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
from .params import SystemParams, _require_finite
from .specfun import _BLOCK_ELEMENTS, kernel_h_deriv

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

    def _check_arrays(self, params: SystemParams):
        """Finite values, and phi and p of one entry per site."""
        _require_finite(t=self.t, x_d=self.x_d, p_d=self.p_d)
        if not (np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.p))):
            raise ValidationError("chain state not finite: phi or p holds inf or nan")
        if self.phi.shape != (params.chain.N,) or self.p.shape != (params.chain.N,):
            raise ValidationError(
                f"state arrays must have shape ({params.chain.N},)")

    def validate(self, params: SystemParams):
        """_check_arrays plus the centre-of-mass constraint of a start state."""
        self._check_arrays(params)
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
    _require_finite(x_d=x_d, v=v)
    state = ChainState(t=0.0, phi=np.zeros(N), p=np.zeros(N), x_d=float(x_d),
                       p_d=float(v) * params.detector.M_d)
    state.validate(params)
    return state


def max_stable_dt(params: SystemParams) -> float:
    """Leapfrog stability bound: a tenth of the shortest chain period."""
    return 0.1 * 2.0 * math.pi / params.chain.omega_max


def _elastic_views(phi):
    """The views the elastic force reads and writes, made once per chain.

    diff is an (N+1) buffer whose two end entries stay zero; its interior
    takes the N-1 neighbour differences, so one second difference of diff
    covers the interior sites and both free ends.
    """
    diff = np.zeros(phi.size + 1)
    return phi[1:], phi[:-1], diff[1:-1], diff[1:], diff[:-1]


def _elastic_force(views, k_c, out):
    """k_c (phi_{n+1} - 2 phi_n + phi_{n-1}) with free ends, written into out."""
    right, left, diff, upper, lower = views
    np.subtract(right, left, out=diff)
    np.subtract(upper, lower, out=out)
    out *= k_c
    return out


def _point_forces(phi, x_d, x_sites, params: SystemParams, views, bufs,
                  f) -> float:
    """Chain force into f at one phase-space point; returns the detector force.

    With s = x_n - x_d and r2 = s^2 + w^2, h'' = 3 (4 s^2 - w^2) r2^(-7/2)
    and h''' = 15 s (3 w^2 - 4 s^2) r2^(-9/2) come from one s, one r2 and one
    4 s^2.  h'' keeps kernel_h_deriv's operand order, so it is that function's
    value bit for bit, and serves both forces.  bufs holds four rows of N
    scratch values.
    """
    _elastic_force(views, params.chain.k_c, f)
    big_g = params.g * params.detector.a_d * params.chain.a_c
    if big_g == 0.0:
        return 0.0
    w = params.detector.w
    s, r2, h2, h3 = bufs
    np.subtract(x_sites, x_d, out=s)
    np.multiply(s, s, out=r2)
    r2 += w * w
    np.multiply(s, 4.0, out=h2)
    h2 *= s
    np.subtract(3.0 * w * w, h2, out=h3)
    h2 -= w * w
    h2 *= 3.0
    s *= 15.0
    h3 *= s
    h2 *= np.power(r2, -3.5, out=s)
    h3 *= np.power(r2, -4.5, out=r2)
    # phi h''' - h'' is the same IEEE value as -h'' + phi h'''
    h3 *= phi
    h3 -= h2
    h2 *= big_g
    f -= h2
    return big_g * float(h3.sum())


def force_field(state: ChainState, params: SystemParams):
    """(dp_n/dt, dp_d/dt) at the given phase-space point, which must be
    finite; a driven state need not pass validate's centre-of-mass check."""
    state._check_arrays(params)
    n = state.phi.size
    f_chain = np.empty(n)
    f_det = _point_forces(state.phi, state.x_d, site_positions(params), params,
                          _elastic_views(state.phi), np.empty((4, n)), f_chain)
    return f_chain, f_det


def total_energy(state: ChainState, params: SystemParams) -> float:
    """Chain kinetic + elastic + interaction energy + detector kinetic at a
    finite phase-space point, which need not pass validate."""
    state._check_arrays(params)
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

    dt may be negative (time-reversed run), from any finite state of N sites:
    validate's centre-of-mass check is not applied, as a driven run's final
    state fails it.  Raises ValidationError when |dt| exceeds max_stable_dt,
    a tenth of the shortest chain period.

    The steps update buffers and views made once per call, in place.  The
    half kick that ends a step and the one that starts the next add the same
    product f dt/2, computed once.  In prescribed mode the drive
    G h''(x_n - x_d(t_k)) does not depend on the chain, so it is built for a
    block of steps at a time, at most _BLOCK_ELEMENTS values (32 steps at
    N = 2001); in dynamic mode each step evaluates h'' and h''' in one pass,
    for the chain and detector forces together.  Every value equals, bit for
    bit, a step-by-step evaluation of the same formulas.
    """
    chain, det = params.chain, params.detector
    if mode not in ("prescribed", "dynamic"):
        raise ValidationError(f"mode must be 'prescribed' or 'dynamic', got {mode!r}")
    for name, n in (("steps", steps), ("store_every", store_every)):
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValidationError(f"{name} must be an integer >= 1, got {n!r}")
    _require_finite(dt=dt)
    dt_max = max_stable_dt(params)
    if not 0.0 < abs(dt) <= dt_max:
        raise ValidationError(
            f"|dt| = {abs(dt):.3e} outside (0, {dt_max:.3e}] "
            "(0.1 x shortest chain period)")
    state._check_arrays(params)

    n = chain.N
    x_sites = site_positions(params)
    phi = state.phi.copy()
    p = state.p.copy()
    t0, x_d, p_d = state.t, state.x_d, state.p_d
    v_d = p_d / det.M_d
    dynamic = mode == "dynamic"
    big_g = params.g * det.a_d * chain.a_c
    block = max(1, _BLOCK_ELEMENTS // n)
    half = 0.5 * dt
    views = _elastic_views(phi)
    f, kick, work = np.empty((3, n))
    bufs = np.empty((4, n)) if dynamic else None

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
        if dynamic:
            f_det = _point_forces(phi, x_d, x_sites, params, views, bufs, f)
        else:
            _elastic_force(views, chain.k_c, f)
            if big_g != 0.0:
                row = step % block
                if row == 0:
                    k = np.arange(step, min(step + block, steps + 1))
                    drive = kernel_h_deriv(2, x_sites[None, :],
                                           (state.x_d + v_d * (k * dt))[:, None],
                                           det.w)
                    drive *= big_g
                f -= drive[row]
        np.multiply(f, half, out=kick)
        if step:
            p += kick
            if dynamic:
                p_d += half * f_det
            if step % store_every == 0 or step == steps:
                times[rec], rec_phi[rec], rec_p[rec] = t0 + step * dt, phi, p
                rec_xd[rec], rec_pd[rec] = x_d, p_d
                rec += 1
        if step < steps:
            p += kick
            np.multiply(p, dt, out=work)
            work /= chain.m_c
            phi += work
            if dynamic:
                p_d += half * f_det
                x_d += dt * p_d / det.M_d
            else:
                x_d = state.x_d + v_d * ((step + 1) * dt)

    return ChainTrajectory(times=times, phi=rec_phi, p=rec_p, x_d=rec_xd, p_d=rec_pd)
