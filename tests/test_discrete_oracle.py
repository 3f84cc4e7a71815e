import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginzburg import ValidationError, build_params, mode_frequency
from ginzburg.discrete_oracle import (ChainState, force_field, initial_state,
                                      integrate, max_stable_dt, site_positions,
                                      total_energy)
from ginzburg.specfun import _BLOCK_ELEMENTS, kernel_h_deriv

from oracles import frequency_from_crossings, leapfrog_reference


def paper(N=2001, w=0.01, g=None):
    cfg = {"units": {"preset": "paper"}, "chain": {"N": N}, "detector": {"w": w}}
    if g is not None:
        cfg["coupling"] = {"g": g}
    return build_params(cfg)


def mode_profile(params, alphas, amps):
    """Zero-sum displacement built from cosine mode shapes."""
    x = site_positions(params)
    chain = params.chain
    phi = np.zeros(params.chain.N)
    for a, amp in zip(alphas, amps):
        phi += amp * np.sqrt(2.0 / chain.L) * np.cos(
            a * math.pi * (x + chain.L / 2) / chain.L)
    return phi - phi.mean()   # exact zero-sum on the discrete sites


def displaced(params, phi, p=None, x_d=0.0, v=0.0):
    """Start state with the chain displaced by phi (momenta p, else at rest),
    checked against the params."""
    phi = np.array(phi, dtype=float)
    state = ChainState(t=0.0, phi=phi,
                       p=np.zeros_like(phi) if p is None else np.array(p, dtype=float),
                       x_d=x_d, p_d=v * params.detector.M_d)
    state.validate(params)
    return state


# -- state bookkeeping --------------------------------------------------------

def test_site_positions_symmetric():
    p = paper(N=101, w=0.05)
    x = site_positions(p)
    assert len(x) == 101
    assert x[50] == 0.0
    np.testing.assert_allclose(np.diff(x), p.chain.a_c, rtol=1e-12)
    np.testing.assert_allclose(x, -x[::-1], atol=1e-15)


def test_initial_state_constraint(paper_params):
    st0 = initial_state(paper_params, x_d=0.0, v=0.5)
    st0.validate(paper_params)
    assert st0.p_d == pytest.approx(0.5 * paper_params.detector.M_d)
    phi_res, p_res = st0.constraint_residuals()
    assert phi_res == 0.0 and p_res == 0.0


def test_initial_state_rejects_unbalanced_profile(paper_params):
    phi = np.zeros(paper_params.chain.N)
    phi[3] = 1.0   # nonzero net displacement
    with pytest.raises(ValidationError):
        displaced(paper_params, phi)


@pytest.mark.parametrize("x_d, v", [(0.0, math.nan), (math.inf, 0.0),
                                     (math.nan, 0.5), (0.0, -math.inf)])
def test_non_finite_detector_state_rejected(x_d, v):
    p = paper(N=101)
    bad = "x_d" if not math.isfinite(x_d) else "v"
    with pytest.raises(ValidationError, match=f"{bad} must be a finite number"):
        initial_state(p, x_d=x_d, v=v)
    # a hand-built state is refused by validate, and by integrate
    state = ChainState(t=0.0, phi=np.zeros(101), p=np.zeros(101), x_d=x_d,
                       p_d=v * p.detector.M_d)
    bad = "x_d" if not math.isfinite(x_d) else "p_d"
    with pytest.raises(ValidationError, match=f"{bad} must be a finite number"):
        state.validate(p)
    with pytest.raises(ValidationError, match=f"{bad} must be a finite number"):
        integrate(state, p, 1e-3, 10)


@pytest.mark.parametrize("field", ["phi", "p"])
def test_non_finite_chain_state_rejected(field):
    p = paper(N=101)
    state = initial_state(p)
    getattr(state, field)[3] = math.nan
    with pytest.raises(ValidationError, match="chain state not finite"):
        integrate(state, p, 1e-3, 10)


@pytest.mark.parametrize("field", ["x_d", "p_d", "phi", "p"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_forces_and_energy_refuse_non_finite_state(field, bad):
    p = paper(N=101)
    state = initial_state(p, x_d=0.0, v=0.5)
    if field in ("phi", "p"):
        getattr(state, field)[3] = bad
    else:
        setattr(state, field, bad)
    message = ("chain state not finite" if field in ("phi", "p")
               else f"{field} must be a finite number, got {bad}")
    for fn in (force_field, total_energy):
        with pytest.raises(ValidationError, match=message):
            fn(state, p)


def test_driven_final_state_has_finite_energy_and_forces():
    """A driven run's final state need not pass validate's centre-of-mass
    check, and force_field and total_energy still take it."""
    p = paper()
    dt = 0.5 * max_stable_dt(p)
    final = integrate(initial_state(p, x_d=0.0, v=0.5), p, dt, 500,
                      store_every=500).final
    assert math.isfinite(total_energy(final, p))
    f_chain, f_det = force_field(final, p)
    assert np.all(np.isfinite(f_chain)) and math.isfinite(f_det)


# -- forces -------------------------------------------------------------------

def test_equilibrium_forces_vanish():
    p = paper(N=101, w=0.05, g=0.0)
    st0 = initial_state(p)
    f_chain, f_det = force_field(st0, p)
    assert np.all(f_chain == 0.0) and f_det == 0.0


def test_interior_elastic_force_is_second_difference():
    p = paper(N=101, w=0.05, g=0.0)
    phi = np.zeros(101)
    phi[40] = 1.0
    phi[60] = -1.0   # keep the constraint satisfied
    st0 = displaced(p, phi)
    f_chain, _ = force_field(st0, p)
    k = p.chain.k_c
    assert f_chain[40] == pytest.approx(-2.0 * k)
    assert f_chain[39] == pytest.approx(k)
    assert f_chain[41] == pytest.approx(k)
    assert f_chain[0] == 0.0


def test_free_end_forces():
    p = paper(N=5, w=0.05, g=0.0)
    phi = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    st0 = displaced(p, phi)
    f_chain, _ = force_field(st0, p)
    k = p.chain.k_c
    # end dipole couples to its single neighbor only
    assert f_chain[0] == pytest.approx(k * (phi[1] - phi[0]))
    assert f_chain[-1] == pytest.approx(k * (phi[-2] - phi[-1]))


def test_elastic_forces_conserve_total_momentum(rng):
    p = paper(N=101, w=0.05, g=0.0)
    phi = rng.standard_normal(101)
    phi -= phi.mean()
    st0 = displaced(p, phi)
    f_chain, _ = force_field(st0, p)
    assert abs(f_chain.sum()) <= 1e-12 * np.abs(f_chain).max()


def test_kernel_force_sum_telescopes_to_boundary_terms():
    # sum_n h''(x_n - x_d) * a_c = h'(+edge) - h'(-edge) + O(a_c^2),
    # so the net kernel force obeys the boundary-term bound
    p = paper(N=2001, w=0.01)
    G = p.g * p.detector.a_d * p.chain.a_c
    x = site_positions(p)
    L = p.chain.L
    for x_d in (0.0, 0.125, 0.3):
        f_kernel = -G * kernel_h_deriv(2, x, x_d, p.detector.w)
        bound = (G / p.chain.a_c) * (
            abs(kernel_h_deriv(1, L / 2, x_d, p.detector.w))
            + abs(kernel_h_deriv(1, -L / 2, x_d, p.detector.w)))
        assert abs(f_kernel.sum()) <= 1.01 * bound + 1e-9 * np.abs(f_kernel).sum()


def test_telescoping_residual_small_for_wide_kernel():
    # w >> a_c and (w/L)^4 small together push the relative residual
    # below 1e-8; the Fig. 2 defaults only reach ~3e-7
    p = paper(N=40001, w=0.004)
    x = site_positions(p)
    h2 = kernel_h_deriv(2, x, 0.0, p.detector.w)
    assert abs(h2.sum()) / np.abs(h2).sum() < 1e-8


def test_detector_force_direction(paper_params):
    # displaced chain pulls the detector through the h''' term
    phi = mode_profile(paper_params, [2], [1e-3])
    st0 = displaced(paper_params, phi, x_d=0.1)
    _, f_det = force_field(st0, paper_params)
    assert f_det != 0.0


# -- integrator ---------------------------------------------------------------

def test_stability_guard():
    p = paper(N=101, w=0.05, g=0.0)
    st0 = initial_state(p)
    omega_max = 2.0 * math.sqrt(p.chain.k_c / p.chain.m_c)
    dt_max = 0.1 * 2.0 * math.pi / omega_max
    with pytest.raises(ValidationError, match="0.1 x shortest chain period"):
        integrate(st0, p, 1.01 * dt_max, 10)
    with pytest.raises(ValidationError, match="0.1 x shortest chain period"):
        integrate(st0, p, 0.0, 10)
    integrate(st0, p, 0.99 * dt_max, 10)
    assert max_stable_dt(p) == dt_max


def test_prescribed_trajectory_is_exact():
    p = paper(N=101, w=0.05)
    st0 = initial_state(p, x_d=0.05, v=0.4)
    traj = integrate(st0, p, 1e-3, 250, mode="prescribed", store_every=50)
    for state in [traj[i] for i in range(len(traj))]:
        assert state.x_d == pytest.approx(0.05 + 0.4 * state.t, abs=1e-15)


def test_single_mode_oscillates_at_formula_frequency():
    # band-top mode: the equal-mass dynamical chain and the cosine-mode
    # formula agree to O(1/N^2) there, well inside the 1e-4 window
    p = paper(N=2001, g=0.0)
    alpha = p.chain.N - 1
    omega = mode_frequency(alpha, p.chain)
    phi0 = mode_profile(p, [alpha], [1e-6])
    st0 = displaced(p, phi0)
    dt = 5e-6
    steps = 3200   # ~10 periods
    traj = integrate(st0, p, dt, steps, store_every=5)
    u = phi0 / np.linalg.norm(phi0)
    q = traj.phi @ u
    measured = frequency_from_crossings(traj.times, q)
    assert measured == pytest.approx(omega, rel=1e-4)


def test_low_mode_energy_drift(rng):
    # smooth initial data keeps Omega*dt small for every excited mode, the
    # regime where the symplectic energy error stays at the roundoff floor
    p = paper(N=2001, g=0.0)
    phi0 = mode_profile(p, [1, 2, 3], [1e-3, 5e-4, 2.5e-4])
    st0 = displaced(p, phi0)
    e0 = total_energy(st0, p)
    traj = integrate(st0, p, 1e-4, 10_000, store_every=10_000)
    e1 = total_energy(traj.final, p)
    assert abs(e1 - e0) / e0 <= 1e-6


def test_leapfrog_reversibility(rng):
    p = paper(N=501, g=0.0)
    phi0 = mode_profile(p, [1, 3, 7], [1e-3, 4e-4, 2e-4])
    st0 = displaced(p, phi0)
    fwd = integrate(st0, p, 1e-4, 500, store_every=500)
    back = integrate(fwd.final, p, -1e-4, 500, store_every=500)
    scale = np.abs(st0.phi).max()
    assert np.abs(back.final.phi - st0.phi).max() <= 1e-8 * scale
    assert np.abs(back.final.p - st0.p).max() <= 1e-8 * scale


def test_driven_run_steps_back_to_its_start():
    """A driven state leaves the centre-of-mass constraint (Sigma phi 5.96e-8
    of the field scale here), and integrate still steps it back."""
    p = paper()
    assert p.g != 0.0
    dt = 0.5 * max_stable_dt(p)
    st0 = initial_state(p, x_d=0.0, v=0.5)
    fwd = integrate(st0, p, dt, 500, store_every=500).final
    assert fwd.constraint_residuals()[0] > 1e-10
    back = integrate(fwd, p, -dt, 500, store_every=500).final
    peak = np.abs(fwd.phi).max()
    assert np.abs(back.phi - st0.phi).max() <= 1e-12 * peak
    assert back.x_d == pytest.approx(st0.x_d, abs=1e-15)


def test_dynamic_detector_conserves_total_energy():
    # an inconsistent force/energy pair would leave an O(1) drift; the
    # leapfrog remainder must shrink as dt^2 instead
    p = paper(N=101, w=0.05, g=1e-4)
    phi0 = mode_profile(p, [1, 2], [1e-3, 5e-4])
    drifts = []
    for dt, steps in ((5e-5, 4000), (2.5e-5, 8000)):
        st0 = displaced(p, phi0, x_d=0.02, v=0.3)
        e0 = total_energy(st0, p)
        fin = integrate(st0, p, dt, steps, mode="dynamic", store_every=steps).final
        assert fin.x_d != pytest.approx(0.02 + 0.3 * fin.t, abs=1e-12)
        drifts.append(abs(total_energy(fin, p) - e0) / abs(e0))
    assert drifts[1] <= 1e-5
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


def test_trajectory_recording(paper_params):
    st0 = initial_state(paper_params, x_d=0.0, v=0.5)
    traj = integrate(st0, paper_params, 1e-4, 100, store_every=10)
    assert len(traj) == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.01)
    assert traj[0].phi.shape == (paper_params.chain.N,)


# N = 101 sites; the prescribed runs take 1512 steps
_N_REF = 101
_REF_STEPS = 1512


@pytest.mark.parametrize("mode, g, dt, steps, store_every", [
    ("prescribed", None, 1e-3, _REF_STEPS, 1),
    ("prescribed", None, -1e-3, _REF_STEPS, 7),
    ("prescribed", 0.0, 1e-3, 300, 1),
    ("dynamic", 1e-4, 5e-4, 400, 1),
    ("dynamic", 1e-4, -5e-4, 400, 9),
    ("dynamic", 0.0, 1e-3, 300, 4),
])
def test_integrate_matches_per_step_reference(mode, g, dt, steps, store_every):
    p = paper(N=_N_REF, w=0.05, g=g)
    chain, det = p.chain, p.detector
    phi0 = mode_profile(p, [1, 3], [1e-3, 4e-4])
    p0 = 0.5 * mode_profile(p, [2], [2e-3])
    st0 = displaced(p, phi0, p0, x_d=0.02, v=0.3)
    run = integrate(st0, p, dt, steps, mode=mode, store_every=store_every)
    ref = leapfrog_reference(st0.phi, st0.p, st0.x_d, st0.p_d, st0.t, chain.a_c,
                             chain.m_c, chain.k_c, det.M_d,
                             p.g * det.a_d * chain.a_c, det.w, dt, steps,
                             dynamic=mode == "dynamic", store_every=store_every)
    got = (run.times, run.phi, run.p, run.x_d, run.p_d)
    for name, a, b in zip(("times", "phi", "p", "x_d", "p_d"), got, ref):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


@settings(max_examples=10, deadline=None)
@given(steps=st.integers(10, 200))
def test_reversibility_property(steps):
    p = paper(N=101, w=0.05, g=0.0)
    phi0 = mode_profile(p, [2, 5], [1e-3, 3e-4])
    st0 = displaced(p, phi0)
    fwd = integrate(st0, p, 2e-4, steps, store_every=steps)
    back = integrate(fwd.final, p, -2e-4, steps, store_every=steps)
    assert np.abs(back.final.phi - st0.phi).max() <= 1e-8 * np.abs(st0.phi).max()


# integrate builds the prescribed drive for _BLOCK_ELEMENTS // N steps at a
# time, 648 at N = 101: 647 steps evaluate forces at exactly one full block
# (steps 0..647), 1295 steps at exactly two
@pytest.mark.parametrize("steps", [647, 1295])
def test_integrate_matches_reference_at_drive_block_edges(steps):
    assert _BLOCK_ELEMENTS // _N_REF == 648
    p = paper(N=_N_REF, w=0.05)
    chain, det = p.chain, p.detector
    st0 = displaced(p, mode_profile(p, [1, 3], [1e-3, 4e-4]),
                    0.5 * mode_profile(p, [2], [2e-3]), x_d=0.02, v=0.3)
    run = integrate(st0, p, 1e-3, steps, store_every=100)
    ref = leapfrog_reference(st0.phi, st0.p, st0.x_d, st0.p_d, st0.t, chain.a_c,
                             chain.m_c, chain.k_c, det.M_d,
                             p.g * det.a_d * chain.a_c, det.w, 1e-3, steps,
                             store_every=100)
    for a, b in zip((run.times, run.phi, run.p, run.x_d, run.p_d), ref):
        assert np.array_equal(a, b)
