"""Acceptance gate: one test per headline guarantee, at its stated tolerance.

Each test is self-contained so a failure isolates exactly one guarantee; the
terminal summary (see conftest) prints one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np
import pytest

from ginzburg.discrete_oracle import (ChainState, initial_state, integrate,
                                      site_positions, total_energy)
from ginzburg.meanfield import Trajectory, meanfield_closed, profile
from ginzburg.modes import mode_coupling, mode_frequency, mode_function
from ginzburg.params import build_params
from ginzburg.quantum import (FockSpace, build_ndpa, evolve_exact, evolve_full,
                              evolve_perturbative, trace_distance)
from ginzburg.specfun import bessel_k1, cutoff_f
from ginzburg.superpose import (Branch, BranchSpec, density_matrix,
                                evolve_superposed, mixed_density_matrix,
                                reduce_chain, reduce_detector)
from ginzburg.modes import ModeCoupling

from oracles import fit_order, loop_partial_trace, spectrum_eigensolve
from reference_values import K1_TABLE


def paper(n=2001, w=0.01, g=None):
    cfg = {"units": {"preset": "paper"}, "chain": {"N": n},
           "detector": {"w": w}}
    if g is not None:
        cfg["coupling"] = {"g": g}
    return build_params(cfg)


def scaled_coupling():
    """Rescale g so |g_10| / hbar = 0.05 at the v = 2 resonance."""
    base = paper()
    omega_d = mode_frequency(10, base.chain)
    probe = mode_coupling(10, base, omega_d=omega_d)
    params = paper(g=0.05 * base.hbar / abs(probe.g_alpha))
    return params, omega_d, mode_coupling(10, params, omega_d=omega_d)


def equal_coupling_spec(theta, phi, two_level=False):
    """Two branches with unit |g| each, so g t is the only scale."""
    c1 = ModeCoupling(alpha=10, g_alpha=-1.0, omega_d=10.0 * math.pi,
                      omega_alpha=31.4156)
    c2 = ModeCoupling(alpha=7, g_alpha=-1.0, omega_d=11.2 * math.pi,
                      omega_alpha=21.9908)
    return BranchSpec(branches=(Branch(0.0, 2.0, c1), Branch(0.0, 2.6, c2)),
                      theta=theta, phi=phi, hbar=1.0, two_level=two_level)


def fwhm(x, y):
    """Full width at half maximum by linear interpolation around the peak."""
    k = int(np.argmax(y))
    half = y[k] / 2.0
    i = k
    while y[i] > half:
        i -= 1
    lo = x[i] + (x[i + 1] - x[i]) * (half - y[i]) / (y[i + 1] - y[i])
    j = k
    while y[j] > half:
        j += 1
    hi = x[j - 1] + (x[j] - x[j - 1]) * (half - y[j - 1]) / (y[j] - y[j - 1])
    return hi - lo


def mode_ic(params, alphas, amps):
    x = site_positions(params)
    chain = params.chain
    phi = np.zeros(chain.N)
    for a, amp in zip(alphas, amps):
        phi += amp * np.sqrt(2.0 / chain.L) * np.cos(
            a * math.pi * (x + chain.L / 2) / chain.L)
    return phi - phi.mean()


# -- mean field ----------------------------------------------------------------

def test_criterion_01_three_meanfield_routes_agree():
    """closed, image-series, and quadrature mode-sum routes agree to 2% of
    the peak on 200 grid points, in under a minute."""
    params = paper()
    traj = Trajectory(0.0, 0.5)
    grid = np.linspace(-0.5, 0.5, 200)
    t0 = time.perf_counter()
    closed = profile("closed", grid, 0.25, traj, params)
    series = profile("series", grid, 0.25, traj, params)
    modesum = profile("modesum", grid, 0.25, traj, params)
    elapsed = time.perf_counter() - t0

    peak = float(np.max(np.abs(closed.values)))
    assert np.max(np.abs(series.values - closed.values)) <= 0.02 * peak
    assert np.max(np.abs(modesum.values - closed.values)) <= 0.02 * peak
    assert np.max(np.abs(modesum.values - series.values)) <= 0.02 * peak
    assert elapsed < 60.0


def test_criterion_02_packet_positions_signs_and_widths():
    """Each profile shows exactly three packets: a comoving lump at v t
    (positive below the sound speed, negative above) and sound-speed ripples
    at +-c t, every packet within a factor 2 of the smearing width."""
    params = paper()
    w = params.detector.w
    grid = np.linspace(-0.5, 0.5, 2001)
    cell = grid[1] - grid[0]
    for v, t, comoving_sign in ((0.5, 0.25, 1.0), (2.5, 0.1, -1.0)):
        prof = profile("closed", grid, t, Trajectory(0.0, v), params)
        mag = np.abs(prof.values)
        peak = mag.max()
        interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]) \
            & (mag[1:-1] > 0.1 * peak)
        found = np.sort(grid[1:-1][interior])
        expected = np.sort([v * t, t, -t])
        assert found.size == 3
        np.testing.assert_allclose(found, expected, atol=cell + 1e-12)

        comp = prof.components
        k = int(np.argmin(np.abs(grid - v * t)))
        assert comoving_sign * comp["comoving"][k] > 0
        for name in ("comoving", "ripple_right", "ripple_left"):
            width = fwhm(grid, np.abs(comp[name]))
            assert 0.5 * w <= width <= 2.0 * w


def test_criterion_03_profiles_carry_no_net_displacement():
    """Integrated over the full packet support, the displacement profile
    cancels to 1e-4 of its L1 mass at every checked time and speed."""
    params = paper()
    x = np.linspace(-1.5, 1.5, 30001)
    for v in (0.5, 2.5):
        traj = Trajectory(0.0, v)
        for t in (0.05, 0.1, 0.25):
            phi = meanfield_closed(x, t, traj, params)
            net = abs(np.trapezoid(phi, x))
            l1 = float(np.trapezoid(np.abs(phi), x))
            assert net <= 1e-4 * l1


# -- discrete oracle -----------------------------------------------------------

def test_criterion_04_leapfrog_chain_validates_closed_form():
    """A 2001-site leapfrog run reproduces the closed-form profile to 5% of
    the peak in L2, and the free chain conserves energy to 1e-6 over 1e4
    steps."""
    params = paper()
    st0 = initial_state(params, x_d=0.0, v=0.5)
    dt, steps = 1e-4, 2500
    run = integrate(st0, params, dt, steps, mode="prescribed",
                    store_every=steps)
    x = site_positions(params)
    phi_closed = meanfield_closed(x, dt * steps, Trajectory(0.0, 0.5), params)
    peak = float(np.max(np.abs(phi_closed)))
    l2 = float(np.sqrt(np.mean((run.final.phi - phi_closed) ** 2)))
    assert l2 <= 0.05 * peak

    free = paper(g=0.0)
    phi0 = mode_ic(free, [1, 2, 3], [1e-3, 5e-4, 2.5e-4])
    st = ChainState(t=0.0, phi=phi0, p=np.zeros_like(phi0), x_d=0.0, p_d=0.0)
    st.validate(free)
    e0 = total_energy(st, free)
    drifted = integrate(st, free, 1e-4, 10_000, store_every=10_000)
    assert abs(total_energy(drifted.final, free) - e0) / e0 <= 1e-6


# -- modes and special functions -------------------------------------------------

def test_criterion_05_dispersion_matches_dense_eigensolve():
    """The closed-form frequencies equal a dense generalized eigensolve of
    the 21-site spring matrices to 1e-8, and the first 30 mode functions are
    orthonormal to 1e-8 under trapezoid quadrature."""
    params21 = paper(n=21, w=0.2)
    chain = params21.chain
    dense = spectrum_eigensolve(chain.N, chain.m_c, chain.k_c)
    for alpha in range(1, 21):
        target = mode_frequency(alpha, chain)
        assert abs(dense[alpha - 1] - target) / target <= 1e-8

    big = paper()
    x = np.linspace(-0.5, 0.5, 20001)
    funcs = np.array([mode_function(a, x, big.chain) for a in range(1, 31)])
    gram = np.trapezoid(funcs[:, None, :] * funcs[None, :, :], x, axis=2)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-8
    assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-8


def test_criterion_06_coupling_cutoff_reference_values():
    """f(0) = 1 exactly, and both the cutoff f and the Bessel K1 it wraps
    match 40-digit quadrature values to 1e-7 across [1e-3, 30]."""
    assert cutoff_f(0.0) == 1.0
    for y, k1_ref, f_ref in K1_TABLE:
        assert abs(bessel_k1(y) - k1_ref) / k1_ref <= 1e-7
        assert abs(cutoff_f(y) - f_ref) / f_ref <= 1e-7


# -- quantized pair creation -----------------------------------------------------

def test_criterion_07_perturbative_amplitude_error_order():
    """First-order pair creation matches the exact propagator to 1e-3 in
    probability at g t = 0.05, with amplitude error shrinking at third
    order."""
    params, _, c10 = scaled_coupling()
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    h = build_ndpa(c10, space)
    idx = space.basis_index(1, (1,))

    t = 0.05 / abs(c10.g_alpha)
    pert = evolve_perturbative(h, space.vacuum(), t, params.hbar).normalized()
    exact = evolve_exact(h, space.vacuum(), t, params.hbar)
    p_pert = pert.excitation_probability()
    p_exact = exact.excitation_probability()
    assert abs(p_pert - p_exact) / p_exact <= 1e-3

    gts = (0.2, 0.1, 0.05)
    errs = []
    for gt in gts:
        ti = gt / abs(c10.g_alpha)
        pert_i = evolve_perturbative(h, space.vacuum(), ti, params.hbar).normalized()
        diff = (pert_i.amplitudes[idx]
                - evolve_exact(h, space.vacuum(), ti, params.hbar).amplitudes[idx])
        errs.append(abs(diff))
    assert fit_order(gts, errs) >= 2.7


def test_criterion_08_full_hamiltonian_validates_rotating_wave():
    """Stepping the co- plus counter-rotating Hamiltonian with the resonant
    and both neighbor modes reproduces the parametric-amplifier probability
    within 10%; neighbor detunings clear 20 |g|/hbar and their occupations
    stay below (|g| / hbar delta)^2."""
    params, omega_d, _ = scaled_coupling()
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    space = FockSpace(modes=((9, 2), (10, 3), (11, 2)), detector_qubits=1)
    g10 = abs(couplings[1].g_alpha)

    for c in (couplings[0], couplings[2]):
        detuning = abs(c.omega_alpha * (2.0 - 1.0) - omega_d)
        assert detuning >= 20.0 * abs(c.g_alpha) / params.hbar

    gt = 0.1
    t = gt * params.hbar / g10
    psi = evolve_full(space.vacuum(), t, Trajectory(0.0, 2.0), couplings,
                      space, params, omega_d)
    p_rwa = math.sin(gt / 2.0) ** 2
    assert abs(psi.excitation_probability() - p_rwa) <= 0.10 * p_rwa

    for c in (couplings[0], couplings[2]):
        detuning = abs(c.omega_alpha * (2.0 - 1.0) - omega_d)
        occupation = psi.expectation(space.number_operator(c.alpha))
        assert occupation < (abs(c.g_alpha) / (params.hbar * detuning)) ** 2


# -- superposed trajectories -----------------------------------------------------

def test_criterion_09_superposed_branch_populations():
    """An equal superposition populates both resonant modes at
    (g t)^2 / 8 / N each, a localized run exactly one; the two-level
    detector tags branches as |eg> / |ge>; first-order populations match the
    exactly evolved, independently traced state to 1e-4."""
    t = 0.2
    norm_sq = 1.0 + (t / 2.0) ** 2
    expect = (t * t / 8.0) / norm_sq

    spec = equal_coupling_spec(math.pi / 4.0, 0.0)
    rho = density_matrix(evolve_superposed(spec, t))
    assert rho.population((0, 1, 1, 0)) == pytest.approx(expect, rel=1e-12)
    assert rho.population((1, 1, 0, 1)) == pytest.approx(expect, rel=1e-12)

    localized = reduce_chain(density_matrix(
        evolve_superposed(equal_coupling_spec(0.0, 0.0), t)))
    assert localized.population((0, 1)) == 0.0
    assert localized.population((1, 0)) > 0.0

    two_level = equal_coupling_spec(math.pi / 4.0, 0.0, two_level=True)
    tagged = reduce_detector(density_matrix(evolve_superposed(two_level, t)))
    assert tagged.population((2,)) == pytest.approx(expect, rel=1e-12)  # |eg>
    assert tagged.population((1,)) == pytest.approx(expect, rel=1e-12)  # |ge>
    assert tagged.population((3,)) < 1e-16                              # |ee>

    pert_chain = reduce_chain(rho)
    exact_rho = density_matrix(evolve_superposed(spec, t, method="exact"))
    exact_chain = loop_partial_trace(exact_rho.matrix, exact_rho.dims, (2, 3))
    for multi in ((0, 0), (1, 0), (0, 1), (1, 1)):
        k = int(np.ravel_multi_index(multi, (2, 2)))
        assert abs(pert_chain.population(multi)
                   - float(exact_chain[k, k].real)) <= 1e-4


def test_criterion_10_reduced_states_hide_branch_coherence():
    """Chain and detector reductions of the coherent superposition equal the
    classical mixture to 1e-10 in trace distance, and are independent of the
    superposition phase to 1e-12."""
    t = 0.2
    spec = equal_coupling_spec(math.pi / 4.0, 0.0)
    coherent = density_matrix(evolve_superposed(spec, t))
    mixed = mixed_density_matrix(evolve_superposed(spec, t))
    assert trace_distance(reduce_chain(coherent), reduce_chain(mixed)) <= 1e-10
    assert trace_distance(reduce_detector(coherent),
                          reduce_detector(mixed)) <= 1e-10

    base_chain = base_det = None
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
        rho = density_matrix(evolve_superposed(
            equal_coupling_spec(math.pi / 4.0, phi), t))
        chain = reduce_chain(rho).matrix
        det = reduce_detector(rho).matrix
        if base_chain is None:
            base_chain, base_det = chain, det
        else:
            assert np.max(np.abs(chain - base_chain)) <= 1e-12
            assert np.max(np.abs(det - base_det)) <= 1e-12
