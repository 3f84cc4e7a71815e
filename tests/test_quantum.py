"""Truncated-Fock pair creation against closed forms and a full-Hamiltonian check.

Coupling is rescaled so |g_10| / hbar = 0.05 at the v = 2 resonance; order-one
evolution times then sit inside the perturbative window.  Closed forms used:
NDPA P_e = sin^2(g t / 2 hbar), squeezer P(n,n) = tanh^{2n} r / cosh^2 r.
"""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginzburg import quantum
from ginzburg.errors import GuardError, ValidationError
from ginzburg.meanfield import Trajectory
from ginzburg.modes import mode_coupling, mode_frequency, resonance_mode
from ginzburg.params import build_params
from ginzburg.quantum import (DensityMatrix, FockSpace, QuantumState,
                              build_ndpa, evolve_exact, evolve_full,
                              evolve_perturbative,
                              interaction_hamiltonian_full, trace_distance)

from oracles import (_kron_ladders, dense_full_hamiltonian, excited_projector,
                     loop_partial_trace, magnus2_dense, probability,
                     squeezing_pair_populations)

V_RES = 2.0  # alpha* = 10 on the paper chain
GT_UNIT = 0.05  # |g_10| t / hbar per unit time after rescaling
HBAR = 1.0  # hbar of the paper preset, the units of every coupling here


def scaled_setup():
    base = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                         "detector": {"w": 0.01}})
    omega_d = mode_frequency(10, base.chain) / (V_RES - 1.0)
    probe = mode_coupling(10, base, omega_d=omega_d)
    g = GT_UNIT * base.hbar / abs(probe.g_alpha)
    params = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                           "detector": {"w": 0.01}, "coupling": {"g": g}})
    return params, omega_d


@pytest.fixture(scope="module")
def scaled():
    return scaled_setup()


@pytest.fixture(scope="module")
def c10(scaled):
    params, omega_d = scaled
    return mode_coupling(10, params, omega_d=omega_d)


# -- Fock space bookkeeping ---------------------------------------------------

def test_basis_index_enumerates_all_states():
    space = FockSpace(modes=((9, 2), (10, 1)), detector_qubits=1)
    assert space.dims == (2, 3, 2)
    assert space.dim == 12
    seen = set()
    for det in range(2):
        for n9 in range(3):
            for n10 in range(2):
                seen.add(space.basis_index(det, (n9, n10)))
    assert seen == set(range(12))
    vac = space.vacuum()
    assert vac.amplitudes[0] == 1.0
    assert probability(vac, 0, (0, 0)) == 1.0


def test_fock_space_validation():
    with pytest.raises(ValidationError):
        FockSpace(modes=((5, 1), (5, 2)), detector_qubits=1)
    with pytest.raises(ValidationError):
        FockSpace(modes=((5, 0),), detector_qubits=1)
    with pytest.raises(ValidationError):
        FockSpace(modes=((5, 1),), detector_qubits=3)
    for n_max in (1.5, True, 2.0):
        with pytest.raises(ValidationError, match="integer n_max"):
            FockSpace(modes=((10, n_max),))
    assert FockSpace(modes=((10, np.int64(2)),)).dim == 6
    for no_detector in ((), ((5, 1),)):
        with pytest.raises(ValidationError):
            FockSpace(modes=no_detector, detector_qubits=0)
    space = FockSpace(modes=((5, 1),), detector_qubits=1)
    with pytest.raises(ValidationError):
        space.number_operator(99)
    with pytest.raises(ValidationError):
        space.basis_index(0, (0, 0))


def test_two_qubit_detector_ordering():
    # qubit 0 is the slower binary digit: level 2 = |e g>
    space = FockSpace(modes=((7, 1),), detector_qubits=2)
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.basis_index(2, (0,))] = 1.0
    eg = QuantumState(space, amp)
    assert eg.excitation_probability() == 1.0
    # qubit 1, the faster digit, is excited on levels 1 and 3
    assert sum(probability(eg, level, (n,)) for level in (1, 3)
               for n in (0, 1)) == 0.0
    lowered = _kron_ladders([1], 2, 0)[0] @ amp
    assert abs(lowered[space.basis_index(0, (0,))] - 1.0) < 1e-15
    assert np.max(np.abs(_kron_ladders([1], 2, 1)[0] @ amp)) == 0.0


@pytest.mark.parametrize("qubits", [1, 2])
def test_excitation_probability_matches_projector(qubits):
    space = FockSpace(modes=((7, 2), (8, 1)), detector_qubits=qubits)
    rng = np.random.default_rng(qubits)
    psi = QuantumState(space, rng.normal(size=space.dim)
                       + 1j * rng.normal(size=space.dim)).normalized()
    expected = psi.expectation(excited_projector([2, 1], qubits, 0))
    assert psi.excitation_probability() == pytest.approx(expected, abs=1e-15)
    if qubits == 2:
        # qubit 1, through the basis: its excited levels are 1 and 3
        expected = psi.expectation(excited_projector([2, 1], qubits, 1))
        summed = sum(probability(psi, level, (n7, n8)) for level in (1, 3)
                     for n7 in range(3) for n8 in range(2))
        assert summed == pytest.approx(expected, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 4), n2=st.integers(1, 4), qubits=st.integers(1, 2))
def test_basis_index_bijection(n1, n2, qubits):
    space = FockSpace(modes=((1, n1), (2, n2)), detector_qubits=qubits)
    idx = [space.basis_index(d, (a, b)) for d in range(2 ** qubits)
           for a in range(n1 + 1) for b in range(n2 + 1)]
    assert sorted(idx) == list(range(space.dim))


# -- NDPA Hamiltonian ---------------------------------------------------------

def test_ndpa_matrix_elements(c10):
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    h = build_ndpa(c10, space)
    row = space.basis_index(1, (1,))
    col = space.basis_index(0, (0,))
    assert h[row, col] == 0.5 * c10.g_alpha
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert np.max(np.abs(np.diag(h))) == 0.0

    wide = FockSpace(modes=((10, 3),), detector_qubits=1)
    hw = build_ndpa(c10, wide)
    for n in range(3):
        elem = hw[wide.basis_index(1, (n + 1,)), wide.basis_index(0, (n,))]
        assert elem == pytest.approx(0.5 * c10.g_alpha * math.sqrt(n + 1),
                                     rel=1e-15)


def test_ndpa_requires_detector(c10):
    with pytest.raises(ValidationError):
        build_ndpa(c10, FockSpace(modes=((10, 2), (11, 2)), detector_qubits=0))
    with pytest.raises(ValidationError):
        build_ndpa(c10, FockSpace(modes=((10, 2), (11, 2))), qubit=1)
    with pytest.raises(ValidationError):
        build_ndpa(c10, FockSpace(modes=((9, 2), (11, 2))))


@pytest.mark.parametrize("qubit", [0, 1])
def test_ndpa_equals_kron_oracle(c10, qubit):
    """Stencil-built NDPA on 2 qubits x 2 modes equals (g/2)(a b_q + h.c.)
    from kron ladders, entry for entry."""
    space = FockSpace(modes=((9, 2), (10, 3)), detector_qubits=2)
    b, (_, a10) = _kron_ladders([2, 3], 2, qubit)
    ab = a10 @ b
    expected = 0.5 * c10.g_alpha * (ab + ab.conj().T)
    assert np.array_equal(build_ndpa(c10, space, qubit), expected)


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "ginzburg"], imported


def test_operator_budget(c10):
    """A space whose operators exceed OPERATOR_BYTES raises before any
    dim-sized allocation."""
    huge = FockSpace(modes=((10, 20000),))
    with pytest.raises(ValidationError, match="dim 40002.*256 MiB budget"):
        build_ndpa(c10, huge)
    with pytest.raises(ValidationError, match="dim 40002"):
        huge.number_operator(10)


def test_exact_budget_counts_dense_copies(c10, monkeypatch):
    """evolve_exact refuses an H whose Hermiticity check and eigh copies
    would exceed OPERATOR_BYTES, though H itself fit."""
    space = FockSpace(modes=((10, 100),))               # dim 202
    h = build_ndpa(c10, space)
    monkeypatch.setattr(quantum, "OPERATOR_BYTES", 2 ** 21)
    with pytest.raises(ValidationError, match="dim 202.*2 MiB budget"):
        evolve_exact(h, space.vacuum(), 0.1, HBAR)
    monkeypatch.setattr(quantum, "OPERATOR_BYTES", 80 * h.size)
    psi = evolve_exact(h, space.vacuum(), 0.1, HBAR)
    assert psi.norm == pytest.approx(1.0, abs=1e-12)


def test_vacuum_budget_before_allocation():
    """The amplitude vector is checked before it is allocated, and dim is
    an exact integer however many modes there are."""
    space = FockSpace(modes=tuple((a, 2) for a in range(1, 71)))
    assert space.dim == 2 * 3 ** 70
    with pytest.raises(ValidationError, match="MiB budget"):
        space.vacuum()


def test_full_budget_counts_power_buffer(monkeypatch):
    """evolve_full counts its n_terms + 1 Taylor power rows against
    OPERATOR_BYTES: with a budget that holds the stencil, the step's vals and
    gather and four amplitude vectors, but not the buffer (gt = 3, 19 terms),
    it raises before allocating."""
    params, omega_d, couplings, space, g_res = cli_default_setup(4)
    n_modes = len(space.modes)
    row_bytes = 64 * n_modes + 64
    budget = space.dim * (8 * (len(space.dims) + 6) + 48 * n_modes + row_bytes)
    monkeypatch.setattr(quantum, "OPERATOR_BYTES", budget)
    quantum._pair_stencil(space, 0, row_bytes)
    psi0 = space.vacuum()
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"dim {space.dim}"):
            evolve_full(psi0, 3.0 * params.hbar / g_res, Trajectory(0.0, V_RES),
                        couplings, space, params, omega_d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stencil array alone would be 8 B x dim x 2 n_modes
    assert peak < 8 * space.dim * 2 * n_modes / 4, peak


# -- exact propagator ---------------------------------------------------------

def test_evolve_exact_identity_and_norm(c10, rng):
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    h = build_ndpa(c10, space)
    psi0 = space.vacuum()
    same = evolve_exact(h, psi0, 0.0, HBAR)
    np.testing.assert_allclose(same.amplitudes, psi0.amplitudes, atol=1e-14)

    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h_rand = raw + raw.conj().T
    moved = evolve_exact(h_rand, psi0, 7.3, HBAR)
    assert abs(moved.norm - 1.0) < 1e-12

    for bad_t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            evolve_exact(h, psi0, bad_t, HBAR)
    with pytest.raises(ValidationError):
        evolve_exact(raw, psi0, 1.0, HBAR)


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_ndpa_probability_is_sine_squared(c10, n_max):
    # pair sector closes at one excitation: a+b+ |1,e> vanishes, so the
    # truncation level never enters
    space = FockSpace(modes=((10, n_max),), detector_qubits=1)
    h = build_ndpa(c10, space)
    t = 6.0
    psi = evolve_exact(h, space.vacuum(), t, HBAR)
    x = abs(c10.g_alpha) * t / 2.0
    assert psi.excitation_probability() == pytest.approx(math.sin(x) ** 2,
                                                         rel=1e-12)
    assert probability(psi, 1, (1,) + (0,) * 0) == pytest.approx(
        math.sin(x) ** 2, rel=1e-12)
    leak = 1.0 - probability(psi, 0, (0,)) - probability(psi, 1, (1,))
    assert abs(leak) < 1e-14


def test_small_time_quadratic(c10):
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    h = build_ndpa(c10, space)
    t = 0.2  # g t / hbar = 0.01
    psi = evolve_exact(h, space.vacuum(), t, HBAR)
    x = abs(c10.g_alpha) * t / 2.0
    assert psi.excitation_probability() == pytest.approx(x ** 2, rel=1e-4)


# -- perturbative branch ------------------------------------------------------

def pair_space(c):
    """The resonant pair space of coupling c and its build_ndpa H."""
    space = FockSpace(modes=((c.alpha, 1),), detector_qubits=1)
    return space, build_ndpa(c, space)


def test_perturbative_matches_exact_in_window(c10):
    t = 2.0  # g t / hbar = 0.1
    space, h = pair_space(c10)
    pert = evolve_perturbative(h, space.vacuum(), t, HBAR).normalized()
    x = abs(c10.g_alpha) * t / 2.0
    expected = x ** 2 / (1.0 + x ** 2)
    assert pert.excitation_probability() == pytest.approx(expected, rel=1e-12)
    assert pert.excitation_probability() == pytest.approx(
        0.0024937655860349127, rel=1e-12)

    exact = evolve_exact(h, space.vacuum(), t, HBAR)
    assert abs(pert.excitation_probability()
               - exact.excitation_probability()) < 1e-5
    assert abs(pert.norm - 1.0) < 1e-12


def test_perturbative_is_the_first_order_step(c10, rng):
    # any state on a space past the pair sector: psi0 - i (t / hbar) H psi0,
    # unnormalized, and second order off the exact propagator
    space = FockSpace(modes=((9, 2), (10, 3)), detector_qubits=1)
    h = build_ndpa(c10, space)
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi0 = QuantumState(space, amp / np.linalg.norm(amp))
    hbar, errs = 2.0, []
    for gt in (0.04, 0.02):
        t = gt / abs(c10.g_alpha)
        pert = evolve_perturbative(h, psi0, t, hbar=hbar)
        assert pert.space is space and pert.norm > 1.0
        np.testing.assert_allclose(
            pert.amplitudes,
            psi0.amplitudes - 1j * (t / hbar) * (h @ psi0.amplitudes),
            rtol=0, atol=1e-15)
        exact = evolve_exact(h, psi0, t, hbar=hbar)
        errs.append(np.linalg.norm(pert.amplitudes - exact.amplitudes))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_perturbative_zero_time_is_vacuum(c10):
    space, h = pair_space(c10)
    psi = evolve_perturbative(h, space.vacuum(), 0.0, HBAR)
    assert probability(psi, 0, (0,)) == 1.0


def test_perturbative_rejects_bad_time(c10):
    space, h = pair_space(c10)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            evolve_perturbative(h, space.vacuum(), bad, HBAR)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("evolve", [evolve_exact, evolve_perturbative],
                         ids=["exact", "perturbative"])
def test_evolutions_reject_bad_hbar(c10, evolve, hbar):
    space, h = pair_space(c10)
    with pytest.raises(ValidationError, match="hbar"):
        evolve(h, space.vacuum(), 0.1, hbar)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("evolve", [evolve_exact, evolve_perturbative],
                         ids=["exact", "perturbative"])
def test_evolutions_reject_non_finite_hamiltonian(c10, evolve, bad):
    space, h = pair_space(c10)
    h = h.copy()
    h[0, 0] = bad
    with pytest.raises(ValidationError, match="Hamiltonian has a non-finite entry"):
        evolve(h, space.vacuum(), 0.1, HBAR)


def test_perturbative_guard(c10, monkeypatch):
    space, h = pair_space(c10)
    t_past = 0.4 / abs(c10.g_alpha)
    with pytest.raises(GuardError) as err:
        evolve_perturbative(h, space.vacuum(), t_past, HBAR)
    assert "evolve_exact" in str(err.value)
    monkeypatch.setattr(quantum, "DEFAULT_PERTURBATIVE_GUARD", 0.5)
    loosened = evolve_perturbative(h, space.vacuum(), t_past, HBAR)
    # |0,g> - i (g t / 2) |1,e> with g t = 0.4
    assert loosened.norm == pytest.approx(math.sqrt(1.04), rel=1e-12)


def test_perturbative_guard_reads_the_hamiltonian(c10):
    # 2 max|H_ij| t / hbar: sqrt(n_max) of the deepest ladder step counts
    space = FockSpace(modes=((10, 4),), detector_qubits=1)
    h = build_ndpa(c10, space)
    t = 0.2 / abs(c10.g_alpha)  # |g| t = 0.2, 2 max|H_ij| t = 0.4
    with pytest.raises(GuardError):
        evolve_perturbative(h, space.vacuum(), t, HBAR)
    evolve_perturbative(h, space.vacuum(), t, hbar=2.0)


def test_perturbative_amplitude_error_is_third_order(c10):
    # error ~ x^3 / 3, so halving g t shrinks it close to 8x
    space, h = pair_space(c10)
    idx = space.basis_index(1, (1,))
    errs = []
    for gt in (0.2, 0.1):
        t = gt / abs(c10.g_alpha)
        pert = evolve_perturbative(h, space.vacuum(), t, HBAR).normalized()
        exact = evolve_exact(h, space.vacuum(), t, HBAR)
        errs.append(abs(pert.amplitudes[idx] - exact.amplitudes[idx]))
    ratio = errs[0] / errs[1]
    assert 7.0 < ratio < 9.0


# -- free energy bookkeeping --------------------------------------------------

def test_excitation_energy_grows_monotonically(scaled, c10):
    params, omega_d = scaled
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    h = build_ndpa(c10, space)
    # free Hamiltonian hbar Omega n + hbar omega_d |e><e|
    h0 = params.hbar * (c10.omega_alpha * space.number_operator(10)
                        + omega_d * excited_projector([1]))
    quantum = params.hbar * (c10.omega_alpha + omega_d)
    energies = []
    for gt in np.linspace(0.05, 1.0, 12):
        psi = evolve_exact(h, space.vacuum(), gt / abs(c10.g_alpha), HBAR)
        e = psi.expectation(h0)
        assert e == pytest.approx(quantum * math.sin(gt / 2.0) ** 2, rel=1e-10)
        energies.append(e)
    assert all(b > a for a, b in zip(energies, energies[1:]))


# -- two-mode squeezer (bosonic detector stand-in) ----------------------------

def test_squeezer_pair_spectrum():
    """Two modes squeezed by kron ladders; the detector qubit stays ground."""
    n_max = 10
    space = FockSpace(modes=((1, n_max), (2, n_max)), detector_qubits=1)
    g, r = 1.0, 0.3
    _, (a1, a2) = _kron_ladders([n_max, n_max])
    ab = a1 @ a2
    h = 0.5 * g * (ab + ab.conj().T)
    psi = evolve_exact(h, space.vacuum(), 2.0 * r / g, HBAR)
    assert psi.excitation_probability() == 0.0

    expected = squeezing_pair_populations(r, n_max)
    for n in range(7):
        got = probability(psi, 0, (n, n))
        assert got == pytest.approx(expected[n], rel=1e-6, abs=1e-9)

    probs = np.abs(psi.amplitudes[:space.dim // 2]
                   .reshape(n_max + 1, n_max + 1)) ** 2
    off_pair = probs.sum() - np.trace(probs)
    assert off_pair < 1e-12
    assert abs(psi.norm - 1.0) < 1e-12


# -- full time-dependent Hamiltonian ------------------------------------------

def chain_modes(space, couplings):
    """(n_max, g, Omega) per mode, the plain-number input of the oracles."""
    return [(n_max, c.g_alpha, c.omega_alpha)
            for (_, n_max), c in zip(space.modes, couplings)]


def cli_default_setup(window=2):
    """`evolve --scheme full --v 2.0 --window W` at the CLI defaults: Fig. 2
    params, unscaled coupling, modes alpha0 +/- W, n_max 2 resonant and 1 off."""
    params = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                           "detector": {"w": 0.01}})
    omega_d = params.detector.omega_d1
    alpha0 = resonance_mode(2.0, omega_d, params).alpha0
    couplings = [mode_coupling(a, params, omega_d)
                 for a in range(alpha0 - window, alpha0 + window + 1)]
    space = FockSpace(modes=tuple((c.alpha, 2 if c.alpha == alpha0 else 1)
                                  for c in couplings), detector_qubits=1)
    return params, omega_d, couplings, space, abs(couplings[window].g_alpha)


def test_full_interaction_is_hermitian(scaled):
    """H(t) is Hermitian and equals the oracle's kron-built H(t), with one
    detector qubit and with two (b lowers the first)."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    for qubits in (1, 2):
        space = FockSpace(modes=((9, 1), (10, 2), (11, 1)),
                          detector_qubits=qubits)
        h = interaction_hamiltonian_full(0.37, 0.21, couplings, space, params,
                                         omega_d)
        scale = np.max(np.abs(h))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14 * scale
        expected = dense_full_hamiltonian(
            0.37, 0.21, chain_modes(space, couplings), omega_d, params.chain.L,
            params.chain.c_s, detector_qubits=qubits)
        assert np.max(np.abs(h - expected)) <= 1e-14 * scale


def test_full_zero_time_and_dt_guard(scaled, c10):
    params, omega_d = scaled
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    traj = Trajectory(0.0, V_RES)
    same = evolve_full(space.vacuum(), 0.0, traj, [c10], space, params)
    assert probability(same, 0, (0,)) == pytest.approx(1.0, abs=1e-14)

    for bad_t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            evolve_full(space.vacuum(), bad_t, traj, [c10], space, params)
    bare = FockSpace(modes=(), detector_qubits=1)
    with pytest.raises(ValidationError):
        evolve_full(bare.vacuum(), 0.1, traj, [], bare, params, omega_d)

    wrong_space = FockSpace(modes=((9, 1), (10, 1)), detector_qubits=1)
    with pytest.raises(ValidationError):
        evolve_full(wrong_space.vacuum(), 0.1, traj, [c10], wrong_space, params)
    with pytest.raises(ValidationError):
        FockSpace(modes=((10, 1),), detector_qubits=0)


@pytest.mark.parametrize("kwargs, match", [
    ({"omega_d": math.nan}, "omega_d must be positive"),
    ({"omega_d": math.inf}, "omega_d must be positive"),
    ({"omega_d": 0.0}, "omega_d must be positive"),
    ({"omega_d": -1e6}, "omega_d must be positive"),
], ids=["omega_d_nan", "omega_d_inf", "omega_d_0", "omega_d_negative"])
def test_full_rejects_bad_dt_and_omega_d(scaled, c10, kwargs, match):
    params, _ = scaled
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    with pytest.raises(ValidationError, match=match):
        evolve_full(space.vacuum(), 0.1, Trajectory(0.0, V_RES), [c10], space,
                    params, **kwargs)


def test_full_refuses_a_second_detector_frequency(scaled):
    # g_10 below holds omega_d = 10 pi; stepping its phases at 11 pi would
    # mix two detectors
    params, _ = scaled
    c = mode_coupling(10, params, omega_d=10.0 * math.pi)
    space = FockSpace(modes=((10, 1),), detector_qubits=1)
    with pytest.raises(ValidationError) as err:
        evolve_full(space.vacuum(), 0.1, Trajectory(0.0, V_RES), [c], space,
                    params, 11.0 * math.pi)
    assert repr(11.0 * math.pi) in str(err.value)
    assert repr(10.0 * math.pi) in str(err.value)


def test_full_matches_ndpa_on_resonance(scaled):
    """Stepping the pre-RWA Hamiltonian reproduces the parametric-amplifier
    law on resonance; neighbor modes stay below the detuning bound."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    space = FockSpace(modes=((9, 1), (10, 2), (11, 1)), detector_qubits=1)
    g10 = abs(couplings[1].g_alpha)
    traj = Trajectory(0.0, V_RES)

    gt = 0.1
    t = gt * params.hbar / g10
    psi = evolve_full(space.vacuum(), t, traj, couplings, space, params,
                      omega_d)
    assert abs(psi.norm - 1.0) < 1e-10

    p_rwa = math.sin(gt / 2.0) ** 2
    assert psi.excitation_probability() == pytest.approx(p_rwa, rel=1e-2)

    for c in (couplings[0], couplings[2]):
        detuning = abs(c.omega_alpha * (V_RES - 1.0) - omega_d)
        assert detuning > 20.0 * abs(c.g_alpha) / params.hbar
        occupation = psi.expectation(space.number_operator(c.alpha))
        assert occupation < (abs(c.g_alpha) / (params.hbar * detuning)) ** 2


@pytest.mark.parametrize("setup, gt, dt_scale", [
    ("window", 0.1, None),
    ("cli_default", 3.0, None),    # one step, norm bound ~33
    ("cli_default", 10.0, None),   # one step; unsplit Taylor loses ~0.07
    ("window", 0.2, 0.5),          # 4200 steps, more than one block
    ("cli_window3", 1.0, None),    # dim 384, seven modes, gathered stencil
    ("strong_random", 800.0, None),  # random start, 2 sub-steps, 4200 steps
])
def test_full_matches_dense_magnus2_oracle(scaled, rng, monkeypatch, setup, gt,
                                           dt_scale):
    if setup.startswith("cli"):
        params, omega_d, couplings, space, g_res = cli_default_setup(
            3 if setup == "cli_window3" else 2)
    else:
        params, omega_d = scaled
        if setup == "strong_random":
            # 2000 times the scaled coupling
            params = build_params({
                "units": {"preset": "paper"}, "chain": {"N": 2001},
                "detector": {"w": 0.01},
                "coupling": {"g": 2000.0 * params.coupling.g}})
        couplings = [mode_coupling(a, params, omega_d=omega_d)
                     for a in (9, 10, 11)]
        space = FockSpace(modes=((9, 1), (10, 2), (11, 1)), detector_qubits=1)
        g_res = abs(couplings[1].g_alpha)
    psi0 = space.vacuum()
    if setup == "strong_random":
        psi0 = QuantumState(space, rng.normal(size=space.dim)
                            + 1j * rng.normal(size=space.dim)).normalized()
    t = gt * params.hbar / g_res
    modes_in = chain_modes(space, couplings)
    dt_max = 2.0 * math.pi / (50.0 * (max(c.omega_alpha for c in couplings)
                                       + omega_d))
    dt = dt_scale * dt_max if dt_scale else None
    if dt_scale:
        # evolve_full reads its steps per cycle when it runs
        monkeypatch.setattr(quantum, "FULL_STEPS_PER_CYCLE", 50.0 / dt_scale)
    if setup == "cli_default":
        # a single step with ||H|| t / hbar > 10 needs the sub-stepping
        h_mid = dense_full_hamiltonian(t / 2.0, V_RES * t / 2.0, modes_in,
                                       omega_d, params.chain.L, params.chain.c_s)
        assert t < dt_max
        assert np.linalg.norm(h_mid, 2) * t / params.hbar > 10.0
    if setup == "strong_random":
        # more than one step block, and the norm bound theta of evolve_full
        # asks for ceil(theta) = 2 sub-steps per step
        theta = 2.0 * dt_max / params.hbar * sum(
            abs(g) * math.sqrt(n_max) for n_max, g, _ in modes_in)
        assert t / dt_max > quantum._STEP_BLOCK
        assert math.ceil(theta) == 2
    # the stepped sector, half the rows from the vacuum: cli_window3 is the
    # case above the dense size rule, so each form of the step is checked
    rows = space.dim if setup == "strong_random" else space.dim // 2
    assert (16 * rows ** 2 > quantum._GATHER_BYTES) == (setup == "cli_window3")

    traj = Trajectory(0.0, V_RES)
    psi = evolve_full(psi0, t, traj, couplings, space, params, omega_d)
    expected = magnus2_dense(psi0.amplitudes, t, dt or dt_max,
                             traj.x0, traj.v, modes_in, omega_d,
                             params.chain.L, params.chain.c_s, params.hbar)
    assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-12


@pytest.mark.parametrize("qubits", [1, 2])
def test_full_norm_bound_covers_every_step(scaled, qubits):
    """evolve_full's theta bounds ||H(t_mid)|| dt / hbar at every step, and
    is less than twice the largest: a ladder of n_max 3 has ||a + a^dag||
    = 2.33, against the bound's 2 sqrt(3) = 3.46."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    space = FockSpace(modes=((9, 1), (10, 3), (11, 1)), detector_qubits=qubits)
    dt = 2.0 * math.pi / (50.0 * (couplings[-1].omega_alpha + omega_d))
    theta = quantum._norm_bound(couplings, space, dt, params.hbar)
    norms = [np.linalg.norm(interaction_hamiltonian_full(
        t_mid, V_RES * t_mid, couplings, space, params, omega_d), 2)
        * dt / params.hbar for t_mid in (np.arange(400) + 0.5) * dt * 7.0]
    assert max(norms) <= theta
    assert max(norms) > 0.5 * theta


def odd_rows(space):
    """Basis rows whose phonon count plus qubit-0 excitation is odd; qubit 0
    is the slowest bit of the detector level."""
    ladders = [range(2 ** space.detector_qubits)]
    ladders += [range(n_max + 1) for _, n_max in space.modes]
    return [space.basis_index(level, occ)
            for level, *occ in itertools.product(*ladders)
            if ((level >> (space.detector_qubits - 1)) + sum(occ)) % 2]


@pytest.mark.parametrize("qubits", [1, 2])
def test_full_from_vacuum_leaves_odd_sector_empty(scaled, qubits):
    """Every pair term moves one phonon and flips qubit 0, so from the
    vacuum each odd-parity amplitude stays exactly 0."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    space = FockSpace(modes=((9, 2), (10, 3), (11, 2)), detector_qubits=qubits)
    t = 0.1 * params.hbar / abs(couplings[1].g_alpha)
    psi = evolve_full(space.vacuum(), t, Trajectory(0.0, V_RES), couplings,
                      space, params, omega_d)
    odd = odd_rows(space)
    assert len(odd) == space.dim // 2
    assert np.all(psi.amplitudes[odd] == 0.0)
    assert abs(psi.norm - 1.0) <= 1e-12
    assert psi.excitation_probability() > 0.0


def test_full_one_phonon_stays_odd_and_matches_oracle(scaled):
    """One phonon in mode 10, detector in the ground state: the state stays
    in the odd sector and agrees with the dense Magnus-2 oracle."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    space = FockSpace(modes=((9, 1), (10, 2), (11, 1)), detector_qubits=1)
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.basis_index(0, (0, 1, 0))] = 1.0
    psi0 = QuantumState(space, amp)
    t = 0.1 * params.hbar / abs(couplings[1].g_alpha)
    traj = Trajectory(0.0, V_RES)
    psi = evolve_full(psi0, t, traj, couplings, space, params, omega_d)
    even = np.setdiff1d(np.arange(space.dim), odd_rows(space))
    assert np.all(psi.amplitudes[even] == 0.0)
    assert psi.excitation_probability() > 0.0
    dt_max = 2.0 * math.pi / (50.0 * (couplings[-1].omega_alpha + omega_d))
    expected = magnus2_dense(amp, t, dt_max, traj.x0, traj.v,
                             chain_modes(space, couplings), omega_d,
                             params.chain.L, params.chain.c_s, params.hbar)
    assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-12


def test_full_window_converged_in_flat_memory():
    """One step at gt = 1 for --window 4 (dim 1536) and 5 (dim 6144): the
    matrix-free step stays under 16 MB of allocations, where dense operators
    would need 0.7 GB and 13 GB, and p_excite has converged in the window."""
    p_excite = []
    for window in (4, 5):
        params, omega_d, couplings, space, g_res = cli_default_setup(window)
        t = params.hbar / g_res
        assert t < 2.0 * math.pi / (50.0 * (couplings[-1].omega_alpha + omega_d))
        psi0 = space.vacuum()
        tracemalloc.start()
        try:
            psi = evolve_full(psi0, t, Trajectory(0.0, V_RES), couplings, space,
                              params, omega_d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, (window, space.dim, peak)
        assert abs(psi.norm - 1.0) <= 1e-12
        p_excite.append(psi.excitation_probability())
    assert abs(p_excite[0] - p_excite[1]) <= 1e-7


def test_full_unitary_to_round_off(scaled):
    """Criterion 8 configuration at gt = 0.2: 2100 truncated-Taylor steps."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a in (9, 10, 11)]
    space = FockSpace(modes=((9, 2), (10, 3), (11, 2)), detector_qubits=1)
    t = 0.2 * params.hbar / abs(couplings[1].g_alpha)
    psi = evolve_full(space.vacuum(), t, Trajectory(0.0, V_RES), couplings,
                      space, params, omega_d)
    assert abs(psi.norm - 1.0) <= 1e-12


@pytest.mark.parametrize("modes", [
    ((9, 2), (10, 3), (11, 2)),
    tuple((a, 2 if a == 10 else 1) for a in range(7, 14)),
], ids=["criterion8", "window3"])
def test_full_step_blocks_leave_the_state(scaled, monkeypatch, modes):
    """2 _STEP_BLOCK + 1 steps, two whole blocks and one step, give the
    amplitudes of the same run in one block bit for bit, in the dense form
    of the step (criterion 8, 36 rows stepped) and in the gathered one
    (modes 7..13, 192 rows stepped), whose slot sum has a fixed order.  So
    does the run with every np.empty and np.zeros buffer (the Taylor powers,
    the gathered products, the dense sector matrices) placed 0, 16, 32 or 48
    bytes past a 64-byte boundary, as a row of a larger array may be."""
    params, omega_d = scaled
    couplings = [mode_coupling(a, params, omega_d=omega_d) for a, _ in modes]
    space = FockSpace(modes=modes, detector_qubits=1)
    dense = 16 * (space.dim // 2) ** 2 <= quantum._GATHER_BYTES
    assert dense == (len(modes) == 3)
    omega_fast = max(c.omega_alpha for c in couplings) + omega_d
    steps = 2 * quantum._STEP_BLOCK + 1
    # evolve_full takes ceil(t / dt) steps of the largest dt its rule allows
    t = (steps - 0.5) * 2.0 * math.pi / (quantum.FULL_STEPS_PER_CYCLE * omega_fast)

    def amplitudes():
        return evolve_full(space.vacuum(), t, Trajectory(0.0, V_RES), couplings,
                           space, params, omega_d).amplitudes

    def placed(alloc, offset):
        def alloc_at_offset(shape, dtype=float, order="C"):
            dtype = np.dtype(dtype)
            n_bytes = int(np.prod(shape)) * dtype.itemsize
            raw = alloc(n_bytes + 128, dtype=np.uint8)
            start = (offset - raw.ctypes.data) % 64
            return raw[start:start + n_bytes].view(dtype).reshape(shape, order=order)
        return alloc_at_offset

    blocked = amplitudes()
    for offset in (0, 16, 32, 48):
        with monkeypatch.context() as m:
            m.setattr(np, "empty", placed(np.empty, offset))
            m.setattr(np, "zeros", placed(np.zeros, offset))
            shifted = amplitudes()
        assert np.array_equal(shifted, blocked), offset
    monkeypatch.setattr(quantum, "_STEP_BLOCK", steps + 1)
    whole = amplitudes()
    assert np.abs(blocked).max() < 1.0   # the state has moved off the vacuum
    assert np.array_equal(blocked, whole)


# -- density matrices ---------------------------------------------------------

def test_density_matrix_validation():
    good = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2), ("a", "b"))
    good.validate()
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(3), (2, 2), ("a", "b"))
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4) / 4.0, (2, 2), ("a",))
    bad_herm = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    bad_herm[0, 1] = 0.3
    with pytest.raises(ValidationError):
        DensityMatrix(bad_herm, (2, 2), ("a", "b")).validate()
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2),
                      ("a", "b")).validate()
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4) / 2.0, (2, 2), ("a", "b")).validate()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite entry"):
            DensityMatrix(np.full((2, 2), bad), (2,), ("a",)).validate()


def test_partial_trace_matches_loop_oracle(rng):
    dims = (2, 3, 2)
    names = ("det", "m9", "m4")
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    amp /= np.linalg.norm(amp)
    rho = DensityMatrix(np.outer(amp, amp.conj()), dims, names)
    rho.validate()

    for keep_names, keep_idx in ((("det",), (0,)),
                                 (("det", "m4"), (0, 2)),
                                 (("m9",), (1,))):
        reduced = rho.partial_trace(keep_names)
        expected = loop_partial_trace(rho.matrix, dims, keep_idx)
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-13)
        assert abs(reduced.trace - 1.0) < 1e-12

    det = rho.partial_trace(("det",))
    assert det.population((0,)) == pytest.approx(np.real(det.matrix[0, 0]))
    with pytest.raises(ValidationError):
        rho.partial_trace(("nope",))


def test_trace_distance_properties():
    rho_a = DensityMatrix(np.diag([1.0, 0.0]), (2,), ("q",))
    rho_b = DensityMatrix(np.diag([0.0, 1.0]), (2,), ("q",))
    assert trace_distance(rho_a, rho_a) == 0.0
    assert trace_distance(rho_a, rho_b) == pytest.approx(1.0, rel=1e-12)
    assert trace_distance(rho_a, rho_b) == trace_distance(rho_b, rho_a)
    other = DensityMatrix(np.eye(3) / 3.0, (3,), ("q",))
    with pytest.raises(ValidationError):
        trace_distance(rho_a, other)
