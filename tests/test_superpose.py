"""Branch-labeled superposed trajectories: weights, pairing, and the
coherent-vs-mixture equivalence of the reduced states.

Hand-built couplings keep |g| t / hbar exact; each first-order branch is
normalized as its own run, so its excited population is x_i^2 / (1 + x_i^2)
with x_i = g_i t / 2 hbar, times the branch's squared weight.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ginzburg import quantum, superpose
from ginzburg.errors import GuardError, ValidationError
from ginzburg.modes import ModeCoupling, mode_coupling, resonance_pair
from ginzburg.params import build_params
from ginzburg.quantum import (FockSpace, QuantumState, build_ndpa,
                              evolve_perturbative, trace_distance)
from ginzburg.superpose import (Branch, BranchSpec, branch_spec_from_resonance,
                                density_matrix, discriminate, evolve_superposed,
                                mixed_density_matrix, reduce_chain,
                                reduce_detector)

from oracles import fit_order, loop_partial_trace

OMEGA_A1 = 31.4156035548  # mode 10 on the paper chain
OMEGA_A2 = 21.9908035869  # mode 7


def hand_spec(theta, phi, g1=1.0, g2=1.0, hbar=1.0, two_level=False):
    c1 = ModeCoupling(alpha=10, g_alpha=-abs(g1), omega_d=10.0 * math.pi,
                      omega_alpha=OMEGA_A1)
    c2 = ModeCoupling(alpha=7, g_alpha=-abs(g2), omega_d=11.2 * math.pi,
                      omega_alpha=OMEGA_A2)
    return BranchSpec(branches=(Branch(0.0, 2.0, c1), Branch(0.0, 2.6, c2)),
                      theta=theta, phi=phi, hbar=hbar, two_level=two_level)


# -- spec construction --------------------------------------------------------

def test_branch_spec_validation():
    with pytest.raises(ValidationError):
        hand_spec(-0.1, 0.0)
    with pytest.raises(ValidationError):
        hand_spec(math.pi / 2.0, 0.0)
    with pytest.raises(ValidationError):
        hand_spec(0.3, -0.1)
    with pytest.raises(ValidationError):
        hand_spec(0.3, math.pi)
    with pytest.raises(ValidationError):
        hand_spec(0.3, 0.2, hbar=0.0)
    c = ModeCoupling(alpha=10, g_alpha=-1.0, omega_d=1.0,
                     omega_alpha=OMEGA_A1)
    with pytest.raises(ValidationError):
        BranchSpec(branches=(Branch(0.0, 2.0, c), Branch(0.0, 2.1, c)),
                   theta=0.3, phi=0.0, hbar=1.0)
    with pytest.raises(ValidationError):
        BranchSpec(branches=(Branch(0.0, 2.0, c),), theta=0.3, phi=0.0,
                   hbar=1.0)


def test_superposition_weights():
    spec = hand_spec(math.pi / 3.0, math.pi / 4.0)
    w1, w2 = spec.weights
    assert w1 == pytest.approx(0.5, rel=1e-15)
    assert w2 == pytest.approx(np.exp(1j * math.pi / 4.0) * math.sin(math.pi / 3.0),
                               rel=1e-15)
    assert abs(w1) ** 2 + abs(w2) ** 2 == pytest.approx(1.0, rel=1e-15)


def test_spec_from_resonance_single_frequency():
    params = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                           "detector": {"w": 0.01}})
    spec = branch_spec_from_resonance(params, v1=2.0, v2=1.5,
                                      theta=math.pi / 4.0, phi=0.0)
    assert tuple(b.coupling.alpha for b in spec.branches) == (10, 20)
    assert not spec.two_level
    assert spec.hbar == params.hbar
    # same resonant mode cannot label the branches
    with pytest.raises(ValidationError):
        branch_spec_from_resonance(params, v1=2.0, v2=2.0001,
                                   theta=math.pi / 4.0, phi=0.0)


def _paper(omega_d, g=1.0):
    return build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                         "detector": {"w": 0.01, "omega_d": omega_d},
                         "coupling": {"g": g}})


def test_spec_from_resonance_two_level_selectivity():
    # two frequencies in the params make the detector two-level; at a weak
    # coupling the guard band is narrow and the pair selective, and the spec
    # alone makes the evolution two-level
    spec = branch_spec_from_resonance(_paper([10.0 * math.pi, 11.2 * math.pi], g=5e-8),
                                      v1=2.0, v2=2.6, theta=math.pi / 4.0, phi=0.0)
    assert tuple(b.coupling.alpha for b in spec.branches) == (10, 7)
    assert spec.two_level
    state = evolve_superposed(spec, 0.1)
    assert state.spec.detector_model == "two-level"
    assert state.dims == (2, 4, 2, 2)

    # v2 = 3 with a shared 10 pi reuses mode 5, whose cross detuning falls
    # inside the g = 1 guard band: the spec itself is refused
    dirty = _paper([10.0 * math.pi, 10.0 * math.pi])
    assert resonance_pair(2.0, 3.0, dirty).selectivity_violated
    with pytest.raises(GuardError, match="resonance selectivity violated"):
        branch_spec_from_resonance(dirty, v1=2.0, v2=3.0, theta=math.pi / 4.0,
                                   phi=0.0)
    # a spec that is invalid in itself says so before the selectivity check
    with pytest.raises(ValidationError, match="theta"):
        branch_spec_from_resonance(dirty, v1=2.0, v2=3.0, theta=math.pi / 2.0,
                                   phi=0.0)
    # the same pair is no error for a single-level detector
    single = branch_spec_from_resonance(_paper(10.0 * math.pi), v1=2.0, v2=3.0,
                                        theta=math.pi / 4.0, phi=0.0)
    assert not single.two_level


@pytest.mark.parametrize("omega_d", [[10.0 * math.pi], [10.0 * math.pi, 11.2 * math.pi]])
def test_spec_reuses_the_pair_couplings(omega_d, monkeypatch):
    # the pair carries the couplings its guard band is sized from, and the
    # spec's branches hold those same objects
    params = _paper(omega_d, g=5e-8)
    v1, v2 = 2.0, 2.6
    pair = resonance_pair(v1, v2, params)
    c1, c2 = pair.couplings
    assert c1 == mode_coupling(pair.alpha1, params, omega_d[0])
    assert c2 == mode_coupling(pair.alpha2, params, omega_d[-1])
    assert pair.guard_band == 20.0 * max(abs(c1.g_alpha), abs(c2.g_alpha)) / params.hbar
    spec_pairs = []

    def recording_pair(*args):
        spec_pairs.append(resonance_pair(*args))
        return spec_pairs[-1]

    monkeypatch.setattr(superpose, "resonance_pair", recording_pair)
    spec = branch_spec_from_resonance(params, v1, v2, theta=0.3, phi=0.0)
    (spec_pair,) = spec_pairs
    assert spec_pair.couplings == pair.couplings
    for branch, coupling in zip(spec.branches, spec_pair.couplings):
        assert branch.coupling is coupling
    # the branch's mode is its coupling's, in the evolved space too
    assert evolve_superposed(spec, 0.1).space.mode_labels == (c1.alpha, c2.alpha)


# -- first-order branch amplitudes --------------------------------------------

def test_branch_amplitudes_carry_weights_and_phase():
    theta, phi = math.pi / 3.0, math.pi / 5.0
    spec = hand_spec(theta, phi, g1=0.5, g2=1.0)
    state = evolve_superposed(spec, 0.2)
    vec = state.global_vector()
    space = state.space
    dim = space.dim

    i1 = space.basis_index(1, (1, 0))
    i2 = dim + space.basis_index(1, (0, 1))
    g1 = spec.branches[0].coupling.g_alpha
    g2 = spec.branches[1].coupling.g_alpha
    # each first-order branch is normalized as its own run
    n1, n2 = (math.sqrt(1.0 + (g * 0.2 / 2.0) ** 2) for g in (g1, g2))
    assert vec[i1] == pytest.approx(math.cos(theta) * (-1j * g1 * 0.2 / 2.0) / n1,
                                    rel=1e-14)
    assert vec[i2] == pytest.approx(
        np.exp(1j * phi) * math.sin(theta) * (-1j * g2 * 0.2 / 2.0) / n2, rel=1e-14)
    # vacuum component of each branch: its weight over the same norm
    assert vec[0] == pytest.approx(math.cos(theta) / n1, rel=1e-15)
    assert vec[dim] == pytest.approx(np.exp(1j * phi) * math.sin(theta) / n2,
                                     rel=1e-15)


def test_rejects_bad_model_and_negative_time():
    spec = hand_spec(0.3, 0.0)
    with pytest.raises(ValidationError):
        evolve_superposed(spec, 0.1, method="magic")
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            evolve_superposed(spec, bad)


def test_perturbative_guard_per_branch(monkeypatch):
    spec = hand_spec(0.3, 0.0, g1=1.0, g2=4.0)
    with pytest.raises(GuardError) as err:
        evolve_superposed(spec, 0.1)  # branch 2 has |g| t = 0.4
    assert "branch 2" in str(err.value)
    monkeypatch.setattr(quantum, "DEFAULT_PERTURBATIVE_GUARD", 0.5)
    evolve_superposed(spec, 0.1)


# -- populations at the frozen working point ----------------------------------

def test_equal_weight_populations():
    spec = hand_spec(math.pi / 4.0, 0.0)
    rho = density_matrix(evolve_superposed(spec, 0.2))
    # x = g t / 2 hbar = 0.1 in each branch, N = 1 + x^2
    expect = 0.005 / 1.01
    assert rho.population((0, 1, 1, 0)) == pytest.approx(expect, rel=1e-12)
    assert rho.population((1, 1, 0, 1)) == pytest.approx(expect, rel=1e-12)

    chain = reduce_chain(rho)
    assert chain.dims == (2, 2)
    assert chain.population((1, 0)) == pytest.approx(expect, rel=1e-12)
    assert chain.population((0, 1)) == pytest.approx(expect, rel=1e-12)
    assert chain.population((0, 0)) == pytest.approx(1.0 / 1.01, rel=1e-12)
    # never two phonons at first order
    assert chain.population((1, 1)) < 1e-16

    det = reduce_detector(rho)
    assert det.dims == (2,)
    assert det.population((1,)) == pytest.approx(0.01 / 1.01, rel=1e-12)


def test_localized_limit_excites_exactly_one_mode():
    spec = hand_spec(0.0, 0.0)
    rho = density_matrix(evolve_superposed(spec, 0.2))
    chain = reduce_chain(rho)
    assert chain.population((1, 0)) == pytest.approx(0.01 / 1.01, rel=1e-12)
    assert chain.population((0, 1)) == 0.0

    # the detector marginal agrees with the single-trajectory evolution
    det = reduce_detector(rho)
    c1 = spec.branches[0].coupling
    space = FockSpace(modes=((c1.alpha, 1),))
    lone = evolve_perturbative(build_ndpa(c1, space), space.vacuum(),
                               0.2, spec.hbar).normalized()
    assert det.population((1,)) == pytest.approx(
        lone.excitation_probability(), rel=1e-12)


def test_population_ratio_follows_tangent_squared():
    for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        rho = density_matrix(evolve_superposed(hand_spec(theta, 0.0), 0.2))
        chain = reduce_chain(rho)
        ratio = chain.population((0, 1)) / chain.population((1, 0))
        assert ratio == pytest.approx(math.tan(theta) ** 2, rel=1e-12)


def test_keep_subset_of_modes():
    rho = density_matrix(evolve_superposed(hand_spec(math.pi / 4.0, 0.0), 0.2))
    only7 = rho.partial_trace(["mode_7"])
    assert only7.dims == (2,)
    assert only7.population((1,)) == pytest.approx(0.005 / 1.01, rel=1e-12)
    with pytest.raises(ValidationError):
        rho.partial_trace(["mode_99"])
    with pytest.raises(ValidationError):
        reduce_detector(reduce_chain(rho))


def test_two_level_detector_tags_branches():
    spec = hand_spec(0.0, 0.0, two_level=True)
    rho0 = density_matrix(evolve_superposed(spec, 0.2))
    det0 = reduce_detector(rho0)
    assert det0.dims == (4,)
    assert det0.population((2,)) == pytest.approx(0.01 / 1.01, rel=1e-12)  # |eg>
    assert det0.population((1,)) == 0.0                                    # |ge>

    both = density_matrix(evolve_superposed(
        hand_spec(math.pi / 4.0, 0.0, two_level=True), 0.2))
    det = reduce_detector(both)
    assert det.population((2,)) == pytest.approx(0.005 / 1.01, rel=1e-12)
    assert det.population((1,)) == pytest.approx(0.005 / 1.01, rel=1e-12)
    assert det.population((3,)) < 1e-16  # never both levels


def test_density_matrix_is_pure_and_normalized():
    rho = density_matrix(evolve_superposed(hand_spec(0.7, 1.1), 0.2))
    assert abs(rho.trace - 1.0) < 1e-12
    sq = rho.matrix @ rho.matrix
    assert np.max(np.abs(sq - rho.matrix)) < 1e-10
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(evals[:-1])) < 1e-12


def test_unnormalized_branch_fails_validation():
    # branch states are used as they are; validate() is the guard
    state = evolve_superposed(hand_spec(math.pi / 4.0, 0.0), 0.2)
    psi1, psi2 = state.branch_states
    scaled = replace(state, branch_states=(
        QuantumState(psi1.space, 1.001 * psi1.amplitudes), psi2))
    for build in (density_matrix, mixed_density_matrix):
        with pytest.raises(ValidationError, match="trace"):
            build(scaled)


@pytest.mark.parametrize("method", ["perturbative", "exact"])
@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_bad_time_rejected(method, t):
    with pytest.raises(ValidationError, match="t must be finite"):
        evolve_superposed(hand_spec(math.pi / 4.0, 0.0), t, method=method)


# -- pairing sectors (exact method) -------------------------------------------

def test_exact_method_stays_in_pair_sector():
    spec = hand_spec(math.pi / 4.0, 0.0)
    state = evolve_superposed(spec, 0.5, method="exact")
    space = state.space
    x = 0.25  # |g| t / 2 hbar
    rho = density_matrix(state)
    assert rho.population((0, 1, 1, 0)) == pytest.approx(
        0.5 * math.sin(x) ** 2, rel=1e-12)
    assert rho.population((1, 1, 0, 1)) == pytest.approx(
        0.5 * math.sin(x) ** 2, rel=1e-12)

    allowed = {0, space.basis_index(1, (1, 0)),
               space.dim + space.basis_index(1, (0, 1)), space.dim}
    vec = state.global_vector()
    outside = sum(abs(vec[k]) ** 2 for k in range(2 * space.dim)
                  if k not in allowed)
    assert outside < 1e-24


def test_perturbative_error_is_fourth_order_in_population(monkeypatch):
    monkeypatch.setattr(quantum, "DEFAULT_PERTURBATIVE_GUARD", 0.5)
    spec = hand_spec(math.pi / 4.0, 0.0)
    gts, errs = (0.4, 0.2, 0.1), []
    for gt in gts:
        pert = density_matrix(evolve_superposed(spec, gt))
        exact = density_matrix(evolve_superposed(spec, gt, method="exact"))
        errs.append(abs(pert.population((0, 1, 1, 0))
                        - exact.population((0, 1, 1, 0))))
    assert fit_order(gts, errs) > 3.7


# -- reductions kill the branch coherence --------------------------------------

def test_reduced_states_are_phase_blind():
    base_chain = base_det = None
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
        rho = density_matrix(evolve_superposed(hand_spec(math.pi / 4.0, phi), 0.2))
        chain = reduce_chain(rho).matrix
        det = reduce_detector(rho).matrix
        if base_chain is None:
            base_chain, base_det = chain, det
        else:
            assert np.max(np.abs(chain - base_chain)) < 1e-12
            assert np.max(np.abs(det - base_det)) < 1e-12


def test_coherent_matches_classical_mixture():
    spec = hand_spec(math.pi / 4.0, 0.0)
    coherent = density_matrix(evolve_superposed(spec, 0.2))
    mixed = mixed_density_matrix(evolve_superposed(spec, 0.2))
    assert abs(mixed.trace - 1.0) < 1e-12

    # off-diagonal branch blocks vanish by construction
    dim = coherent.matrix.shape[0] // 2
    assert np.max(np.abs(mixed.matrix[:dim, dim:])) == 0.0

    report = discriminate(reduce_chain(coherent), reduce_chain(mixed),
                          ["coherent", "mixed"])
    assert report["pairs"][0]["trace_distance"] < 1e-10
    assert report["pairs"][0]["verdict"] == "indistinguishable"

    det_report = discriminate(reduce_detector(coherent), reduce_detector(mixed),
                              ["coherent", "mixed"])
    assert det_report["pairs"][0]["trace_distance"] < 1e-10


@pytest.mark.parametrize("method", ["perturbative", "exact"])
def test_coherent_matches_mixture_with_unequal_couplings(method):
    # each branch is normalized as its own run, so unequal couplings do not
    # reweight the branches of the coherent state against the mixture
    state = evolve_superposed(hand_spec(math.pi / 4.0, 0.0, g1=0.5, g2=1.0), 0.2,
                              method=method)
    coherent, mixed = density_matrix(state), mixed_density_matrix(state)
    for reduce in (reduce_chain, reduce_detector):
        assert trace_distance(reduce(coherent), reduce(mixed)) <= 1e-10


def test_discriminate_separates_localized_from_superposed():
    t = 0.2
    sup = reduce_chain(density_matrix(
        evolve_superposed(hand_spec(math.pi / 4.0, 0.0), t)))
    loc = reduce_chain(density_matrix(
        evolve_superposed(hand_spec(0.0, 0.0), t)))
    report = discriminate(sup, loc, ["superposed", "localized"])
    (pair,) = report["pairs"]
    assert pair["verdict"] == "distinguishable"
    assert pair["trace_distance"] > 1e-3
    assert report["labels"] == ["superposed", "localized"]
    assert "(1, 0)" in report["populations"]["localized"]

    same = discriminate(sup, sup, ["a", "b"])
    assert same["pairs"][0]["trace_distance"] == 0.0

    with pytest.raises(ValidationError):
        discriminate(sup, loc, ["only-one"])
    with pytest.raises(ValidationError):
        discriminate(sup, reduce_detector(density_matrix(
            evolve_superposed(hand_spec(0.0, 0.0), t))), ["sup", "det"])


def test_reductions_match_loop_trace_oracle():
    rho = density_matrix(evolve_superposed(hand_spec(0.9, 0.8, two_level=True),
                                           0.2))
    assert rho.dims == (2, 4, 2, 2)
    chain = reduce_chain(rho)
    np.testing.assert_allclose(
        chain.matrix, loop_partial_trace(rho.matrix, rho.dims, (2, 3)),
        atol=1e-14)
    det = reduce_detector(rho)
    np.testing.assert_allclose(
        det.matrix, loop_partial_trace(rho.matrix, rho.dims, (1,)),
        atol=1e-14)


def test_hbar_scales_first_order_amplitude():
    spec = hand_spec(math.pi / 4.0, 0.0, hbar=2.0)
    rho = density_matrix(evolve_superposed(spec, 0.2))
    x = 1.0 * 0.2 / (2.0 * 2.0)
    assert rho.population((0, 1, 1, 0)) == pytest.approx(
        0.5 * x * x / (1.0 + x * x), rel=1e-12)
