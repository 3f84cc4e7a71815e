"""Detector moving in a superposition of two trajectories.

The two trajectories are treated as perfectly distinguishable (an explicit
orthogonal two-state branch label), with weights cos(theta) and
e^{i phi} sin(theta).  Each branch resonantly excites the chain mode of its
coupling: with a single internal frequency both branches share the
detector's excited level; with two internal levels branch 1 excites the
first level together with mode alpha_1 and branch 2 the second level with
mode alpha_2.

Each branch is a localized run on the shared factor space, evolved by one
of the two single-trajectory paths of quantum:

  perturbative   evolve_perturbative, the first-order step under its
                 weak-coupling guard, normalized as its own run
  exact          evolve_exact, the unitary rotation of the branch's
                 resonant pair, the oracle for the first-order results

Tracing out the branch label kills every cross-branch term, which is why
the reduced chain and detector states cannot tell a coherent trajectory
superposition from the matching classical mixture; discriminate() returns
that comparison as the JSON block the CLI writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GuardError, ValidationError
from .modes import ModeCoupling, resonance_pair
from .params import SystemParams, _require_finite, _require_positive
from .quantum import (DensityMatrix, FockSpace, QuantumState, build_ndpa,
                      evolve_exact, evolve_perturbative, trace_distance)

_METHODS = ("perturbative", "exact")
# a trace distance above this makes two reduced states distinguishable
_TD_THRESHOLD = 1e-10


@dataclass(frozen=True)
class Branch:
    """One trajectory plus its coupling to the chain mode it excites."""

    x0: float
    v: float
    coupling: ModeCoupling

    def __post_init__(self):
        _require_finite(x0=self.x0, v=self.v)


@dataclass(frozen=True)
class BranchSpec:
    """Two branches with superposition weights cos(theta), e^{i phi} sin(theta),
    exciting one shared detector level, or level i each when two_level;
    branch_spec_from_resonance checks a two-level pair's selectivity."""

    branches: tuple[Branch, Branch]
    theta: float
    phi: float
    hbar: float
    two_level: bool = False

    def __post_init__(self):
        if len(self.branches) != 2:
            raise ValidationError("exactly two branches required")
        _require_finite(theta=self.theta, phi=self.phi)
        _require_positive(hbar=self.hbar)
        if not 0.0 <= self.theta < math.pi / 2.0:
            raise ValidationError(f"theta must be in [0, pi/2), got {self.theta}")
        if not 0.0 <= self.phi < math.pi:
            raise ValidationError(f"phi must be in [0, pi), got {self.phi}")
        a1, a2 = (b.coupling.alpha for b in self.branches)
        if a1 == a2:
            raise ValidationError(
                f"branches must excite distinct modes, both resonate with {a1}")

    @property
    def weights(self) -> tuple[complex, complex]:
        return (complex(math.cos(self.theta)),
                np.exp(1j * self.phi) * math.sin(self.theta))

    @property
    def detector_model(self) -> str:
        return "two-level" if self.two_level else "single"


def branch_spec_from_resonance(params: SystemParams, v1: float, v2: float,
                               theta: float, phi: float,
                               x0_1: float = 0.0, x0_2: float = 0.0) -> BranchSpec:
    """The spec of two trajectories, in either order, on the couplings
    resonance_pair resolves for them from params.detector.

    With two internal frequencies the spec is two-level and a pair that is
    not selective raises GuardError; with one, both branches share it and
    the cross combinations are the resonances themselves, so none is flagged.
    """
    pair = resonance_pair(v1, v2, params)
    c1, c2 = pair.couplings
    spec = BranchSpec(branches=(Branch(x0_1, v1, c1), Branch(x0_2, v2, c2)),
                      theta=theta, phi=phi, hbar=params.hbar,
                      two_level=params.detector.two_level)
    if spec.two_level and pair.selectivity_violated:
        raise GuardError(
            "resonance selectivity violated: a cross detuning sits inside the "
            "guard band, so branch/mode pairing is not clean")
    return spec


@dataclass
class BranchedState:
    """Weights plus per-branch states over the shared factor space, each
    branch state normalized as its own run."""

    spec: BranchSpec
    branch_states: tuple[QuantumState, QuantumState]

    @property
    def space(self) -> FockSpace:
        return self.branch_states[0].space

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) + self.space.dims

    @property
    def names(self) -> tuple[str, ...]:
        return ("branch", "detector", *(f"mode_{a}" for a in self.space.mode_labels))

    def global_vector(self) -> np.ndarray:
        dim = self.space.dim
        vec = np.zeros(2 * dim, dtype=complex)
        for i, (w, psi) in enumerate(zip(self.spec.weights, self.branch_states)):
            vec[i * dim:(i + 1) * dim] = w * psi.amplitudes
        return vec


def evolve_superposed(spec: BranchSpec, t: float,
                      method: str = "perturbative") -> BranchedState:
    """Evolve both branches from the joint vacuum for time t.

    Each branch is a localized run: build_ndpa of its coupling, on detector
    qubit i of a two-level spec, on qubit 0 otherwise, evolved by
    evolve_perturbative (under its weak-coupling guard, then normalized) or
    evolve_exact.  Selectivity is branch_spec_from_resonance's check.
    """
    if method not in _METHODS:
        raise ValidationError(f"method must be one of {_METHODS}")
    space = FockSpace(modes=tuple((b.coupling.alpha, 1) for b in spec.branches),
                      detector_qubits=2 if spec.two_level else 1)
    vac = space.vacuum()
    evolve = evolve_perturbative if method == "perturbative" else evolve_exact

    states = []
    for i, branch in enumerate(spec.branches):
        h = build_ndpa(branch.coupling, space, i if spec.two_level else 0)
        try:
            psi = evolve(h, vac, t, spec.hbar)
        except GuardError as err:
            raise GuardError(f"branch {i + 1}: {err} (method='exact')") from err
        states.append(psi.normalized() if method == "perturbative" else psi)
    return BranchedState(spec=spec, branch_states=(states[0], states[1]))


def density_matrix(state: BranchedState) -> DensityMatrix:
    """|psi><psi| over branch x detector x mode_a1 x mode_a2 from the
    unit-norm branch states; validate() refuses a trace off 1 by 1e-12."""
    vec = state.global_vector()
    rho = DensityMatrix(np.outer(vec, vec.conj()), state.dims, state.names)
    rho.validate()
    return rho


def mixed_density_matrix(state: BranchedState) -> DensityMatrix:
    """Classical cos^2/sin^2 mixture of the two localized evolutions.

    The unit-norm branch states are mixed with the squared superposition
    weights on the same global factorization (branch label diagonal);
    validate() refuses a trace off 1 by 1e-12.
    """
    dim = state.space.dim
    rho = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for i, (w, psi) in enumerate(zip(state.spec.weights, state.branch_states)):
        amp = psi.amplitudes
        block = np.outer(amp, amp.conj()) * (abs(w) ** 2)
        rho[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = block
    out = DensityMatrix(rho, state.dims, state.names)
    out.validate()
    return out


def reduce_chain(rho: DensityMatrix) -> DensityMatrix:
    """Trace out branch label and detector, keeping the phonon factors."""
    names = [n for n in rho.names if n.startswith("mode_")]
    if not names:
        raise ValidationError("no phonon factors to keep")
    return rho.partial_trace(names)


def reduce_detector(rho: DensityMatrix) -> DensityMatrix:
    """Trace out branch label and phonon modes, keeping the detector levels."""
    return rho.partial_trace(["detector"])


def discriminate(rho_a: DensityMatrix, rho_b: DensityMatrix,
                 labels: Sequence[str]) -> dict:
    """Trace distance between two reduced states on a common factorization,
    with a distinguishable/indistinguishable verdict and both states' nonzero
    populations: the JSON block the CLI writes."""
    labels = list(labels)
    if len(labels) != 2:
        raise ValidationError(f"need one label per density matrix, got {labels}")
    if rho_b.dims != rho_a.dims or rho_b.names != rho_a.names:
        raise ValidationError(f"factorization mismatch: {rho_b.names}{rho_b.dims} "
                              f"vs {rho_a.names}{rho_a.dims}")
    td = trace_distance(rho_a, rho_b)
    populations = {
        label: {str(tuple(int(v) for v in np.unravel_index(k, r.dims))):
                float(np.real(r.matrix[k, k]))
                for k in range(r.matrix.shape[0])
                if abs(r.matrix[k, k]) > 1e-300}
        for label, r in zip(labels, (rho_a, rho_b))
    }
    verdict = "distinguishable" if td > _TD_THRESHOLD else "indistinguishable"
    return {"threshold": _TD_THRESHOLD, "labels": labels,
            "pairs": [{"a": labels[0], "b": labels[1], "trace_distance": td,
                       "verdict": verdict}],
            "populations": populations}
