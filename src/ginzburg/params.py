"""Physical parameters, unit presets, and regime checks.

The model: N dipoles (N odd) of mass m_c on springs k_c with spacing a_c,
free ends, total length L = (N-1) a_c; a two-charge detector of total mass
M_d and reduced mass m_tilde_d held a perpendicular distance w above the
chain, with internal spring k_d, equilibrium separation a_d and internal
frequency omega_d (one or two internal transitions).  The dipole-dipole
coupling strength is the shorthand

    g = p_d * p_c * w / (4 pi eps0 * a_d * a_c)

with units energy * length^2.  All derived constants (c_s, rho_c, Upsilon_c)
come from the chain parameters; hbar is carried explicitly so the quantum
modules never assume hbar = 1.

"paper units" preset: c_s = L = rho_c = hbar = 1 with N and w free, the
configuration every figure-style run uses.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

from .errors import ValidationError

# factor such that "x much greater than y" means x/y >= MUCH_FACTOR
MUCH_FACTOR = 10.0
# weak coupling means max |g_alpha| t / hbar <= WEAK_COUPLING_MAX
WEAK_COUPLING_MAX = 0.1


def _check_scalars(kwargs: dict, positive: bool):
    """The one scalar rule: each value a finite Python or numpy real, and
    > 0 if positive.  The type test comes first, as math.isfinite takes a
    numpy complex (with a warning) and, on numpy 2.0, a one-element array."""
    for name, value in kwargs.items():
        if not ((isinstance(value, float) or isinstance(value, numbers.Real))
                and math.isfinite(value)):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if positive and value <= 0:
            raise ValidationError(f"{name} must be strictly positive, got {value}")


def _require_finite(**kwargs):
    _check_scalars(kwargs, False)


def _require_positive(**kwargs):
    _check_scalars(kwargs, True)


def _check_chain_size(N):
    if not (isinstance(N, int) and N >= 3):
        raise ValidationError(f"N must be an integer >= 3, got {N!r}")


def _frequencies(omega_d) -> tuple[float, ...]:
    """One internal frequency or a list of two, as a tuple of floats > 0."""
    freqs = tuple(omega_d) if isinstance(omega_d, (list, tuple)) else (omega_d,)
    if len(freqs) not in (1, 2):
        raise ValidationError(
            f"omega_d must hold one or two frequencies, got {len(freqs)}")
    for om in freqs:
        _require_positive(omega_d=om)
    return tuple(float(om) for om in freqs)


def _check_time(t: float):
    _require_finite(t=t)
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")


@dataclass(frozen=True)
class ChainParams:
    """Dipole chain: N masses m_c, springs k_c, spacing a_c, free ends."""

    N: int
    m_c: float
    k_c: float
    a_c: float

    def __post_init__(self):
        _check_chain_size(self.N)
        if self.N % 2 == 0:
            raise ValidationError(f"N must be odd, got {self.N}")
        _require_positive(m_c=self.m_c, k_c=self.k_c, a_c=self.a_c)

    @property
    def L(self) -> float:
        return (self.N - 1) * self.a_c

    @property
    def rho_c(self) -> float:
        return self.m_c / self.a_c

    @property
    def upsilon_c(self) -> float:
        return self.k_c * self.a_c

    @property
    def c_s(self) -> float:
        return self.a_c * math.sqrt(self.k_c / self.m_c)

    @property
    def omega_max(self) -> float:
        """Top of the sine dispersion, 2 sqrt(k_c/m_c)."""
        return 2.0 * math.sqrt(self.k_c / self.m_c)


@dataclass(frozen=True)
class DetectorParams:
    """Detector: total/reduced masses, internal spring, dipole arm, height w.

    omega_d holds one internal frequency (single-level detector) or two
    (two-level detector); a scalar is taken as the one frequency.  It is the
    only source of the detector's frequencies: the command line reads them
    from the params file.
    """

    M_d: float
    m_tilde_d: float
    k_d: float
    a_d: float
    omega_d: tuple[float, ...]
    w: float

    def __post_init__(self):
        _require_positive(M_d=self.M_d, m_tilde_d=self.m_tilde_d, k_d=self.k_d,
                          a_d=self.a_d, w=self.w)
        if self.m_tilde_d >= self.M_d:
            raise ValidationError(
                f"reduced mass m_tilde_d={self.m_tilde_d} must be < total mass M_d={self.M_d}")
        object.__setattr__(self, "omega_d", _frequencies(self.omega_d))

    @property
    def omega_d1(self) -> float:
        return self.omega_d[0]

    @property
    def two_level(self) -> bool:
        return len(self.omega_d) == 2


@dataclass(frozen=True)
class CouplingParams:
    """Dipole-dipole coupling g (energy*length^2) and the active hbar."""

    g: float
    hbar: float
    p_d: float | None = None
    p_c: float | None = None
    epsilon0: float | None = None

    def __post_init__(self):
        _require_finite(g=self.g)
        _require_positive(hbar=self.hbar)


@dataclass(frozen=True)
class SystemParams:
    """Validated bundle of chain + detector + coupling parameters."""

    chain: ChainParams
    detector: DetectorParams
    coupling: CouplingParams
    units: str = "custom"

    @property
    def g(self) -> float:
        return self.coupling.g

    @property
    def hbar(self) -> float:
        return self.coupling.hbar

    def to_dict(self) -> dict:
        d = {"units": self.units,
             "chain": asdict(self.chain),
             "detector": asdict(self.detector),
             "coupling": asdict(self.coupling)}
        d["detector"]["omega_d"] = list(self.detector.omega_d)
        d["derived"] = {"L": self.chain.L, "rho_c": self.chain.rho_c,
                        "upsilon_c": self.chain.upsilon_c, "c_s": self.chain.c_s}
        return d


# -- construction -----------------------------------------------------------

def _check_keys(section: str, given: dict, known, needed) -> dict:
    """given, after refusing by name each key outside known and each needed
    key it lacks; section is the key prefix, like "chain."."""
    unknown = [k for k in given if k not in known]
    if unknown:
        raise ValidationError(f"unknown config key {section}{unknown[0]} "
                              f"(expected one of: {', '.join(known)})")
    missing = [k for k in needed if k not in given]
    if missing:
        raise ValidationError(f"missing config key {section}{missing[0]}")
    return given


@functools.cache
def _schema(cls, *skip):
    """A section's keys: the fields of cls but skip, and those without a
    default; computed once per class."""
    taken = [f for f in fields(cls) if f.name not in skip]
    return (tuple(f.name for f in taken),
            tuple(f.name for f in taken if f.default is MISSING))


def build_params(config: dict) -> SystemParams:
    """Build validated SystemParams from a configuration mapping.

    Sections "chain", "detector" and "coupling" take the fields of
    ChainParams, DetectorParams and CouplingParams (hbar aside), "units"
    takes preset and hbar; any other key is refused.  Two unit modes:

      units: {"preset": "paper"}   c_s = L = rho_c = hbar = 1: requires
                                   chain.N and detector.w only; a_c = 1/(N-1),
                                   m_c = a_c, k_c = 1/a_c and the defaults
                                   m_tilde_d=1, M_d=4, a_d=1, omega_d=10*pi,
                                   k_d=m_tilde_d*omega_d1^2, g=1, each
                                   overridable.
      units: {"hbar": <value>}     every chain/detector field required.

    The coupling takes g, or all of the raw inputs p_d, p_c, epsilon0 from
    which g is derived (cross-checked when g is given too); the preset's
    g = 1 applies only when neither is given.
    """
    if not isinstance(config, dict):
        raise ValidationError("config must be a mapping")
    names = _schema(SystemParams)[0]  # chain, detector, coupling, units
    for name, value in _check_keys("", config, names, ()).items():
        if value is not None and not isinstance(value, dict):
            raise ValidationError(
                f"config section {name!r} must be a mapping, got {type(value).__name__}")
    chain_cfg, det_cfg, coup_cfg, units_cfg = (dict(config.get(n) or {}) for n in names)
    preset = units_cfg.get("preset")
    if preset not in (None, "paper"):
        raise ValidationError(f"unknown units preset {preset!r} (only 'paper' exists)")

    if preset == "paper":
        units_cfg.setdefault("hbar", 1.0)
        if "N" in chain_cfg:
            _check_chain_size(chain_cfg["N"])
            chain_cfg.setdefault("a_c", 1.0 / (chain_cfg["N"] - 1))  # L = 1
            chain_cfg.setdefault("m_c", chain_cfg["a_c"])       # rho_c = 1
            chain_cfg.setdefault("k_c", 1.0 / chain_cfg["a_c"])  # c_s = 1
        _require_positive(m_tilde_d=det_cfg.setdefault("m_tilde_d", 1.0))
        det_cfg.setdefault("M_d", 4.0 * det_cfg["m_tilde_d"])
        det_cfg.setdefault("a_d", 1.0)
        det_cfg.setdefault("omega_d", 10.0 * math.pi)
        det_cfg.setdefault("k_d", det_cfg["m_tilde_d"]
                           * _frequencies(det_cfg["omega_d"])[0] ** 2)
    hbar = _check_keys("units.", units_cfg, ("preset", "hbar"), ("hbar",))["hbar"]
    chain = ChainParams(**_check_keys("chain.", chain_cfg, *_schema(ChainParams)))
    detector = DetectorParams(**_check_keys("detector.", det_cfg,
                                            *_schema(DetectorParams)))

    raw = [coup_cfg.get(k) for k in ("p_d", "p_c", "epsilon0")]
    if raw.count(None) == 0:
        p_d, p_c, epsilon0 = raw
        _require_finite(p_d=p_d, p_c=p_c)
        _require_positive(epsilon0=epsilon0)
        g = p_d * p_c * detector.w / (4.0 * math.pi * epsilon0 * detector.a_d
                                      * chain.a_c)
        given = coup_cfg.setdefault("g", g)
        _require_finite(g=given)
        if abs(given - g) > 1e-12 * max(abs(g), 1.0):
            raise ValidationError(
                f"coupling.g={given} inconsistent with dipole inputs (derived {g})")
        coup_cfg["g"] = g
    elif raw.count(None) < 3:
        raise ValidationError("raw dipole inputs need all of coupling.p_d, "
                              "coupling.p_c and coupling.epsilon0")
    elif preset == "paper":
        coup_cfg.setdefault("g", 1.0)
    coupling = CouplingParams(**_check_keys("coupling.", coup_cfg,
                                            *_schema(CouplingParams, "hbar")),
                              hbar=hbar)
    return SystemParams(chain=chain, detector=detector, coupling=coupling,
                        units="custom" if preset is None else preset)


def load_params(path) -> SystemParams:
    """Read a JSON config file and build SystemParams from it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path}: invalid JSON ({exc})") from exc
    return build_params(config)


# -- regime checks ----------------------------------------------------------

@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ratio: float | None     # None when the check has nothing to measure
    threshold: float
    # "ge": pass when ratio >= threshold; "le": pass when ratio <= threshold
    direction: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class RegimeReport:
    """Measured ratios for every approximation the closed forms lean on.

    Reporting only: building a report never mutates params and never raises
    on a failed flag.
    """

    checks: tuple[RegimeCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"all_pass": self.all_pass,
                "checks": [asdict(c) for c in self.checks]}


def regime_check(params: SystemParams, t_end: float, trajectories) -> RegimeReport:
    """Evaluate the regime flags for a run from t = 0 to t_end and a set of
    trajectories, each an (x0, v) pair.  Flags ("much greater" means a ratio
    >= MUCH_FACTOR):

      w_over_ac        w >> a_c
      L_over_w         L >> w
      edge_distance    detector stays far from the chain edges: the minimum
                       distance (L/2 - |x_d|) over the run, measured in
                       units of w, must be >= MUCH_FACTOR
      mode_wavelength  lambda_alpha >= w for the modes that actually couple
                       (cutoff f >= 1/2); the shorter retained modes carry
                       negligible weight by construction.  With no such
                       mode the ratio is None (null in JSON) and it passes
      weak_coupling    max_alpha |g_alpha| * t_end / hbar <= WEAK_COUPLING_MAX
    """
    # local import: modes imports params for types
    from .modes import coupling_strengths, mode_spectrum

    if not trajectories:
        raise ValidationError("regime_check requires at least one trajectory")
    _check_time(t_end)

    chain, det = params.chain, params.detector
    L, w = chain.L, det.w
    max_excursion = 0.0
    for x0, v in trajectories:
        _require_finite(x0=x0, v=v)
        max_excursion = max(max_excursion, abs(x0), abs(x0 + v * t_end))
    spec = mode_spectrum(params)
    significant = spec.omega[spec.retained & (spec.f >= 0.5)]
    wavelength = (float((2.0 * math.pi * chain.c_s / significant).min()) / w
                  if significant.size else None)
    g_abs = abs(coupling_strengths(params, det.omega_d1)[spec.retained])
    gt_max = float(g_abs.max()) * t_end / params.hbar if g_abs.size else 0.0

    flags = (  # name, ratio, threshold, direction, note
        ("w_over_ac", w / chain.a_c, MUCH_FACTOR, "ge", ""),
        ("L_over_w", L / w, MUCH_FACTOR, "ge", ""),
        ("edge_distance", (L / 2.0 - max_excursion) / w, MUCH_FACTOR, "ge",
         f"max |x_d| = {max_excursion:.6g}"),
        ("mode_wavelength", wavelength, 1.0, "ge",
         "min lambda/w over modes with f >= 1/2" if significant.size
         else "no retained mode with f >= 1/2"),
        ("weak_coupling", gt_max, WEAK_COUPLING_MAX, "le",
         "max |g_alpha| t / hbar over retained modes"))
    # the one pass rule; a check with nothing to measure passes
    return RegimeReport(checks=tuple(
        RegimeCheck(name, r, limit, way,
                    r is None or (r >= limit if way == "ge" else r <= limit), note)
        for name, r, limit, way, note in flags))
