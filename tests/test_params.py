import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginzburg import (SystemParams, ValidationError, build_params, load_params,
                      regime_check)


def check(report, name):
    """The check of the regime report with this name."""
    return next(c for c in report.checks if c.name == name)


def explicit_config(**overrides):
    cfg = {"units": {"hbar": 1.0},
           "chain": {"N": 1001, "m_c": 1.0, "k_c": 1.0, "a_c": 1.0},
           "detector": {"M_d": 4.0, "m_tilde_d": 1.0, "k_d": 100.0,
                        "a_d": 1.0, "omega_d": 10.0, "w": 5.0},
           "coupling": {"g": 1.0}}
    for section, vals in overrides.items():
        cfg[section] = {**cfg[section], **vals}
    return cfg


def test_explicit_units_derived_constants():
    p = build_params(explicit_config())
    assert p.chain.c_s == 1.0
    assert p.chain.L == 1000.0
    assert p.chain.rho_c == 1.0
    assert p.chain.upsilon_c == 1.0


def test_paper_preset_fig2_configuration(paper_params):
    p = paper_params
    assert p.chain.c_s == 1.0
    assert p.chain.L == pytest.approx(1.0, rel=1e-15)
    assert p.chain.rho_c == pytest.approx(1.0, rel=1e-15)
    assert p.hbar == 1.0
    assert p.chain.a_c == pytest.approx(1.0 / 2000.0, rel=1e-15)
    assert p.detector.w == 0.01
    assert p.detector.omega_d1 == pytest.approx(10.0 * math.pi)
    assert p.detector.k_d == pytest.approx(p.detector.m_tilde_d
                                           * p.detector.omega_d1 ** 2)
    assert p.g == 1.0


def test_even_N_rejected():
    with pytest.raises(ValidationError, match="odd"):
        build_params(explicit_config(chain={"N": 4}))


@pytest.mark.parametrize("section,key", [
    ("chain", "m_c"), ("chain", "k_c"), ("chain", "a_c"),
    ("detector", "w"), ("detector", "k_d"),
])
def test_nonpositive_constants_rejected(section, key):
    with pytest.raises(ValidationError):
        build_params(explicit_config(**{section: {key: -1.0}}))


def test_missing_keys_get_distinct_diagnostics():
    cfg = explicit_config()
    del cfg["chain"]["k_c"]
    with pytest.raises(ValidationError, match="k_c"):
        build_params(cfg)
    cfg = explicit_config()
    del cfg["units"]["hbar"]
    with pytest.raises(ValidationError, match="hbar"):
        build_params(cfg)
    cfg = explicit_config()
    del cfg["coupling"]["g"]
    with pytest.raises(ValidationError, match="coupling"):
        build_params(cfg)


def test_unknown_preset_rejected():
    cfg = explicit_config()
    cfg["units"] = {"preset": "si"}
    with pytest.raises(ValidationError, match="preset"):
        build_params(cfg)


@pytest.mark.parametrize("section,value", [
    ("units", "paper"), ("chain", [2001]), ("detector", 0.01), ("coupling", "g=1"),
])
def test_non_mapping_section_rejected(section, value):
    cfg = explicit_config()
    cfg[section] = value
    with pytest.raises(ValidationError, match="mapping"):
        build_params(cfg)


def test_g_from_raw_dipole_inputs_matches_shorthand():
    cfg = explicit_config()
    p_d, p_c, eps0 = 2.0, 3.0, 0.25
    cfg["coupling"] = {"p_d": p_d, "p_c": p_c, "epsilon0": eps0}
    p = build_params(cfg)
    w, a_d, a_c = 5.0, 1.0, 1.0
    expected = p_d * p_c * w / (4.0 * math.pi * eps0 * a_d * a_c)
    assert p.g == pytest.approx(expected, rel=1e-15)
    # supplying both cross-checks them
    cfg["coupling"]["g"] = expected
    build_params(cfg)
    cfg["coupling"]["g"] = expected * 1.5
    with pytest.raises(ValidationError, match="inconsistent"):
        build_params(cfg)


PRESET = {"units": {"preset": "paper"}, "chain": {"N": 2001},
          "detector": {"w": 0.01}}


@pytest.mark.parametrize("config,key", [
    (explicit_config(chain={"k_C": 1.0}), "chain.k_C"),
    (explicit_config(detector={"omgea_d": 10.0}), "detector.omgea_d"),
    (explicit_config(coupling={"gg": 2.0}), "coupling.gg"),
    (explicit_config(units={"hbr": 1.0}), "units.hbr"),
    ({**explicit_config(), "coupling_": {"g": 2.0}}, "coupling_"),
    ({**PRESET, "chain": {"N": 2001, "k_C": 1.0}}, "chain.k_C"),
    ({**PRESET, "detector": {"w": 0.01, "omgea_d": 10.0}}, "detector.omgea_d"),
    ({**PRESET, "coupling": {"gg": 2.0}}, "coupling.gg"),
    ({**PRESET, "units": {"preset": "paper", "hbr": 2.0}}, "units.hbr"),
    ({**PRESET, "coupling_": {"g": 2.0}}, "coupling_"),
    # hbar belongs to units, not to the coupling section
    (explicit_config(coupling={"hbar": 2.0}), "coupling.hbar"),
])
def test_unknown_keys_rejected_by_name(config, key):
    with pytest.raises(ValidationError, match=f"unknown config key {key} "):
        build_params(config)


def test_raw_dipole_inputs_under_paper_preset():
    p_d, p_c, eps0 = 1.0, 2.0, 0.5
    p = build_params({**PRESET, "coupling": {"p_d": p_d, "p_c": p_c,
                                             "epsilon0": eps0}})
    # a_d = 1 and a_c = 1/2000 under the preset
    expected = p_d * p_c * 0.01 / (4.0 * math.pi * eps0 * 1.0 / 2000.0)
    assert p.g == pytest.approx(expected, rel=1e-15)
    assert (p.coupling.p_d, p.coupling.p_c, p.coupling.epsilon0) == (p_d, p_c, eps0)
    # the cross-check still applies to a g given with them
    with pytest.raises(ValidationError, match="inconsistent"):
        build_params({**PRESET, "coupling": {"p_d": p_d, "p_c": p_c,
                                             "epsilon0": eps0, "g": 1.0}})


@pytest.mark.parametrize("coupling", [
    {"g": 1.0, "p_d": 2.0},
    {"p_c": 2.0, "epsilon0": 0.5},
    {"g": 1.0, "p_d": 2.0, "p_c": 3.0},
])
@pytest.mark.parametrize("base", [explicit_config(), PRESET],
                         ids=["explicit", "preset"])
def test_partial_raw_dipole_set_rejected(base, coupling):
    with pytest.raises(ValidationError, match="all of coupling.p_d"):
        build_params({**base, "coupling": coupling})


def test_dipole_sign_makes_g_finite_and_signed():
    cfg = explicit_config()
    cfg["coupling"] = {"p_d": -2.0, "p_c": 3.0, "epsilon0": 0.25}
    g = build_params(cfg).g
    assert math.isfinite(g) and g < 0


@pytest.mark.parametrize("config", [
    explicit_config(),
    {"units": {"preset": "paper"}, "chain": {"N": 2001}, "detector": {"w": 0.01}},
], ids=["explicit", "preset"])
def test_build_params_leaves_config_unchanged(config):
    # the CLI passes its module-level default config without copying it
    before = copy.deepcopy(config)
    build_params(config)
    assert config == before


def test_round_trip_identical(tmp_path):
    p = build_params(explicit_config())
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"units": {"hbar": p.hbar},
                                "chain": {"N": p.chain.N, "m_c": p.chain.m_c,
                                          "k_c": p.chain.k_c, "a_c": p.chain.a_c},
                                "detector": {"M_d": p.detector.M_d,
                                             "m_tilde_d": p.detector.m_tilde_d,
                                             "k_d": p.detector.k_d,
                                             "a_d": p.detector.a_d,
                                             "omega_d": list(p.detector.omega_d),
                                             "w": p.detector.w},
                                "coupling": {"g": p.g}}))
    q = load_params(path)
    assert q.to_dict() == p.to_dict()


@settings(max_examples=40, deadline=None)
@given(N=st.integers(min_value=3, max_value=2001).filter(lambda n: n % 2 == 1),
       m_c=st.floats(0.01, 100.0), k_c=st.floats(0.01, 100.0),
       a_c=st.floats(0.01, 10.0))
def test_sound_speed_identity(N, m_c, k_c, a_c):
    cfg = explicit_config(chain={"N": N, "m_c": m_c, "k_c": k_c, "a_c": a_c})
    p = build_params(cfg)
    assert p.chain.c_s * math.sqrt(p.chain.rho_c / p.chain.upsilon_c) == \
        pytest.approx(1.0, rel=1e-12)


# -- regime report -----------------------------------------------------------

def fig2_regime(params, g=None):
    if g is not None:
        cfg = {"units": {"preset": "paper"}, "chain": {"N": 2001},
               "detector": {"w": 0.01}, "coupling": {"g": g}}
        params = build_params(cfg)
    return regime_check(params, t_end=0.25, trajectories=[(0.0, 0.5)])


def test_fig2_window_all_flags_pass(paper_params):
    # weak coupling depends on g, which the classical figure leaves free;
    # any g small enough for the quantum window makes every flag pass
    report = fig2_regime(paper_params, g=1e-7)
    assert report.all_pass, report.to_dict()


def test_wide_detector_fails_length_flag(paper_params):
    p = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                      "detector": {"w": 0.5}})
    report = regime_check(p, t_end=0.25, trajectories=[(0.0, 0.5)])
    assert not check(report, "L_over_w").passed
    assert not report.all_pass


def test_edge_excursion_fails_edge_flag(paper_params):
    report = regime_check(paper_params, t_end=0.25,
                          trajectories=[(0.0, 1.8)])   # reaches 0.9*(L/2)
    assert not check(report, "edge_distance").passed


def test_regime_report_is_pure(paper_params):
    before = paper_params.to_dict()
    fig2_regime(paper_params)
    assert paper_params.to_dict() == before


def test_regime_never_raises_on_failure(paper_params):
    report = fig2_regime(paper_params)   # g = 1: weak coupling fails loudly
    assert not check(report, "weak_coupling").passed
    assert isinstance(report.to_dict()["checks"], list)


@settings(max_examples=40, deadline=None)
@given(w=st.sampled_from([0.01, 0.05, 0.5]), g=st.sampled_from([1e-9, 1.0]),
       t_end=st.floats(0.0, 2.0), x0=st.floats(-0.49, 0.49), v=st.floats(-3.0, 3.0))
def test_every_check_passes_by_its_ratio_threshold_and_direction(w, g, t_end, x0, v):
    # w = 0.5 leaves no coupled mode: a None ratio, which passes
    p = build_params({"units": {"preset": "paper"}, "chain": {"N": 201},
                      "detector": {"w": w}, "coupling": {"g": g}})
    for c in regime_check(p, t_end, [(x0, v)]).checks:
        assert c.direction in ("ge", "le"), c
        if c.ratio is None:
            expected = True
        elif c.direction == "ge":
            expected = c.ratio >= c.threshold
        else:
            expected = c.ratio <= c.threshold
        assert type(c.passed) is bool and c.passed == expected, c
