import json
import math
from importlib import resources

import numpy as np
import pytest

from qsagnac import C, OMEGA_EARTH, OMEGA_GR, InterferometerGeometry
from qsagnac.cli import design_from_dict
from qsagnac.sensedesign import (DesignSpec, InfeasibleDesignError, landscape,
                                 optimize_gfring, regime_label,
                                 rotation_resolution)

LN10 = math.log(10.0)


def table_spec_dicts():
    text = (resources.files("qsagnac") / "recipes" / "table3.json").read_text()
    return json.loads(text)["design"]["specs"]


def load_table_specs():
    return [design_from_dict(d) for d in table_spec_dicts()]


# full-precision sensitivity chain of the five benchmark designs, frozen
# from an independent arithmetic pass
FROZEN = {
    "this work": dict(s=38.77209514217869, d_phi=0.000179,
                      d_omega=4.616722396445187e-06),
    "CFOG": dict(s=8.134889261192512, d_phi=1.3395150775402364e-08,
                 d_omega=1.6466297629033412e-09),
    "LFOG": dict(s=74.03170391316931, d_phi=2.3820320818264933e-08,
                 d_omega=3.2175837592774353e-10),
    "GFOG": dict(s=811.319948480065, d_phi=1.686349570596838e-08,
                 d_omega=2.0785259548419366e-11),
    "GFRING": dict(s=953384.8996262398, d_phi=2.3148024870841105e-08,
                   d_omega=2.42798316607657e-14),
}

# rounded values as published for the same five designs
PRINTED_S = {"this work": 38.8, "CFOG": 8.1, "LFOG": 74.0, "GFOG": 811.0,
             "GFRING": 951320.0}
PRINTED_D_OMEGA = {"this work": 4.61e-6, "LFOG": 3.21e-10, "GFOG": 2.11e-11,
                   "GFRING": 2.43e-14}


def test_benchmark_chain_matches_frozen_values():
    for spec in load_table_specs():
        rep = rotation_resolution(spec)
        want = FROZEN[spec.name]
        assert rep.scale_factor == pytest.approx(want["s"], rel=1e-12)
        assert rep.delta_phi_projected == pytest.approx(want["d_phi"], rel=1e-12)
        assert rep.delta_omega == pytest.approx(want["d_omega"], rel=1e-12)


def test_benchmark_chain_matches_printed_values():
    for spec in load_table_specs():
        rep = rotation_resolution(spec)
        assert rep.scale_factor == pytest.approx(PRINTED_S[spec.name], rel=0.015)
        if spec.name in PRINTED_D_OMEGA:
            assert rep.delta_omega == pytest.approx(
                PRINTED_D_OMEGA[spec.name], rel=0.02)


def test_cfog_printed_rotation_resolution_is_inconsistent():
    """The published 1.95e-9 rad/s does not follow from the published inputs."""
    spec = next(s for s in load_table_specs() if s.name == "CFOG")
    rep = rotation_resolution(spec)
    assert abs(rep.delta_omega / 1.95e-9 - 1.0) > 0.10


def make_spec(**over):
    defaults = dict(
        name="probe", alpha_db_per_km=0.5, pair_rate_in=1e9,
        integration_time=5.56e6,
        geometry=InterferometerGeometry.square(2000.0, 360))
    defaults.update(over)
    return DesignSpec(**defaults)


def test_pair_rate_out():
    rate = rotation_resolution(make_spec(alpha_db_per_km=0.0)).pair_rate_out
    assert rate == 1e9
    # 10 dB of one-photon loss costs a pair 20 dB
    spec = make_spec(geometry=InterferometerGeometry.square(20000.0, 360),
                     alpha_db_per_km=0.5)
    assert rotation_resolution(spec).pair_rate_out \
        == pytest.approx(1e9 * 1e-2, rel=1e-12)
    gfog = next(s for s in load_table_specs() if s.name == "GFOG")
    assert rotation_resolution(gfog).pair_rate_out \
        == pytest.approx(1e10 * 10 ** -1.5, rel=1e-12)


def test_phase_resolution_shot_limit():
    spec = make_spec(alpha_db_per_km=0.0, pair_rate_in=0.5, integration_time=1.0)
    assert rotation_resolution(spec).delta_phi == pytest.approx(1.0, rel=1e-12)
    doubled = make_spec(alpha_db_per_km=0.0, pair_rate_in=0.5,
                        integration_time=2.0)
    assert rotation_resolution(doubled).delta_phi \
        == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_measured_phase_resolution_short_circuits():
    spec = make_spec(measured_delta_phi=1.79e-4, integration_time=None)
    rep = rotation_resolution(spec)
    assert rep.delta_phi == 1.79e-4
    assert rep.measured is True


def test_unit_scale_factor_maps_phase_to_rate():
    area = C * 1550e-9 / (8.0 * math.pi)
    geom = InterferometerGeometry.square(2000.0, 360, wavelength=1550e-9,
                                         effective_area=area)
    rep = rotation_resolution(make_spec(geometry=geom))
    assert rep.scale_factor == pytest.approx(1.0, rel=1e-12)
    assert rep.delta_omega == pytest.approx(rep.delta_phi, rel=1e-12)


def test_closed_form_identity_for_square_rings():
    """delta_omega = sqrt(2/(R T)) n_t lambda c 10^(alpha L/10) / (pi sin(lat) L^2)."""
    lat = math.radians(48.2)
    for length in (10000.0, 47500.0, 60000.0):
        for turns in (1, 8, 32):
            for alpha in (0.16, 0.5):
                geom = InterferometerGeometry.square(length, turns,
                                                     wavelength=1550e-9)
                spec = make_spec(geometry=geom, alpha_db_per_km=alpha,
                                 pair_rate_in=1e10, latitude=lat)
                closed = (math.sqrt(2.0 / (1e10 * 5.56e6)) * turns * 1550e-9
                          * C * 10 ** (alpha * length / 1000.0 / 10.0)
                          / (math.pi * math.sin(lat) * length ** 2))
                assert rotation_resolution(spec).delta_omega \
                    == pytest.approx(closed, rel=1e-12)


def test_resolution_scalings():
    base = rotation_resolution(make_spec()).delta_omega
    lossier = rotation_resolution(make_spec(alpha_db_per_km=1.0)).delta_omega
    assert lossier > base
    longer = rotation_resolution(make_spec(integration_time=4 * 5.56e6)).delta_omega
    assert longer == pytest.approx(base / 2.0, rel=1e-12)


def test_rotation_resolution_rejects_zero_projection():
    # sin(0) is exactly zero; an equatorial surface ring sees no rotation
    with pytest.raises(ValueError, match="projection factor 0 is not positive"):
        rotation_resolution(make_spec(latitude=0.0))
    with pytest.raises(ValueError, match="projection factor -1 is not positive"):
        rotation_resolution(make_spec(frame_angle=math.pi))
    # a negative factor is named as such, not as zero
    with pytest.raises(ValueError, match="projection factor -0.745 is not positive"):
        rotation_resolution(make_spec(latitude=math.radians(-48.2)))


def test_design_spec_validation():
    with pytest.raises(ValueError):
        make_spec(alpha_db_per_km=-0.1)
    with pytest.raises(ValueError):
        make_spec(pair_rate_in=0.0)
    with pytest.raises(ValueError):
        make_spec(photons_per_probe=0)
    with pytest.raises(ValueError, match="not both"):
        make_spec(frame_angle=0.0, latitude=0.1)
    # the spec is the one home of its frame angle
    tilted = InterferometerGeometry.square(2000.0, 360, frame_angle=0.5)
    with pytest.raises(ValueError, match="not its loop, carries the frame angle"):
        make_spec(geometry=tilted)
    with pytest.raises(ValueError):
        make_spec(measured_delta_phi=0.0, integration_time=None)
    with pytest.raises(ValueError, match="needs a positive integration time"):
        make_spec(integration_time=None)
    with pytest.raises(ValueError, match="needs a positive integration time"):
        make_spec(integration_time=0.0)
    with pytest.raises(ValueError, match="reads no integration time"):
        make_spec(measured_delta_phi=1.79e-4)


def test_gfring_optimum_reproduces_design_point():
    opt = optimize_gfring(math.radians(48.2))
    assert opt.turns == 8
    assert opt.fiber_length == pytest.approx(47290.848371043336, rel=1e-9)
    assert abs(opt.fiber_length - 47500.0) / 47500.0 < 0.05
    assert opt.report.snr_gr == pytest.approx(3.0, rel=1e-6)
    assert opt.loss_optimal_length == pytest.approx(20000.0 / (0.16 * LN10),
                                                    rel=1e-12)
    assert opt.report.delta_omega <= OMEGA_GR / 3.0


def test_gfring_lower_rate_prefers_fewer_turns():
    full = optimize_gfring(math.radians(48.2))
    half = optimize_gfring(math.radians(48.2), pair_rate_in=5e9)
    assert half.turns < full.turns
    assert half.report.snr_gr == pytest.approx(3.0, rel=1e-6)


def test_gfring_zero_target_returns_search_floor():
    """A target at or below zero asks for no design, so it is refused."""
    for target in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"target SNR {target:g} is not positive"):
            optimize_gfring(math.radians(48.2), target_snr=target, nt_max=16,
                            l_min=250.0)


def test_gfring_single_turn_cap():
    opt = optimize_gfring(math.radians(48.2), nt_max=1)
    assert opt.turns == 1
    assert opt.report.snr_gr == pytest.approx(3.0, rel=1e-6)
    assert opt.fiber_length < 47290.0


def test_gfring_never_returns_a_length_below_its_floor():
    # past L* = 54287 m delta_omega grows with length; the root beyond the
    # turnover (61941 m) lies below this floor
    with pytest.raises(InfeasibleDesignError):
        optimize_gfring(math.radians(48.2), l_min=1e6)
    assert optimize_gfring(math.radians(48.2), l_min=60000.0).fiber_length == 60000.0


def test_gfring_turn_count_infeasible_by_rounding_falls_back():
    lat = math.radians(48.2)
    geom = InterferometerGeometry.square(20000.0 / (0.16 * LN10), 1, wavelength=1550e-9)
    base = rotation_resolution(DesignSpec(
        name="GFRING", geometry=geom, alpha_db_per_km=0.16, pair_rate_in=1e10,
        integration_time=5.56e6, latitude=lat)).delta_omega
    # targets a few rounding steps either side of exactly 8 turns at L*
    for k in range(-8, 9):
        target = OMEGA_GR / (8.0 * base) * (1.0 + k * 2.2e-16)
        opt = optimize_gfring(lat, target_snr=target)
        assert opt.turns in (7, 8), k
        assert opt.report.delta_omega <= OMEGA_GR / target, k


def test_gfring_infeasible_target():
    with pytest.raises(InfeasibleDesignError):
        optimize_gfring(math.radians(48.2), target_snr=1e9)


def test_gfring_optimizer_validation():
    with pytest.raises(ValueError):
        optimize_gfring(0.0)
    with pytest.raises(ValueError):
        optimize_gfring(math.radians(48.2), alpha_db_per_km=0.0)
    with pytest.raises(ValueError):
        optimize_gfring(math.radians(48.2), nt_max=0)


def test_landscape_labels_and_order():
    specs = load_table_specs()
    rows = landscape([rotation_resolution(s) for s in specs])
    assert [r.name for r in rows] == [s.name for s in specs]
    by_name = {r.name: r for r in rows}
    assert by_name["this work"].label == "below_omega_e"
    assert by_name["GFRING"].label == "below_omega_gr"
    assert by_name["LFOG"].label == "below_omega_e"
    for r in rows:
        assert r.log10_delta_omega == pytest.approx(math.log10(r.delta_omega))
        assert r.log10_area == pytest.approx(math.log10(r.effective_area))
    assert landscape([]) == []


def test_regime_label_boundaries():
    assert regime_label(OMEGA_EARTH) == "above_omega_e"
    assert regime_label(OMEGA_EARTH * 0.999) == "below_omega_e"
    assert regime_label(OMEGA_GR) == "below_omega_e"
    assert regime_label(OMEGA_GR * 0.999) == "below_omega_gr"


def test_design_from_dict_validation():
    good = table_spec_dicts()[0]
    bad = dict(good)
    del bad["alpha_db_per_km"]
    with pytest.raises(ValueError, match="missing alpha_db_per_km"):
        design_from_dict(bad)
    bad = dict(good)
    bad["shape"] = "triangle"
    with pytest.raises(ValueError, match="shape"):
        design_from_dict(bad)
