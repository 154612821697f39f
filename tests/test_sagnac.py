import math

import pytest

from qsagnac import (OMEGA_EARTH, OMEGA_GR, InterferometerGeometry,
                     SwitchState, sagnac_phase, scale_factor,
                     switch_transmission, transmission)

OMEGA_E = 7.29e-5


def test_scale_factor_measured_loop(bench_geometry):
    s = scale_factor(bench_geometry)
    assert s == pytest.approx(38.77209514217869, rel=1e-12)
    assert abs(s - 38.8) / 38.8 < 0.003


def test_scale_factor_proposed_frames():
    cfog = InterferometerGeometry.circular(3000.0, 0.63)
    assert scale_factor(cfog) == pytest.approx(8.134889261192512, rel=1e-12)
    assert abs(scale_factor(cfog) - 8.1) / 8.1 < 0.015
    gfring = InterferometerGeometry.square(47500.0, 8)
    assert scale_factor(gfring) == pytest.approx(953384.8996262398, rel=1e-12)
    assert abs(scale_factor(gfring) - 9.51e5) / 9.51e5 < 0.01


def test_sagnac_phase_earth_rate(bench_geometry):
    phi = sagnac_phase(bench_geometry, OMEGA_E)
    assert phi == pytest.approx(2.8264857358648266e-3, rel=1e-12)
    # measured maximum is 2.8 +/- 0.1 mrad
    assert abs(phi - 2.8e-3) < 0.1e-3


def test_sagnac_phase_off_state(bench_geometry):
    assert sagnac_phase(bench_geometry, OMEGA_E, SwitchState.OFF) == 0.0


def test_sagnac_phase_perpendicular_frame():
    geom = InterferometerGeometry.square(2000.0, 360, frame_angle=math.pi / 2,
                                         effective_area=715.0,
                                         wavelength=1546e-9)
    assert abs(sagnac_phase(geom, OMEGA_E)) < 1e-18


def test_phase_linear_in_rate_and_area():
    base = InterferometerGeometry.square(2000.0, 360, effective_area=715.0)
    tripled = InterferometerGeometry.square(2000.0, 360, effective_area=3 * 715.0)
    assert sagnac_phase(base, 3 * OMEGA_E) == pytest.approx(
        3 * sagnac_phase(base, OMEGA_E), rel=1e-14)
    assert sagnac_phase(tripled, OMEGA_E) == pytest.approx(
        3 * sagnac_phase(base, OMEGA_E), rel=1e-14)


def test_phase_even_in_frame_angle():
    for theta in (0.1, 0.7, 1.3, 2.9):
        plus = InterferometerGeometry.square(2000.0, 360, frame_angle=theta,
                                             effective_area=715.0)
        minus = InterferometerGeometry.square(2000.0, 360, frame_angle=-theta,
                                              effective_area=715.0)
        assert sagnac_phase(plus, OMEGA_E) == sagnac_phase(minus, OMEGA_E)


def test_phase_over_scale_factor_is_projected_rate():
    for theta in (0.0, 0.3, 1.1):
        geom = InterferometerGeometry.square(2000.0, 360, frame_angle=theta,
                                             effective_area=715.0)
        ratio = sagnac_phase(geom, OMEGA_E) / scale_factor(geom)
        assert ratio == pytest.approx(OMEGA_E * math.cos(theta), rel=1e-14)


def test_square_area_halves_when_turns_double():
    one = InterferometerGeometry.square(2000.0, 360)
    two = InterferometerGeometry.square(2000.0, 720)
    assert two.effective_area == pytest.approx(one.effective_area / 2, rel=1e-14)


def test_square_area_formula():
    geom = InterferometerGeometry.square(2000.0, 360)
    assert geom.effective_area == pytest.approx((2000.0 / 4) ** 2 / 360, rel=1e-3)


def test_circular_area_formula():
    geom = InterferometerGeometry.circular(8000.0, 2.15)
    assert geom.turns == 3721
    assert geom.effective_area == pytest.approx(
        3721 * math.pi * (2.15 / (2 * math.pi)) ** 2, rel=1e-12)


def test_geometry_winding_consistency():
    # 2000 m of fiber cannot make 5 turns of 10 m perimeter
    with pytest.raises(ValueError):
        InterferometerGeometry("square", 2000.0, 10.0, 5, 100.0)
    with pytest.raises(ValueError):
        InterferometerGeometry.square(-1.0, 10)
    # checked before the perimeter is divided out
    with pytest.raises(ValueError, match="at least one turn"):
        InterferometerGeometry.square(2000.0, 0)
    with pytest.raises(ValueError, match="perimeter must be positive"):
        InterferometerGeometry.circular(2000.0, 0.0)
    with pytest.raises(ValueError):
        InterferometerGeometry("square", 2000.0, 5.5555, 360, -715.0)
    with pytest.raises(ValueError):
        InterferometerGeometry("hexagonal", 2000.0, 5.5555, 360, 715.0)


def test_switch_transmission():
    assert switch_transmission(SwitchState.ON) == 1.0
    assert switch_transmission(SwitchState.OFF) == 0.9


def test_transmission_lossless():
    assert transmission(0.0, 123456.0) == 1.0


def test_transmission_measured_fiber():
    # 0.5 dB/km over the 2 km loop is 1 dB of loss
    assert transmission(0.5, 2000.0) == pytest.approx(0.7943282347242815, rel=1e-12)


def test_transmission_two_photon_long_haul():
    eta2 = transmission(0.16, 47500.0, n_photons=2)
    assert eta2 == pytest.approx(10 ** -1.52, rel=1e-12)
    assert eta2 == pytest.approx(0.030199517204020164, rel=1e-12)


def test_transmission_multiplicative_in_segments():
    for alpha in (0.16, 0.5, 1.0):
        for split in (500.0, 1200.0):
            whole = transmission(alpha, 2000.0)
            parts = transmission(alpha, split) * transmission(alpha, 2000.0 - split)
            assert parts == pytest.approx(whole, rel=1e-12)


def test_transmission_rejects_gain():
    with pytest.raises(ValueError):
        transmission(-0.1, 1000.0)


def test_noon_survival():
    # 10 dB over the loop leaves each photon eta = 0.1; the pair survives with eta^2
    assert transmission(10.0, 1000.0, n_photons=2) == pytest.approx(0.01, rel=1e-12)
    assert 1.0 - transmission(10.0, 1000.0, 2) == pytest.approx(0.99, rel=1e-9)
    assert transmission(0.0, 1000.0, 5) == 1.0
    # heralded single photon: trigger arm 0.5, loop arm 0.1
    alpha = -10.0 * math.log10(0.5 * 0.1)
    assert 1.0 - transmission(alpha, 1000.0, 1) == pytest.approx(0.95, rel=1e-9)


def test_constants():
    assert OMEGA_EARTH == pytest.approx(7.292115e-5, rel=1e-12)
    assert OMEGA_GR == pytest.approx(7.292115e-14, rel=1e-12)
