import math

import numpy as np
import pytest

from oracles import (H, LEFT_CIRCULAR, MINUS, PLUS, RIGHT_CIRCULAR, V,
                     JonesVector, PolarizationEllipse, bias_unitary,
                     ellipse_of, hwp, is_unitary, phase_distance, phase_shift,
                     sagnac_loop, qwp, vector_of)


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def state_overlap(a, b):
    return abs(np.vdot(a.as_array(), b.as_array()))


def test_hwp_axis_aligned():
    assert state_overlap(H.apply(hwp(0.0)), H) == pytest.approx(1.0, abs=1e-12)


def test_hwp_produces_diagonal():
    # plate at 22.5 degrees takes H to +
    assert state_overlap(H.apply(hwp(math.pi / 8)), PLUS) == pytest.approx(1.0, abs=1e-12)


def test_hwp_swaps_h_and_v():
    assert state_overlap(H.apply(hwp(math.pi / 4)), V) == pytest.approx(1.0, abs=1e-12)


def test_qwp_axis_aligned():
    assert state_overlap(H.apply(qwp(0.0)), H) == pytest.approx(1.0, abs=1e-12)


def test_qwp_makes_circular():
    ell = ellipse_of(H.apply(qwp(math.pi / 4)))
    assert abs(ell.chi) == pytest.approx(math.pi / 4, abs=1e-10)
    assert ell.degenerate


def test_qwp_squared_is_hwp():
    theta = 0.3
    assert phase_distance(qwp(theta) @ qwp(theta), hwp(theta)) < 1e-12


def test_phase_shift_identity():
    assert np.allclose(phase_shift(0.0), np.eye(2), atol=1e-15)


def test_phase_shift_flips_diagonal():
    out = PLUS.apply(phase_shift(math.pi))
    assert state_overlap(out, MINUS) == pytest.approx(1.0, abs=1e-12)


def test_phase_shift_group_property():
    composed = phase_shift(0.7) @ phase_shift(1.1)
    assert np.allclose(composed, phase_shift(1.8), atol=1e-14)


def test_bias_unitary_zero_is_identity():
    assert phase_distance(bias_unitary(0.0), np.eye(2)) < 1e-12


def test_bias_unitary_fringe():
    # transmission through the bias element sweeps cos^2(phi/2)
    for phi in np.linspace(0.0, 2.0 * math.pi, 17):
        amp = bias_unitary(phi)[0, 0]
        assert abs(amp) ** 2 == pytest.approx(math.cos(phi / 2.0) ** 2, abs=1e-12)


def test_bias_unitary_half_turn():
    assert state_overlap(H.apply(bias_unitary(math.pi)), V) == pytest.approx(
        1.0, abs=1e-12)


def test_ellipse_of_h():
    ell = ellipse_of(H)
    assert ell.psi == 0.0
    assert ell.chi == 0.0
    assert not ell.degenerate


def test_ellipse_of_circular():
    ell = ellipse_of(JonesVector(1.0 / math.sqrt(2), 1.0j / math.sqrt(2)))
    assert abs(ell.chi) == pytest.approx(math.pi / 4, abs=1e-12)
    assert ell.psi == 0.0
    assert ell.degenerate
    assert ellipse_of(RIGHT_CIRCULAR).degenerate
    assert ellipse_of(LEFT_CIRCULAR).degenerate


def test_ellipse_of_sagnac_output():
    phi = 2.8e-3
    out = H.apply(hwp(math.pi / 8)).apply(sagnac_loop(phi)).apply(hwp(math.pi / 8))
    ell = ellipse_of(out)
    assert ell.chi == pytest.approx(phi / 2.0, abs=1e-6)


def test_ellipse_round_trip():
    for psi in np.linspace(-1.4, 1.4, 9):
        for chi in np.linspace(-0.7, 0.7, 9):
            ell = PolarizationEllipse(float(psi), float(chi))
            back = ellipse_of(vector_of(ell))
            assert back.psi == pytest.approx(ell.psi, abs=1e-10)
            assert back.chi == pytest.approx(ell.chi, abs=1e-10)


def test_constructors_unitary():
    for theta in np.linspace(-math.pi, math.pi, 1000):
        assert is_unitary(hwp(theta), tol=1e-12)
        assert is_unitary(qwp(theta), tol=1e-12)
    for phi in np.linspace(0.0, 2.0 * math.pi, 50):
        assert is_unitary(phase_shift(phi), tol=1e-12)
        assert is_unitary(bias_unitary(phi), tol=1e-12)
        assert is_unitary(sagnac_loop(phi), tol=1e-12)


def test_products_stay_unitary():
    m = np.eye(2, dtype=complex)
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = m @ hwp(rng.uniform(-math.pi, math.pi))
        m = m @ qwp(rng.uniform(-math.pi, math.pi))
    assert is_unitary(m, tol=1e-10)


def test_hwp_squared_is_identity():
    for theta in np.linspace(-math.pi, math.pi, 1000):
        assert phase_distance(hwp(theta) @ hwp(theta), np.eye(2)) < 1e-12


def test_qwp_squared_matches_hwp_everywhere():
    for theta in np.linspace(-math.pi, math.pi, 200):
        assert phase_distance(qwp(theta) @ qwp(theta), hwp(theta)) < 1e-12


def test_classical_chain_reads_loop_phase():
    """Loop phase phi comes out as 2 chi after the full readout chain."""
    uf = random_unitary(11)
    comp = np.linalg.inv(uf)
    for phi in np.linspace(-0.099, 0.099, 12):
        probe = hwp(math.pi / 8) @ sagnac_loop(phi) @ hwp(math.pi / 8)
        chain = bias_unitary(0.0) @ comp @ uf @ probe
        ell = ellipse_of(H.apply(chain))
        assert 2.0 * ell.chi == pytest.approx(phi, abs=1e-9)


def test_jones_vector_normalization():
    v = JonesVector(3.0, 4.0j).normalized()
    assert v.norm == pytest.approx(1.0, abs=1e-12)
    # S3 = 2 Im(h* v) = 2 * 0.6 * 0.8
    assert ellipse_of(v).chi == pytest.approx(math.asin(0.96) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        ellipse_of(JonesVector(0.0, 0.0))
