import cmath
import math

import numpy as np
import pytest

from oracles import (PLUS, TwoModeState, coincidence_projection, evolve,
                     hom_interfere, noon_state, output_state_after_hwp,
                     phase_shift, sagnac_loop, two_photon_hwp)
from qsagnac import SwitchState, sagnac_phase, switch_transmission
from qsagnac.analysis import _noon_model, _single_model
from qsagnac.expsim import RateConfig, SwitchSchedule, simulate_counts
from qsagnac.probe import NOON2, SINGLE, ProbeKind, fringe_probs


def pair_at_output(phi0, phi_s, distinguishability=0.0):
    """Pair amplitudes after the loop (phi_s on H), the bias (phi0 on V) and the plate."""
    looped = evolve(hom_interfere(distinguishability), phi_s)
    biased = [a * cmath.exp(1j * occ[1] * phi0)
              for occ, a in zip(looped.basis, looped.amplitudes)]
    return two_photon_hwp() @ np.array(biased)


def pair_coincidence_prob(phi0, phi_s):
    return abs(pair_at_output(phi0, phi_s)[1]) ** 2


def test_probe_kind_enhancement():
    assert SINGLE.enhancement == 1
    assert NOON2.enhancement == 2


def test_probe_kind_validation(bench_geometry):
    """A kind other than NOON2 and SINGLE is refused where it would be simulated."""
    for kind in (ProbeKind("single", 2), ProbeKind("noon", 1), ProbeKind("squeezed", 2)):
        with pytest.raises(TypeError):
            simulate_counts(kind, bench_geometry, [0.0], 0.0, seed=0)


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        TwoModeState(((2, 0), (0, 2)), (1.0, 1.0))
    with pytest.raises(ValueError):
        TwoModeState(((2, 0), (2, 0)), (1.0, 0.0))


def test_noon_state_amplitudes():
    s = noon_state(2)
    assert s.amplitude((2, 0)) == pytest.approx(1 / math.sqrt(2))
    assert s.amplitude((0, 2)) == pytest.approx(-1 / math.sqrt(2))
    assert s.probability((1, 1)) == 0.0


def test_evolve_zero_phase_is_identity():
    s = noon_state(2)
    out = evolve(s, 0.0)
    assert out.amplitudes == s.amplitudes


def test_evolve_half_turn_gives_pi_relative_phase():
    out = evolve(noon_state(2), math.pi / 2, n=2)
    rel = out.amplitude((0, 2)) / out.amplitude((2, 0))
    assert rel == pytest.approx(-cmath.exp(1j * math.pi), abs=1e-12)


def test_evolve_composes():
    for phi1, phi2 in ((0.3, 1.1), (-0.7, 0.2), (2.0, 2.0)):
        once = evolve(noon_state(2), phi1 + phi2)
        twice = evolve(evolve(noon_state(2), phi1), phi2)
        assert np.allclose(once.as_array(), twice.as_array(), atol=1e-12)


def test_evolve_checks_photon_number():
    with pytest.raises(ValueError):
        evolve(noon_state(2), 0.1, n=3)


def test_evolve_preserves_norm():
    for phi in np.linspace(-math.pi, math.pi, 25):
        out = evolve(hom_interfere(0.2), float(phi))
        assert sum(abs(a) ** 2 for a in out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_hom_ideal_pair():
    s = hom_interfere(0.0)
    assert s.amplitude((2, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert s.amplitude((1, 1)) == 0.0
    assert s.amplitude((0, 2)) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


def test_hom_distinguishable_pair_splits_classically():
    s = hom_interfere(1.0)
    assert s.probability((2, 0)) == pytest.approx(0.25, abs=1e-12)
    assert s.probability((1, 1)) == pytest.approx(0.5, abs=1e-12)
    assert s.probability((0, 2)) == pytest.approx(0.25, abs=1e-12)


def test_hom_rejects_out_of_range():
    with pytest.raises(ValueError):
        hom_interfere(-0.1)
    with pytest.raises(ValueError):
        hom_interfere(1.2)


def test_full_chain_coincidence_fringe():
    """Ideal pair through loop and output plate gives a visibility-1 fringe."""
    t = two_photon_hwp()
    for phi in np.linspace(0.0, 2 * math.pi, 21):
        out = t @ evolve(hom_interfere(0.0), float(phi)).as_array()
        p = abs(out[1]) ** 2
        assert p == pytest.approx(0.5 * (1 + math.cos(2 * phi)), abs=1e-12)


def test_two_photon_hwp_unitary():
    t = two_photon_hwp()
    assert np.allclose(t.conj().T @ t, np.eye(3), atol=1e-12)


def test_single_photon_probs():
    p_a, p_b = fringe_probs(2.8e-3)
    # small-phase limit: P_b = phi^2 / 4
    assert p_b == pytest.approx((2.8e-3) ** 2 / 4, rel=1e-5)
    assert p_a + p_b == pytest.approx(1.0, abs=1e-12)


def test_noon_probs_half_turn():
    # the pair sees a quarter-turn loop phase doubled: the bright port goes dark
    assert fringe_probs(2 * (0.0 - math.pi / 2)) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_noon_probs_match_coincidence_projection():
    for phi in np.linspace(-math.pi, math.pi, 17):
        p_a, _ = fringe_probs(2 * float(phi))
        proj = coincidence_projection(output_state_after_hwp(float(phi)))
        assert proj == pytest.approx(p_a, abs=1e-12)


def test_probs_sum_to_one():
    for v in (1.0, 0.9714, 0.0):
        for arg in np.linspace(-4 * math.pi, 4 * math.pi, 33):
            assert sum(fringe_probs(float(arg), v)) == pytest.approx(1.0, abs=1e-12)


def test_noon_period_is_two_pi_over_n():
    for n in (2, 3):
        period = 2 * math.pi / n
        for phi in np.linspace(0.0, 2 * math.pi, 11):
            assert fringe_probs(n * float(phi))[0] == pytest.approx(
                fringe_probs(n * (float(phi) + period))[0], abs=1e-12)


def test_coincidence_prob_near_dark_fringe():
    # pi/2 bias sits at the dark fringe; a small rotation phase leaks through
    p = pair_coincidence_prob(math.pi / 2, 2.75e-3)
    assert p == pytest.approx(0.5 * (1 - math.cos(5.5e-3)), abs=1e-15)
    assert p == pytest.approx(7.5625e-6, rel=1e-4)


def test_coincidence_prob_shift_equivalence():
    # the rotation phase enters as a bias offset of the opposite sign
    for phi0 in np.linspace(0.0, math.pi, 7):
        for phi_s in (0.0, 1.4e-3, 0.2):
            assert pair_coincidence_prob(phi0, phi_s) == pytest.approx(
                pair_coincidence_prob(phi0 - phi_s, 0.0), abs=1e-12)


def test_coincidence_prob_period_pi():
    for phi0 in np.linspace(0.0, math.pi, 9):
        assert pair_coincidence_prob(phi0, 1e-3) == pytest.approx(
            pair_coincidence_prob(phi0 + math.pi, 1e-3), abs=1e-12)


def test_output_state_no_rotation():
    s = output_state_after_hwp(0.0)
    assert s.probability((1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_output_state_half_turn():
    s = output_state_after_hwp(math.pi / 2)
    assert s.probability((1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert s.probability((2, 0)) == pytest.approx(0.5, abs=1e-12)


def test_output_state_normalized_everywhere():
    for phi in np.linspace(-math.pi, math.pi, 41):
        s = output_state_after_hwp(float(phi))
        assert sum(abs(a) ** 2 for a in s.amplitudes) == pytest.approx(1.0, abs=1e-12)


PHASE_GRID = [(phi0, phi_s) for phi0 in (-2.0, 0.0, 0.4, math.pi / 2, 2.9)
              for phi_s in (0.0, 2.8e-3, 0.3, -1.1)]


def test_convention_jones_path():
    # the loop adds phi_s to H, the bias adds phi0 to V: |+> projects on |+>
    # with the single-photon fringe of argument phi0 - phi_s
    plus = PLUS.as_array()
    for phi0, phi_s in PHASE_GRID:
        out = sagnac_loop(phi_s) @ phase_shift(phi0) @ plus
        p = abs(np.vdot(plus, out)) ** 2
        assert p == pytest.approx(fringe_probs(phi0 - phi_s)[0], abs=1e-12)


def test_convention_fock_path():
    # the pair sees the same convention doubled, and the closed-form output
    # state is the state-vector chain up to a global phase
    for phi0, phi_s in PHASE_GRID:
        out = pair_at_output(phi0, phi_s)
        p_a, p_b = fringe_probs(2 * (phi0 - phi_s))
        assert abs(out[1]) ** 2 == pytest.approx(p_a, abs=1e-12)
        assert abs(out[0]) ** 2 + abs(out[2]) ** 2 == pytest.approx(p_b, abs=1e-12)
        closed = output_state_after_hwp(phi_s).as_array()
        assert abs(np.vdot(closed, pair_at_output(0.0, phi_s))) == pytest.approx(1.0, abs=1e-12)


def test_convention_simulated_counts_match_fit_models(bench_geometry, quiet_noise):
    # noiseless counts follow the fit models at phase = base - k phi_s
    phi0 = np.linspace(-0.4, 6.7, 11)
    omega, base, asym = 0.01, 0.2, 0.05
    rates = RateConfig(coincidence_window=1e-15)
    for kind in (NOON2, SINGLE):
        recs = simulate_counts(kind, bench_geometry, phi0, omega, seed=3,
                               duration_s=100.0, rates=rates, noise=quiet_noise,
                               base_phase=base,
                               visibility=0.9, channel_asymmetry=asym,
                               sample_poisson=False)
        for switch in (SwitchState.ON, SwitchState.OFF):
            rs = [r for r in recs if r.switch is switch]
            phase = base - kind.enhancement * sagnac_phase(bench_geometry, omega, switch)
            if kind is NOON2:
                y = np.array([r.n_hv for r in rs], dtype=float)
                amp = switch_transmission(switch) * rates.pair_rate_detected \
                    * 100.0 * SwitchSchedule().usable_fraction(switch)
                f, _ = _noon_model(np.array([[amp], [0.9], [phase]]), phi0)
                assert np.max(np.abs(f[:, 0] - y)) <= 1.0
            else:
                n_h = np.array([r.n_h for r in rs], dtype=float)
                n_v = np.array([r.n_v for r in rs], dtype=float)
                f, _ = _single_model(
                    np.array([[(1 - asym) / 2], [asym], [0.9], [phase]]), phi0)
                assert np.max(np.abs(f[:, 0] - n_v / (n_h + n_v))) <= 1.0 / np.min(n_h + n_v)
