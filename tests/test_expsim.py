import math
import os
import re
import warnings

import numpy as np
import pytest

from qsagnac import NOON2, SINGLE, ProbeKind, SwitchState
from qsagnac.expsim import (TRACE_CSV_COLUMNS, _TRACE_BLOCK, CountRecord,
                            NoiseConfig, PolarimeterTrace, RateConfig,
                            SwitchSchedule, angle_sweep, new_file,
                            read_counts_csv, read_trace_csv, simulate_counts,
                            simulate_polarimeter, write_counts_csv,
                            write_trace_csv)

OMEGA_E = 7.29e-5
PHI_S = 2.8264857358648266e-3  # loop phase of the 715 m^2 geometry at this rate


def on_off(records):
    ons = [r for r in records if r.switch is SwitchState.ON]
    offs = [r for r in records if r.switch is SwitchState.OFF]
    return ons, offs


def test_same_seed_reproduces_bit_exact(bench_geometry):
    a = simulate_counts(NOON2, bench_geometry, [0.0, 0.5, 1.0], OMEGA_E, seed=7,
                        duration_s=30.0)
    b = simulate_counts(NOON2, bench_geometry, [0.0, 0.5, 1.0], OMEGA_E, seed=7,
                        duration_s=30.0)
    assert a == b


def test_different_seed_changes_counts(bench_geometry):
    a = simulate_counts(NOON2, bench_geometry, [0.5], OMEGA_E, seed=7,
                        duration_s=30.0)
    b = simulate_counts(NOON2, bench_geometry, [0.5], OMEGA_E, seed=8,
                        duration_s=30.0)
    assert any(x != y for x, y in zip(a, b))


def test_noiseless_pair_rate_tracks_fringe(bench_geometry, quiet_noise):
    """Expected coincidence rate is R/2 (1 + cos 2(phi0 - phi_s)) plus accidentals."""
    recs = simulate_counts(NOON2, bench_geometry, [0.0], OMEGA_E, seed=0,
                           duration_s=1800.0, noise=quiet_noise,
                           sample_poisson=False)
    on = on_off(recs)[0][0]
    t_use = 1800.0 * SwitchSchedule().usable_fraction(SwitchState.ON)
    expected = 4000.0 * 0.5 * (1.0 + math.cos(2.0 * PHI_S))
    assert on.n_hv / t_use == pytest.approx(expected, rel=2e-4)

    # a negligible coincidence window removes the accidental background
    tight = RateConfig(coincidence_window=1e-15)
    recs = simulate_counts(NOON2, bench_geometry, [0.0], OMEGA_E, seed=0,
                           duration_s=1800.0, noise=quiet_noise, rates=tight,
                           sample_poisson=False)
    on = on_off(recs)[0][0]
    assert on.n_hv / t_use == pytest.approx(expected, rel=1e-6)


def test_off_state_attenuates_to_ninety_percent(bench_geometry, quiet_noise):
    # at zero rotation both states sit at the fringe maximum
    recs = simulate_counts(NOON2, bench_geometry, [0.0], 0.0, seed=0,
                           duration_s=1800.0, noise=quiet_noise,
                           sample_poisson=False)
    ons, offs = on_off(recs)
    assert abs(offs[0].n_hv / ons[0].n_hv - 0.9) < 1e-4

    tight = RateConfig(coincidence_window=1e-15)
    recs = simulate_counts(NOON2, bench_geometry, [0.0], 0.0, seed=0,
                           duration_s=1800.0, noise=quiet_noise, rates=tight,
                           sample_poisson=False)
    ons, offs = on_off(recs)
    assert abs(offs[0].n_hv / ons[0].n_hv - 0.9) < 1e-6


def test_heralded_singles_bookkeeping(bench_geometry, quiet_noise):
    """Channel sums follow trans * R * (1 + a cos(arg)); exactly R at a = 0."""
    a = 1 / 11
    recs = simulate_counts(SINGLE, bench_geometry, [0.0, 0.7, 2.1], OMEGA_E,
                           seed=0, duration_s=900.0, noise=quiet_noise,
                           sample_poisson=False, channel_asymmetry=a)
    for r in recs:
        trans = 1.0 if r.switch is SwitchState.ON else 0.9
        phs = PHI_S if r.switch is SwitchState.ON else 0.0
        t_use = 900.0 * SwitchSchedule().usable_fraction(r.switch)
        expect = trans * 20000.0 * (1.0 + a * math.cos(r.phi0 - phs)) * t_use
        assert r.n_h + r.n_v == pytest.approx(expect, abs=1.5)

    recs = simulate_counts(SINGLE, bench_geometry, [0.0, 0.7, 2.1], OMEGA_E,
                           seed=0, duration_s=900.0, noise=quiet_noise,
                           sample_poisson=False)
    for r in recs:
        trans = 1.0 if r.switch is SwitchState.ON else 0.9
        t_use = 900.0 * SwitchSchedule().usable_fraction(r.switch)
        assert r.n_h + r.n_v == pytest.approx(trans * 20000.0 * t_use, abs=1.5)


def test_counts_are_poisson(bench_geometry, quiet_noise):
    recs = simulate_counts(NOON2, bench_geometry, [math.pi / 4] * 2000, OMEGA_E,
                           seed=12, duration_s=1.0, noise=quiet_noise)
    n = np.array([r.n_hv for r in on_off(recs)[0]], dtype=float)
    assert 0.9 < n.var() / n.mean() < 1.1


def test_pair_fringe_has_half_the_period(bench_geometry, quiet_noise):
    """Two-photon records repeat after pi; heralded singles only after 2 pi."""
    phis = [0.3, 0.3 + math.pi]
    noon = simulate_counts(NOON2, bench_geometry, phis, OMEGA_E, seed=0,
                           duration_s=300.0, noise=quiet_noise,
                           sample_poisson=False)
    ons = on_off(noon)[0]
    assert ons[0].n_hv == ons[1].n_hv

    single = simulate_counts(SINGLE, bench_geometry, phis, OMEGA_E, seed=0,
                             duration_s=300.0, noise=quiet_noise,
                             sample_poisson=False)
    ons = on_off(single)[0]
    assert ons[0].n_h == ons[1].n_v
    assert abs(ons[0].n_h - ons[1].n_h) > 1000


def test_motor_jitter_is_common_to_both_switch_states(bench_geometry):
    """Set-point jitter must cancel in the on/off phase difference."""
    noise = NoiseConfig(dark_rate=0.0, motor_sigma=5e-2, drift_rate=0.0,
                        walk_sigma=0.0, polarimeter_sigma=0.0,
                        leakage_fraction=0.0)
    recs = simulate_counts(NOON2, bench_geometry, [math.pi / 4], 0.0, seed=3,
                           duration_s=300.0, noise=noise, sample_poisson=False)
    ons, offs = on_off(recs)
    # same jittered phase, so the off record is exactly 0.9x the accidental-free rate
    assert offs[0].n_hv / ons[0].n_hv == pytest.approx(0.9, abs=1e-3)


def test_simulate_counts_validation(bench_geometry):
    with pytest.raises(TypeError):
        simulate_counts("noon", bench_geometry, [0.0], OMEGA_E, seed=0)
    # only the two-photon pair is simulated
    with pytest.raises(TypeError):
        simulate_counts(ProbeKind("noon", 3), bench_geometry, [0.0], OMEGA_E, seed=0)
    with pytest.raises(ValueError):
        simulate_counts(NOON2, bench_geometry, [0.0], OMEGA_E, seed=0,
                        duration_s=0.0)
    with pytest.raises(ValueError):
        simulate_counts(NOON2, bench_geometry, [], OMEGA_E, seed=0)
    with pytest.raises(ValueError):
        simulate_counts(NOON2, bench_geometry, [0.0], OMEGA_E, seed=0,
                        visibility=1.2)


def test_schedule_validation():
    assert SwitchSchedule().usable_fraction(SwitchState.ON) == pytest.approx(0.498)
    assert SwitchSchedule().usable_fraction(SwitchState.OFF) == pytest.approx(0.498)
    with pytest.raises(ValueError):
        SwitchSchedule(frequency=0.0)
    with pytest.raises(ValueError):
        SwitchSchedule(duty=1.0)
    with pytest.raises(ValueError):
        SwitchSchedule(transition_halfwidth=-0.1)
    with pytest.raises(ValueError):
        SwitchSchedule(transition_halfwidth=2.5)


def test_rate_and_noise_validation():
    with pytest.raises(ValueError):
        RateConfig(pair_rate_detected=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(motor_sigma=-1e-3)
    with pytest.raises(ValueError):
        NoiseConfig(leakage_fraction=1.5)


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord(0.0, 0.0, SwitchState.ON, 0.0, 1, 1, 1)
    with pytest.raises(ValueError):
        CountRecord(0.0, 0.0, SwitchState.ON, 1.0, -1, 1, 1)


def test_polarimeter_trace_levels(bench_geometry, quiet_noise):
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 600.0, seed=3,
                                 noise=quiet_noise)
    on = trace.drive == 1.0
    assert np.allclose(trace.chi[on], 0.5 * PHI_S, atol=1e-15)
    assert np.allclose(trace.chi[~on], 0.0, atol=1e-15)
    assert np.allclose(trace.psi, 0.0, atol=1e-15)


def test_polarimeter_leakage_splits_power(bench_geometry):
    noise = NoiseConfig(dark_rate=0.0, motor_sigma=0.0, drift_rate=0.0,
                        walk_sigma=0.0, polarimeter_sigma=0.0,
                        leakage_fraction=0.3)
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 600.0, seed=3,
                                 noise=noise)
    on = trace.drive == 1.0
    assert np.allclose(trace.chi[on], 0.5 * PHI_S * math.sqrt(0.7), atol=1e-15)
    assert np.allclose(trace.psi[on], 0.5 * PHI_S * math.sqrt(0.3), atol=1e-15)
    # quadrature sum restores the full loop phase
    total = 2.0 * np.hypot(trace.chi[on], trace.psi[on])
    assert np.allclose(total, PHI_S, atol=1e-15)


def test_polarimeter_needs_ten_periods(bench_geometry):
    with pytest.raises(ValueError):
        simulate_polarimeter(bench_geometry, OMEGA_E, 50.0, seed=0)


def test_angle_sweep_parity(bench_geometry, quiet_noise):
    """Opposite frame tilts see the same projected rotation."""
    up = angle_sweep(NOON2, bench_geometry, [math.radians(42.5)], [0.4, 0.9],
                     OMEGA_E, seed=5, duration_s=120.0, noise=quiet_noise,
                     sample_poisson=False)
    down = angle_sweep(NOON2, bench_geometry, [math.radians(-42.5)], [0.4, 0.9],
                       OMEGA_E, seed=5, duration_s=120.0, noise=quiet_noise,
                       sample_poisson=False)
    assert [(r.n_h, r.n_v, r.n_hv) for r in up] \
        == [(r.n_h, r.n_v, r.n_hv) for r in down]


def test_angle_sweep_tags_records_with_theta(bench_geometry, quiet_noise):
    thetas = [math.radians(d) for d in (-65.0, 2.5)]
    recs = angle_sweep(NOON2, bench_geometry, thetas, [0.0, 0.5], OMEGA_E,
                       seed=1, duration_s=60.0, noise=quiet_noise)
    assert sorted({r.theta for r in recs}) == sorted(thetas)
    assert len(recs) == 2 * 2 * 2


def test_angle_sweep_base_phase_length_mismatch(bench_geometry):
    with pytest.raises(ValueError):
        angle_sweep(NOON2, bench_geometry, [0.0, 0.1], [0.0], OMEGA_E, seed=0,
                    base_phase=[0.0, 0.1, 0.2], duration_s=60.0)
    with pytest.raises(ValueError):
        angle_sweep(NOON2, bench_geometry, [], [0.0], OMEGA_E, seed=0)


def test_counts_csv_round_trip(tmp_path, bench_geometry):
    # set points on a binary grid survive the decimal round trip exactly
    recs = simulate_counts(NOON2, bench_geometry, [0.0, 0.25, 0.5, 0.75],
                           OMEGA_E, seed=9, duration_s=30.0)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    assert read_counts_csv(path) == recs


def test_counts_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_counts_csv(path)


def test_counts_csv_rejects_bad_row(tmp_path):
    path = tmp_path / "counts.csv"
    header = "theta_deg,phi0_rad,switch,duration_s,n_h,n_v,n_hv"
    path.write_text(header + "\n2.5,0.1,on,30,12,xx,9\n")
    with pytest.raises(ValueError, match="row 2"):
        read_counts_csv(path)
    path.write_text(header + "\n2.5,0.1,on,30\n")
    with pytest.raises(ValueError, match="row 2"):
        read_counts_csv(path)


def test_trace_csv_round_trip(tmp_path, bench_geometry, quiet_noise):
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 200.0, seed=4,
                                 noise=quiet_noise)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.allclose(back.t, trace.t, rtol=1e-9)
    assert np.allclose(back.chi, trace.chi, rtol=1e-9, atol=1e-15)
    assert np.array_equal(back.drive, trace.drive)


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,psi_rad,chi_rad\n0.1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


@pytest.mark.parametrize("n", [0, 1, _TRACE_BLOCK - 1, _TRACE_BLOCK,
                               _TRACE_BLOCK + 1, 3 * _TRACE_BLOCK + 7])
def test_trace_csv_bytes_match_savetxt(tmp_path, n):
    """The block writer writes np.savetxt's bytes; reading them back loses no bit."""
    rng = np.random.default_rng(n)
    t = -2.5 + 0.05 * np.arange(n)
    values = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
    extremes = [1e-300, -1e-300, 1e300, -1e300, -0.0, 0.0, 1.0, -1.0]
    values.flat[:len(extremes)] = extremes[:values.size]
    drive = rng.integers(0, 2, n).astype(float)
    drive[::5] = rng.choice([0.5, 1.0 / 3.0, -0.25, -0.0], drive[::5].size)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_trace_csv(PolarimeterTrace(t, values[0], values[1], drive), ours)
    np.savetxt(ref, np.column_stack([t, values[0], values[1], drive]), fmt="%.10g",
               delimiter=",", header=",".join(TRACE_CSV_COLUMNS), comments="")
    assert ours.read_bytes() == ref.read_bytes()
    if n == 0:
        return
    back = read_trace_csv(ours)
    got = np.column_stack([back.t, back.psi, back.chi, back.drive])
    assert got.tobytes() == np.loadtxt(ref, delimiter=",", skiprows=1, ndmin=2).tobytes()


def _counts_data(bench_geometry, seed):
    return simulate_counts(NOON2, bench_geometry, [0.0, 0.5], OMEGA_E, seed=seed,
                           duration_s=30.0)


def _trace_data(bench_geometry, seed):
    return simulate_polarimeter(bench_geometry, OMEGA_E, 200.0, seed=seed)


@pytest.mark.parametrize("write, data", [(write_counts_csv, _counts_data),
                                         (write_trace_csv, _trace_data)])
def test_rewrite_replaces_file_and_leaves_hard_link(tmp_path, bench_geometry,
                                                    write, data):
    """A rewrite makes a new file: a hard link to the old one keeps its bytes."""
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    write(data(bench_geometry, 1), path)
    first = path.read_bytes()
    os.link(path, link)
    write(data(bench_geometry, 2), path)
    assert link.read_bytes() == first
    assert path.read_bytes() != first
    assert not os.path.samefile(path, link)


def test_new_file_removes_its_file_when_the_body_raises(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(OSError, match="disk"):
        with new_file(path) as f:
            f.write("half")
            raise OSError("disk full")
    assert not path.exists()


def write_trace_text(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([",".join(TRACE_CSV_COLUMNS)] + rows) + "\n")
    return path


GOOD_TRACE_ROWS = ["0.025,1e-05,0.0014,1", "0.075,-2e-05,0.0013,1", "0.125,3e-06,1e-05,0"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", range(len(TRACE_CSV_COLUMNS)))
def test_trace_csv_rejects_non_finite_value(tmp_path, column, value):
    fields = GOOD_TRACE_ROWS[1].split(",")
    fields[column] = value
    path = write_trace_text(tmp_path, [GOOD_TRACE_ROWS[0], ",".join(fields),
                                       GOOD_TRACE_ROWS[2]])
    name = TRACE_CSV_COLUMNS[column]
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 3: non-finite {name}")):
        read_trace_csv(path)


@pytest.mark.parametrize("row, message", [
    ("0.175,1e-05,0.0014", "row 6 has 3 fields"),
    ("0.175,1e-05,0.0014,1,0", "row 6 has 5 fields"),
    ("0.175,1e-05,x,1", "row 6: chi_rad 'x' is not a number"),
])
def test_trace_csv_rejects_malformed_row_at_its_file_row(tmp_path, row, message):
    """Empty and comment lines, which the loader skips, still count as file rows."""
    path = write_trace_text(tmp_path, GOOD_TRACE_ROWS[:2] + ["", "# note", row,
                                                             GOOD_TRACE_ROWS[2]])
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_trace_csv(path)


@pytest.mark.parametrize("rows", [[], [""], ["# no data", ""]])
def test_trace_csv_without_samples_fails_without_warning(tmp_path, rows):
    path = write_trace_text(tmp_path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no samples")):
            read_trace_csv(path)


def test_trace_columns_must_align():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        PolarimeterTrace(t, np.zeros(3), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        PolarimeterTrace(t[::-1], np.zeros(2), np.zeros(2), np.zeros(2))
