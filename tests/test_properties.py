"""Property tests of phase wrapping, the counts CSV, the fits and demodulation."""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsagnac import (CONSTANTS, InterferometerGeometry, SwitchState,  # noqa: E402
                     demodulate_trace, nlls, simulate_polarimeter, wrap_phase)
from qsagnac.analysis import _HARMONIC, _MODELS  # noqa: E402
from qsagnac.expsim import CountRecord, read_counts_csv, write_counts_csv  # noqa: E402


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=st.floats(-1e6, 1e6))
def test_wrap_phase_lands_in_range_a_whole_turn_away(phi):
    """wrap_phase maps any phase into (-pi, pi] by whole turns, scalar or array."""
    w = wrap_phase(phi)
    assert -math.pi < w <= math.pi
    assert abs(math.remainder(phi - w, 2.0 * math.pi)) <= 1e-9 * (1.0 + abs(phi))
    assert wrap_phase(np.array([phi, phi]))[1] == w


_COUNT = st.integers(0, 10 ** 9)
_RECORD = st.builds(
    CountRecord, theta=st.floats(-math.pi, math.pi), phi0=st.floats(-10.0, 10.0),
    switch=st.sampled_from(SwitchState), duration=st.floats(1e-3, 1e6),
    n_h=_COUNT, n_v=_COUNT, n_hv=_COUNT)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records=st.lists(_RECORD, min_size=1, max_size=8))
def test_counts_csv_round_trip_keeps_printed_precision(records):
    """Reading a counts CSV back keeps every record to its printed precision.

    Counts and switch states come back exactly and floats to the digits the
    file carries, so a second write reproduces the file byte for byte.
    """
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_counts_csv(records, first)
        back = read_counts_csv(first)
        write_counts_csv(back, second)
        assert second.read_text() == first.read_text()
    assert len(back) == len(records)
    for r, b in zip(records, back):
        assert (b.switch, b.n_h, b.n_v, b.n_hv) == (r.switch, r.n_h, r.n_v, r.n_hv)
        assert b.theta == pytest.approx(r.theta, rel=1e-9, abs=1e-300)
        assert b.phi0 == pytest.approx(r.phi0, rel=1e-11, abs=1e-300)
        assert b.duration == pytest.approx(r.duration, rel=1e-9)


@pytest.mark.parametrize("model", ["noon", "single"])
@settings(max_examples=40, deadline=None, derandomize=True)
@example(visibility=1.0, phase=0.5, delta=0.3, asymmetry=0.2)
@given(visibility=st.floats(0.1, 1.0), phase=st.floats(-math.pi, math.pi),
       delta=st.floats(-0.5, 0.5), asymmetry=st.floats(-0.3, 0.3))
def test_set_point_shift_moves_the_fitted_phase_by_k_delta(
        model, visibility, phase, delta, asymmetry):
    """Fringe data taken at x + delta and fit at x have phase + k delta.

    The bootstrap fits every resample on the observed set points and
    subtracts k delta from its phase, which rests on this identity.  The
    other parameters come back as they went in: a noiseless round trip.
    """
    fn, names = _MODELS[model]
    k = _HARMONIC[model]
    x = np.linspace(0.0, 2.0 * math.pi / k, 11)
    truth = {"amplitude": 1e5 if model == "noon" else 0.5, "asymmetry": asymmetry,
             "visibility": visibility, "phase": phase}
    y = fn(np.array([[truth[n]] for n in names]), x + delta)[0][:, 0]
    fit = nlls(model, x, y)
    assert fit.converged
    assert wrap_phase(fit.phase - (phase + k * delta)) == pytest.approx(0.0, abs=1e-9)
    assert fit.visibility == pytest.approx(visibility, rel=1e-9)
    assert fit.amplitude == pytest.approx(truth["amplitude"], rel=1e-9)
    if model == "single":
        assert fit.params["asymmetry"] == pytest.approx(asymmetry, abs=1e-9)


_BENCH_LOOP = InterferometerGeometry.square(
    fiber_length=2000.0, turns=360, effective_area=715.0, wavelength=1546e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), offset=st.floats(-1.0, 1.0),
       column=st.sampled_from(["chi", "psi"]))
def test_constant_polarimeter_offset_moves_phi_s_by_rounding_only(seed, offset, column):
    """A constant added to chi or psi cancels in the demodulated phase.

    demodulate_trace differences the on and off means of each column, so
    the offset moves phi_s only by the rounding of those means.
    """
    trace = simulate_polarimeter(_BENCH_LOOP, CONSTANTS.omega_earth, 120.0, seed=seed)
    values = getattr(trace, column)
    shifted = replace(trace, **{column: values + offset})
    moved = demodulate_trace(shifted).phi_s - demodulate_trace(trace).phi_s
    eps = np.finfo(float).eps
    assert abs(moved) <= 64.0 * eps * (abs(offset) + np.max(np.abs(values)))
