"""Property tests of the fit invariants the bootstrap relies on."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsagnac import nlls, wrap_phase  # noqa: E402
from qsagnac.analysis import _HARMONIC, _MODELS  # noqa: E402


@pytest.mark.parametrize("model", ["noon", "single"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(visibility=st.floats(0.1, 0.99), phase=st.floats(-math.pi, math.pi),
       delta=st.floats(-0.5, 0.5), asymmetry=st.floats(-0.3, 0.3))
def test_set_point_shift_moves_the_fitted_phase_by_k_delta(
        model, visibility, phase, delta, asymmetry):
    """Fringe data taken at x + delta and fit at x have phase + k delta.

    The bootstrap fits every resample on the observed set points and
    subtracts k delta from its phase, which rests on this identity.
    """
    fn, names = _MODELS[model]
    k = _HARMONIC[model]
    x = np.linspace(0.0, 2.0 * math.pi / k, 11)
    truth = {"amplitude": 1e5 if model == "noon" else 0.5, "asymmetry": asymmetry,
             "visibility": visibility, "phase": phase}
    y = fn(np.array([[truth[n] for n in names]]), x + delta)[0][0]
    fit = nlls(model, x, y)
    assert fit.converged
    assert wrap_phase(fit.phase - (phase + k * delta)) == pytest.approx(0.0, abs=1e-9)
    assert fit.visibility == pytest.approx(visibility, rel=1e-9)
