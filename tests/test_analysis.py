import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from oracles import single_model
from qsagnac import NOON2, SINGLE, SwitchState
from qsagnac import analysis
from qsagnac.analysis import (_MODELS, SINGLE_PARAMS, DegenerateDesignError,
                              FitError, FringeFit, UndefinedRatioError,
                              _canonicalize, _cholesky_solve, _edge_distance,
                              _fit_state, _harmonic_solve, _least_squares,
                              _noon_model, _normal_equations, _observations,
                              _resample_fits, _single_model,
                              calibrate_scale_factor, demodulate_trace,
                              enhancement_factor, extract_earth_phase,
                              fit_angle_sweep, fit_switch_pair,
                              group_records_by_angle, mc_uncertainty, nlls,
                              wrap_phase)
from qsagnac.cli import main
from qsagnac.expsim import (PolarimeterTrace, RateConfig, SwitchSchedule,
                            read_counts_csv, simulate_counts,
                            simulate_polarimeter)

OMEGA_E = 7.29e-5
PHI_S = 2.8264857358648266e-3   # loop phase of the 715 m^2 geometry at theta = 0

TIGHT = RateConfig(coincidence_window=1e-15)

SWEEP_DEG = [-87.5, -65.0, -42.5, -20.0, 2.5, 25.0]
SWEEP_RAD = [math.radians(d) for d in SWEEP_DEG]
# measured one-photon and two-photon rotation phases along that sweep, mrad
SINGLE_PHASES = [0.23e-3, 1.00e-3, 2.14e-3, 2.66e-3, 2.77e-3, 2.59e-3]
SINGLE_SIGMAS = [0.21e-3, 0.21e-3, 0.21e-3, 0.25e-3, 0.18e-3, 0.21e-3]
NOON_PHASES = [0.82e-3, 2.28e-3, 3.86e-3, 4.93e-3, 5.51e-3, 5.44e-3]
NOON_SIGMAS = [0.65e-3, 0.65e-3, 0.65e-3, 0.76e-3, 0.54e-3, 0.69e-3]


def noiseless_records(kind, quiet, theta_deg=2.5, n_points=22, duration=1800.0,
                      **kwargs):
    from qsagnac import InterferometerGeometry
    geom = InterferometerGeometry.square(
        fiber_length=2000.0, turns=360, effective_area=715.0,
        wavelength=1546e-9, frame_angle=math.radians(theta_deg))
    span = math.pi if kind is NOON2 else 2.0 * math.pi
    phi0 = np.linspace(0.0, span, n_points, endpoint=False)
    return simulate_counts(kind, geom, list(phi0), OMEGA_E, seed=0,
                           duration_s=duration, noise=quiet, rates=TIGHT,
                           sample_poisson=False, **kwargs)


def make_fit(model, phase, sigma, converged=True):
    names = ("amplitude", "visibility", "phase") if model == "noon" \
        else ("amplitude", "asymmetry", "visibility", "phase")
    params = dict.fromkeys(names, 0.5)
    params["phase"] = phase
    sigmas = dict.fromkeys(names, 1e-4)
    sigmas["phase"] = sigma
    return FringeFit(model=model, params=params, sigmas=sigmas,
                     covariance=np.eye(len(names)), rss=0.0,
                     converged=converged, n_iter=10, n_points=22)


def test_wrap_phase():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == math.pi
    assert wrap_phase(-math.pi) == math.pi
    assert wrap_phase(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert wrap_phase(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
    out = wrap_phase(np.array([0.1, 7.0, -7.0]))
    assert out == pytest.approx([0.1, 7.0 - 2 * math.pi, 2 * math.pi - 7.0])


def test_nlls_recovers_exact_noon_parameters():
    x = np.linspace(0.0, math.pi, 22, endpoint=False)
    truth = (3.5e6, 0.9714, -0.0246)
    y = 0.5 * truth[0] * (1.0 + truth[1] * np.cos(2.0 * x + truth[2]))
    fit = nlls("noon", x, y)
    assert fit.converged
    assert fit.amplitude == pytest.approx(truth[0], rel=1e-10)
    assert fit.visibility == pytest.approx(truth[1], rel=1e-10)
    assert fit.phase == pytest.approx(truth[2], abs=1e-10)


def test_nlls_multistart_reaches_distant_phase():
    x = np.linspace(0.0, math.pi, 22, endpoint=False)
    y = 0.5 * 1e5 * (1.0 + 0.97 * np.cos(2.0 * x + 2.8))
    fit = nlls("noon", x, y)
    assert fit.phase == pytest.approx(2.8, abs=1e-9)


def best_of_starts(model, starts, x, y, w):
    """Reference fit: _least_squares from every start, lowest converged cost wins."""
    fn = _MODELS[model][0]
    p, conv, _ = _least_squares(fn, starts.T, x, y[:, None], w[:, None])
    assert conv.any()
    cost = np.where(conv, np.sum(w[:, None] * (y[:, None] - fn(p, x)[0]) ** 2, axis=0),
                    np.inf)
    best = int(np.argmin(cost))
    return _canonicalize(model, p[:, best:best + 1])[:, 0], cost[best]


def test_noon_closed_form_matches_multistart_lm():
    """The exact noon solve finds the optimum the 8-start search converges to."""
    rng = np.random.default_rng(11)
    for trial in range(24):
        x = np.linspace(0.0, math.pi, 22, endpoint=False) if trial % 2 \
            else np.sort(rng.uniform(0.0, math.pi, 11))
        amp, vis, ph = rng.uniform(1e3, 1e6), rng.uniform(0.1, 1.0), rng.uniform(-math.pi, math.pi)
        y = rng.poisson(0.5 * amp * (1.0 + vis * np.cos(2.0 * x + ph))).astype(float)
        w = 1.0 / np.maximum(y, 1.0)
        lo, hi = y.min(), y.max()
        starts = np.column_stack([
            np.full(8, hi + lo), np.full(8, np.clip((hi - lo) / (hi + lo), 0.05, 1.0)),
            np.linspace(-math.pi, math.pi, 8, endpoint=False)])
        ref = best_of_starts("noon", starts, x, y, w)[0]

        fit = nlls("noon", x, y)
        assert fit.converged and fit.n_iter == 0
        assert wrap_phase(fit.phase - ref[2]) == pytest.approx(0.0, abs=1e-9)
        assert fit.amplitude == pytest.approx(ref[0], rel=1e-8)
        assert fit.visibility == pytest.approx(ref[1], rel=1e-8)


def single_eight_start_fit(x, y, w):
    """Reference fit from 8 blind phase starts."""
    lo, hi = y.min(), y.max()
    starts = np.column_stack([
        np.full(8, np.clip(np.mean(y), 1e-3, 1.0)), np.zeros(8),
        np.full(8, np.clip((hi - lo) / max(hi + lo, 1e-12), 0.05, 1.0)),
        np.linspace(-math.pi, math.pi, 8, endpoint=False)])
    return best_of_starts("single", starts, x, y, w)


def test_single_harmonic_start_matches_eight_start_lm():
    """The fit from the k = 1 harmonic solve reaches the 8-start optimum."""
    rng = np.random.default_rng(12)
    for trial in range(64):
        n = int(rng.integers(8, 25))
        span = math.pi if trial % 2 else 2.0 * math.pi
        x = np.linspace(0.0, span, n) if trial % 4 < 2 \
            else np.sort(np.r_[0.0, span, rng.uniform(0.0, span, n - 2)])
        eta, vis = rng.uniform(-0.5, 0.5), rng.uniform(0.1, 1.0)
        c = np.cos(x + rng.uniform(-math.pi, math.pi))
        p = 0.5 * (1.0 - eta) * (1.0 - vis * c) / (1.0 + eta * vis * c)
        total = rng.uniform(1e3, 1e7)
        y, w = _observations("single", n_h=rng.poisson(total * (1.0 - p)).astype(float),
                             n_v=rng.poisson(total * p).astype(float))
        ref, ref_cost = single_eight_start_fit(x, y, w)

        fit = nlls("single", x, y, weights=w)
        assert fit.converged
        assert fit.rss <= ref_cost * (1.0 + 1e-9)
        for name, value in zip(SINGLE_PARAMS, ref):
            shift = fit.params[name] - value
            if name == "phase":
                shift = wrap_phase(shift)
            assert abs(shift) <= 1e-5 * fit.sigmas[name], (trial, name)


def test_single_base_fit_runs_one_lm_start(monkeypatch, quiet_noise):
    rows = []

    def recording(model, p0, x, y, w):
        rows.append(np.shape(p0)[1])
        return _least_squares(model, p0, x, y, w)

    monkeypatch.setattr(analysis, "_least_squares", recording)
    fit_switch_pair(noiseless_records(SINGLE, quiet_noise), "single")
    assert rows == [1, 1]


@pytest.mark.parametrize("model", ["noon", "single"])
def test_model_jacobian_matches_central_differences(model):
    fn, names = _MODELS[model]
    rng = np.random.default_rng(13)
    n = 64
    x = np.sort(rng.uniform(0.0, 2.0 * math.pi, 15))
    columns = {"amplitude": rng.uniform(0.1, 1e4, n),
               "asymmetry": rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 0.5, n),
               "visibility": rng.uniform(0.1, 1.0, n),
               "phase": rng.uniform(-math.pi, math.pi, n)}
    p = np.array([columns[name] for name in names])
    f, jac = fn(p, x)
    assert f.shape == (len(x), n) and jac.shape == (len(x), len(names), n)
    for j in range(len(names)):
        h = 1e-6 * np.maximum(np.abs(p[j:j + 1]), 1.0)
        up, down = p.copy(), p.copy()
        up[j:j + 1] += h
        down[j:j + 1] -= h
        fd = (fn(up, x)[0] - fn(down, x)[0]) / (2.0 * h)
        scale = np.max(np.abs(fd), axis=0, keepdims=True)
        assert np.all(np.abs(jac[:, j] - fd) <= 1e-6 * scale), names[j]


def random_single_params(rng, n):
    """Rows (av, eta, v, phase) over the ranges the fits meet, and beyond."""
    return np.array([rng.uniform(0.1, 1e4, n),
                     rng.choice([-1.0, 1.0], n) * rng.uniform(0.0, 0.5, n),
                     rng.uniform(0.0, 1.0, n),
                     rng.uniform(-math.pi, math.pi, n)])


@pytest.mark.parametrize("n", [1, 257])
def test_single_model_matches_the_column_formulas(n):
    """The folded model gives the column-by-column f and Jacobian.

    f takes the same operations, so it has the same bits; each Jacobian
    column is within 1e-13 of its largest entry over the set points.
    """
    rng = np.random.default_rng(29)
    x = np.sort(rng.uniform(0.0, 2.0 * math.pi, 13))
    p = random_single_params(rng, n)
    f, jac = _single_model(p, x)
    f_ref, jac_ref = single_model(p, x)
    assert np.array_equal(f, f_ref)
    scale = np.max(np.abs(jac_ref), axis=0)
    assert np.all(np.abs(jac - jac_ref) <= 1e-13 * scale)


def test_normal_matrix_is_symmetric_and_summed_in_set_point_order():
    """The normal matrix is exactly symmetric.

    Its lower triangle, which the Cholesky factor reads, and the gradient
    have the bits of the full products; each column of a 2048-row batch
    has the bits of a one-row call.
    """
    rng = np.random.default_rng(31)
    n, x = 2048, np.linspace(0.0, 2.0 * math.pi, 11)
    f, jac = _single_model(random_single_params(rng, n), x)
    w = rng.uniform(0.1, 1e4, f.shape)
    r = rng.normal(0.0, 1e-2, f.shape)
    a, g = _normal_equations(jac, w, r)
    assert np.array_equal(a, a.transpose(1, 0, 2))
    jw = jac * w[:, None]
    low = np.tril_indices(len(a))
    assert np.array_equal(a[low], np.einsum("mib,mjb->ijb", jw, jac)[low])
    assert np.array_equal(g, np.einsum("mib,mb->ib", jw, r))
    for i in (0, 1, 1000, n - 1):
        one = slice(i, i + 1)
        a1, g1 = _normal_equations(jac[..., one], w[:, one], r[:, one])
        assert np.array_equal(a1, a[..., one]) and np.array_equal(g1, g[:, one])


def test_polished_single_fit_does_not_depend_on_the_lm_path(bench_geometry):
    """The harmonic start and starts 1e-3 sigma away reach one optimum."""
    phi0 = list(np.linspace(0.0, 2.0 * math.pi, 11))
    recs = [r for r in simulate_counts(SINGLE, bench_geometry, phi0, OMEGA_E, seed=3,
                                       duration_s=200.0)
            if r.switch is SwitchState.ON]
    fit, x, counts = _fit_state(recs, "single")
    y, w = _observations("single", **counts)
    p, conv, _ = _least_squares(
        _single_model, _harmonic_solve(x, y[None, :], w[None, :], 1), x,
        y[:, None], w[:, None])
    assert conv[0]
    assert _canonicalize("single", p.copy())[:, 0] == pytest.approx(
        [fit.params[n] for n in SINGLE_PARAMS], rel=1e-15)

    sigma = np.array([fit.sigmas[n] for n in SINGLE_PARAMS])
    rng = np.random.default_rng(5)
    starts = p + (1e-3 * sigma * rng.choice([-1.0, 1.0], (4, len(sigma)))).T
    ends, conv, _ = _least_squares(_single_model, starts, x, y[:, None], w[:, None])
    assert conv.all()
    for end in ends.T:
        assert end == pytest.approx(p[:, 0], rel=1e-12)


@pytest.mark.parametrize("kind", [NOON2, SINGLE], ids=["noon", "single"])
def test_resample_fit_on_shared_set_points_is_shifted_fit(bench_geometry, kind):
    """Fitting at x + delta equals fitting at x and moving the phase by -k delta."""
    model = "noon" if kind is NOON2 else "single"
    span = math.pi if kind is NOON2 else 2.0 * math.pi
    phi0 = list(np.linspace(0.0, span, 11))
    recs = [r for r in simulate_counts(kind, bench_geometry, phi0, OMEGA_E, seed=3,
                                       duration_s=200.0)
            if r.switch is SwitchState.ON]
    fit, x, counts = _fit_state(recs, model)
    rng = np.random.default_rng(4)
    n = 200
    delta = rng.normal(0.0, 0.02, n)
    y, w = _observations(model, **{c: rng.poisson(mu, (n, len(x))).astype(float)
                                   for c, mu in counts.items()})
    p, bad = _resample_fits(fit, x, y, w, delta)
    assert bad == 0

    fn, names = _MODELS[model]
    ip = names.index("phase")
    p0 = np.array([[fit.params[k]] for k in names])
    for i in range(n):
        ref, conv, _ = _least_squares(fn, p0, x + delta[i], y[i][:, None], w[i][:, None])
        assert conv[0]
        ref = _canonicalize(model, ref)[:, 0]
        assert wrap_phase(p[ip, i] - ref[ip]) == pytest.approx(0.0, abs=1e-8)
        assert p[ip, i] - fit.phase == pytest.approx(wrap_phase(p[ip, i] - fit.phase))


def misspecified_resamples(n=256, total=1e3):
    """Base fit and n resamples of a 5-point fringe with a second harmonic.

    total is the expected count of each set point, summed over channels.
    """
    x = np.linspace(0.0, 1.5 * math.pi, 5)
    p = 0.5 * (1.0 - 0.9 * np.cos(x) + 0.1 * np.cos(2.0 * x))
    mu = {"n_h": total * (1.0 - p), "n_v": total * p}
    y0, w0 = _observations("single", **mu)
    fit = nlls("single", x, y0, weights=w0)
    rng = np.random.default_rng(0)
    y, w = _observations("single", **{c: rng.poisson(m, (n, len(x))).astype(float)
                                      for c, m in mu.items()})
    return fit, x, y, w


def test_resamples_whose_undamped_step_is_refused_reach_their_optimum():
    """Rows that need damping still end at their optimum, not at a cost stop."""
    fit, x, y, w = misspecified_resamples(total=300.0)
    p0 = np.array([[fit.params[n]] for n in SINGLE_PARAMS]).repeat(len(y), axis=1)
    f, jac = _single_model(p0, x)
    a, g = _normal_equations(jac, w.T, y.T - f)
    step = np.linalg.solve(a.transpose(2, 0, 1), g.T[..., None])[..., 0].T
    f1 = _single_model(p0 + step, x)[0]
    refused = np.flatnonzero(np.sum(w.T * (y.T - f1) ** 2, axis=0)
                             > np.sum(w.T * (y.T - f) ** 2, axis=0))
    assert 0 < refused.size < 20

    # slow rows outlast the steps taken on the whole batch and are gathered;
    # every row still ends as a solve of its own would
    q, _, n_iter = _least_squares(_single_model, p0, x, y.T, w.T)
    assert n_iter.max() > analysis._FULL_STEPS
    for i in range(len(y)):
        alone, _, alone_n_iter = _least_squares(
            _single_model, p0[:, :1], x, y[i][:, None], w[i][:, None])
        assert np.array_equal(alone[:, 0], q[:, i]) and alone_n_iter[0] == n_iter[i]

    p, bad = _resample_fits(fit, x, y, w, np.zeros(len(y)))
    assert bad == 0
    sigma = np.array([fit.sigmas[n] for n in SINGLE_PARAMS])
    rng = np.random.default_rng(5)
    for i in refused:
        starts = p[:, i:i + 1] + (1e-3 * sigma * rng.choice([-1.0, 1.0], (4, len(sigma)))).T
        ends, conv, _ = _least_squares(_single_model, starts, x, y[i][:, None], w[i][:, None])
        assert conv.all()
        for end in _canonicalize("single", ends).T:
            shift = p[:, i] - end
            shift[3] = wrap_phase(shift[3])
            assert np.all(np.abs(shift) <= 1e-9 * sigma), i


def test_singular_row_leaves_the_rest_of_its_block_fit():
    """A row of zero weight does not change the bits of the other rows.

    The seven rows alone keep every step of their first six, so they are
    rebound to the trial arrays; beside the refused row they are copied in
    by mask, with the same results.
    """
    fit, x, y, w = misspecified_resamples(n=8)
    w[3] = 0.0   # a zero normal matrix: np.linalg.solve fails on the block
    others = np.arange(8) != 3
    p0 = np.array([[fit.params[n]] for n in SINGLE_PARAMS])
    q, conv, n_iter = _least_squares(_single_model, p0.repeat(8, axis=1), x, y.T, w.T)
    alone, alone_conv, alone_n_iter = _least_squares(
        _single_model, p0.repeat(7, axis=1), x, y[others].T, w[others].T)
    assert not conv[3]
    assert np.array_equal(conv[others], alone_conv)
    assert np.array_equal(n_iter[others], alone_n_iter)
    assert np.array_equal(q[:, others], alone)

    p, bad = _resample_fits(fit, x, y, w, np.zeros(8))
    assert bad == 1
    assert np.array_equal(p[:, others], _resample_fits(fit, x, y[others], w[others],
                                                       np.zeros(7))[0])



def test_resample_blocks_fit_as_one_unblocked_solve(monkeypatch):
    """Blocks of _GN_BLOCK rows give the bits of one solve of every row.

    Two full blocks and one of three rows; slow rows are gathered in each
    block, and a row of zero weight in the short block does not converge.
    """
    block = 64
    fit, x, y, w = misspecified_resamples(n=2 * block + 3, total=300.0)
    w[2 * block + 1] = 0.0
    p0 = np.array([[fit.params[n]] for n in SINGLE_PARAMS])
    q, conv, n_iter = _least_squares(_single_model, p0, x, y.T, w.T)
    assert n_iter.max() > analysis._FULL_STEPS and not conv[2 * block + 1]
    _canonicalize("single", q)
    q[3] = fit.phase + wrap_phase(q[3] - fit.phase)

    flags = []

    def recording(model, p, x, y, w):
        out = _least_squares(model, p, x, y, w)
        flags.append(out[1])
        return out

    monkeypatch.setattr(analysis, "_GN_BLOCK", block)
    monkeypatch.setattr(analysis, "_least_squares", recording)
    p, bad = _resample_fits(fit, x, y, w, np.zeros(len(y)))
    assert [len(f) for f in flags] == [block, block, 3]
    assert np.array_equal(p, q)
    assert np.array_equal(np.concatenate(flags), conv)
    assert bad == np.count_nonzero(~conv) == 1

def test_cholesky_solve_matches_lu_and_flags_non_positive_pivots():
    """The unrolled Cholesky solve agrees with np.linalg.solve.

    Column scales spread over 1e5, as counts against radians do.  A zero or
    an indefinite matrix comes back non-finite, which sends its row to LU.
    """
    rng = np.random.default_rng(21)
    for n in (3, 4):
        m = rng.normal(size=(512, 12, n)) * np.logspace(0, 5, n)
        a = np.swapaxes(m, 1, 2) @ m
        g = rng.normal(size=(512, n))
        # the solver's layout: the batch is the last axis
        a_t, g_t = np.ascontiguousarray(a.transpose(1, 2, 0)), np.ascontiguousarray(g.T)
        d = _cholesky_solve(a_t, g_t)
        np.testing.assert_allclose(d, np.linalg.solve(a, g[..., None])[..., 0].T,
                                   rtol=1e-11, atol=0)
        # every batch width, one row included, takes the same elementwise
        # arithmetic and gets the bits of the whole batch
        for width in (1, 2, 3, 4):
            for i in range(0, 512, 64):
                assert np.array_equal(
                    _cholesky_solve(a_t[..., i:i + width], g_t[:, i:i + width]),
                    d[:, i:i + width])
    bad = np.stack([np.zeros((4, 4)), np.diag([1.0, -1.0, 1.0, 1.0])])
    for rows in (2, 8):
        d = _cholesky_solve(np.resize(bad, (rows, 4, 4)).transpose(1, 2, 0),
                            np.ones((4, rows)))
        assert not np.isfinite(d).all(axis=0).any()


def test_one_shared_start_row_fits_as_that_row_repeated():
    fit, x, y, w = misspecified_resamples(total=300.0)
    p0 = np.array([[fit.params[n]] for n in SINGLE_PARAMS])
    shared = _least_squares(_single_model, p0, x, y.T, w.T)
    repeated = _least_squares(_single_model, p0.repeat(len(y), axis=1), x, y.T, w.T)
    for s, r in zip(shared, repeated):
        assert np.array_equal(s, r)


def test_single_model_by_angle_addition_matches_the_direct_form():
    rng = np.random.default_rng(22)
    x = np.sort(rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 15))
    av, eta, v, ph = (rng.uniform(lo, hi, (256, 1)) for lo, hi in
                      ((0.1, 1.0), (-0.5, 0.5), (0.1, 1.0), (-math.pi, math.pi)))
    f, jac = _single_model(np.column_stack([av, eta, v, ph]).T, x)
    c, s = np.cos(x + ph), np.sin(x + ph)
    inv = 1.0 / (1.0 + eta * v * c)
    direct = av * (1.0 - v * c) * inv
    dphase = av * v * (1.0 + eta) * s * inv * inv
    assert np.max(np.abs(f.T - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert np.max(np.abs(jac[:, 3].T - dphase)) <= 1e-12 * np.max(np.abs(dphase))


def test_noiseless_fits_converge_at_the_rounding_floor():
    """Noiseless fits of 1e18 counts still converge.

    Their cost is all rounding, and their steps stall above _STEP_TOL.
    """
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(5, 25))
        x = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        eta, vis = rng.uniform(-0.5, 0.5), rng.uniform(0.1, 1.0)
        phase = rng.uniform(-math.pi, math.pi)
        p = _single_model(np.array([[0.5 * (1.0 - eta)], [eta], [vis], [phase]]), x)[0][:, 0]
        y, w = _observations("single", n_h=1e18 * (1.0 - p), n_v=1e18 * p)
        fit = nlls("single", x, y, weights=w)
        assert fit.converged
        assert abs(wrap_phase(fit.phase - phase)) <= 1e-6 * fit.sigmas["phase"]


def test_linearly_converging_fit_stops_on_its_cost():
    """A large-residual fit converges within the step budget.

    Its data carry an unmodelled second harmonic, so its steps shrink only
    linearly; it stops on the relative cost change.
    """
    x = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    p = np.clip(0.5 * (1.0 - 0.8 * np.cos(x + 0.3)) + 0.2 * np.cos(2.0 * x + 2.0),
                1e-3, 1.0 - 1e-3)
    y, w = _observations("single", n_h=1e4 * (1.0 - p), n_v=1e4 * p)
    assert nlls("single", x, y, weights=w).converged


def _exact_inverse(a):
    """Inverse of a float matrix in exact rational arithmetic, rounded once."""
    n = len(a)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [vr - rows[r][c] * vc for vr, vc in zip(rows[r], rows[c])]
    return np.array([[float(v) for v in row[n:]] for row in rows])


def test_covariance_is_the_symmetric_inverse_of_its_normal_matrix(tmp_path):
    """fig3_tables12 noon, fourth angle, loop switched out: raw condition 2.2e13.

    Inverting the raw normal matrix left covariance[0][2] and [2][0] 2.2e-6
    relative apart; in unit-diagonal form the inverse is symmetric and within
    rounding of the exact inverse of J^T W J at the fitted parameters.
    """
    config = str(resources.files("qsagnac") / "recipes" / "fig3_tables12.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    records = [r for r in list(group_records_by_angle(
        read_counts_csv(str(tmp_path / "counts_noon.csv"))).values())[3]
        if r.switch is SwitchState.OFF]
    fit = _fit_state(records, "noon")[0]
    x = np.array([r.phi0 for r in records])
    y, w = _observations("noon", n_hv=np.array([r.n_hv for r in records], dtype=float))
    jac = _noon_model(np.array([[fit.params[n]] for n in _MODELS["noon"][1]]), x)[1][..., 0]
    a = (jac * w[:, None]).T @ jac
    assert np.linalg.cond(a) > 1e13
    assert np.array_equal(fit.covariance, fit.covariance.T)
    np.testing.assert_allclose(fit.covariance, _exact_inverse(a), rtol=1e-10, atol=0)


def test_nlls_validation():
    x = np.linspace(0.0, math.pi, 8)
    y = np.ones(8)
    with pytest.raises(ValueError):
        nlls("gauss", x, y)
    with pytest.raises(ValueError):
        nlls("noon", x, y[:-1])
    with pytest.raises(ValueError):
        nlls("noon", x, np.r_[y[:-1], np.nan])


def test_noon_fit_round_trip(quiet_noise):
    recs = [r for r in noiseless_records(NOON2, quiet_noise, visibility=0.9714)
            if r.switch is SwitchState.ON]
    fit = _fit_state(recs, "noon")[0]
    phi_s = PHI_S * math.cos(math.radians(2.5))
    assert fit.visibility == pytest.approx(0.9714, abs=1e-6)
    assert fit.phase == pytest.approx(wrap_phase(-2.0 * phi_s), abs=1e-6)
    assert fit.amplitude == pytest.approx(4000.0 * 1800.0 * 0.498, rel=1e-6)


def test_single_fit_round_trip(quiet_noise):
    recs = [r for r in noiseless_records(SINGLE, quiet_noise)
            if r.switch is SwitchState.ON]
    fit = _fit_state(recs, "single")[0]
    phi_s = PHI_S * math.cos(math.radians(2.5))
    assert fit.params["asymmetry"] == pytest.approx(0.0, abs=1e-6)
    assert fit.visibility == pytest.approx(1.0, abs=1e-6)
    assert fit.phase == pytest.approx(wrap_phase(-phi_s), abs=1e-6)


def test_single_fit_reads_channel_asymmetry(quiet_noise):
    """Detection arms with a 1.2:1 efficiency ratio give asymmetry 1/11."""
    recs = [r for r in noiseless_records(SINGLE, quiet_noise,
                                         channel_asymmetry=1 / 11)
            if r.switch is SwitchState.ON]
    fit = _fit_state(recs, "single")[0]
    assert fit.params["asymmetry"] == pytest.approx(1 / 11, abs=1e-6)
    assert fit.params["amplitude"] == pytest.approx(5 / 11, abs=1e-6)


def test_flat_fringe_is_degenerate(quiet_noise):
    recs = [r for r in noiseless_records(NOON2, quiet_noise, visibility=0.0)
            if r.switch is SwitchState.ON]
    with pytest.raises(DegenerateDesignError):
        _fit_state(recs, "noon")


@pytest.mark.parametrize("model", ["noon", "single"])
def test_noon_set_points_at_multiples_of_half_pi_are_degenerate(model):
    """sin kx vanishes at x = m pi/k (k = 2 noon, 1 single), so cos and sin
    of the phase are not separable."""
    rng = np.random.default_rng(0)
    k = 2.0 if model == "noon" else 1.0
    x = np.arange(8) * (math.pi / k)
    for vis, ph in ((0.9, 0.3), (0.5, -2.0), (0.97, 1.2)):
        c = np.cos(k * x + ph)
        if model == "noon":
            mu = 0.5 * 1e5 * (1.0 + vis * c)
            data = [(y, 1.0 / np.maximum(y, 1.0))
                    for y in (mu, rng.poisson(mu).astype(float))]
        else:
            p = 0.45 * (1.0 - vis * c) / (1.0 + 0.1 * vis * c)
            data = [_observations("single", n_h=n_h, n_v=n_v) for n_h, n_v in (
                (1e5 * (1.0 - p), 1e5 * p),
                (rng.poisson(1e5 * (1.0 - p)).astype(float),
                 rng.poisson(1e5 * p).astype(float)))]
        for y, w in data:
            with pytest.raises(DegenerateDesignError):
                nlls(model, x, y, weights=w)
            with pytest.raises(DegenerateDesignError):
                nlls(model, x[:5], y[:5], weights=w[:5])


def test_noon_records_at_multiples_of_half_pi_are_degenerate():
    from qsagnac.expsim import CountRecord
    x = np.arange(5) * (math.pi / 2.0)
    y = np.round(0.5 * 1e5 * (1.0 + 0.9 * np.cos(2.0 * x + 0.3)))
    recs = [CountRecord(theta=0.0, phi0=float(p), switch=SwitchState.ON,
                        duration=1.0, n_h=0, n_v=0, n_hv=int(v))
            for p, v in zip(x, y)]
    with pytest.raises(DegenerateDesignError):
        _fit_state(recs, "noon")


def test_narrow_span_is_degenerate(quiet_noise):
    recs = [r for r in noiseless_records(NOON2, quiet_noise)
            if r.switch is SwitchState.ON and r.phi0 < math.pi / 4]
    with pytest.raises(DegenerateDesignError):
        _fit_state(recs, "noon")
    recs = [r for r in noiseless_records(SINGLE, quiet_noise)
            if r.switch is SwitchState.ON and r.phi0 < 0.9 * math.pi]
    with pytest.raises(DegenerateDesignError):
        _fit_state(recs, "single")


def test_record_set_hygiene(quiet_noise):
    recs = noiseless_records(NOON2, quiet_noise)
    with pytest.raises(ValueError, match="switch"):
        _fit_state(recs, "noon")
    ons = [r for r in recs if r.switch is SwitchState.ON]
    with pytest.raises(ValueError, match="angle"):
        _fit_state(ons[:11] + [replace(r, theta=0.0) for r in ons[11:]], "noon")
    with pytest.raises(DegenerateDesignError, match="set points"):
        _fit_state(ons[:4], "noon")
    with pytest.raises(ValueError):
        _fit_state([], "noon")
    with pytest.raises(TypeError):
        _fit_state([(0.0, 1, 2, 3)], "noon")
    # checked before the count columns are looked up, which would raise KeyError
    with pytest.raises(ValueError, match="unknown fringe model"):
        _fit_state(ons, "gauss")


def test_earth_phase_from_switch_difference():
    on = make_fit("noon", -24.60e-3, 4.92e-3)
    off = make_fit("noon", -19.09e-3, 4.92e-3)
    res = extract_earth_phase(on, off)
    assert res.phi_e == pytest.approx(5.51e-3, abs=1e-15)
    assert res.phi_e_sigma == pytest.approx(math.hypot(4.92e-3, 4.92e-3))
    assert res.model == "noon"


def test_earth_phase_zero_when_states_agree():
    f = make_fit("single", 0.7, 1e-3)
    assert extract_earth_phase(f, f).phi_e == 0.0


def test_earth_phase_wraps_across_the_cut():
    on = make_fit("noon", 3.1, 1e-3)
    off = make_fit("noon", -3.1, 1e-3)
    res = extract_earth_phase(on, off)
    assert res.phi_e == pytest.approx(2.0 * math.pi - 6.2, abs=1e-12)


def test_earth_phase_rejects_bad_inputs():
    good = make_fit("noon", 0.0, 1e-3)
    with pytest.raises(FitError):
        extract_earth_phase(good, make_fit("noon", 0.1, 1e-3, converged=False))
    with pytest.raises(ValueError):
        extract_earth_phase(good, make_fit("single", 0.1, 1e-3))


def test_switch_pair_end_to_end(quiet_noise):
    recs = noiseless_records(NOON2, quiet_noise)
    fit_on, fit_off, earth = fit_switch_pair(recs, "noon")
    phi_s = PHI_S * math.cos(math.radians(2.5))
    assert earth.phi_e == pytest.approx(2.0 * phi_s, abs=1e-6)
    assert fit_off.phase == pytest.approx(0.0, abs=1e-6)
    assert fit_on.converged and fit_off.converged


def test_switch_pair_needs_both_states(quiet_noise):
    recs = noiseless_records(NOON2, quiet_noise)
    ons = [r for r in recs if r.switch is SwitchState.ON]
    with pytest.raises(ValueError, match="both switch states"):
        fit_switch_pair(ons, "noon")


def test_mc_needs_both_states(quiet_noise):
    recs = noiseless_records(NOON2, quiet_noise, duration=100.0)
    offs = [r for r in recs if r.switch is SwitchState.OFF]
    with pytest.raises(ValueError, match="both switch states"):
        mc_uncertainty(offs, "noon", n_samples=100, seed=0)


def test_common_bias_offset_cancels_in_earth_phase(quiet_noise):
    """A rigid shift of every set point moves both fits, not their difference."""
    recs = noiseless_records(NOON2, quiet_noise)
    shifted = [replace(r, phi0=r.phi0 + 0.37) for r in recs]
    e0 = fit_switch_pair(recs, "noon")[2].phi_e
    e1 = fit_switch_pair(shifted, "noon")[2].phi_e
    assert e1 == pytest.approx(e0, abs=1e-9)


def test_realistic_extraction_within_three_sigma(bench_geometry):
    geom = replace(bench_geometry, frame_angle=math.radians(2.5))
    phi0 = list(np.linspace(0.0, math.pi, 22, endpoint=False))
    recs = simulate_counts(NOON2, geom, phi0, OMEGA_E, seed=42)
    mc = mc_uncertainty(recs, "noon", n_samples=2000, seed=1)
    fit_on, fit_off = mc.fits
    earth = extract_earth_phase(fit_on, fit_off, mc=mc)
    truth = 2.0 * PHI_S * math.cos(math.radians(2.5))
    assert abs(earth.phi_e - truth) < 3.0 * earth.phi_e_sigma
    assert earth.phi_e_sigma < 1e-3


def test_mc_is_deterministic(quiet_noise):
    recs = noiseless_records(NOON2, quiet_noise, duration=100.0)
    a = mc_uncertainty(recs, "noon", n_samples=400, seed=5)
    b = mc_uncertainty(recs, "noon", n_samples=400, seed=5)
    assert a.phi_e_sigma == b.phi_e_sigma
    assert a.param_means == b.param_means


def test_fit_command_fits_each_switch_state_once(tmp_path, monkeypatch):
    """fit takes its base fits from the bootstrap: one _fit_state per state."""
    config = str(resources.files("qsagnac") / "recipes" / "fig2.json")
    out = str(tmp_path)
    assert main(["simulate", "--config", config, "--out", out]) == 0
    calls = []

    def counted(records, model):
        calls.append(model)
        return _fit_state(records, model)

    monkeypatch.setattr(analysis, "_fit_state", counted)
    assert main(["fit", "--config", config, "--out", out, "--fast"]) == 0
    # one angle, two kinds, two switch states
    assert sorted(calls) == ["noon", "noon", "single", "single"]


@pytest.mark.parametrize("model", ["noon", "single"])
def test_mc_returns_the_fits_of_fit_switch_pair(tmp_path, model):
    config = str(resources.files("qsagnac") / "recipes" / "fig2.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    recs = read_counts_csv(str(tmp_path / f"counts_{model}.csv"))
    mc = mc_uncertainty(recs, model, n_samples=50, seed=1)
    for got, want in zip(mc.fits, fit_switch_pair(recs, model)[:2]):
        assert got.params == want.params
        assert np.array_equal(got.covariance, want.covariance)
    assert "fits" not in repr(mc)


def test_mc_matches_fisher_information_without_motor_noise(quiet_noise):
    """Poisson-only bootstrap spread agrees with the fit covariance."""
    recs = noiseless_records(NOON2, quiet_noise, duration=100.0)
    ons = [r for r in recs if r.switch is SwitchState.ON]
    fisher = _fit_state(ons, "noon")[0].sigmas["phase"]
    mc = mc_uncertainty(recs, "noon", n_samples=20_000, motor_sigma=0.0, seed=2)
    assert mc.param_sigmas["on"]["phase"] == pytest.approx(fisher, rel=0.10)
    assert mc.nonconverged_fraction == 0.0


def test_mc_rejects_common_mode_motor_noise(quiet_noise):
    """Set-point noise inflates each state's phase but not their difference."""
    recs = noiseless_records(NOON2, quiet_noise, duration=100.0)
    mc = mc_uncertainty(recs, "noon", n_samples=4000, motor_sigma=2.4e-3, seed=3)
    k = 2.0
    assert mc.param_sigmas["on"]["phase"] == pytest.approx(
        k * 2.4e-3, rel=0.15)
    assert mc.phi_e_sigma < 0.3 * mc.param_sigmas["on"]["phase"]


def test_mc_validation(quiet_noise):
    recs = noiseless_records(NOON2, quiet_noise, duration=100.0)
    with pytest.raises(ValueError):
        mc_uncertainty(recs, "gauss", n_samples=100)
    with pytest.raises(ValueError):
        mc_uncertainty(recs, "noon", n_samples=1)


def test_demod_noiseless_is_exact(bench_geometry, quiet_noise):
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 600.0, seed=3,
                                 noise=quiet_noise)
    res = demodulate_trace(trace)
    assert res.phi_s == pytest.approx(PHI_S, rel=1e-12)
    assert res.delta_psi == 0.0


def test_demod_collects_leaked_signal(bench_geometry):
    from qsagnac.expsim import NoiseConfig
    noise = NoiseConfig(dark_rate=0.0, motor_sigma=0.0, drift_rate=0.0,
                        walk_sigma=0.0, polarimeter_sigma=0.0,
                        leakage_fraction=0.3)
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 600.0, seed=3,
                                 noise=noise)
    res = demodulate_trace(trace)
    assert res.phi_s == pytest.approx(PHI_S, rel=1e-12)
    assert res.delta_psi != 0.0


def test_demod_rejects_linear_drift(bench_geometry):
    from qsagnac.expsim import NoiseConfig
    noise = NoiseConfig(dark_rate=0.0, motor_sigma=0.0, drift_rate=1e-6,
                        walk_sigma=0.0, polarimeter_sigma=0.0,
                        leakage_fraction=0.0)
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 600.0, seed=3,
                                 noise=noise)
    res = demodulate_trace(trace)
    # drift of 1e-6 rad/s across a 10 s switch period leaks only ~ -drift * period
    assert res.phi_s == pytest.approx(PHI_S, abs=1e-5)
    assert res.phi_s == pytest.approx(PHI_S, rel=3e-3)


def test_demod_rejects_slow_sine(bench_geometry, quiet_noise):
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 600.0, seed=3,
                                 noise=quiet_noise)
    slow = 1e-3 * np.sin(2.0 * math.pi * 0.005 * trace.t)
    bent = PolarimeterTrace(trace.t, trace.psi, trace.chi + slow, trace.drive)
    res = demodulate_trace(bent)
    assert res.phi_s == pytest.approx(PHI_S, abs=1e-7)


def test_edge_distance_equals_samples_by_edges_minimum():
    rng = np.random.default_rng(17)
    for _ in range(20):
        period = rng.uniform(1.0, 5.0)
        duty = rng.uniform(0.2, 0.8)
        t = np.cumsum(rng.uniform(0.05, 0.3, int(rng.integers(40, 400))))
        drive = (np.mod(t, period) < duty * period).astype(float)
        flips = np.flatnonzero(drive[1:] != drive[:-1])
        edges = 0.5 * (t[flips] + t[flips + 1])
        brute = np.min(np.abs(t[:, None] - edges[None, :]), axis=1)
        assert np.array_equal(_edge_distance(t, edges), brute)


def test_demod_memory_is_linear_in_trace_length(bench_geometry):
    # 48k samples, 480 edges: a samples x edges array would take 184 MB
    schedule = SwitchSchedule(duty=0.4, transition_halfwidth=0.2)
    trace = simulate_polarimeter(bench_geometry, OMEGA_E, 2400.0, seed=3,
                                 schedule=schedule)
    assert len(trace.t) == 48_000
    tracemalloc.start()
    try:
        demodulate_trace(trace, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_demod_validation():
    t = np.arange(8) + 0.5
    zeros = np.zeros(8)
    with pytest.raises(ValueError, match="never switches"):
        demodulate_trace(PolarimeterTrace(t, zeros, zeros, np.ones(8)))
    with pytest.raises(ValueError, match="fewer than two"):
        demodulate_trace(PolarimeterTrace(
            t, zeros, zeros, np.array([1.0, 1, 0, 0, 1, 1, 0, 0])))
    with pytest.raises(ValueError, match="too short"):
        demodulate_trace(PolarimeterTrace(t[:3], zeros[:3], zeros[:3], zeros[:3]))


def test_calibration_exact_on_clean_input(monkeypatch):
    monkeypatch.setattr(analysis, "_ANGLE_HALFWIDTH", 0.0)
    s_true = 40.0
    angles = np.radians([-90.0, -60.0, -30.0, 0.0, 30.0])
    phases = s_true * OMEGA_E * np.cos(angles)
    res = calibrate_scale_factor(angles, phases, np.full(5, 1e-15),
                                 omega_earth=OMEGA_E, n_samples=64, seed=0)
    assert res.scale_factor == pytest.approx(s_true, abs=1e-8)
    assert res.theta_offset == pytest.approx(0.0, abs=1e-8)
    assert res.scale_factor_sigma == pytest.approx(0.0, abs=1e-8)


def test_calibration_finds_mount_offset(monkeypatch):
    monkeypatch.setattr(analysis, "_ANGLE_HALFWIDTH", 0.0)
    angles = np.radians([-90.0, -60.0, -30.0, 0.0, 30.0])
    phases = 40.0 * OMEGA_E * np.cos(angles + math.radians(10.0))
    res = calibrate_scale_factor(angles, phases, np.full(5, 1e-15),
                                 omega_earth=OMEGA_E, n_samples=64, seed=0)
    assert res.theta_offset == pytest.approx(math.radians(10.0), abs=1e-8)


def test_calibration_on_measured_phases():
    """Demodulated phases at six mount angles put the scale factor near 38.8."""
    angles = np.radians([-90.0, -67.5, -45.0, -22.5, 0.0, 22.5])
    phases = np.array([1.481e-06, 0.0010837959, 0.0020011126, 0.0026137781,
                       0.0028285196, 0.0026126446])
    res = calibrate_scale_factor(angles, phases, np.full(6, 2e-5),
                                 omega_earth=OMEGA_E, n_samples=2000, seed=7)
    assert abs(res.scale_factor - 38.8) < 0.15
    assert abs(res.theta_offset) < math.radians(0.5)
    assert res.scale_factor_sigma < 0.2


def test_calibration_is_deterministic():
    angles = np.radians([-90.0, -45.0, 0.0])
    phases = 38.0 * OMEGA_E * np.cos(angles)
    a = calibrate_scale_factor(angles, phases, np.full(3, 1e-5), seed=11)
    b = calibrate_scale_factor(angles, phases, np.full(3, 1e-5), seed=11)
    assert a.scale_factor == b.scale_factor


def test_calibration_validation():
    with pytest.raises(DegenerateDesignError):
        calibrate_scale_factor([0.0, 0.1], [1e-3, 1e-3], [1e-5, 1e-5])
    with pytest.raises(DegenerateDesignError):
        calibrate_scale_factor(np.radians([0.0, 1.0, 2.0]), np.ones(3) * 1e-3,
                               np.full(3, 1e-5))
    with pytest.raises(ValueError):
        calibrate_scale_factor([0.0, 0.5, 1.0], [1, 2, 3], [1e-5, 0.0, 1e-5])
    with pytest.raises(ValueError):
        calibrate_scale_factor([0.0, 0.5, 1.0], [1, 2], [1e-5, 1e-5])
    with pytest.raises(ValueError):
        calibrate_scale_factor([0.0, 0.5, 1.0], [1, 2, 3], [1e-5] * 3,
                               n_samples=1)
    # a zero rate gave S = inf, a negative one a negative scale factor
    for omega in (0.0, -OMEGA_E):
        with pytest.raises(ValueError, match="omega_earth must be positive"):
            calibrate_scale_factor([0.0, 0.5, 1.0], [1e-3, 2e-3, 3e-3],
                                   [1e-5] * 3, omega_earth=omega)


@pytest.mark.parametrize("deg", [(0.0, 180.0, 360.0), (90.0, 270.0, 450.0)],
                         ids=["cos-only", "sin-only"])
def test_angle_sets_at_multiples_of_pi_are_degenerate(deg):
    """Three distinct angles that leave sin (or cos) at rounding noise."""
    angles = np.radians(deg)
    phases = 38.8 * OMEGA_E * np.cos(angles) + np.array([1e-5, -2e-5, 1.5e-5])
    sigmas = np.full(3, 2e-5)
    with pytest.raises(DegenerateDesignError, match="separate"):
        fit_angle_sweep(angles, phases, sigmas, 38.8)
    with pytest.raises(DegenerateDesignError, match="separate"):
        calibrate_scale_factor(angles, phases, sigmas, omega_earth=OMEGA_E,
                               n_samples=64, seed=0)


def test_angle_sweep_fit_one_photon_table():
    fit = fit_angle_sweep(SWEEP_RAD, SINGLE_PHASES, SINGLE_SIGMAS,
                          scale_factor_s=38.8, enhancement=1)
    assert fit.amplitude == pytest.approx(0.002805483350375658, rel=1e-12)
    assert fit.amplitude_sigma == pytest.approx(0.00011520732342538154, rel=1e-12)
    assert fit.omega == pytest.approx(7.23062719168984e-05, rel=1e-12)
    assert fit.omega_sigma == pytest.approx(2.9692609130252976e-06, rel=1e-12)
    assert math.degrees(fit.theta_offset) == pytest.approx(-0.1987, abs=1e-3)
    # the recovered rate agrees with the true one inside one sigma
    assert abs(fit.omega - OMEGA_E) < fit.omega_sigma


def test_angle_sweep_fit_two_photon_table():
    fit = fit_angle_sweep(SWEEP_RAD, NOON_PHASES, NOON_SIGMAS,
                          scale_factor_s=38.8, enhancement=2)
    assert fit.amplitude == pytest.approx(0.005510752165999654, rel=1e-12)
    assert fit.amplitude_sigma == pytest.approx(0.00035555015775651244, rel=1e-12)
    assert fit.omega == pytest.approx(7.101484749999555e-05, rel=1e-12)
    assert fit.omega_sigma == pytest.approx(4.581831929851964e-06, rel=1e-12)
    assert math.degrees(fit.theta_offset) == pytest.approx(0.6939, abs=1e-3)
    assert abs(fit.omega - OMEGA_E) < fit.omega_sigma


def test_angle_sweep_fit_exact_recovery():
    m, off = 5.6e-3, math.radians(3.0)
    phases = m * np.cos(np.array(SWEEP_RAD) + off)
    fit = fit_angle_sweep(SWEEP_RAD, phases, np.full(6, 1e-5),
                          scale_factor_s=38.8, enhancement=2)
    assert fit.amplitude == pytest.approx(m, rel=1e-10)
    assert fit.theta_offset == pytest.approx(off, abs=1e-10)
    assert fit.omega == pytest.approx(m / (2 * 38.8), rel=1e-10)


def test_angle_sweep_doubled_response_same_rate():
    """Twice the phase response with enhancement 2 reads the same rate."""
    single = 2.8e-3 * np.cos(SWEEP_RAD)
    fit1 = fit_angle_sweep(SWEEP_RAD, single, np.full(6, 1e-5), 38.8,
                           enhancement=1)
    fit2 = fit_angle_sweep(SWEEP_RAD, 2.0 * single, np.full(6, 1e-5), 38.8,
                           enhancement=2)
    assert fit2.amplitude == pytest.approx(2.0 * fit1.amplitude, rel=1e-12)
    assert fit2.omega == pytest.approx(fit1.omega, rel=1e-12)


def test_angle_sweep_fit_validation():
    with pytest.raises(ValueError):
        fit_angle_sweep(SWEEP_RAD, NOON_PHASES, [0.0] * 6, 38.8)
    with pytest.raises(ValueError):
        fit_angle_sweep(SWEEP_RAD, NOON_PHASES, NOON_SIGMAS, -1.0)
    with pytest.raises(ValueError):
        fit_angle_sweep(SWEEP_RAD, NOON_PHASES, NOON_SIGMAS, 38.8,
                        enhancement=0)
    with pytest.raises(DegenerateDesignError):
        fit_angle_sweep([0.0, 0.1], [1e-3, 1e-3], [1e-4, 1e-4], 38.8)


def test_enhancement_factor_from_sweep_amplitudes():
    fit1 = fit_angle_sweep(SWEEP_RAD, SINGLE_PHASES, SINGLE_SIGMAS, 38.8, 1)
    fit2 = fit_angle_sweep(SWEEP_RAD, NOON_PHASES, NOON_SIGMAS, 38.8, 2)
    value, sigma = enhancement_factor(
        (fit2.amplitude, fit2.amplitude_sigma),
        (fit1.amplitude, fit1.amplitude_sigma))
    assert value == pytest.approx(1.9642790484790285, rel=1e-12)
    assert sigma == pytest.approx(0.15022671277493918, rel=1e-12)


def test_enhancement_factor_arithmetic():
    value, sigma = enhancement_factor((5.5e-3, 0.4e-3), (2.8e-3, 0.1e-3))
    assert value == pytest.approx(55.0 / 28.0, rel=1e-12)
    assert sigma == pytest.approx(0.15915280476470764, rel=1e-12)
    value, sigma = enhancement_factor((2.8e-3, 0.0), (2.8e-3, 0.0))
    assert value == 1.0 and sigma == 0.0


def test_enhancement_factor_needs_a_nonzero_denominator():
    with pytest.raises(UndefinedRatioError):
        enhancement_factor((5.5e-3, 0.4e-3), (0.2e-3, 0.1e-3))
    with pytest.raises(ValueError):
        enhancement_factor((5.5e-3, -0.4e-3), (2.8e-3, 0.1e-3))


def test_group_records_by_angle(bench_geometry, quiet_noise):
    from qsagnac.expsim import angle_sweep
    thetas = [math.radians(d) for d in (-65.0, 2.5, 25.0)]
    recs = angle_sweep(NOON2, bench_geometry, thetas, [0.0, 0.5, 1.0, 1.5, 2.0],
                       OMEGA_E, seed=1, duration_s=60.0, noise=quiet_noise)
    grouped = group_records_by_angle(recs)
    assert list(grouped) == thetas
    assert all(len(v) == 10 for v in grouped.values())
