"""Estimation pipeline: fringe fits, Monte-Carlo errors, demodulation, calibration.

Count fringes are fit with weights taken from the observed counts.  Both
start from one weighted linear solve of c0 + c1 cos kx + c2 sin kx (k = 2
for the two-photon fringe, 1 for the one-photon fringe): the two-photon
fringe is exactly that harmonic, so the solve is its fit; the one-photon
fringe is that harmonic when its channel asymmetry is zero, so the solve
is the one start of its least-squares fit.  That fit takes Gauss-Newton
steps, damped only after a refused step, and ends, unless its steps
shrink only linearly, on an undamped step shorter than 1e-9 sigma: its
result does not depend on the path or on the arithmetic of the normal
equations.  Each step sums only the distinct entries of the normal
matrix, its lower triangle, one multiply-reduce over the set points per
parameter row, mirrors them above the diagonal, and solves by a Cholesky
factor unrolled over the parameters, which reads the lower triangle, with
LU for rows that are not positive definite.  When every row keeps its
step, the solver takes the trial arrays as they are instead of copying
them in by mask.  It keeps the batch as the last axis of every array, so
its products run along the batch.  The one-photon model takes cos and sin
of x + phase by angle addition, so its trig runs on the set points and
the phases alone, and folds its per-row factors on the (B,) parameter
rows before they meet the (set points, batch) arrays.
Uncertainties come from a parametric bootstrap: counts are resampled
around the observed values and a common bias-phase offset delta, shared
by every set point and both switch states of a resample, models the motor
repeatability.  Shifting every set point by delta only moves the fitted
phase by -k delta, so each resample is fit on the observed set points and
the offset is subtracted from its phase.  One-photon resamples are fit by
the same solver, batched, from the observed-data fit to their own optimum.
Where the process may use two CPUs, a batch of more than _GN_BLOCK
one-photon resamples fits its on state in a forked child process while
this one draws and fits the off state; the child hands back the bits the
same fits give in this process.
The bootstrap returns those observed-data fits, so the CLI fits each
switch state once, in mc_uncertainty.
"""

import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

import numpy as np

from .expsim import CountRecord, NoiseConfig, SwitchSchedule
from .probe import KINDS
from .sagnac import (OMEGA_EARTH, DegenerateDesignError, FitError, SwitchState,
                     UndefinedRatioError)


def wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    w = np.mod(np.asarray(phi, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if np.isscalar(phi) or np.ndim(phi) == 0 else w


# model functions return (f, J) for a parameter batch (P, B), one column per
# row of the batch, against shared set points x of shape (M,): f is (M, B)
# and J is (M, P, B).  Every elementwise product runs along the batch, and
# with the set points leading, every sum over them is an outer loop over
# contiguous slabs: set-point order at every batch width, one row included

NOON_PARAMS = ("amplitude", "visibility", "phase")
SINGLE_PARAMS = ("amplitude", "asymmetry", "visibility", "phase")


def _noon_model(params, x):
    a, v, ph = params
    arg = 2.0 * x[:, None] + ph
    c = np.cos(arg)
    f = 0.5 * a * (1.0 + v * c)
    jac = np.empty((len(x), 3) + f.shape[1:])
    jac[:, 0] = 0.5 * (1.0 + v * c)
    jac[:, 1] = 0.5 * a * c
    jac[:, 2] = -0.5 * a * v * np.sin(arg)
    return f, jac


def _single_model(params, x):
    av, eta, v, ph = params
    # cos and sin of x + phase by angle addition: trig of the (M, 1) set
    # points and the (B,) phases, then four products on (M, B)
    x = x[:, None]
    cx, sx, cp, sp = np.cos(x), np.sin(x), np.cos(ph), np.sin(ph)
    c = cx * cp - sx * sp
    # -v c, negated on the (B,) row: 1 - v c and 1 + eta v c come out exact
    nvc = -v * c
    inv = 1.0 / (1.0 - eta * nvc)
    jac = np.empty((len(c), 4) + c.shape[1:])
    np.multiply(1.0 + nvc, inv, out=jac[:, 0])
    f = av * jac[:, 0]
    np.multiply(f * inv, nvc, out=jac[:, 1])
    # the visibility and phase columns carry av (1 + eta) / den^2, with the
    # per-row factor k = av (1 + eta) taken on the (B,) row
    inv *= inv
    k = av * (1.0 + eta)
    np.multiply(c * inv, -k, out=jac[:, 2])
    np.multiply((sx * cp + cx * sp) * inv, v * k, out=jac[:, 3])
    return f, jac


# the fringe harmonic k of each model is the phase gain of its probe,
# KINDS[model].enhancement: the phase enters as k x + phase
_MODELS = {"noon": (_noon_model, NOON_PARAMS), "single": (_single_model, SINGLE_PARAMS)}


# condition-number limit of every design check
_COND_LIMIT = 1e12
# fewest distinct bias set points a fringe fit takes, and the narrowest
# frame-angle span a calibration or angle-sweep fit takes
_MIN_POINTS = 5
_MIN_SPAN_DEG = 5.0
# least squares: step budget, damping after a row's first refused step,
# relative cost change that ends a linearly converging row, and the length
# (in sigmas, the metric of the normal matrix) of the undamped step that
# settles a row
_MAX_STEPS = 210
_LAM0 = 1e-3
_REL_TOL = 1e-12
_STEP_TOL = 1e-9
# rows per least-squares solve of single resamples: small enough that the
# block's temporaries stay in cache, with no effect on the results
_GN_BLOCK = 2048
# steps a solve takes on every row of its batch; rows still active after
# them converge slowly, and only those are stepped from then on, so a few
# of them do not keep the whole batch iterating (no effect on the results)
_FULL_STEPS = 10


def _normal_equations(jac, w, r):
    """Normal matrix J^T W J (P, P, B) and gradient J^T W r (P, B) of a batch.

    jac is (M, P, B), w and r are (M, B).  The weighted Jacobian is formed
    once.  Only the P(P+1)/2 distinct entries of the matrix are summed: one
    multiply-reduce over the set points per parameter row i gives the lower
    triangle (i, j <= i), which _cholesky_solve reads, with the bits of the
    full product, and is mirrored above the diagonal, so the matrix is
    exactly symmetric; the gradient is one more.  The set points are the
    outer axis, so every column is summed in set-point order and gets the
    same bits at every batch width, one row included.
    """
    jw = jac * w[:, None]
    a = np.empty((jac.shape[1],) + jac.shape[1:])
    for i in range(len(a)):
        a[i, :i + 1] = np.einsum("mb,mjb->jb", jw[:, i], jac[:, :i + 1])
        a[:i, i] = a[i, :i]
    return a, np.einsum("mib,mb->ib", jw, r)


_EPS = np.finfo(float).eps


def _cost(y, abs_y, w, f):
    """Residuals r = y - f (M, B), the cost sum w r^2 of each column, its rounding.

    Residuals carry a few ulps of y and f, so the rounding of the cost is
    4 eps sum w |r| (|y| + |f|); abs_y is |y|.  Both sums are one reduce
    over the set points, with the same bits at every batch width (see
    _normal_equations).
    """
    r = y - f
    terms = np.empty((len(r), 2) + r.shape[1:])
    terms[:, 0] = r * r
    terms[:, 1] = np.abs(r) * (abs_y + np.abs(f))
    cost, noise = np.einsum("mb,mkb->kb", w, terms)
    return r, cost, 4.0 * _EPS * noise


def _cholesky_solve(a, g):
    """Solve a d = g for a batch (P, P, B) of symmetric positive definite a.

    g and d are (P, B).  The factor is unrolled over the parameters, with g
    as one more row of a, so its last row is the forward substitution.
    Every operation is elementwise on the contiguous (B,) entries of the
    batch, so each row gets the bits of a solve of its own at every batch
    width, one row included.  A row whose pivot is not positive comes back
    non-finite.
    """
    n = len(g)
    a = [*a, g]
    low = [[None] * n for _ in range(n + 1)]
    with np.errstate(all="ignore"):
        for j in range(n):
            for i in range(j, n + 1):
                s = a[i][j]
                for k in range(j):
                    s = s - low[i][k] * low[j][k]
                low[i][j] = np.sqrt(s) if i == j else s / low[j][j]
        d = [None] * n
        for j in reversed(range(n)):
            s = low[n][j]
            for k in range(j + 1, n):
                s = s - low[k][j] * d[k]
            d[j] = s / low[j][j]
    return np.array(d)


def _least_squares(model, p, x, y, w):
    """Batched least squares of columns p (P, B), y and w (M, B) at set points x.

    Every row of the batch is a column.  p may be one start column (P, 1)
    shared by every column of y; the model is then evaluated once at the
    start.  y and w are copied once to contiguous (M, B) arrays, so a row's
    arithmetic does not depend on the layout its caller passed.  Each step
    d of a row solves the normal equations of _normal_equations with lam
    times their diagonal added, by _cholesky_solve, or by LU where a pivot
    is not positive.  A row starts undamped (lam 0); a refused step sets
    lam to _LAM0, or multiplies it by 10, and a kept one divides it by 10,
    back to 0 below 1e-9.  A step is kept unless the cost rises beyond its
    rounding.  A row converges

    - on a kept undamped step shorter than _STEP_TOL sigmas (its length in
      the metric of the normal matrix, sqrt(d . g)), which carries it to
      the optimum itself, whatever its path;
    - at the rounding floor: the predicted decrease d . g of its step is
      below the rounding of the cost, and the step was refused, or was
      undamped and no shorter than the step before;
    - on a kept step that lowers the cost by less than _REL_TOL of itself
      while its d . g is above a tenth of the step before's: steps that
      shrink that slowly converge only linearly (a damped or large-residual
      row), and the step test could take hundreds of steps.

    A row stops unconverged on a singular normal matrix, on damping above
    1e12, or when the step budget runs out.  Rows are updated in place by
    mask on the batch axis, or, when every row keeps its step, p, the
    Jacobian, the residuals and the cost are rebound to the trial arrays,
    with the same values and no copy; after _FULL_STEPS steps the rows
    still active are gathered, so every row sees the arithmetic of a solve
    of its own.
    Returns (params (P, B), converged, n_iter); n_iter counts every step,
    kept or refused.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(all="ignore"):
        f, jac = model(p, x)
        shape = np.broadcast_shapes(f.shape, np.shape(y), np.shape(w))
        p = np.broadcast_to(p, p.shape[:1] + shape[1:]).copy()
        jac = np.broadcast_to(jac, jac.shape[:2] + shape[1:]).copy()
        y = np.ascontiguousarray(np.broadcast_to(y, shape))
        w = np.ascontiguousarray(np.broadcast_to(w, shape))
        abs_y = np.abs(y)
        r, cost, _ = _cost(y, abs_y, w, f)
    batch = shape[1]
    lam = np.zeros(batch)
    last = np.full(batch, np.inf)
    active = np.ones(batch, dtype=bool)
    out = np.empty_like(p)
    rows = np.arange(batch)
    converged = np.zeros(batch, dtype=bool)
    n_iter = np.zeros(batch, dtype=int)
    diag = np.arange(len(p))
    for step in range(1, _MAX_STEPS + 1):
        a, g = _normal_equations(jac, w, r)
        dd = a[diag, diag]
        a[diag, diag] = dd + lam * np.where(dd > 0.0, dd, 1.0)
        ok = active.copy()
        d = _cholesky_solve(a, g)
        # rows that are not positive definite: LU solves them or stops them
        for i in np.flatnonzero(active & ~np.isfinite(d).all(axis=0)):
            try:
                d[:, i] = np.linalg.solve(a[..., i], g[:, i])
            except np.linalg.LinAlgError:
                ok[i] = False
        p_t = p + d
        # a wild step may overflow the model; its non-finite cost is refused
        with np.errstate(all="ignore"):
            f_t, j_t = model(p_t, x)
            r_t, cost_t, noise = _cost(y, abs_y, w, f_t)
            # d . g summed over the parameters in order, as the set points are
            dg = d * g
            dg = sum(dg[1:], dg[0])
        keep = ok & (cost_t <= cost + noise)
        undamped = lam == 0.0
        conv = keep & undamped & (dg <= _STEP_TOL ** 2)
        conv |= ok & (dg <= noise) & (~keep | undamped & (dg >= last))
        conv |= keep & (dg >= 0.1 * last) & (cost - cost_t <= _REL_TOL * cost)
        if keep.all():
            p, jac, r, cost = p_t, j_t, r_t, cost_t
        else:
            np.copyto(p, p_t, where=keep)
            np.copyto(jac, j_t, where=keep)
            np.copyto(r, r_t, where=keep)
            np.copyto(cost, cost_t, where=keep)
        last = dg
        lam = np.where(keep, lam / 10.0, np.where(undamped, _LAM0, 10.0 * lam))
        lam[lam < 1e-9] = 0.0
        n_iter[rows] += active
        converged[rows] |= conv
        active &= ok & ~conv & (lam <= 1e12)
        if not active.any():
            break
        if step >= _FULL_STEPS and not active.all():
            out[:, rows] = p
            rows, p, jac, r, cost, lam, last, y, abs_y, w, active = (
                v[..., active]
                for v in (rows, p, jac, r, cost, lam, last, y, abs_y, w, active))
    out[:, rows] = p
    return out, converged, n_iter


def _canonicalize(model, params):
    """Map to visibility >= 0 and phase in (-pi, pi]; in place on a batch (P, B)."""
    names = _MODELS[model][1]
    iv, ip = names.index("visibility"), names.index("phase")
    neg = params[iv] < 0.0
    params[iv, neg] = -params[iv, neg]
    params[ip, neg] += math.pi
    params[ip] = wrap_phase(params[ip])
    return params


@dataclass(frozen=True, eq=False)
class FringeFit:
    """One fringe fit: parameter values, their covariance, and fit diagnostics.

    rss is the weighted residual sum (chi-square) at the optimum.
    """

    model: str
    params: dict
    sigmas: dict
    covariance: np.ndarray
    rss: float
    converged: bool
    n_iter: int
    n_points: int

    @property
    def amplitude(self):
        return self.params["amplitude"]

    @property
    def visibility(self):
        return self.params["visibility"]

    @property
    def phase(self):
        return self.params["phase"]


def _harmonic_solve(x, y, w, k):
    """Weighted fit of c0 + c1 cos kx + c2 sin kx, batched over rows of y, w.

    Returns the parameters (P, B), one column per row of y.

    For k = 2 this is the noon fringe 1/2 a (1 + V cos(2x + phase)), so the
    solve is the fit: amplitude 2 c0, visibility hypot(c1, c2)/c0, phase
    atan2(-c2, c1).  For k = 1 it is the single fringe at asymmetry 0,
    a (1 - V cos(x + phase)), and gives the start (c0, 0, hypot(c1, c2)/c0,
    atan2(c2, -c1)) of the least-squares fit.  The first row's normal
    matrix is checked as it stands, not in unit-diagonal form: the
    regressors share the range [-1, 1], and rescaling would blow a sin kx
    column of rounding noise (set points at multiples of pi/k) up to a
    regressor.
    """
    g = np.column_stack([np.ones_like(x), np.cos(k * x), np.sin(k * x)])
    outer = (g[:, :, None] * g[:, None, :]).reshape(len(x), 9)
    a = (w @ outer).reshape(-1, 3, 3)
    if not np.linalg.cond(a[0]) <= _COND_LIMIT:
        raise DegenerateDesignError(
            f"set points do not separate cos {k}x and sin {k}x; "
            "phase and visibility are unidentifiable")
    c = np.linalg.solve(a, ((w * y) @ g)[..., None])[..., 0]
    c0, c1, c2 = c.T
    v = np.hypot(c1, c2) / c0
    if k == 2:
        return np.array([2.0 * c0, v, np.arctan2(-c2, c1)])
    return np.array([c0, np.zeros_like(c0), v, np.arctan2(c2, -c1)])


def nlls(model, x, y, weights=None):
    """Weighted least-squares fit of one fringe family.

    model is "noon" or "single".  weights default to the inverse Poisson
    variance 1/max(y, 1).  Both fringes start from the weighted solve of
    c0 + c1 cos kx + c2 sin kx (k = 2 noon, 1 single).  The noon fringe is
    exactly that solve (converged, n_iter 0); the single fringe is fit by
    _least_squares from it, and n_iter counts its steps, kept or refused.
    A single fit that does not converge (a singular normal matrix, runaway
    damping, the step budget spent) reports the parameters reached with
    converged=False.
    DegenerateDesignError is raised when the set points do not separate
    cos kx and sin kx, and when the normal matrix at the solution, in
    unit-diagonal form, has condition above _COND_LIMIT.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown fringe model {model!r}")
    fn, names = _MODELS[model]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("data must be finite")
    if np.ptp(y) <= 1e-14 * max(1.0, float(np.max(np.abs(y)))):
        raise DegenerateDesignError(
            f"{model} data are constant; phase and visibility are unidentifiable")
    w = 1.0 / np.maximum(y, 1.0) if weights is None \
        else np.asarray(weights, dtype=float)
    params = _harmonic_solve(x, y[None, :], w[None, :], KINDS[model].enhancement)
    ok, n_iter = True, 0
    if model == "single":
        params, conv, iters = _least_squares(fn, params, x, y[:, None], w[:, None])
        ok, n_iter = bool(conv[0]), int(iters[0])
    params = _canonicalize(model, params)

    f, jac = fn(params, x)
    resid = y - f[:, 0]
    # one fit's normal matrix is one BLAS product of the weighted (M, P)
    # Jacobian; a near-degenerate noon fit carries its rounding into the
    # covariance, which the noon goldens pin to 1e-12
    jac = jac[..., 0]
    a = (jac * w[:, None]).T @ jac
    # conditioning is judged, and the matrix inverted, in unit-diagonal
    # form, so parameter scale (counts vs radians) neither masquerades as
    # degeneracy nor sets the rounding of the covariance
    d = np.sqrt(np.abs(np.diag(a)))
    dd = np.outer(d, d)
    if not np.all(np.isfinite(a)) or np.any(d <= 0.0) \
            or np.linalg.cond(a / dd) > _COND_LIMIT:
        raise DegenerateDesignError(
            f"{model} fit is degenerate; the data do not constrain all parameters")
    cov = np.linalg.inv(a / dd) / dd
    cov = 0.5 * (cov + cov.T)
    values = {n: float(v) for n, v in zip(names, params[:, 0])}
    sigmas = {n: float(s) for n, s in zip(names, np.sqrt(np.diag(cov)))}
    return FringeFit(model=model, params=values, sigmas=sigmas, covariance=cov,
                     rss=float(np.einsum("m,m->", w, resid * resid)),
                     converged=ok, n_iter=n_iter, n_points=len(resid))


def _check_records(records, min_span):
    if len(records) == 0:
        raise ValueError("no records to fit")
    for r in records:
        if not isinstance(r, CountRecord):
            raise TypeError("records must be CountRecord instances")
    states = {r.switch for r in records}
    if len(states) != 1:
        raise ValueError("records mix switch states; fit one state at a time")
    thetas = {r.theta for r in records}
    if len(thetas) != 1:
        raise ValueError("records mix frame angles; fit one angle at a time")
    durations = {r.duration for r in records}
    if len(durations) != 1:
        raise ValueError("records mix durations")
    phis = sorted(r.phi0 for r in records)
    for a, b in zip(phis, phis[1:]):
        if a == b:
            raise ValueError(f"bias set point {a:.12g} rad repeats in the "
                             f"{records[0].switch.value} records")
    if len(phis) < _MIN_POINTS:
        raise DegenerateDesignError(
            f"need at least {_MIN_POINTS} distinct bias set points, got {len(phis)}")
    if phis[-1] - phis[0] < min_span * (1.0 - 1e-9):
        raise DegenerateDesignError(
            f"bias span {phis[-1] - phis[0]:.3f} rad below the minimum "
            f"{min_span:.3f} rad; phase and visibility are not separable")


# count columns each model reads, in the order the bootstrap draws them
_COUNT_COLUMNS = {"noon": ("n_hv",), "single": ("n_h", "n_v")}


def _observations(model, n_h=None, n_v=None, n_hv=None):
    """Fit data (y, w) from counts of any shape.

    noon fits the coincidences with Poisson weights floored at one count;
    single fits the ratio n_v / (n_h + n_v) with binomial weights.
    """
    if model == "noon":
        return n_hv, 1.0 / np.maximum(n_hv, 1.0)
    tot = n_h + n_v
    if np.any(tot == 0):
        raise FitError("record with zero total counts; ratio undefined")
    return n_v / tot, 1.0 / (np.maximum(n_h, 1.0) * np.maximum(n_v, 1.0) / tot ** 3)


def _fit_state(records, model):
    """Fit the records of one switch state; returns (fit, x, counts).

    noon fits the counts n_hv to amplitude/2 (1 + V cos(2 phi0 + phase)), one
    exact weighted 3x3 solve; single fits the ratio n_v / (n_h + n_v) to
    amplitude (1 - V cos(phi0 + phase)) / (1 + asymmetry V cos(phi0 + phase)).
    The weights are those of _observations; counts maps each column the
    model reads to its observed values.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown fringe model {model!r}")
    _check_records(records, min_span=math.pi / 2.0 if model == "noon" else math.pi)
    x = np.array([r.phi0 for r in records], dtype=float)
    counts = {c: np.array([getattr(r, c) for r in records], dtype=float)
              for c in _COUNT_COLUMNS[model]}
    y, w = _observations(model, **counts)
    fit = nlls(model, x, y, weights=w)
    if not fit.converged:
        raise FitError(f"{model} fringe fit did not converge from the harmonic "
                       f"start; weighted rss {fit.rss:.3e}")
    return fit, x, counts


@dataclass(frozen=True)
class EarthPhaseResult:
    """Rotation phase from the on/off difference of one set-point sweep."""

    model: str
    phi_on: float
    phi_on_sigma: float
    phi_off: float
    phi_off_sigma: float
    phi_e: float
    phi_e_sigma: float


def extract_earth_phase(fit_on, fit_off, mc=None):
    """phi_e = phi_off - phi_on, wrapped; sigmas from the bootstrap when given.

    Without a bootstrap the sigma is the quadrature sum of the per-state
    fit sigmas, which ignores their common-mode bias noise.
    """
    if fit_on.model != fit_off.model:
        raise ValueError("on and off fits use different models")
    if not (fit_on.converged and fit_off.converged):
        raise FitError("cannot difference unconverged fits")
    phi_e = wrap_phase(fit_off.phase - fit_on.phase)
    if mc is not None:
        return EarthPhaseResult(
            fit_on.model,
            fit_on.phase, mc.param_sigmas["on"]["phase"],
            fit_off.phase, mc.param_sigmas["off"]["phase"],
            phi_e, mc.phi_e_sigma)
    sigma = math.hypot(fit_on.sigmas["phase"], fit_off.sigmas["phase"])
    return EarthPhaseResult(fit_on.model, fit_on.phase, fit_on.sigmas["phase"],
                            fit_off.phase, fit_off.sigmas["phase"], phi_e, sigma)


@dataclass(frozen=True)
class McUncertainty:
    """Bootstrap means and sigmas per switch state, the phase difference, the base fits."""

    model: str
    n_samples: int
    motor_sigma: float
    param_means: dict
    param_sigmas: dict
    phi_e_mean: float
    phi_e_sigma: float
    nonconverged_fraction: float
    fits: tuple = field(repr=False)


def _group_by(records, attr):
    """Records keyed by one attribute, in first-appearance order."""
    groups = {}
    for r in records:
        groups.setdefault(getattr(r, attr), []).append(r)
    return groups


def _fit_switch_states(records, model):
    """_fit_state of each switch state, keyed on then off; both must be present."""
    groups = _group_by(records, "switch")
    if SwitchState.ON not in groups or SwitchState.OFF not in groups:
        raise ValueError("need records in both switch states")
    return {s: _fit_state(groups[s], model) for s in (SwitchState.ON, SwitchState.OFF)}


def _resample_fits(fit, x, y, w, delta):
    """Fits of the resamples (rows of y, w) taken at set points x + delta.

    Each row is fit on the shared x and its phase moved by -k delta, which
    is exact: f(x + delta; phase) = f(x; phase + k delta).  Noon rows are
    solved in closed form.  Single rows are fit by _least_squares from the
    one start column of fit, in blocks of _GN_BLOCK rows, each to its own
    optimum; the solver copies each block of y and w once to its (M, B)
    layout.  Phases come back canonical and unwrapped next to
    fit.phase.  Returns (params (P, B), number of rows that did not
    converge).
    """
    fn, names = _MODELS[fit.model]
    ip = names.index("phase")
    k = KINDS[fit.model].enhancement
    if fit.model == "noon":
        p, bad = _harmonic_solve(x, y, w, k), 0
    else:
        p0 = np.array([[fit.params[n]] for n in names])
        p = np.empty((len(names), len(y)))
        conv = np.empty(len(y), dtype=bool)
        for i in range(0, len(y), _GN_BLOCK):
            rows = slice(i, i + _GN_BLOCK)
            p[:, rows], conv[rows], _ = _least_squares(
                fn, p0, x, y[rows].T, w[rows].T)
        bad = int(np.count_nonzero(~conv))
    p[ip] -= k * delta
    _canonicalize(fit.model, p)
    p[ip] = fit.phase + wrap_phase(p[ip] - fit.phase)
    return p, bad


def _refit_in_child(model, rows):
    """Whether a bootstrap batch of rows resamples fits its on state in a child.

    Only a process that may use two or more CPUs forks, and only for the
    least-squares fits of more than one _GN_BLOCK of single rows: the
    closed-form noon fits took longer with a fork, and so did a fresh
    fit --fast, whose single states have 1000 rows.
    """
    return (model == "single" and rows > _GN_BLOCK
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@contextmanager
def _resample_fits_in_child(fit, x, y, w, delta):
    """_resample_fits(fit, x, y, w, delta), run in a forked child process.

    Yields a function that waits for the child and returns its (params,
    bad), handed back through an anonymous shared map: the bits the call
    gives in this process.  If the child cannot be forked or does not exit
    cleanly, the function makes the call here instead, for the same bits or
    the same exception.  A child still running when the block exits (on an
    exception in this process) is killed and reaped; none outlives it.
    """
    # imported here, where a child is forked, not by every import of the module
    import mmap
    import signal

    shape = (len(fit.params), len(y))
    with mmap.mmap(-1, 8 * (shape[0] * shape[1] + 1)) as buf:
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            code = 1
            try:
                p, bad = _resample_fits(fit, x, y, w, delta)
                out = np.frombuffer(buf)
                out[:-1].reshape(shape)[...] = p
                out[-1] = bad
                code = 0
            finally:
                os._exit(code)
        running = pid is not None

        def result():
            nonlocal running
            if running:
                status = os.waitpid(pid, 0)[1]
                running = False
                if status == 0:
                    out = np.frombuffer(buf)
                    return out[:-1].reshape(shape).copy(), int(out[-1])
            return _resample_fits(fit, x, y, w, delta)

        try:
            yield result
        finally:
            if running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# resamples drawn and fit per batch; the RNG stream depends on it
_MC_CHUNK = 20_000


def mc_uncertainty(records, model, n_samples=100_000, motor_sigma=None, seed=None):
    """Parametric bootstrap of the fringe fits of both switch states.

    records must hold both switch states (ValueError otherwise).  Each
    resample draws Poisson counts around the observed ones and one
    Gaussian set-point offset delta with sigma motor_sigma that displaces
    every bias value of the resample, in both switch states.  A common
    shift of the set points only moves the fitted phase by -k delta (k = 2
    for noon, 1 for single), so every resample is fit on the observed set
    points and k delta is subtracted from its phase.  Noon resamples are
    solved in closed form; single resamples are fit from the observed-data
    fit to their optimum by the batched least squares of _resample_fits.
    Resamples are drawn and fit in batches of _MC_CHUNK (20 000), which
    fixes the RNG stream for a seed.  Where _refit_in_child holds (a
    process that may use two CPUs, single batches of more than _GN_BLOCK
    rows), a batch's on-state refits run in a forked child while the off
    state is drawn and fit here; the child returns the bits of the same
    fits made here, and the draws keep their order.
    nonconverged_fraction counts the resamples whose fit did not converge;
    FitError is raised if it exceeds 1%.  fits holds the observed-data
    fits (on, off).
    """
    if n_samples < 2:
        raise ValueError("need at least two resamples")
    if motor_sigma is None:
        motor_sigma = NoiseConfig().motor_sigma
    base = _fit_switch_states(records, model)
    names = _MODELS[model][1]

    rng = np.random.default_rng(seed)
    samples = {s: [] for s in base}
    left = n_samples
    while left > 0:
        b = min(_MC_CHUNK, left)
        left -= b
        delta = rng.normal(0.0, motor_sigma, b) if motor_sigma > 0.0 else np.zeros(b)
        with ExitStack() as children:
            pending = {}
            for s, (fit, x, counts) in base.items():
                y, w = _observations(model, **{
                    c: rng.poisson(mu, (b, len(x))).astype(float) for c, mu in counts.items()})
                if s is SwitchState.ON and _refit_in_child(model, b):
                    # fit in a child while the off state is drawn and fit here
                    pending[s] = children.enter_context(
                        _resample_fits_in_child(fit, x, y, w, delta))
                else:
                    samples[s].append(_resample_fits(fit, x, y, w, delta))
            for s, result in pending.items():
                samples[s].append(result())

    frac = sum(bad for fits in samples.values() for _, bad in fits) / (2 * n_samples)
    if frac > 0.01:
        raise FitError(f"{frac:.1%} of bootstrap refits failed to converge")

    means, sigmas = {}, {}
    stacked = {s: np.concatenate([p for p, _ in samples[s]], axis=1) for s in base}
    for s in base:
        means[s.value] = {n: float(m) for n, m in zip(names, stacked[s].mean(axis=1))}
        sigmas[s.value] = {n: float(v) for n, v in zip(names, stacked[s].std(axis=1, ddof=1))}

    ip = names.index("phase")
    base_e = wrap_phase(base[SwitchState.OFF][0].phase - base[SwitchState.ON][0].phase)
    diff = stacked[SwitchState.OFF][ip] - stacked[SwitchState.ON][ip]
    diff = base_e + wrap_phase(diff - base_e)
    return McUncertainty(model=model, n_samples=n_samples, motor_sigma=motor_sigma,
                         param_means=means, param_sigmas=sigmas,
                         phi_e_mean=float(diff.mean()),
                         phi_e_sigma=float(diff.std(ddof=1)),
                         nonconverged_fraction=frac,
                         fits=(base[SwitchState.ON][0], base[SwitchState.OFF][0]))


@dataclass(frozen=True)
class DemodResult:
    """Switch-synchronous averages of a polarimeter trace."""

    delta_chi: float
    delta_psi: float
    phi_s: float
    n_on: int
    n_off: int


def _edge_distance(t, edges):
    """Distance from each time in t to its nearest edge; edges sorted.

    Only the two edges that bracket a time can be nearest, so this is the
    minimum over all edges, bit for bit, without a samples x edges array.
    """
    i = np.searchsorted(edges, t)
    below = edges[np.maximum(i - 1, 0)]
    above = edges[np.minimum(i, len(edges) - 1)]
    return np.minimum(np.abs(t - below), np.abs(t - above))


def demodulate_trace(trace, schedule=None):
    """Loop phase from the on/off contrast of the polarization ellipse.

    A sample is on where drive > 0.5; an edge lies between two samples
    whose on state differs.  Samples within transition_halfwidth of an
    edge are discarded, and always the nearest sample on each side of
    every edge.  The phase is
    phi_s = sign(delta_chi) * 2 sqrt(delta_chi^2 + delta_psi^2), which
    collects signal leaked from ellipticity into orientation.
    """
    schedule = schedule or SwitchSchedule()
    t, chi, psi, drive = trace.t, trace.chi, trace.psi, trace.drive
    if len(t) < 4:
        raise ValueError("trace too short")
    is_on = drive > 0.5
    switched = is_on[1:] != is_on[:-1]
    flips = np.flatnonzero(switched)
    if flips.size == 0:
        raise ValueError("drive never switches; nothing to demodulate")
    edges = 0.5 * (t[flips] + t[flips + 1])

    cut = np.zeros(len(t), dtype=bool)
    cut[flips] = True
    cut[flips + 1] = True
    if schedule.transition_halfwidth > 0.0:
        cut |= _edge_distance(t, edges) <= schedule.transition_halfwidth
    valid = ~cut

    segment = np.zeros(len(t), dtype=int)
    segment[1:] = np.cumsum(switched)
    kept = np.bincount(segment[valid], minlength=segment[-1] + 1)
    if np.any(kept < 2):
        raise ValueError("a switch half-period retains fewer than two samples")

    on = valid & is_on
    off = valid & ~is_on
    # values near the float limit overflow the means; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        d_chi = float(chi[on].mean() - chi[off].mean())
        d_psi = float(psi[on].mean() - psi[off].mean())
    mag = 2.0 * math.hypot(d_chi, d_psi)
    if not math.isfinite(mag):
        raise ValueError("on/off contrast is not finite: ellipse angles too large")
    return DemodResult(d_chi, d_psi, mag if d_chi >= 0.0 else -mag,
                       int(np.count_nonzero(on)), int(np.count_nonzero(off)))


@dataclass(frozen=True)
class CalibrationResult:
    """Scale factor and mount offset from phases at known frame angles."""

    scale_factor: float
    scale_factor_sigma: float
    theta_offset: float
    theta_offset_sigma: float
    n_samples: int
    omega_earth: float


def _cosine_lsq(angles, phases, weights):
    """Weighted exact solve of phase = a cos(theta) + b sin(theta).

    Works on batches: angles/phases may be (B, K), weights (K,) or (B, K).
    Raises DegenerateDesignError when a normal matrix has condition above
    _COND_LIMIT (angles all at multiples of pi, say).  Returns (a, b, sxx,
    sxy, syy).
    """
    c, s = np.cos(angles), np.sin(angles)
    sxx = np.sum(weights * c * c, axis=-1)
    sxy = np.sum(weights * c * s, axis=-1)
    syy = np.sum(weights * s * s, axis=-1)
    bx = np.sum(weights * c * phases, axis=-1)
    by = np.sum(weights * s * phases, axis=-1)
    det = sxx * syy - sxy * sxy
    # det / trace^2 is about 1 / condition of the raw normal matrix
    if not np.all(det * _COND_LIMIT > (sxx + syy) ** 2):
        raise DegenerateDesignError("angle set does not separate cos and sin")
    a = (syy * bx - sxy * by) / det
    b = (sxx * by - sxy * bx) / det
    return a, b, sxx, sxy, syy


def _check_angle_set(angles, phases, sigmas):
    """angles, phases and sigmas as float arrays, checked for a cosine fit.

    They must be 1-d and of equal length, the sigmas positive, and the
    angles at least three distinct values spanning _MIN_SPAN_DEG.
    """
    angles, phases, sigmas = (np.asarray(a, dtype=float) for a in (angles, phases, sigmas))
    if not (angles.shape == phases.shape == sigmas.shape) or angles.ndim != 1:
        raise ValueError("angles, phases and sigmas must be 1-d and equal length")
    if np.any(sigmas <= 0.0):
        raise ValueError("phase sigmas must be positive")
    distinct = sorted(set(float(a) for a in angles))
    if len(distinct) < 3:
        raise DegenerateDesignError("need at least three distinct angles")
    if distinct[-1] - distinct[0] < math.radians(_MIN_SPAN_DEG):
        raise DegenerateDesignError(
            f"angles span {math.degrees(distinct[-1] - distinct[0]):.2f} deg; "
            f"need at least {_MIN_SPAN_DEG} deg")
    return angles, phases, sigmas


# half-width of the uniform mount-angle error a calibration resamples
_ANGLE_HALFWIDTH = math.radians(1.0)


def calibrate_scale_factor(angles, phases, sigmas, omega_earth=OMEGA_EARTH,
                           n_samples=10_000, seed=None):
    """Scale factor from loop phases measured at several frame angles.

    Fits phase = S omega_earth cos(theta + theta_offset) through its
    linearization a cos + b sin.  The Monte Carlo resamples each phase
    with its Gaussian sigma and each angle uniformly within
    +-_ANGLE_HALFWIDTH, and reports means and standard deviations.
    """
    angles, phases, sigmas = _check_angle_set(angles, phases, sigmas)
    if omega_earth <= 0.0:
        raise ValueError("omega_earth must be positive")
    if n_samples < 2:
        raise ValueError("need at least two resamples")

    w = 1.0 / (sigmas * sigmas)
    a0, b0, *_ = _cosine_lsq(angles, phases, w)
    theta0_center = math.atan2(-b0, a0)

    rng = np.random.default_rng(seed)
    th = angles[None, :] + rng.uniform(-_ANGLE_HALFWIDTH, _ANGLE_HALFWIDTH,
                                       (n_samples, len(angles)))
    ph = phases[None, :] + rng.normal(0.0, sigmas, (n_samples, len(angles)))
    a, b, *_ = _cosine_lsq(th, ph, w)
    scale = np.hypot(a, b) / omega_earth
    theta0 = theta0_center + wrap_phase(np.arctan2(-b, a) - theta0_center)
    return CalibrationResult(
        scale_factor=float(scale.mean()),
        scale_factor_sigma=float(scale.std(ddof=1)),
        theta_offset=float(theta0.mean()),
        theta_offset_sigma=float(theta0.std(ddof=1)),
        n_samples=n_samples, omega_earth=float(omega_earth))


@dataclass(frozen=True)
class AngleSweepFit:
    """Cosine fit of the rotation phase versus frame angle."""

    amplitude: float
    amplitude_sigma: float
    theta_offset: float
    theta_offset_sigma: float
    omega: float
    omega_sigma: float
    enhancement: int


def fit_angle_sweep(angles, phi_e, sigmas, scale_factor_s, enhancement=1):
    """Weighted fit of phi_e(theta) = M cos(theta + offset); rotation rate.

    The rate is omega = M / (enhancement * S) with S the scale factor and
    enhancement the probe's phase gain.  Sigmas propagate through the
    linearized design matrix.
    """
    angles, phi_e, sigmas = _check_angle_set(angles, phi_e, sigmas)
    if scale_factor_s <= 0.0 or enhancement < 1:
        raise ValueError("scale factor must be positive, enhancement >= 1")

    w = 1.0 / (sigmas * sigmas)
    a, b, sxx, sxy, syy = _cosine_lsq(angles, phi_e, w)
    det = sxx * syy - sxy * sxy
    caa, cbb, cab = syy / det, sxx / det, -sxy / det
    m = math.hypot(a, b)
    if m == 0.0:
        raise DegenerateDesignError("fitted amplitude is exactly zero")
    m_var = (a * a * caa + 2.0 * a * b * cab + b * b * cbb) / (m * m)
    off_var = (b * b * caa - 2.0 * a * b * cab + a * a * cbb) / m ** 4
    omega = m / (enhancement * scale_factor_s)
    return AngleSweepFit(
        amplitude=float(m), amplitude_sigma=float(math.sqrt(m_var)),
        theta_offset=float(math.atan2(-b, a)),
        theta_offset_sigma=float(math.sqrt(off_var)),
        omega=float(omega),
        omega_sigma=float(math.sqrt(m_var) / (enhancement * scale_factor_s)),
        enhancement=int(enhancement))


def enhancement_factor(two_photon, one_photon):
    """Ratio of phase responses (value, sigma) / (value, sigma).

    Raises UndefinedRatioError when the denominator is within three
    sigma of zero.
    """
    v2, s2 = two_photon
    v1, s1 = one_photon
    if s1 < 0.0 or s2 < 0.0:
        raise ValueError("sigmas must be >= 0")
    if abs(v1) < 3.0 * s1:
        raise UndefinedRatioError("one-photon response consistent with zero")
    ratio = v2 / v1
    sigma = math.hypot(s2 / v1, v2 * s1 / (v1 * v1))
    return ratio, sigma


def group_records_by_angle(records):
    """Records keyed by frame angle, in first-appearance order."""
    return _group_by(records, "theta")


def fit_switch_pair(records, model):
    """Fit both switch states of one angle; returns (fit_on, fit_off, earth).

    The CLI takes the same fits from mc_uncertainty(...).fits instead.
    """
    base = _fit_switch_states(records, model)
    fit_on, fit_off = base[SwitchState.ON][0], base[SwitchState.OFF][0]
    return fit_on, fit_off, extract_earth_phase(fit_on, fit_off)
