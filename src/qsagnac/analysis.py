"""Estimation pipeline: fringe fits, Monte-Carlo errors, demodulation, calibration.

Count fringes are fit with weights taken from the observed counts.  Both
start from one weighted linear solve of c0 + c1 cos kx + c2 sin kx (k = 2
for the two-photon fringe, 1 for the one-photon fringe): the two-photon
fringe is exactly that harmonic, so the solve is its fit; the one-photon
fringe is that harmonic when its channel asymmetry is zero, so the solve
is the one start of its damped Gauss-Newton fit.  Uncertainties come from
a parametric bootstrap: counts are resampled around the observed values
and a common bias-phase offset delta, shared by every set point and both
switch states of a resample, models the motor repeatability.  Shifting
every set point by delta only moves the fitted phase by -k delta, so each
resample is fit on the observed set points and the offset is subtracted
from its phase.
"""

import math
from dataclasses import dataclass

import numpy as np

from .expsim import CountRecord, NoiseConfig, SwitchSchedule, seed_sequence
from .sagnac import CONSTANTS, SwitchState


class FitError(RuntimeError):
    """Fit failed to converge or inputs cannot be fit."""


class DegenerateDesignError(ValueError):
    """Data do not constrain the model (span too small, flat fringe...)."""


class UndefinedRatioError(ValueError):
    """Denominator consistent with zero; the ratio carries no information."""


def wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    w = np.mod(np.asarray(phi, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if np.isscalar(phi) or np.ndim(phi) == 0 else w


# model functions return (f, J) for a parameter batch (B, P) against
# shared set points x of shape (M,); f is (B, M), J is (B, M, P)

NOON_PARAMS = ("amplitude", "visibility", "phase")
SINGLE_PARAMS = ("amplitude", "asymmetry", "visibility", "phase")


def _noon_model(params, x):
    a = params[:, 0:1]
    v = params[:, 1:2]
    ph = params[:, 2:3]
    arg = 2.0 * x + ph
    c = np.cos(arg)
    f = 0.5 * a * (1.0 + v * c)
    jac = np.empty(f.shape + (3,))
    jac[..., 0] = 0.5 * (1.0 + v * c)
    jac[..., 1] = 0.5 * a * c
    jac[..., 2] = -0.5 * a * v * np.sin(arg)
    return f, jac


def _single_model(params, x):
    av = params[:, 0:1]
    eta = params[:, 1:2]
    v = params[:, 2:3]
    ph = params[:, 3:4]
    arg = x + ph
    c = np.cos(arg)
    num = 1.0 - v * c
    den = 1.0 + eta * v * c
    f = av * num / den
    jac = np.empty(f.shape + (4,))
    jac[..., 0] = num / den
    jac[..., 1] = -av * num * v * c / (den * den)
    jac[..., 2] = -av * c * (1.0 + eta) / (den * den)
    jac[..., 3] = av * v * (1.0 + eta) * np.sin(arg) / (den * den)
    return f, jac


_MODELS = {"noon": (_noon_model, NOON_PARAMS), "single": (_single_model, SINGLE_PARAMS)}
# fringe harmonic k of each model: the phase enters as k x + phase
_HARMONIC = {"noon": 2, "single": 1}


# condition-number limit of every design check
_COND_LIMIT = 1e12
# damped least squares: iteration budget, initial damping, relative cost stop
_LM_MAX_ITER = 200
_LM_LAM0 = 1e-3
_LM_REL_TOL = 1e-12


def _levenberg_marquardt(model, p0, x, y, w):
    """Batched damped least squares against shared set points x.

    Damping scales the normal-matrix diagonal, x10 on a rejected step and
    /10 on an accepted one; a batch element stops on relative cost change
    below _LM_REL_TOL.  Returns (params, cost, converged, n_iter).
    """
    p = np.array(p0, dtype=float)
    nb = p.shape[0]
    y = np.broadcast_to(np.asarray(y, dtype=float), (nb, np.shape(y)[-1])).copy()
    w = np.broadcast_to(np.asarray(w, dtype=float), y.shape).copy()
    with np.errstate(all="ignore"):
        f, jac = model(p, x)
    r = y - f
    cost = np.einsum("bm,bm->b", w, r * r)
    lam = np.full(nb, _LM_LAM0)
    done = np.zeros(nb, dtype=bool)
    converged = np.zeros(nb, dtype=bool)
    n_iter = np.zeros(nb, dtype=int)

    for _ in range(_LM_MAX_ITER):
        idx = np.flatnonzero(~done)
        if idx.size == 0:
            break
        ja, ra, wa = jac[idx], r[idx], w[idx]
        a = np.einsum("bmp,bm,bmq->bpq", ja, wa, ja)
        g = np.einsum("bmp,bm->bp", ja, wa * ra)
        diag = np.einsum("bpp->bp", a).copy()
        diag[diag <= 0.0] = 1.0
        ad = a.copy()
        step = np.arange(p.shape[1])
        ad[:, step, step] += lam[idx, None] * diag
        delta = np.linalg.solve(ad, g[..., None])[..., 0]
        p_trial = p[idx] + delta
        # a wild trial step may overflow the model; the non-finite cost
        # loses the comparison below and the step is simply rejected
        with np.errstate(all="ignore"):
            f_t, j_t = model(p_trial, x)
            r_t = y[idx] - f_t
            cost_t = np.einsum("bm,bm->b", w[idx], r_t * r_t)
        better = cost_t <= cost[idx]

        acc = idx[better]
        rej = idx[~better]
        old = cost[acc]
        p[acc] = p_trial[better]
        jac[acc] = j_t[better]
        r[acc] = r_t[better]
        cost[acc] = cost_t[better]
        lam[acc] = np.maximum(lam[acc] / 10.0, 1e-12)
        lam[rej] *= 10.0
        n_iter[idx] += 1

        settled = old - cost[acc] <= _LM_REL_TOL * np.maximum(old, 1e-300)
        done[acc[settled]] = True
        converged[acc[settled]] = True
        done[rej[lam[rej] > 1e12]] = True
    return p, cost, converged, n_iter


def _canonicalize(model, params):
    """Map to visibility >= 0 and phase in (-pi, pi]; in place on a batch."""
    names = _MODELS[model][1]
    iv, ip = names.index("visibility"), names.index("phase")
    neg = params[:, iv] < 0.0
    params[neg, iv] = -params[neg, iv]
    params[neg, ip] += math.pi
    params[:, ip] = wrap_phase(params[:, ip])
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

    def to_dict(self):
        return {
            "model": self.model,
            "params": dict(self.params),
            "sigmas": dict(self.sigmas),
            "covariance": self.covariance.tolist(),
            "rss": self.rss,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "n_points": self.n_points,
        }


def _harmonic_solve(x, y, w, k):
    """Weighted fit of c0 + c1 cos kx + c2 sin kx, batched over rows of y, w.

    For k = 2 this is the noon fringe 1/2 a (1 + V cos(2x + phase)), so the
    solve is the fit: amplitude 2 c0, visibility hypot(c1, c2)/c0, phase
    atan2(-c2, c1).  For k = 1 it is the single fringe at asymmetry 0,
    a (1 - V cos(x + phase)), and gives the start (c0, 0, hypot(c1, c2)/c0,
    atan2(c2, -c1)) of the damped least-squares fit.  The first row's normal
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
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    v = np.hypot(c1, c2) / c0
    if k == 2:
        return np.column_stack([2.0 * c0, v, np.arctan2(-c2, c1)])
    return np.column_stack([c0, np.zeros_like(c0), v, np.arctan2(c2, -c1)])


def nlls(model, x, y, weights=None):
    """Weighted least-squares fit of one fringe family.

    model is "noon" or "single".  weights default to the inverse Poisson
    variance 1/max(y, 1).  Both fringes start from the weighted solve of
    c0 + c1 cos kx + c2 sin kx (k = 2 noon, 1 single).  The noon fringe is
    exactly that solve (converged, n_iter 0); the single fringe is fit by
    damped least squares from it, and when the iteration budget runs out
    the parameters reached are still reported with converged=False.
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
    params = _harmonic_solve(x, y[None, :], w[None, :], _HARMONIC[model])
    ok, n_iter = True, 0
    if model == "single":
        params, _, conv, iters = _levenberg_marquardt(fn, params, x, y, w)
        ok, n_iter = bool(conv[0]), int(iters[0])
    params = _canonicalize(model, params)

    f, jac = fn(params, x)
    resid = y - f[0]
    a = np.einsum("mp,m,mq->pq", jac[0], w, jac[0])
    # conditioning is judged on the unit-diagonal form, so parameter
    # scale (counts vs radians) does not masquerade as degeneracy
    d = np.sqrt(np.abs(np.diag(a)))
    if not np.all(np.isfinite(a)) or np.any(d <= 0.0) \
            or np.linalg.cond(a / np.outer(d, d)) > _COND_LIMIT:
        raise DegenerateDesignError(
            f"{model} fit is degenerate; the data do not constrain all parameters")
    cov = np.linalg.inv(a)
    values = {n: float(v) for n, v in zip(names, params[0])}
    sigmas = {n: float(s) for n, s in zip(names, np.sqrt(np.diag(cov)))}
    return FringeFit(model=model, params=values, sigmas=sigmas, covariance=cov,
                     rss=float(np.einsum("m,m->", w, resid * resid)),
                     converged=ok, n_iter=n_iter, n_points=len(resid))


def _check_records(records, min_span, min_points=5):
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
    phis = sorted({r.phi0 for r in records})
    if len(phis) < min_points:
        raise DegenerateDesignError(
            f"need at least {min_points} distinct bias set points, got {len(phis)}")
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

    counts maps each column the model reads to its observed values.
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


def fit_noon_fringe(records):
    """Fit counts n_hv to amplitude/2 * (1 + V cos(2 phi0 + phase)).

    Poisson weights from the observed counts, floored at one count; the
    fringe is linear in its cosine and sine coefficients, so the weighted
    fit is one exact 3x3 solve.
    """
    return _fit_state(records, "noon")[0]


def fit_single_fringe(records):
    """Fit the ratio n_v / (n_h + n_v) to the asymmetric one-photon fringe

        amplitude (1 - V cos(phi0 + phase)) / (1 + asymmetry V cos(phi0 + phase))

    with binomial weights from the observed channel counts.
    """
    return _fit_state(records, "single")[0]


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

    def to_dict(self):
        return {
            "model": self.model,
            "phi_on": self.phi_on, "phi_on_sigma": self.phi_on_sigma,
            "phi_off": self.phi_off, "phi_off_sigma": self.phi_off_sigma,
            "phi_e": self.phi_e, "phi_e_sigma": self.phi_e_sigma,
        }


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
        if mc.phi_e_sigma is None:
            raise ValueError("bootstrap lacks one of the switch states")
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
    """Bootstrap means and sigmas per switch state, plus the phase difference."""

    model: str
    n_samples: int
    motor_sigma: float
    param_means: dict
    param_sigmas: dict
    phi_e_mean: float
    phi_e_sigma: float
    nonconverged_fraction: float

    def to_dict(self):
        return {
            "model": self.model,
            "n_samples": self.n_samples,
            "motor_sigma": self.motor_sigma,
            "param_means": {k: dict(v) for k, v in self.param_means.items()},
            "param_sigmas": {k: dict(v) for k, v in self.param_sigmas.items()},
            "phi_e_mean": self.phi_e_mean,
            "phi_e_sigma": self.phi_e_sigma,
            "nonconverged_fraction": self.nonconverged_fraction,
        }


def _group_by(records, attr):
    """Records keyed by one attribute, in first-appearance order."""
    groups = {}
    for r in records:
        groups.setdefault(getattr(r, attr), []).append(r)
    return groups


def _resample_fits(fit, x, y, w, delta):
    """Fits of the resamples (rows of y, w) taken at set points x + delta.

    Each row is fit on the shared x and its phase moved by -k delta, which
    is exact: f(x + delta; phase) = f(x; phase + k delta).  Phases come
    back canonical and unwrapped next to fit.phase.  Returns (params,
    number of refits that did not converge).
    """
    fn, names = _MODELS[fit.model]
    ip = names.index("phase")
    if fit.model == "noon":
        p, bad = _harmonic_solve(x, y, w, _HARMONIC["noon"]), 0
    else:
        p0 = np.tile([fit.params[n] for n in names], (len(y), 1))
        p, _, conv, _ = _levenberg_marquardt(fn, p0, x, y, w)
        bad = int(np.count_nonzero(~conv))
    p[:, ip] -= _HARMONIC[fit.model] * delta
    _canonicalize(fit.model, p)
    p[:, ip] = fit.phase + wrap_phase(p[:, ip] - fit.phase)
    return p, bad


# resamples drawn and fit per batch; the RNG stream depends on it
_MC_CHUNK = 20_000


def mc_uncertainty(records, model, n_samples=100_000, motor_sigma=None, seed=None):
    """Parametric bootstrap of the fringe fits.

    Each resample draws Poisson counts around the observed ones and one
    Gaussian set-point offset delta with sigma motor_sigma that displaces
    every bias value of the resample, in both switch states.  A common
    shift of the set points only moves the fitted phase by -k delta (k = 2
    for noon, 1 for single), so every resample is fit on the observed set
    points and k delta is subtracted from its phase.  Noon resamples are
    solved in closed form; single refits are warm started from the
    observed-data fit.  Resamples are drawn and fit in batches of
    _MC_CHUNK (20 000), which fixes the RNG stream for a seed.  Raises
    FitError if more than 1% of resamples fail to converge.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown fringe model {model!r}")
    if n_samples < 2:
        raise ValueError("need at least two resamples")
    if motor_sigma is None:
        motor_sigma = NoiseConfig().motor_sigma
    names = _MODELS[model][1]
    groups = _group_by(records, "switch")
    states = [s for s in (SwitchState.ON, SwitchState.OFF) if s in groups]
    base = {s: _fit_state(groups[s], model) for s in states}

    rng = np.random.default_rng(seed_sequence(seed))
    samples = {s: [] for s in states}
    bad = 0
    left = n_samples
    while left > 0:
        b = min(_MC_CHUNK, left)
        left -= b
        delta = rng.normal(0.0, motor_sigma, b) if motor_sigma > 0.0 else np.zeros(b)
        for s in states:
            fit, x, counts = base[s]
            y, w = _observations(model, **{
                c: rng.poisson(mu, (b, len(x))).astype(float) for c, mu in counts.items()})
            p, n_bad = _resample_fits(fit, x, y, w, delta)
            bad += n_bad
            samples[s].append(p)

    frac = bad / (n_samples * len(states))
    if frac > 0.01:
        raise FitError(f"{frac:.1%} of bootstrap refits failed to converge")

    means, sigmas = {}, {}
    stacked = {s: np.concatenate(samples[s], axis=0) for s in states}
    for s in states:
        means[s.value] = {n: float(m) for n, m in zip(names, stacked[s].mean(axis=0))}
        sigmas[s.value] = {n: float(v) for n, v in zip(names, stacked[s].std(axis=0, ddof=1))}

    phi_e_mean = phi_e_sigma = None
    if len(states) == 2:
        ip = names.index("phase")
        base_e = wrap_phase(base[SwitchState.OFF][0].phase - base[SwitchState.ON][0].phase)
        diff = stacked[SwitchState.OFF][:, ip] - stacked[SwitchState.ON][:, ip]
        diff = base_e + wrap_phase(diff - base_e)
        phi_e_mean = float(diff.mean())
        phi_e_sigma = float(diff.std(ddof=1))
    return McUncertainty(model=model, n_samples=n_samples, motor_sigma=motor_sigma,
                         param_means=means, param_sigmas=sigmas,
                         phi_e_mean=phi_e_mean, phi_e_sigma=phi_e_sigma,
                         nonconverged_fraction=frac)


@dataclass(frozen=True)
class DemodResult:
    """Switch-synchronous averages of a polarimeter trace."""

    delta_chi: float
    delta_psi: float
    phi_s: float
    n_on: int
    n_off: int

    def to_dict(self):
        return {"delta_chi": self.delta_chi, "delta_psi": self.delta_psi,
                "phi_s": self.phi_s, "n_on": self.n_on, "n_off": self.n_off}


def demodulate_trace(trace, schedule=None):
    """Loop phase from the on/off contrast of the polarization ellipse.

    Samples within transition_halfwidth of a drive edge are discarded,
    and always the nearest sample on each side of every edge.  The phase
    is phi_s = sign(delta_chi) * 2 sqrt(delta_chi^2 + delta_psi^2), which
    collects signal leaked from ellipticity into orientation.
    """
    schedule = schedule or SwitchSchedule()
    t, chi, psi, drive = trace.t, trace.chi, trace.psi, trace.drive
    if len(t) < 4:
        raise ValueError("trace too short")
    flips = np.flatnonzero(drive[1:] != drive[:-1])
    if flips.size == 0:
        raise ValueError("drive never switches; nothing to demodulate")
    edges = 0.5 * (t[flips] + t[flips + 1])

    cut = np.zeros(len(t), dtype=bool)
    cut[flips] = True
    cut[flips + 1] = True
    if schedule.transition_halfwidth > 0.0:
        near = np.min(np.abs(t[:, None] - edges[None, :]), axis=1)
        cut |= near <= schedule.transition_halfwidth
    valid = ~cut

    segment = np.zeros(len(t), dtype=int)
    segment[1:] = np.cumsum(drive[1:] != drive[:-1])
    kept = np.bincount(segment[valid], minlength=segment[-1] + 1)
    if np.any(kept < 2):
        raise ValueError("a switch half-period retains fewer than two samples")

    on = valid & (drive > 0.5)
    off = valid & (drive <= 0.5)
    d_chi = float(chi[on].mean() - chi[off].mean())
    d_psi = float(psi[on].mean() - psi[off].mean())
    mag = 2.0 * math.hypot(d_chi, d_psi)
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

    def to_dict(self):
        return {"scale_factor": self.scale_factor,
                "scale_factor_sigma": self.scale_factor_sigma,
                "theta_offset": self.theta_offset,
                "theta_offset_sigma": self.theta_offset_sigma,
                "n_samples": self.n_samples,
                "omega_earth": self.omega_earth}


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


def _check_angle_set(angles, min_span_deg=5.0):
    distinct = sorted(set(float(a) for a in angles))
    if len(distinct) < 3:
        raise DegenerateDesignError("need at least three distinct angles")
    if distinct[-1] - distinct[0] < math.radians(min_span_deg):
        raise DegenerateDesignError(
            f"angles span {math.degrees(distinct[-1] - distinct[0]):.2f} deg; "
            f"need at least {min_span_deg} deg")


def calibrate_scale_factor(angles, phases, sigmas, omega_earth=None,
                           n_samples=10_000, angle_halfwidth=math.radians(1.0),
                           seed=None):
    """Scale factor from loop phases measured at several frame angles.

    Fits phase = S omega_earth cos(theta + theta_offset) through its
    linearization a cos + b sin.  The Monte Carlo resamples each phase
    with its Gaussian sigma and each angle uniformly within
    +-angle_halfwidth, and reports means and standard deviations.
    """
    angles = np.asarray(angles, dtype=float)
    phases = np.asarray(phases, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if not (angles.shape == phases.shape == sigmas.shape) or angles.ndim != 1:
        raise ValueError("angles, phases and sigmas must be 1-d and equal length")
    if np.any(sigmas <= 0.0):
        raise ValueError("phase sigmas must be positive")
    _check_angle_set(angles)
    if omega_earth is None:
        omega_earth = CONSTANTS.omega_earth
    if n_samples < 2:
        raise ValueError("need at least two resamples")

    w = 1.0 / (sigmas * sigmas)
    a0, b0, *_ = _cosine_lsq(angles, phases, w)
    theta0_center = math.atan2(-b0, a0)

    rng = np.random.default_rng(seed_sequence(seed))
    th = angles[None, :] + rng.uniform(-angle_halfwidth, angle_halfwidth,
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

    def to_dict(self):
        return {"amplitude": self.amplitude, "amplitude_sigma": self.amplitude_sigma,
                "theta_offset": self.theta_offset,
                "theta_offset_sigma": self.theta_offset_sigma,
                "omega": self.omega, "omega_sigma": self.omega_sigma,
                "enhancement": self.enhancement}


def fit_angle_sweep(angles, phi_e, sigmas, scale_factor_s, enhancement=1):
    """Weighted fit of phi_e(theta) = M cos(theta + offset); rotation rate.

    The rate is omega = M / (enhancement * S) with S the scale factor and
    enhancement the probe's phase gain.  Sigmas propagate through the
    linearized design matrix.
    """
    angles = np.asarray(angles, dtype=float)
    phi_e = np.asarray(phi_e, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if not (angles.shape == phi_e.shape == sigmas.shape) or angles.ndim != 1:
        raise ValueError("angles, phases and sigmas must be 1-d and equal length")
    if np.any(sigmas <= 0.0):
        raise ValueError("phase sigmas must be positive")
    if scale_factor_s <= 0.0 or enhancement < 1:
        raise ValueError("scale factor must be positive, enhancement >= 1")
    _check_angle_set(angles)

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
    """Fit both switch states of one angle; returns (fit_on, fit_off, earth)."""
    groups = _group_by(records, "switch")
    if SwitchState.ON not in groups or SwitchState.OFF not in groups:
        raise ValueError("need records in both switch states")
    fit_on = _fit_state(groups[SwitchState.ON], model)[0]
    fit_off = _fit_state(groups[SwitchState.OFF], model)[0]
    return fit_on, fit_off, extract_earth_phase(fit_on, fit_off)
