"""Random-design sweep of the one-photon base fit against a multistart reference.

    PYTHONPATH=src python tests/design_sweep.py [--seeds 2024,77,5] [--designs 600]

Not part of the test suite: the default sweep of 3 x 600 designs takes a
minute or two.  Each seed draws its designs from one generator:

- the first two thirds have 5-7 set points, the rest 8-24;
- the span is pi or 2 pi, the spacing even or random (ends kept);
- asymmetry |eta| <= 0.5, visibility 0.1-1, a uniform phase, and 1e3-1e7
  counts per set point (log-uniform), Poisson-drawn in both channels;
- every third design carries an unmodelled 0.05 cos 2x term.

Each design is fit as `_fit_state` fits one switch state (`nlls` from the
harmonic start).  The reference is `_least_squares` from 12 starts, 8
phases at zero asymmetry and 4 asymmetries of +-0.2 and +-0.4, keeping the
lowest converged cost.  Over the designs that are not degenerate (exit 2)
and whose reference converges, a fit that does not converge is an exit 3
of `fit`, and a converged fit whose cost is above 1.001 times the
reference's is non-global.  The script prints the counts per seed and in
total, split into well-specified and misspecified designs, then one line
per exit-3 or non-global design, so the lists of two source trees can be
diffed.  The reference runs on the solver under test, so a solver change
can move a blind start of it, and with it a design in or out of the
counts, while the fit itself does not move.
"""

import argparse
import math

import numpy as np

from qsagnac.analysis import (DegenerateDesignError, _canonicalize, _least_squares,
                              _observations, _single_model, nlls)

NON_GLOBAL = 1.001


def draw_design(rng, index, n_designs):
    """Set points, channel counts and misspecification of one design."""
    n = int(rng.integers(5, 8)) if index < 2 * n_designs // 3 else int(rng.integers(8, 25))
    span = math.pi if rng.random() < 0.5 else 2.0 * math.pi
    x = np.linspace(0.0, span, n) if rng.random() < 0.5 \
        else np.sort(np.r_[0.0, span, rng.uniform(0.0, span, n - 2)])
    eta, vis = rng.uniform(-0.5, 0.5), rng.uniform(0.1, 1.0)
    c = np.cos(x + rng.uniform(-math.pi, math.pi))
    p = 0.5 * (1.0 - eta) * (1.0 - vis * c) / (1.0 + eta * vis * c)
    misspecified = index % 3 == 0
    if misspecified:
        p = np.clip(p + 0.05 * np.cos(2.0 * x), 0.0, 1.0)
    total = 10.0 ** rng.uniform(3.0, 7.0)
    n_h = rng.poisson(total * (1.0 - p)).astype(float)
    n_v = rng.poisson(total * p).astype(float)
    return x, n_h, n_v, misspecified


def reference_cost(x, y, w):
    """Lowest converged cost of _least_squares from 12 starts, or None."""
    lo, hi = y.min(), y.max()
    amp = np.clip(np.mean(y), 1e-3, 1.0)
    vis = np.clip((hi - lo) / max(hi + lo, 1e-12), 0.05, 1.0)
    eta = np.r_[np.zeros(8), -0.4, -0.2, 0.2, 0.4]
    phase = np.r_[np.linspace(-math.pi, math.pi, 8, endpoint=False),
                  np.linspace(-0.75 * math.pi, 0.75 * math.pi, 4)]
    starts = np.column_stack([np.full(12, amp), eta, np.full(12, vis), phase])
    p, conv, _ = _least_squares(_single_model, starts, x, y, w)
    if not conv.any():
        return None
    f = _single_model(_canonicalize("single", p[conv]), x)[0]
    return float(np.min(np.sum(w * (y - f) ** 2, axis=1)))


def sweep(seed, n_designs):
    """Counts of one seed's sweep and the (index, kind, verdict, rss, ref) lines."""
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(("designs", "degenerate", "reference_failed",
                            "well_exit3", "well_non_global", "mis_exit3", "mis_non_global"), 0)
    flagged = []
    for index in range(n_designs):
        x, n_h, n_v, misspecified = draw_design(rng, index, n_designs)
        counts["designs"] += 1
        y, w = _observations("single", n_h=n_h, n_v=n_v)
        try:
            fit = nlls("single", x, y, weights=w)
        except DegenerateDesignError:
            counts["degenerate"] += 1
            continue
        ref = reference_cost(x, y, w)
        if ref is None:
            counts["reference_failed"] += 1
            continue
        kind = "mis" if misspecified else "well"
        verdict = "exit3" if not fit.converged \
            else "non_global" if fit.rss > NON_GLOBAL * ref else None
        if verdict:
            counts[f"{kind}_{verdict}"] += 1
            flagged.append((index, kind, verdict, fit.rss, ref))
    return counts, flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="2024,77,5")
    parser.add_argument("--designs", type=int, default=600)
    args = parser.parse_args()
    total, lines = {}, []
    for seed in (int(s) for s in args.seeds.split(",")):
        counts, flagged = sweep(seed, args.designs)
        print(f"seed {seed}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
        lines += [(seed, *item) for item in flagged]
    print("total: " + ", ".join(f"{k} {v}" for k, v in total.items()))
    for seed, index, kind, verdict, rss, ref in lines:
        print(f"{seed} {index} {kind} {verdict} rss {rss:.6g} reference {ref:.6g}")


if __name__ == "__main__":
    main()
