"""Acceptance gate: one test per numbered criterion, one verdict line each.

Verdict lines print with capture suspended so they reach the real stdout.
Each criterion reads its inputs from the bundled recipe it reproduces, so
the gate checks what fit, design and the goldens run."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from oracles import (H, bias_unitary, ellipse_of, hwp, is_unitary,
                     phase_shift, qwp, sagnac_loop)
from qsagnac import NOON2, SINGLE, SwitchState, sagnac_phase, scale_factor
from qsagnac.analysis import (calibrate_scale_factor, demodulate_trace,
                              enhancement_factor, extract_earth_phase,
                              fit_switch_pair, mc_uncertainty, nlls, wrap_phase)
from qsagnac.cli import (_GFRING_KEYS, config_kwargs, design_from_dict,
                         geometry_from_dict)
from qsagnac.expsim import (NoiseConfig, RateConfig, simulate_counts,
                            simulate_polarimeter)
from qsagnac.sensedesign import optimize_gfring, rotation_resolution


def recipe(name):
    """The bundled recipe name, whose inputs each criterion reproduces."""
    path = resources.files("qsagnac") / "recipes" / f"{name}.json"
    return json.loads(path.read_text())


FIG2 = recipe("fig2")
SIM = FIG2["simulate"]
OMEGA_E = SIM["true_omega_rad_s"]
PHI0_NOON = SIM["phi0_rad"]["noon"]
PHI0_SINGLE = SIM["phi0_rad"]["single"]
# the paper's 715 m^2 loop at zero frame angle, and at the recipe's one
# frame angle of 2.5 deg
GEOM = geometry_from_dict(FIG2["geometry"], "fig2 geometry")
GEOM_25 = replace(GEOM, frame_angle=math.radians(SIM["theta_deg"][0]))
# the one-photon rotation phase of the tilted loop, the truth of the estimators
PHI_S_25 = scale_factor(GEOM) * OMEGA_E * math.cos(GEOM_25.frame_angle)

QUIET = NoiseConfig(dark_rate=0.0, motor_sigma=0.0, drift_rate=0.0,
                    walk_sigma=0.0, polarimeter_sigma=0.0, leakage_fraction=0.0)
TIGHT = RateConfig(coincidence_window=1e-15)


@pytest.fixture
def verdict(capfd):
    def check(criterion, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return check


def test_criterion_1_scale_factor(verdict):
    s = scale_factor(GEOM)
    ok = abs(s - 38.8) / 38.8 < 0.003
    verdict(1, ok, f"S = {s:.4f} s vs 38.8 s ({abs(s - 38.8) / 38.8:.2%} off)")


def test_criterion_2_sagnac_phase(verdict):
    phi = sagnac_phase(GEOM, OMEGA_E)
    ok_one = abs(phi - 2.83e-3) <= 0.005e-3
    ok_two = abs(2.0 * phi - 5.5e-3) <= 0.4e-3
    verdict(2, ok_one and ok_two,
            f"phi_s = {1e3 * phi:.4f} mrad (vs 2.83), "
            f"2 phi_s = {2e3 * phi:.4f} mrad (vs 5.5 +- 0.4)")


def test_criterion_3_unbiased_estimator_and_enhancement(verdict):
    estimates = {"noon": [], "single": []}
    roots = np.random.SeedSequence(2024).spawn(200)
    for child in roots:
        a, b = child.spawn(2)
        recs = simulate_counts(NOON2, GEOM_25, PHI0_NOON, OMEGA_E, a,
                               duration_s=10.0)
        estimates["noon"].append(fit_switch_pair(recs, "noon")[2].phi_e)
        recs = simulate_counts(SINGLE, GEOM_25, PHI0_SINGLE, OMEGA_E, b,
                               duration_s=10.0)
        estimates["single"].append(fit_switch_pair(recs, "single")[2].phi_e)

    truth = {"noon": 2.0 * PHI_S_25, "single": PHI_S_25}
    bias_ok, notes = True, []
    for kind, vals in estimates.items():
        vals = np.array(vals)
        bias = abs(vals.mean() - truth[kind])
        sig = vals.std(ddof=1)
        bias_ok &= bias < 0.3 * sig
        notes.append(f"{kind} bias {1e3 * bias:.4f} mrad vs 0.3 sigma "
                     f"= {0.3e3 * sig:.4f}")

    clean = {}
    for kind, phis in (("noon", PHI0_NOON), ("single", PHI0_SINGLE)):
        recs = simulate_counts(NOON2 if kind == "noon" else SINGLE, GEOM_25,
                               phis, OMEGA_E, 0, duration_s=1e6, noise=QUIET,
                               rates=TIGHT, sample_poisson=False)
        fit_on, fit_off, earth = fit_switch_pair(recs, kind)
        clean[kind] = (earth.phi_e, earth.phi_e_sigma)
    ratio, _ = enhancement_factor(clean["noon"], clean["single"])
    ratio_ok = abs(ratio - 2.0) < 1e-6
    verdict(3, bias_ok and ratio_ok,
            "; ".join(notes) + f"; noiseless enhancement = {ratio:.8f}")


def test_criterion_4_table_statistics(verdict):
    recs_noon = simulate_counts(NOON2, GEOM_25, PHI0_NOON, OMEGA_E, 7,
                                duration_s=SIM["duration_s"]["noon"],
                                visibility=SIM["visibility"]["noon"])
    recs_single = simulate_counts(SINGLE, GEOM_25, PHI0_SINGLE, OMEGA_E, 8,
                                  duration_s=SIM["duration_s"]["single"],
                                  visibility=SIM["visibility"]["single"])
    mc_noon = mc_uncertainty(recs_noon, "noon", n_samples=1000, seed=1)
    mc_single = mc_uncertainty(recs_single, "single", n_samples=1000, seed=2)

    s1 = mc_single.param_sigmas["on"]["phase"]
    s2 = mc_noon.param_sigmas["on"]["phase"]
    v1 = mc_single.param_means["on"]["visibility"]
    v2 = mc_noon.param_means["on"]["visibility"]
    ok = (abs(s1 - 2.45e-3) <= 0.5e-3 and abs(s2 - 4.95e-3) <= 1.0e-3
          and abs(v1 - 0.997) <= 0.002 and 0.96 <= v2 <= 0.975)
    verdict(4, ok,
            f"phase sigmas {1e3 * s1:.2f} / {1e3 * s2:.2f} mrad "
            f"(vs 2.45 +- 0.5 / 4.95 +- 1.0), "
            f"visibilities {100 * v1:.2f}% / {100 * v2:.2f}%")


def test_criterion_5_calibration(verdict):
    given = recipe("fig4_cw")["fit"]["calibration"]
    cal = calibrate_scale_factor(np.radians(given["angles_deg"]),
                                 given["phases_rad"], given["sigmas_rad"],
                                 omega_earth=given["omega_earth_rad_s"],
                                 n_samples=given["mc_samples"], seed=5)
    ok = (abs(cal.scale_factor - 38.8) <= 0.15
          and abs(cal.theta_offset) <= math.radians(0.5))
    verdict(5, ok,
            f"S = {cal.scale_factor:.3f} +- {cal.scale_factor_sigma:.3f} s, "
            f"theta_0 = {math.degrees(cal.theta_offset):+.3f} deg")


def test_criterion_6_design_table(verdict):
    printed_s = {"this work": 38.8, "CFOG": 8.1, "LFOG": 74.0, "GFOG": 811.0,
                 "GFRING": 951320.0}
    printed_d_phi = {"LFOG": 2.38e-8, "GFOG": 1.69e-8, "GFRING": 2.31e-8}
    printed_d_omega = {"this work": 4.61e-6, "LFOG": 3.21e-10,
                       "GFOG": 2.11e-11, "GFRING": 2.43e-14}
    reports = {d["name"]: rotation_resolution(design_from_dict(d))
               for d in recipe("table3")["design"]["specs"]}

    ok = all(abs(reports[n].scale_factor - s) / s < 0.015
             for n, s in printed_s.items())
    ok &= all(abs(reports[n].delta_phi_projected - p) / p < 0.03
              for n, p in printed_d_phi.items())
    ok &= all(abs(reports[n].delta_omega - o) / o < 0.02
              for n, o in printed_d_omega.items())
    cfog_gap = abs(reports["CFOG"].delta_omega / 1.95e-9 - 1.0)
    ok &= cfog_gap > 0.10
    verdict(6, ok,
            "S/delta_phi/delta_omega columns inside 1.5%/3%/2%; CFOG "
            f"delta_omega = {reports['CFOG'].delta_omega:.3e} rad/s, "
            f"{cfog_gap:.0%} from the printed 1.95e-9 (documented as "
            "irreproducible from the printed inputs)")


def test_criterion_7_gfring_optimizer(verdict):
    gfring = recipe("table3")["design"]["gfring"]
    opt = optimize_gfring(**config_kwargs(gfring, _GFRING_KEYS))
    ok = opt.turns == 8 and abs(opt.fiber_length - 47500.0) / 47500.0 <= 0.05
    verdict(7, ok, f"L = {opt.fiber_length / 1e3:.2f} km (vs 47.5 +- 5%), "
                   f"n_t = {opt.turns} (vs 8)")


def _unitarity_suite():
    rng = np.random.default_rng(11)
    for _ in range(200):
        angle = rng.uniform(-math.pi, math.pi)
        phase = rng.uniform(-math.pi, math.pi)
        prod = hwp(angle) @ qwp(-angle) @ bias_unitary(phase) \
            @ sagnac_loop(phase) @ phase_shift(-phase)
        if not is_unitary(prod, tol=1e-10):
            return False
        out = H.apply(prod)
        if abs(out.norm - 1.0) > 1e-10:
            return False
        ellipse_of(out)  # must stay finite and defined on every unit state
    return True


def _round_trip_suite():
    x = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    for v in (0.9, 0.97, 1.0):
        for phase in np.linspace(-math.pi, math.pi, 12, endpoint=False):
            y = 0.5 * 2e5 * (1.0 + v * np.cos(2.0 * x + phase))
            fit = nlls("noon", x, y)
            if abs(wrap_phase(fit.phase - phase)) > 1e-6:
                return False
            if abs(fit.visibility - v) > 1e-6:
                return False
            y = 0.45 * (1.0 - v * np.cos(x + phase)) \
                / (1.0 + 0.1 * v * np.cos(x + phase))
            fit = nlls("single", x, y, weights=np.full(24, 1e8))
            if abs(wrap_phase(fit.phase - phase)) > 1e-6:
                return False
    return True


def _coverage_suite():
    noise = replace(QUIET, dark_rate=300.0)
    truth = 2.0 * PHI_S_25
    hits = 0
    n_sets = 400
    for child in np.random.SeedSequence(77).spawn(n_sets):
        a, b = child.spawn(2)
        recs = simulate_counts(NOON2, GEOM_25, PHI0_NOON, OMEGA_E, a,
                               duration_s=10.0, visibility=0.97, noise=noise)
        mc = mc_uncertainty(recs, "noon", n_samples=400, motor_sigma=0.0,
                            seed=b)
        fit_on, fit_off = mc.fits
        earth = extract_earth_phase(fit_on, fit_off, mc=mc)
        if abs(earth.phi_e - truth) <= earth.phi_e_sigma:
            hits += 1
    return hits / n_sets


def _drift_rejection_suite():
    noise = NoiseConfig(dark_rate=0.0, motor_sigma=0.0, drift_rate=1e-6,
                        walk_sigma=0.0, polarimeter_sigma=0.0,
                        leakage_fraction=0.0)
    trace = simulate_polarimeter(GEOM, OMEGA_E, 600.0, seed=3, noise=noise)
    phi = demodulate_trace(trace).phi_s
    # 600 s of drift move the raw ellipticity by 100x the signal; the
    # switch-synchronous difference must stay at the few-ppm level
    return abs(phi - sagnac_phase(GEOM, OMEGA_E)) < 1e-5


def _poisson_suite():
    recs = simulate_counts(NOON2, GEOM, [math.pi / 4] * 2000, OMEGA_E, seed=12,
                           duration_s=1.0, noise=QUIET)
    n = np.array([r.n_hv for r in recs if r.switch is SwitchState.ON],
                 dtype=float)
    return n.var() / n.mean()


def test_criterion_8_property_suites(verdict):
    unitary_ok = _unitarity_suite()
    round_trip_ok = _round_trip_suite()
    coverage = _coverage_suite()
    coverage_ok = 0.63 <= coverage <= 0.73
    drift_ok = _drift_rejection_suite()
    vmr = _poisson_suite()
    vmr_ok = 0.9 <= vmr <= 1.1
    ok = unitary_ok and round_trip_ok and coverage_ok and drift_ok and vmr_ok
    verdict(8, ok,
            f"unitarity {'ok' if unitary_ok else 'FAIL'}, "
            f"fit round-trips {'ok' if round_trip_ok else 'FAIL'}, "
            f"MC coverage {coverage:.1%} (need 68% +- 5%), "
            f"drift rejection {'ok' if drift_ok else 'FAIL'}, "
            f"Poisson var/mean {vmr:.3f}")
