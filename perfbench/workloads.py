"""The benchmark's three workloads.

Each workload builds its inputs from the run seed; the same seed gives
the same inputs.  Operations of polarimeter_long and cli_recipes all
work on the same inputs; sweep_bootstrap draws new data for each
operation from the seed and the operation's index.  op() runs one
operation and returns its wall time and one outcome per user-level
operation inside it; check() turns an outcome into failure messages and
runs outside the timed region.

    sweep_bootstrap   one six-angle frame sweep of both probe kinds
                      (fig3_tables12): simulate, counts-CSV round trip,
                      fit pairs, bootstrap, Earth phases, sweep fits,
                      enhancement.  One outcome.
    cli_recipes       one cycle of six qsagnac commands, each in a fresh
                      interpreter, one client waiting on each.  Six outcomes.
    polarimeter_long  for each of three trace lengths, polarimeter traces
                      at the six calibration angles of fig4_cw through
                      simulate, trace-CSV round trip and demodulation,
                      then a scale-factor calibration.  Three outcomes.

Checks use physical tolerances, so rewrites that change results in the
last digits still pass.  PULL_LIMIT is in units of the estimate's own
sigma: the pulls are close to unit normal, and at 3 sigma about one seed
in a hundred would fail one of the sweep checks; the benchmark runs tens
of seeds, so the limit sits at 5 sigma (about 1e-5 per check).
"""

import importlib.resources
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import qsagnac
from qsagnac import analysis, expsim

PULL_LIMIT = 5.0
# the GFRING length comes from a root bracket with an xtol of 1 mm
SNR_RTOL = 1e-6
KINDS = {"noon": qsagnac.NOON2, "single": qsagnac.SINGLE}
HERE = os.path.dirname(os.path.abspath(__file__))
# `python -m qsagnac.cli` that also reports its own peak RSS on stderr: a
# child's ru_maxrss would include the benchmark's resident set at fork time
CLI_MAIN = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('qsagnac.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    with open('/proc/self/status') as f:\n"
            "        print(*[l.strip() for l in f if l.startswith('VmHWM:')], file=sys.stderr)\n")
PEAK_LINE = re.compile(r"^VmHWM:\s+(\d+) kB$", re.MULTILINE)


def recipe(name):
    return json.loads(importlib.resources.files("qsagnac.recipes")
                      .joinpath(name).read_text())


def geometry(cfg):
    kwargs = {"frame_angle": math.radians(float(cfg.get("frame_angle_deg", 0.0))),
              "wavelength": float(cfg["wavelength_m"]),
              "effective_area": cfg.get("effective_area_m2")}
    if cfg["shape"] == "square":
        return qsagnac.InterferometerGeometry.square(
            float(cfg["fiber_length_m"]), int(cfg["turns"]), **kwargs)
    return qsagnac.InterferometerGeometry.circular(
        float(cfg["fiber_length_m"]), float(cfg["perimeter_m"]), **kwargs)


def schedule(cfg):
    return expsim.SwitchSchedule(frequency=float(cfg["frequency_hz"]),
                                 duty=float(cfg["duty"]),
                                 transition_halfwidth=float(cfg["transition_halfwidth_s"]))


def seeds(seed, n):
    """n integer seeds drawn from the run seed (an int or a list of ints)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def pull_failure(label, value, sigma, truth):
    pull = (value - truth) / sigma if sigma > 0.0 else math.inf
    if abs(pull) <= PULL_LIMIT:
        return []
    return [f"{label} = {value:.6g} +- {sigma:.2g} is {pull:+.1f} sigma from {truth:.6g}"]


def difference_sigma(sigma_sample, n_on, n_off):
    """Sigma of an on-mean minus off-mean of samples with sigma sigma_sample."""
    return sigma_sample * math.sqrt(1.0 / n_on + 1.0 / n_off)


def phase_failure(label, phi_s, n_on, n_off, truth, sigma_sample):
    # phi_s = 2 |(d_chi, d_psi)|: the noise moves it by at most twice the
    # length of the noise vector, whose components have sigma sigma_e
    sigma_e = difference_sigma(sigma_sample, n_on, n_off)
    if abs(phi_s - truth) <= PULL_LIMIT * 2.0 * sigma_e:
        return []
    return [f"{label}: phi_s = {phi_s:.6g} rad, sagnac_phase = {truth:.6g} rad "
            f"(tolerance {PULL_LIMIT * 2.0 * sigma_e:.2g})"]


class SweepBootstrap:
    name = "sweep_bootstrap"
    recipes = ("fig3_tables12.json",)
    in_process = True
    timing_units = {"sweep_s": "s", "earth_phase_s.noon": "s",
                    "earth_phase_s.single": "s"}

    def __init__(self, seed, workdir, smoke):
        cfg = recipe("fig3_tables12.json")
        self.sim = cfg["simulate"]
        self.geom = geometry(cfg["geometry"])
        self.schedule = schedule(cfg["schedule"])
        self.thetas = [math.radians(t) for t in self.sim["theta_deg"]]
        self.omega = float(self.sim["true_omega_rad_s"])
        self.motor_sigma = float(cfg["fit"]["motor_sigma_rad"])
        self.mc_samples = 200 if smoke else 10_000
        self.scale = qsagnac.scale_factor(self.geom)
        self.seed = seed
        self.workdir = workdir

    def inputs(self, run):
        """Data and bootstrap seeds of operation `run`, drawn from the run seed.

        The time of a sweep depends on its data (slow-converging refits),
        so each operation gets its own inputs and a run's median covers
        many of them rather than the luck of one.
        """
        n = len(self.thetas)
        drawn = seeds([self.seed, max(run, 0)], 2 + 2 * n)
        return (dict(zip(KINDS, drawn[:2])),
                {"noon": drawn[2:2 + n], "single": drawn[2 + n:]})

    def op(self, tr, timings, run):
        t0 = time.perf_counter()
        sweeps, round_trip = {}, {}
        sim = self.sim
        data_seeds, mc_seeds = self.inputs(run)
        for kind, probe in KINDS.items():
            written = tr.call(
                "expsim.angle_sweep", expsim.angle_sweep, probe, self.geom,
                self.thetas, sim["phi0_rad"][kind], self.omega, data_seeds[kind],
                base_phase=sim["base_phase_rad"][kind],
                duration_s=float(sim["duration_s"][kind]), schedule=self.schedule,
                visibility=float(sim["visibility"][kind]))
            path = os.path.join(self.workdir, f"counts_{kind}.csv")
            tr.call("expsim.write_counts_csv", expsim.write_counts_csv, written, path)
            records = tr.call("expsim.read_counts_csv", expsim.read_counts_csv, path)
            round_trip[kind] = (written, records)
            angles, phases, sigmas = [], [], []
            groups = analysis.group_records_by_angle(records)
            for (theta, recs), mc_seed in zip(groups.items(), mc_seeds[kind]):
                e0 = time.perf_counter()
                fit_on, fit_off, _ = tr.call("analysis.fit_switch_pair",
                                             analysis.fit_switch_pair, recs, kind)
                mc = tr.call("analysis.mc_uncertainty", analysis.mc_uncertainty,
                             recs, kind, n_samples=self.mc_samples,
                             motor_sigma=self.motor_sigma, seed=mc_seed)
                earth = tr.call("analysis.extract_earth_phase",
                                analysis.extract_earth_phase, fit_on, fit_off, mc)
                timings[f"earth_phase_s.{kind}"].append(time.perf_counter() - e0)
                angles.append(theta)
                phases.append(earth.phi_e)
                sigmas.append(earth.phi_e_sigma)
            sweeps[kind] = tr.call("analysis.fit_angle_sweep", analysis.fit_angle_sweep,
                                   angles, phases, sigmas, self.scale,
                                   enhancement=probe.enhancement)
        enhancement = tr.call(
            "analysis.enhancement_factor", analysis.enhancement_factor,
            (sweeps["noon"].amplitude, sweeps["noon"].amplitude_sigma),
            (sweeps["single"].amplitude, sweeps["single"].amplitude_sigma))
        wall = time.perf_counter() - t0
        timings["sweep_s"].append(wall)
        return wall, [{"sweeps": sweeps, "enhancement": enhancement,
                       "round_trip": round_trip}]

    def check(self, out):
        bad = []
        for kind, (written, records) in out["round_trip"].items():
            if [(r.n_h, r.n_v, r.n_hv, r.switch) for r in written] != \
                    [(r.n_h, r.n_v, r.n_hv, r.switch) for r in records]:
                bad.append(f"{kind} counts changed in the CSV round trip")
        for kind, sweep in out["sweeps"].items():
            bad += pull_failure(f"{kind} sweep omega", sweep.omega,
                                sweep.omega_sigma, self.omega)
        value, sigma = out["enhancement"]
        bad += pull_failure("enhancement", value, sigma, 2.0)
        return bad


class PolarimeterLong:
    name = "polarimeter_long"
    recipes = ("fig4_cw.json",)
    in_process = True
    timing_units = {"trace_pipeline_s": "s", "trace_samples_per_s": "samples/s"}

    def __init__(self, seed, workdir, smoke):
        cfg = recipe("fig4_cw.json")
        self.base = geometry(cfg["geometry"])
        self.schedule = schedule(cfg["schedule"])
        self.omega = float(cfg["simulate"]["true_omega_rad_s"])
        cal = cfg["fit"]["calibration"]
        self.angles = [math.radians(float(a)) for a in cal["angles_deg"]]
        self.cal_samples = int(cal["mc_samples"])
        recipe_length = float(cfg["simulate"]["trace"]["total_time_s"])
        self.lengths = (120.0, 240.0) if smoke else \
            (recipe_length, 2.0 * recipe_length, 4.0 * recipe_length)
        self.sigma_sample = expsim.NoiseConfig().polarimeter_sigma
        drawn = seeds(seed, len(self.lengths) * (len(self.angles) + 1))
        self.seeds = [drawn[i * (len(self.angles) + 1):(i + 1) * (len(self.angles) + 1)]
                      for i in range(len(self.lengths))]
        self.workdir = workdir

    def op(self, tr, timings, run):
        t0 = time.perf_counter()
        outcomes, samples = [], 0
        for length, drawn in zip(self.lengths, self.seeds):
            demods, geoms = [], []
            for theta, seed in zip(self.angles, drawn):
                geom = replace(self.base, frame_angle=theta)
                trace = tr.call("expsim.simulate_polarimeter", expsim.simulate_polarimeter,
                                geom, self.omega, length, seed, schedule=self.schedule)
                path = os.path.join(self.workdir, "trace.csv")
                tr.call("expsim.write_trace_csv", expsim.write_trace_csv, trace, path)
                trace = tr.call("expsim.read_trace_csv", expsim.read_trace_csv, path)
                demods.append(tr.call("analysis.demodulate_trace",
                                      analysis.demodulate_trace, trace, self.schedule))
                geoms.append(geom)
                samples += len(trace.t)
            sigmas = [2.0 * difference_sigma(self.sigma_sample, d.n_on, d.n_off)
                      for d in demods]
            cal = tr.call("analysis.calibrate_scale_factor",
                          analysis.calibrate_scale_factor, self.angles,
                          [d.phi_s for d in demods], sigmas, omega_earth=self.omega,
                          n_samples=self.cal_samples, seed=drawn[-1])
            outcomes.append({"length": length, "geoms": geoms, "demods": demods,
                             "calibration": cal})
        wall = time.perf_counter() - t0
        timings["trace_pipeline_s"].append(wall)
        timings["trace_samples_per_s"].append(samples / wall)
        return wall, outcomes

    def check(self, out):
        bad = []
        for geom, demod in zip(out["geoms"], out["demods"]):
            bad += phase_failure(
                f"{out['length']:.0f} s trace at {math.degrees(geom.frame_angle):+.1f} deg",
                demod.phi_s, demod.n_on, demod.n_off,
                qsagnac.sagnac_phase(geom, self.omega), self.sigma_sample)
        cal = out["calibration"]
        bad += pull_failure(f"{out['length']:.0f} s calibrated S", cal.scale_factor,
                            cal.scale_factor_sigma, qsagnac.scale_factor(self.base))
        return bad


class CliRecipes:
    name = "cli_recipes"
    recipes = ("fig2.json", "fig4_cw.json", "table3.json", "fig5.json")
    in_process = False
    timing_units = {"cli.simulate_s": "s", "cli.fit_fast_s": "s", "cli.fit_s": "s",
                    "cli.design_s": "s"}
    # (timing key, recipe, qsagnac arguments); fit reads what simulate wrote
    COMMANDS = (
        ("cli.simulate_s", "fig2.json", ("simulate",)),
        ("cli.fit_fast_s", "fig2.json", ("fit", "--fast")),
        ("cli.simulate_s", "fig4_cw.json", ("simulate",)),
        ("cli.fit_s", "fig4_cw.json", ("fit",)),
        ("cli.design_s", "table3.json", ("design", "--optimize-gfring")),
        ("cli.design_s", "fig5.json", ("design",)),
    )

    def __init__(self, seed, workdir, smoke):
        self.workdir = workdir
        self.configs = {}
        for name, drawn in zip(self.recipes, seeds(seed, len(self.recipes))):
            cfg = recipe(name)
            if "seed" in cfg:
                cfg["seed"] = drawn
            path = os.path.join(workdir, "config_" + name)
            with open(path, "w") as f:
                json.dump(cfg, f)
            self.configs[name] = (path, cfg)
        self.env = dict(os.environ)
        self.peak_rss_kb = 0

    def op(self, tr, timings, run):
        cycle = os.path.join(self.workdir, "cycle")
        shutil.rmtree(cycle, ignore_errors=True)
        wall, outcomes = 0.0, []
        for key, name, args in self.COMMANDS:
            out_dir = os.path.join(cycle, name[:-len(".json")])
            argv = [*args, "--config", self.configs[name][0], "--out", out_dir]
            spans_file = None
            with tr.span("cli.interpreter") as rec:
                if tr.enabled:
                    spans_file = os.path.join(self.workdir, f"spans_{len(outcomes)}.json")
                    cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"),
                           spans_file, str(run), rec["id"], "--", *argv]
                else:
                    cmd = [sys.executable, "-c", CLI_MAIN, *argv]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                      capture_output=True, text=True, timeout=150)
                took = time.perf_counter() - t0
            wall += took
            timings[key].append(took)
            peak = PEAK_LINE.search(proc.stderr)
            if peak:
                self.peak_rss_kb = max(self.peak_rss_kb, int(peak.group(1)))
            outcomes.append({"recipe": name, "args": args,
                             "returncode": proc.returncode,
                             "stderr": PEAK_LINE.sub("", proc.stderr),
                             "out_dir": out_dir, "spans_file": spans_file})
        return wall, outcomes

    def check(self, out):
        label = f"qsagnac {' '.join(out['args'])} ({out['recipe']})"
        if out["returncode"] != 0:
            tail = out["stderr"].strip().splitlines()[-1:] or ["no output"]
            return [f"{label} exited {out['returncode']}: {tail[0]}"]
        out_dir = out["out_dir"]
        try:
            with open(os.path.join(out_dir, f"manifest_{out['args'][0]}.json")) as f:
                manifest = json.load(f)
        except (OSError, ValueError) as exc:
            return [f"{label}: no readable manifest: {exc}"]
        missing = [o for o in manifest["outputs"]
                   if not os.path.isfile(os.path.join(out_dir, o))
                   or os.path.getsize(os.path.join(out_dir, o)) == 0]
        if missing or not manifest["outputs"]:
            return [f"{label}: outputs missing or empty: {missing or 'none listed'}"]
        report_name = {"fit": "fit_report.json", "design": "design_report.json"}
        if out["args"][0] not in report_name:
            return []
        with open(os.path.join(out_dir, report_name[out["args"][0]])) as f:
            report = json.load(f)
        return [f"{label}: {msg}" for msg in self._physics(out["recipe"], report)]

    def _physics(self, name, report):
        cfg = self.configs[name][1]
        if name == "fig2.json":
            return pull_failure("enhancement", report["enhancement"]["value"],
                                report["enhancement"]["sigma"], 2.0)
        if name == "fig4_cw.json":
            geom = geometry(cfg["geometry"])
            theta = math.radians(float(cfg["simulate"]["trace"]["theta_deg"]))
            demod = report["demodulation"]
            bad = phase_failure("demodulated trace", demod["phi_s"], demod["n_on"],
                                demod["n_off"],
                                qsagnac.sagnac_phase(replace(geom, frame_angle=theta),
                                                     float(cfg["simulate"]["true_omega_rad_s"])),
                                expsim.NoiseConfig().polarimeter_sigma)
            cal = report["calibration"]
            return bad + pull_failure("calibrated S", cal["scale_factor"],
                                      cal["scale_factor_sigma"], qsagnac.scale_factor(geom))
        if name == "table3.json":
            target = float(cfg["design"]["gfring"]["target_snr"])
            snr = report["gfring_optimum"]["report"]["snr_gr"]
            if snr >= target * (1.0 - SNR_RTOL):
                return []
            return [f"GFRING optimum reaches SNR {snr:.6g}, target {target:.6g}"]
        if len(report.get("landscape", ())) != len(cfg["design"]["specs"]):
            return ["landscape does not place every design"]
        return []


WORKLOADS = {w.name: w for w in (SweepBootstrap, CliRecipes, PolarimeterLong)}
