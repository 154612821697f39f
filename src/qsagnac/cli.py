"""Command line interface: simulate raw data, fit it, evaluate designs.

All commands consume one JSON config (see the bundled recipes).  Each
command computes its products and returns them as {file name: writer};
main then writes them into --out, and the manifest last, so a failed run
writes nothing.  Relative input paths in a config are resolved against
--out, so a fit can chain onto a simulate run in the same directory.
Exit codes: 0 success, 2 bad config or input, 3 fit or feasibility
failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .analysis import (DegenerateDesignError, FitError, UndefinedRatioError,
                       calibrate_scale_factor, demodulate_trace,
                       enhancement_factor, extract_earth_phase,
                       fit_angle_sweep, fit_switch_pair,
                       group_records_by_angle, mc_uncertainty)
from .expsim import (NoiseConfig, RateConfig, SwitchSchedule, angle_sweep,
                     new_file, read_counts_csv, read_trace_csv,
                     simulate_polarimeter, write_counts_csv, write_trace_csv)
from .probe import NOON2, SINGLE
from .sagnac import (_GEOMETRY_KEYS, CONSTANTS, config_kwargs, from_degrees,
                     geometry_from_dict, scale_factor)
from .sensedesign import (_DESIGN_KEYS, InfeasibleDesignError, design_from_dict,
                          landscape, optimize_gfring, rotation_resolution)

SCHEMA_VERSION = 1

_KINDS = {"noon": NOON2, "single": SINGLE}
_FAST_SAMPLES = 1000  # Monte-Carlo sample count under --fast


def _load_config(path):
    try:
        with open(path) as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    version = config.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version {version!r}, "
                         f"this build reads {SCHEMA_VERSION}")
    _check_keys(config, _CONFIG_KEYS, "config")
    return config


# JSON key -> (keyword, type) for each config block, read by config_kwargs;
# defaults stay with the dataclass or function each block configures
_SCHEDULE_KEYS = {
    "frequency_hz": ("frequency", float),
    "duty": ("duty", float),
    "transition_halfwidth_s": ("transition_halfwidth", float),
}
_RATES_KEYS = {
    "pair_rate_detected_hz": ("pair_rate_detected", float),
    "heralded_single_rate_hz": ("heralded_single_rate", float),
    "cw_sample_rate_hz": ("cw_sample_rate", float),
    "coincidence_window_s": ("coincidence_window", float),
}
_NOISE_KEYS = {
    "dark_rate_hz": ("dark_rate", float),
    "motor_sigma_rad": ("motor_sigma", float),
    "drift_rate_rad_s": ("drift_rate", float),
    "walk_sigma_rad": ("walk_sigma", float),
    "polarimeter_sigma_rad": ("polarimeter_sigma", float),
    "leakage_fraction": ("leakage_fraction", float),
}
_SIMULATE_KEYS = {
    "true_omega_rad_s": ("true_omega", float),
    "theta_deg": ("theta_list", from_degrees),
    "sample_poisson": ("sample_poisson", bool),
}
# simulate keys that take a scalar or a {kind: value} map
_PER_KIND_KEYS = {
    "phi0_rad": ("phi0_list", float),
    "base_phase_rad": ("base_phase", float),
    "duration_s": ("duration_s", float),
    "visibility": ("visibility", float),
    "channel_asymmetry": ("channel_asymmetry", float),
}
_TRACE_KEYS = {
    "theta_deg": ("frame_angle", from_degrees),
    "total_time_s": ("total_time", float),
}
_FIT_KEYS = {
    "scale_factor_s": ("scale_factor_s", float),
}
_MC_KEYS = {
    "mc_samples": ("n_samples", int),
    "motor_sigma_rad": ("motor_sigma", float),
}
_CALIBRATION_KEYS = {
    "angles_deg": ("angles", from_degrees),
    "phases_rad": ("phases", float),
    "sigmas_rad": ("sigmas", float),
    "omega_earth_rad_s": ("omega_earth", float),
    "mc_samples": ("n_samples", int),
}
_GFRING_KEYS = {
    "latitude_deg": ("latitude", from_degrees),
    "alpha_db_per_km": ("alpha_db_per_km", float),
    "pair_rate_in_hz": ("pair_rate_in", float),
    "integration_time_s": ("integration_time", float),
    "target_snr": ("target_snr", float),
    "wavelength_m": ("wavelength", float),
    "nt_max": ("nt_max", int),
    "l_min_m": ("l_min", float),
}


def _block(*tables, **blocks):
    """Keys of a config block: the keys of its tables, then the blocks in it."""
    return {**dict.fromkeys(key for table in tables for key in table), **blocks}


# every key a config may hold; a key maps to the keys of the block it holds,
# [keys] for a list of blocks, or None for a value
_CONFIG_KEYS = _block(
    ["schema_version", "seed"],
    geometry=_block(_GEOMETRY_KEYS, ["shape"]), schedule=_block(_SCHEDULE_KEYS),
    rates=_block(_RATES_KEYS), noise=_block(_NOISE_KEYS),
    simulate=_block(_SIMULATE_KEYS, _PER_KIND_KEYS, ["kinds"],
                    trace=_block(_TRACE_KEYS)),
    fit=_block(_FIT_KEYS, _MC_KEYS, ["counts", "trace"],
               calibration=_block(_CALIBRATION_KEYS)),
    design=_block(["landscape"], gfring=_block(_GFRING_KEYS),
                  specs=[_block(_GEOMETRY_KEYS, _DESIGN_KEYS, ["name", "shape"])]),
)


def _check_keys(block, keys, where):
    """Raise ValueError on a key that no block of the config reads."""
    if isinstance(keys, list):
        for i, item in enumerate(block if isinstance(block, list) else []):
            _check_keys(item, keys[0], f"{where}[{i}]")
    elif isinstance(block, dict):
        unknown = sorted(set(block) - set(keys))
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
        for key, sub in keys.items():
            if sub is not None and key in block:
                _check_keys(block[key], sub, f"{where}.{key}")


def _per_kind(cfg, kind):
    """The per-kind simulate keys of cfg resolved for one probe kind."""
    return config_kwargs({k: v.get(kind) if isinstance(v, dict) else v
                          for k, v in cfg.items() if k in _PER_KIND_KEYS},
                         _PER_KIND_KEYS)


def _resolve(path, out_dir):
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _csv_writer(header, rows):
    """A function that writes header and rows as one CSV file at its path."""
    def write(path):
        with new_file(path, newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
    return write


def _announced(write, message):
    """write, then print message."""
    def run(path):
        write(path)
        print(message)
    return run


def _report_form(obj):
    """JSON form of a value json cannot encode: a dataclass, or an array as a list.

    A dataclass gives its fields in order, each under the key in its
    metadata "json" (a design field's unit-suffixed name), else its name.
    """
    if is_dataclass(obj):
        return {f.metadata.get("json", f.name): getattr(obj, f.name)
                for f in fields(obj)}
    return obj.tolist()


def _json_writer(report):
    """A function that writes report as indented JSON at its path."""
    def write(path):
        with new_file(path) as f:
            json.dump(report, f, indent=2, default=_report_form)
    return write


def _write_outputs(args, config, outputs):
    """Create --out, write each output in order, then the manifest listing them.

    The command's old manifest is removed before the first output is
    written, so a run that fails partway leaves no manifest that describes
    files it did not write.
    """
    os.makedirs(args.out, exist_ok=True)
    manifest = os.path.join(args.out, f"manifest_{args.command}.json")
    try:
        os.remove(manifest)
    except FileNotFoundError:
        pass
    for name, write in outputs.items():
        write(os.path.join(args.out, name))
    _json_writer({
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": args.command,
        "seed": _seed_of(args, config),
        "fast": args.fast,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "config": config,
        "outputs": list(outputs),
    })(manifest)


def _seed_of(args, config):
    return args.seed if args.seed is not None else int(config.get("seed", 0))


def cmd_simulate(args, config, sim):
    geom = geometry_from_dict(config.get("geometry") or {})
    schedule = SwitchSchedule(**config_kwargs(config.get("schedule") or {},
                                              _SCHEDULE_KEYS))
    rates = RateConfig(**config_kwargs(config.get("rates") or {}, _RATES_KEYS))
    noise = NoiseConfig(**config_kwargs(config.get("noise") or {}, _NOISE_KEYS))
    opts = config_kwargs(sim, _SIMULATE_KEYS)
    true_omega = opts.pop("true_omega", CONSTANTS.omega_earth)
    thetas = opts.pop("theta_list", [geom.frame_angle])

    root = np.random.SeedSequence(_seed_of(args, config))
    outputs = {}
    for kind in sim.get("kinds", ["noon"]):
        if kind not in _KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        kind_opts = _per_kind(sim, kind)
        if "phi0_list" not in kind_opts:
            raise ValueError(f"simulate.phi0_rad missing for kind {kind!r}")
        records = angle_sweep(
            _KINDS[kind], geom, thetas, true_omega=true_omega,
            seed=root.spawn(1)[0], schedule=schedule, rates=rates, noise=noise,
            **opts, **kind_opts)
        outputs[f"counts_{kind}.csv"] = _announced(
            partial(write_counts_csv, records), f"wrote counts_{kind}.csv: "
            f"{len(records)} records over {len(thetas)} angle(s)")

    trace_cfg = sim.get("trace")
    if trace_cfg is not None:
        trace_opts = config_kwargs(trace_cfg, _TRACE_KEYS)
        t_geom = replace(geom, frame_angle=trace_opts.get("frame_angle", geom.frame_angle))
        trace = simulate_polarimeter(t_geom, true_omega,
                                     trace_opts.get("total_time", 600.0),
                                     root.spawn(1)[0], schedule=schedule,
                                     rates=rates, noise=noise)
        outputs["trace.csv"] = _announced(partial(write_trace_csv, trace),
                                          f"wrote trace.csv: {len(trace.t)} samples")
    return outputs


_TABLE_COLUMNS = ("theta_deg", "v_on_pct", "v_on_sigma_pct", "v_off_pct",
                  "v_off_sigma_pct", "phi_on_mrad", "phi_on_sigma_mrad",
                  "phi_off_mrad", "phi_off_sigma_mrad", "phi_e_mrad",
                  "phi_e_sigma_mrad")


def _table_row(angle):
    mc = angle["mc"]
    on_m, off_m = mc.param_means["on"], mc.param_means["off"]
    on_s, off_s = mc.param_sigmas["on"], mc.param_sigmas["off"]
    return [f"{angle['theta_deg']:.10g}"] + [f"{v:.6g}" for v in (
        100.0 * on_m["visibility"], 100.0 * on_s["visibility"],
        100.0 * off_m["visibility"], 100.0 * off_s["visibility"],
        1e3 * on_m["phase"], 1e3 * on_s["phase"],
        1e3 * off_m["phase"], 1e3 * off_s["phase"],
        1e3 * mc.phi_e_mean, 1e3 * mc.phi_e_sigma)]


def cmd_fit(args, config, fit_cfg):
    mc_opts = config_kwargs(fit_cfg, _MC_KEYS)
    opts = config_kwargs(fit_cfg, _FIT_KEYS)
    if args.fast:
        mc_opts["n_samples"] = _FAST_SAMPLES

    scale = opts.get("scale_factor_s")
    geom_cfg = config.get("geometry")
    if scale is None and geom_cfg:
        scale = scale_factor(geometry_from_dict(geom_cfg))
    root = np.random.SeedSequence(_seed_of(args, config))
    report = {"schema_version": SCHEMA_VERSION, "package_version": __version__,
              "seed": _seed_of(args, config), "kinds": {}}
    outputs = {}

    counts = fit_cfg.get("counts", {})
    if isinstance(counts, str):
        counts = {"noon": counts}
    for kind, path in counts.items():
        if kind not in _KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        records = read_counts_csv(_resolve(path, args.out))
        if not records:
            raise ValueError(f"{path}: no count records")
        groups = group_records_by_angle(records)
        angles = []
        for theta, recs in groups.items():
            fit_on, fit_off, _ = fit_switch_pair(recs, model=kind)
            mc = mc_uncertainty(recs, kind, seed=root.spawn(1)[0], **mc_opts)
            angles.append({"theta_deg": math.degrees(theta), "fit_on": fit_on,
                           "fit_off": fit_off, "mc": mc,
                           "earth_phase": extract_earth_phase(fit_on, fit_off, mc)})
        kind_report = report["kinds"][kind] = {"angles": angles}
        for angle in angles:
            earth = angle["earth_phase"]
            print(f"{kind} theta={angle['theta_deg']:+7.2f} deg: "
                  f"phi_e = {1e3 * earth.phi_e:+.3f} "
                  f"+- {1e3 * earth.phi_e_sigma:.3f} mrad")
        outputs[f"table_{kind}.csv"] = _csv_writer(
            _TABLE_COLUMNS, [_table_row(angle) for angle in angles])

        if len(angles) >= 3:
            if scale is None:
                raise ValueError("angle sweep needs fit.scale_factor_s or geometry")
            sweep = fit_angle_sweep(
                list(groups), [a["earth_phase"].phi_e for a in angles],
                [a["earth_phase"].phi_e_sigma for a in angles],
                scale, enhancement=_KINDS[kind].enhancement)
            kind_report["angle_sweep"] = sweep
            print(f"{kind} sweep: amplitude = {1e3 * sweep.amplitude:.2f} "
                  f"+- {1e3 * sweep.amplitude_sigma:.2f} mrad, "
                  f"omega = {sweep.omega:.3e} +- {sweep.omega_sigma:.1e} rad/s")

    kinds = report["kinds"]
    if "noon" in kinds and "single" in kinds:
        sweep2, sweep1 = (kinds[kind].get("angle_sweep") for kind in ("noon", "single"))
        if sweep2 and sweep1:
            pair2 = (sweep2.amplitude, sweep2.amplitude_sigma)
            pair1 = (sweep1.amplitude, sweep1.amplitude_sigma)
        else:
            e2, e1 = (kinds[kind]["angles"][0]["earth_phase"]
                      for kind in ("noon", "single"))
            pair2 = (e2.phi_e, e2.phi_e_sigma)
            pair1 = (e1.phi_e, e1.phi_e_sigma)
        value, sigma = enhancement_factor(pair2, pair1)
        report["enhancement"] = {"value": value, "sigma": sigma}
        print(f"enhancement: {value:.2f} +- {sigma:.2f}")

    trace_path = fit_cfg.get("trace")
    if trace_path is not None:
        schedule = SwitchSchedule(**config_kwargs(config.get("schedule") or {},
                                                  _SCHEDULE_KEYS))
        demod = report["demodulation"] = demodulate_trace(
            read_trace_csv(_resolve(trace_path, args.out)), schedule)
        print(f"demodulated trace: phi_s = {1e3 * demod.phi_s:.3f} mrad")

    cal_cfg = fit_cfg.get("calibration")
    if cal_cfg is not None:
        cal_opts = config_kwargs(cal_cfg, _CALIBRATION_KEYS)
        if args.fast:
            cal_opts["n_samples"] = _FAST_SAMPLES
        cal = report["calibration"] = calibrate_scale_factor(
            seed=root.spawn(1)[0], **cal_opts)
        print(f"calibration: S = {cal.scale_factor:.2f} "
              f"+- {cal.scale_factor_sigma:.2f} s, "
              f"theta_offset = {math.degrees(cal.theta_offset):+.3f} "
              f"+- {math.degrees(cal.theta_offset_sigma):.3f} deg")

    outputs["fit_report.json"] = _json_writer(report)
    return outputs


_DESIGN_COLUMNS = ("name", "shape", "fiber_length_m", "perimeter_m", "turns",
                   "effective_area_m2", "scale_factor_s", "delta_phi_rad",
                   "delta_omega_rad_s")


def cmd_design(args, config, design_cfg):
    specs = [design_from_dict(d) for d in design_cfg.get("specs", [])]
    reports = [rotation_resolution(s) for s in specs]
    outputs = {}
    out_json = {"schema_version": SCHEMA_VERSION, "package_version": __version__,
                "designs": reports}

    if reports:
        # quoted delta_phi follows the projected-axis convention
        outputs["designs.csv"] = _csv_writer(_DESIGN_COLUMNS, [
            [r.name, r.shape] + [f"{v:.6g}" for v in (
                r.fiber_length, r.perimeter, r.turns, r.effective_area,
                r.scale_factor, r.delta_phi_projected, r.delta_omega)]
            for r in reports])
        for r in reports:
            print(f"{r.name}: S = {r.scale_factor:.4g} s, "
                  f"delta_phi = {r.delta_phi_projected:.3g} rad, "
                  f"delta_omega = {r.delta_omega:.3g} rad/s")

    if design_cfg.get("landscape"):
        rows = landscape(specs)
        outputs["landscape.csv"] = _csv_writer(
            ("name", "log10_area", "log10_delta_omega", "label"),
            [[row.name, f"{row.log10_area:.6g}", f"{row.log10_delta_omega:.6g}",
              row.label] for row in rows])
        out_json["landscape"] = rows

    if args.optimize_gfring:
        g = design_cfg.get("gfring")
        if g is None:
            raise ValueError("--optimize-gfring needs a design.gfring section")
        optimum = optimize_gfring(**config_kwargs(g, _GFRING_KEYS))
        out_json["gfring_optimum"] = optimum
        print(f"gfring optimum: L = {optimum.fiber_length / 1e3:.2f} km, "
              f"n_t = {optimum.turns}, "
              f"delta_omega = {optimum.report.delta_omega:.3g} rad/s")

    outputs["design_report.json"] = _json_writer(out_json)
    return outputs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsagnac",
        description="Photon-pair Sagnac gyroscope: simulate, fit, design.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("fit", cmd_fit),
                     ("design", cmd_design)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--fast", action="store_true",
                       help="cut Monte-Carlo sample counts to 1000")
        if name == "design":
            p.add_argument("--optimize-gfring", action="store_true",
                           help="run the giant-ring length/turns optimizer")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        section = config.get(args.command)
        if section is None:
            raise ValueError(f"config has no {args.command!r} section")
        _write_outputs(args, config, args.fn(args, config, section))
        return 0
    except (FitError, DegenerateDesignError, InfeasibleDesignError,
            UndefinedRatioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
