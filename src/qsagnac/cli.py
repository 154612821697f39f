"""Command line interface: simulate raw data, fit it, evaluate designs.

All commands consume one JSON config (see the bundled recipes), and this
module alone knows its format: check_config checks the whole config
against the key tables when it loads, config_kwargs reads a block into
keyword arguments, and _build passes them on to what the block
configures, naming by its path a required key left out or a value the
callee rejects.  A config gives each angle once: the loop's geometry
carries none, simulate takes its frame angles from the simulate block,
and a design spec gives only the orientation key its projection reads.
A key that only some runs read, named in _SIMULATE_READERS,
_FIT_READERS, _SHAPE_READERS (a loop shape) and _PROJECTION_READERS (a
design spec's projection), exits 2 when none of them runs.
Each command computes its products and returns them as
{file name: writer}, with its stdout summary as a list of lines; main
then writes them into --out, the manifest last, and only then prints the
lines, so a failed run writes and prints nothing.  Relative input paths
in a config are resolved against --out, so a fit can chain onto a
simulate run in the same directory.  simulate and fit take --seed, and
fit alone --fast; a command takes no flag that would change nothing.
Exit codes: 0 success, 2 bad config or input (a section that asks for no
output included), 3 fit or feasibility failure; any other exception,
such as a TypeError, is a bug and is raised, not reported as bad input.
An exit-2 or exit-3 error from a counts or trace file names that file by
the path it was read from, and one from a frame angle's bootstrap the
angle.
numpy, expsim and analysis are imported inside cmd_simulate and cmd_fit,
the commands that run them, and sensedesign inside cmd_design and
design_from_dict, so no command loads a stage it does not run; main
catches the exit-3 errors from sagnac instead.
"""

import argparse
import csv
import hashlib
import inspect
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass, replace
from functools import partial

from . import __version__
from .probe import KINDS
from .sagnac import (OMEGA_EARTH, DegenerateDesignError, FitError,
                     InfeasibleDesignError, InterferometerGeometry,
                     UndefinedRatioError, new_file, scale_factor)

SCHEMA_VERSION = 1

_FAST_SAMPLES = 1000  # Monte-Carlo sample count under --fast


def _load_config(path):
    try:
        with open(path) as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    check_config(config, _CONFIG_KEYS)
    version = config.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version {version!r}, "
                         f"this build reads {SCHEMA_VERSION}")
    return config


def _json_type_needed(value, kind):
    """The JSON type that kind reads, or None when value is of that type.

    bool reads a boolean, str a string, int an integral number and float
    and from_degrees any number; a boolean is not a number, so no value is
    coerced into another type.
    """
    if kind is bool:
        return None if isinstance(value, bool) else "boolean"
    if kind is str:
        return None if isinstance(value, str) else "string"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "integer" if kind is int else "number"
    if kind is int and not (isinstance(value, int) or value.is_integer()):
        return "integer"
    return None


def check_config(value, schema, where="config"):
    """Raise ValueError, naming the key path, where value does not fit schema.

    A dict schema is a JSON object of its keys and [spec] a JSON array of
    spec.  A (keyword, type) entry is one value of the JSON type that type
    reads (see _json_type_needed), a finite one if a number, and a
    (keyword, [type]) entry a JSON array of such values.  null fits no
    schema.
    """
    if isinstance(schema, tuple):
        schema = schema[1]
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: {value!r} is not a JSON object")
        unknown = sorted(set(value) - set(schema))
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
        for key, item in value.items():
            check_config(item, schema[key], f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}: {value!r} is not a JSON array")
        for i, item in enumerate(value):
            check_config(item, schema[0], f"{where}[{i}]")
    else:
        needed = _json_type_needed(value, schema)
        if needed:
            raise ValueError(f"{where}: {value!r} is not a JSON {needed}")
        # NaN, an infinity, or an integer too large for a float
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where}: non-finite number {value!r}")


def config_kwargs(cfg, table):
    """Keyword arguments from a checked block through a key -> (keyword, type) table.

    cfg is a block that check_config has passed, so each value already has
    the JSON type and shape its key declares; nothing is checked here.  Only
    keys present in cfg are passed on, so every default stays with the
    signature it configures.  The type converts the value, or each item of
    a (keyword, [type]) list.
    """
    kwargs = {}
    for key, (field, kind) in table.items():
        if key in cfg:
            value = cfg[key]
            kwargs[field] = ([kind[0](v) for v in value] if isinstance(kind, list)
                             else kind(value))
    return kwargs


def _build(fn, cfg, table, where, **given):
    """fn called with the keyword arguments of block cfg, updated by given.

    A parameter of fn with no default that neither supplies raises
    ValueError naming its JSON key: "config.geometry: missing turns".  A
    ValueError or FitError from fn is prefixed with where by _named.
    """
    kwargs = {**config_kwargs(cfg, table), **given}
    keys = {field: key for key, (field, _) in table.items()}
    missing = [keys[p.name] for p in inspect.signature(fn).parameters.values()
               if p.default is p.empty and p.name not in kwargs
               and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")
    with _named(where):
        return fn(**kwargs)


@contextmanager
def _named(where):
    """Prefix where to a ValueError or FitError of the body.

    The error is raised again as its own class, so its exit code stays.
    """
    try:
        yield
    except (ValueError, FitError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def from_degrees(degrees):
    """Config converter: degrees in, radians out."""
    return math.radians(float(degrees))


# JSON key -> (keyword, type) for each config block, read by config_kwargs;
# (keyword, [type]) for a list; defaults stay with the dataclass or
# function each block configures
_TOP_KEYS = {
    "schema_version": ("schema_version", int),
    "seed": ("seed", int),
}
_GEOMETRY_KEYS = {
    "shape": ("shape", str),
    "fiber_length_m": ("fiber_length", float),
    "turns": ("turns", int),
    "perimeter_m": ("perimeter", float),
    "wavelength_m": ("wavelength", float),
    "effective_area_m2": ("effective_area", float),
}
# a design spec's orientation, of which its projection reads one; simulate
# takes its angles from simulate.theta_deg and simulate.trace.theta_deg
_ORIENTATION_KEYS = {
    "frame_angle_deg": ("frame_angle", from_degrees),
    "latitude_deg": ("latitude", from_degrees),
}
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
    "theta_deg": ("theta_list", [from_degrees]),
    "sample_poisson": ("sample_poisson", bool),
}
# simulate keys that take a {kind: value} object; the kinds simulated are
# the kinds phi0_rad gives a grid for
_PER_KIND_KEYS = {
    "phi0_rad": ("phi0_list", [float]),
    "base_phase_rad": ("base_phase", [float]),
    "duration_s": ("duration_s", float),
    "visibility": ("visibility", float),
    "channel_asymmetry": ("channel_asymmetry", float),
}
_TRACE_KEYS = {
    "theta_deg": ("frame_angle", from_degrees),
    "total_time_s": ("total_time", float),
}
_MC_KEYS = {
    "mc_samples": ("n_samples", int),
    "motor_sigma_rad": ("motor_sigma", float),
}
_CALIBRATION_KEYS = {
    "angles_deg": ("angles", [from_degrees]),
    "phases_rad": ("phases", [float]),
    "sigmas_rad": ("sigmas", [float]),
    "omega_earth_rad_s": ("omega_earth", float),
    "mc_samples": ("n_samples", int),
}
_DESIGN_KEYS = {
    "name": ("name", str),
    "alpha_db_per_km": ("alpha_db_per_km", float),
    "pair_rate_in_hz": ("pair_rate_in", float),
    "integration_time_s": ("integration_time", float),
    "photons_per_probe": ("photons_per_probe", int),
    "projection": ("projection", str),
    "measured_delta_phi_rad": ("measured_delta_phi", float),
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


# the schema of a config, which check_config walks once at load: a dict is
# a JSON object of its keys, [spec] a JSON array of spec, and a
# (keyword, type) table entry one value
_CONFIG_KEYS = {
    **_TOP_KEYS,
    "geometry": _GEOMETRY_KEYS, "schedule": _SCHEDULE_KEYS,
    "rates": _RATES_KEYS, "noise": _NOISE_KEYS,
    "simulate": {**_SIMULATE_KEYS, "trace": _TRACE_KEYS,
                 **{key: dict.fromkeys(KINDS, entry)
                    for key, entry in _PER_KIND_KEYS.items()},
                 # the gain imbalance of the heralded ports, which noon has not
                 "channel_asymmetry": {"single": _PER_KIND_KEYS["channel_asymmetry"]}},
    "fit": {"trace": ("trace", str), **_MC_KEYS, "calibration": _CALIBRATION_KEYS,
            "counts": dict.fromkeys(KINDS, ("counts", str))},
    "design": {"landscape": ("landscape", bool), "gfring": _GFRING_KEYS,
               "specs": [{**_GEOMETRY_KEYS, **_ORIENTATION_KEYS, **_DESIGN_KEYS}]},
}

# key path -> the runs that read it, for each key that some run of its
# block does not read: simulate runs the counts of each kind phi0_rad
# gives a grid for and a trace if it has a trace block, fit's bootstrap
# and angle sweep run on fit.counts, a geometry is one loop shape and a
# design spec one projection
_COUNTS = tuple(f"{kind} counts" for kind in KINDS)
_SIMULATE_READERS = {
    "rates.pair_rate_detected_hz": ("noon counts",),
    "rates.heralded_single_rate_hz": _COUNTS,
    "rates.coincidence_window_s": _COUNTS,
    "rates.cw_sample_rate_hz": ("trace",),
    "noise.dark_rate_hz": _COUNTS,
    "noise.motor_sigma_rad": _COUNTS,
    "noise.walk_sigma_rad": _COUNTS,
    "noise.polarimeter_sigma_rad": ("trace",),
    "noise.leakage_fraction": ("trace",),
    "simulate.theta_deg": _COUNTS,
    "simulate.sample_poisson": _COUNTS,
    **{f"simulate.{key}.{kind}": (f"{kind} counts",)
       for key in _PER_KIND_KEYS for kind in _CONFIG_KEYS["simulate"][key]},
}
_FIT_READERS = {f"fit.{key}": ("fit.counts",) for key in _MC_KEYS}
_SHAPE_READERS = {"turns": ("square loop",), "perimeter_m": ("circular loop",)}
_PROJECTION_READERS = {"frame_angle_deg": ("cos_frame_angle projection",),
                       "latitude_deg": ("sin_latitude projection",)}


def _refuse_unread(block, where, readers, runs):
    """Raise ValueError naming the first key path of readers, below block
    at where, that block gives and that none of runs reads:
    "config.rates.cw_sample_rate_hz: read only by trace; this run has none"."""
    for path, names in readers.items():
        *parents, key = path.split(".")
        inner = block
        for name in parents:
            inner = inner.get(name, {})
        if key in inner and runs.isdisjoint(names):
            raise ValueError(f"{where}.{path}: read only by {' or '.join(names)}; "
                             "this run has none")


def geometry_from_dict(d, where, **orientation):
    """InterferometerGeometry from its JSON form; `shape` defaults to square.

    A square loop takes `turns` and a circular one `perimeter_m`; the other
    shape's key is an error, not ignored.  orientation, frame_angle or
    latitude in radians, is passed on; the loop keys carry no angle.
    """
    shape = d.get("shape", "square")
    if shape not in ("square", "circular"):
        raise ValueError(f"{where}.shape: unknown loop shape {shape!r}")
    _refuse_unread(d, where, _SHAPE_READERS, {f"{shape} loop"})
    return _build(getattr(InterferometerGeometry, shape),
                  {k: v for k, v in d.items() if k != "shape"},
                  _GEOMETRY_KEYS, where, **orientation)


def design_from_dict(d, where="design spec"):
    """DesignSpec from its JSON form: geometry, orientation and design keys.

    The orientation key that the spec's projection does not read is an
    error, not ignored.
    """
    from .sensedesign import DesignSpec

    geometry = geometry_from_dict(d, where, **config_kwargs(d, _ORIENTATION_KEYS))
    # refused once DesignSpec has checked the projection, so an unknown one
    # is named as such
    spec = _build(DesignSpec, d, _DESIGN_KEYS, where, geometry=geometry)
    _refuse_unread(d, where, _PROJECTION_READERS, {f"{spec.projection} projection"})
    return spec


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


def _report_form(obj):
    """JSON form of a value json cannot encode: a dataclass, or an array as a list.

    A dataclass gives its repr's fields in order, each under the key in its
    metadata "json" (a design field's unit-suffixed name), else its name.
    """
    if is_dataclass(obj):
        return {f.metadata.get("json", f.name): getattr(obj, f.name)
                for f in fields(obj) if f.repr}
    return obj.tolist()


def _json_writer(report):
    """A function that writes the version keys, then report, as indented JSON."""
    def write(path):
        with new_file(path) as f:
            json.dump({"schema_version": SCHEMA_VERSION,
                       "package_version": __version__, **report},
                      f, indent=2, default=_report_form)
    return write


def _write_outputs(args, config, outputs):
    """Create --out, write each output in order, then the manifest listing them.

    The manifest records the seed of simulate and fit and the --fast of
    fit, the flags each command takes.

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
        "command": args.command,
        **{flag: getattr(args, flag) for flag in ("seed", "fast") if flag in args},
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "config": config,
        "outputs": list(outputs),
    })(manifest)


def cmd_simulate(args, config, sim):
    import numpy as np

    from .expsim import (NoiseConfig, RateConfig, SwitchSchedule, angle_sweep,
                         simulate_polarimeter, write_counts_csv, write_trace_csv)

    if not sim.get("phi0_rad") and "trace" not in sim:
        raise ValueError("config.simulate: no phi0_rad grid and no trace, "
                         "so nothing is simulated")
    grids = sim.get("phi0_rad", {})
    runs = {f"{kind} counts" for kind in grids}
    if "trace" in sim:
        runs.add("trace")
    _refuse_unread(config, "config", _SIMULATE_READERS, runs)
    geom = geometry_from_dict(config.get("geometry", {}), "config.geometry")
    schedule = _build(SwitchSchedule, config.get("schedule", {}),
                      _SCHEDULE_KEYS, "config.schedule")
    rates = _build(RateConfig, config.get("rates", {}), _RATES_KEYS,
                   "config.rates")
    noise = _build(NoiseConfig, config.get("noise", {}), _NOISE_KEYS,
                   "config.noise")
    opts = config_kwargs(sim, _SIMULATE_KEYS)
    true_omega = opts.pop("true_omega", OMEGA_EARTH)
    # a frame angle left out is 0, the loop normal along the rotation axis
    thetas = opts.pop("theta_list", [0.0])

    root = np.random.SeedSequence(args.seed)
    outputs, lines = {}, []
    for kind, probe in KINDS.items():
        if kind not in grids:
            continue
        records = _build(
            angle_sweep, {key: sim[key][kind] for key in _PER_KIND_KEYS
                          if kind in sim.get(key, {})},
            _PER_KIND_KEYS, f"config.simulate ({kind})", kind=probe, geom=geom,
            theta_list=thetas, true_omega=true_omega, seed=root.spawn(1)[0],
            schedule=schedule, rates=rates, noise=noise, **opts)
        outputs[f"counts_{kind}.csv"] = partial(write_counts_csv, records)
        lines.append(f"wrote counts_{kind}.csv: "
                     f"{len(records)} records over {len(thetas)} angle(s)")

    trace_cfg = sim.get("trace")
    if trace_cfg is not None:
        trace_opts = config_kwargs(trace_cfg, _TRACE_KEYS)
        t_geom = replace(geom, frame_angle=trace_opts.get("frame_angle", 0.0))
        with _named("config.simulate.trace"):
            trace = simulate_polarimeter(
                t_geom, true_omega, trace_opts.get("total_time", 600.0),
                root.spawn(1)[0], schedule=schedule, rates=rates, noise=noise)
        outputs["trace.csv"] = partial(write_trace_csv, trace)
        lines.append(f"wrote trace.csv: {len(trace.t)} samples")
    return outputs, lines


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
    import numpy as np

    from .analysis import (calibrate_scale_factor, demodulate_trace,
                           enhancement_factor, extract_earth_phase,
                           fit_angle_sweep, group_records_by_angle,
                           mc_uncertainty)
    from .expsim import SwitchSchedule, read_counts_csv, read_trace_csv

    if not fit_cfg.get("counts") and "trace" not in fit_cfg \
            and "calibration" not in fit_cfg:
        raise ValueError("config.fit: no counts, trace or calibration, "
                         "so nothing is fitted")
    _refuse_unread(config, "config", _FIT_READERS,
                   {"fit.counts"} if fit_cfg.get("counts") else set())
    # checked here, not left to the callees: --fast replaces a sample count
    # unread, and a count-data error of the bootstrap names its CSV, not a
    # config block
    for where, block in (("config.fit", fit_cfg),
                         ("config.fit.calibration", fit_cfg.get("calibration", {}))):
        if block.get("mc_samples", 2) < 2:
            raise ValueError(f"{where}: mc_samples {block['mc_samples']}, "
                             "need at least two resamples")
    if fit_cfg.get("motor_sigma_rad", 0.0) < 0.0:
        raise ValueError(f"config.fit: motor_sigma_rad {fit_cfg['motor_sigma_rad']} "
                         "is negative")
    fast = {"n_samples": _FAST_SAMPLES} if args.fast else {}
    mc_opts = {**config_kwargs(fit_cfg, _MC_KEYS), **fast}
    # checked whenever given, as simulate does, though only a sweep reads it
    scale = (scale_factor(geometry_from_dict(config["geometry"], "config.geometry"))
             if "geometry" in config else None)
    root = np.random.SeedSequence(args.seed)
    report = {"seed": args.seed, "kinds": {}}
    outputs, lines = {}, []

    for kind, path in fit_cfg.get("counts", {}).items():
        path = _resolve(path, args.out)
        records = read_counts_csv(path)
        if not records:
            raise ValueError(f"{path}: no count records")
        groups = group_records_by_angle(records)
        if len(groups) >= 3 and scale is None:
            raise ValueError("config.fit: angle sweep needs geometry")
        angles = []
        for theta, recs in groups.items():
            with _named(f"{path} (theta = {math.degrees(theta):+.2f} deg)"):
                mc = mc_uncertainty(recs, kind, seed=root.spawn(1)[0], **mc_opts)
                fit_on, fit_off = mc.fits
                earth = extract_earth_phase(fit_on, fit_off, mc)
            angles.append({"theta_deg": math.degrees(theta), "fit_on": fit_on,
                           "fit_off": fit_off, "mc": mc, "earth_phase": earth})
        kind_report = report["kinds"][kind] = {"angles": angles}
        for angle in angles:
            earth = angle["earth_phase"]
            lines.append(f"{kind} theta={angle['theta_deg']:+7.2f} deg: "
                         f"phi_e = {1e3 * earth.phi_e:+.3f} "
                         f"+- {1e3 * earth.phi_e_sigma:.3f} mrad")
        outputs[f"table_{kind}.csv"] = _csv_writer(
            _TABLE_COLUMNS, [_table_row(angle) for angle in angles])

        if len(angles) >= 3:
            with _named(path):
                sweep = fit_angle_sweep(
                    list(groups), [a["earth_phase"].phi_e for a in angles],
                    [a["earth_phase"].phi_e_sigma for a in angles],
                    scale, enhancement=KINDS[kind].enhancement)
            kind_report["angle_sweep"] = sweep
            lines.append(f"{kind} sweep: amplitude = {1e3 * sweep.amplitude:.2f} "
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
        # the one-photon response, the ratio's denominator, is single's
        with _named(_resolve(fit_cfg["counts"]["single"], args.out)):
            value, sigma = enhancement_factor(pair2, pair1)
        report["enhancement"] = {"value": value, "sigma": sigma}
        lines.append(f"enhancement: {value:.2f} +- {sigma:.2f}")

    trace_path = fit_cfg.get("trace")
    if trace_path is not None:
        schedule = _build(SwitchSchedule, config.get("schedule", {}),
                          _SCHEDULE_KEYS, "config.schedule")
        trace_file = _resolve(trace_path, args.out)
        trace = read_trace_csv(trace_file)  # names the file in its own errors
        with _named(trace_file):
            demod = report["demodulation"] = demodulate_trace(trace, schedule)
        lines.append(f"demodulated trace: phi_s = {1e3 * demod.phi_s:.3f} mrad")

    cal_cfg = fit_cfg.get("calibration")
    if cal_cfg is not None:
        cal = report["calibration"] = _build(
            calibrate_scale_factor, cal_cfg, _CALIBRATION_KEYS,
            "config.fit.calibration", seed=root.spawn(1)[0], **fast)
        lines.append(f"calibration: S = {cal.scale_factor:.2f} "
                     f"+- {cal.scale_factor_sigma:.2f} s, "
                     f"theta_offset = {math.degrees(cal.theta_offset):+.3f} "
                     f"+- {math.degrees(cal.theta_offset_sigma):.3f} deg")

    outputs["fit_report.json"] = _json_writer(report)
    return outputs, lines


_DESIGN_COLUMNS = ("name", "shape", "fiber_length_m", "perimeter_m", "turns",
                   "effective_area_m2", "scale_factor_s", "delta_phi_rad",
                   "delta_omega_rad_s")


def cmd_design(args, config, design_cfg):
    from .sensedesign import landscape, optimize_gfring, rotation_resolution

    if not design_cfg.get("specs"):
        if not args.optimize_gfring:
            raise ValueError("config.design: no specs and no --optimize-gfring, "
                             "so nothing is designed")
        if design_cfg.get("landscape"):
            raise ValueError("config.design: landscape asked for, but no specs "
                             "to place on it")
    reports = []
    for i, d in enumerate(design_cfg.get("specs", [])):
        where = f"config.design.specs[{i}]"
        spec = design_from_dict(d, where)
        with _named(where):
            reports.append(rotation_resolution(spec))
    outputs, lines = {}, []
    out_json = {"designs": reports}

    if reports:
        # quoted delta_phi follows the projected-axis convention
        outputs["designs.csv"] = _csv_writer(_DESIGN_COLUMNS, [
            [r.name, r.shape] + [f"{v:.6g}" for v in (
                r.fiber_length, r.perimeter, r.turns, r.effective_area,
                r.scale_factor, r.delta_phi_projected, r.delta_omega)]
            for r in reports])
        for r in reports:
            lines.append(f"{r.name}: S = {r.scale_factor:.4g} s, "
                         f"delta_phi = {r.delta_phi_projected:.3g} rad, "
                         f"delta_omega = {r.delta_omega:.3g} rad/s")

    if design_cfg.get("landscape"):
        rows = landscape(reports)
        outputs["landscape.csv"] = _csv_writer(
            ("name", "log10_area", "log10_delta_omega", "label"),
            [[row.name, f"{row.log10_area:.6g}", f"{row.log10_delta_omega:.6g}",
              row.label] for row in rows])
        out_json["landscape"] = rows

    if args.optimize_gfring:
        g = design_cfg.get("gfring")
        if g is None:
            raise ValueError("config.design: --optimize-gfring needs a "
                             "design.gfring section")
        optimum = _build(optimize_gfring, g, _GFRING_KEYS, "config.design.gfring")
        out_json["gfring_optimum"] = optimum
        lines.append(f"gfring optimum: L = {optimum.fiber_length / 1e3:.2f} km, "
                     f"n_t = {optimum.turns}, "
                     f"delta_omega = {optimum.report.delta_omega:.3g} rad/s")

    outputs["design_report.json"] = _json_writer(out_json)
    return outputs, lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsagnac",
        description="Photon-pair Sagnac gyroscope: simulate, fit, design.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("fit", cmd_fit),
                     ("design", cmd_design)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        if name == "design":
            p.add_argument("--optimize-gfring", action="store_true",
                           help="run the giant-ring length/turns optimizer")
        else:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        if name == "fit":
            p.add_argument("--fast", action="store_true",
                           help="cut Monte-Carlo sample counts to 1000")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command not in config:
            raise ValueError(f"config has no {args.command!r} section")
        if "seed" in args:  # simulate and fit; design draws no random numbers
            where = "--seed"
            if args.seed is None:
                args.seed = config_kwargs(config, _TOP_KEYS).get("seed", 0)
                where = "config.seed"
            if args.seed < 0:
                raise ValueError(f"{where}: seed {args.seed} is negative")
        outputs, lines = args.fn(args, config, config[args.command])
        _write_outputs(args, config, outputs)
        for line in lines:
            print(line)
        return 0
    except (FitError, DegenerateDesignError, InfeasibleDesignError,
            UndefinedRatioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
