import csv
import json
import math
import os
import re
import subprocess
import sys
import traceback
from importlib import resources
from pathlib import Path

import pytest

import qsagnac
from qsagnac.cli import _CONFIG_KEYS, main
from qsagnac.expsim import COUNTS_CSV_COLUMNS, TRACE_CSV_COLUMNS


def recipe(name):
    return str(resources.files("qsagnac") / "recipes" / f"{name}.json")


def rows_of(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_simulate_fig2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", recipe("fig2"), "--out", str(out)]) == 0
    for kind in ("noon", "single"):
        rows = rows_of(out / f"counts_{kind}.csv")
        assert len(rows) == 22
        assert {r["switch"] for r in rows} == {"on", "off"}
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    assert manifest["seed"] == 7
    assert "fast" not in manifest
    assert len(manifest["config_sha256"]) == 64
    assert manifest["outputs"] == ["counts_noon.csv", "counts_single.csv"]
    assert sorted(os.listdir(out)) == sorted(
        manifest["outputs"] + ["manifest_simulate.json"])
    assert "wrote counts_noon.csv" in capsys.readouterr().out


def test_simulate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", recipe("fig2"), "--out", str(a)])
    main(["simulate", "--config", recipe("fig2"), "--out", str(b)])
    assert (a / "counts_noon.csv").read_bytes() == (b / "counts_noon.csv").read_bytes()
    assert (a / "counts_single.csv").read_bytes() == (b / "counts_single.csv").read_bytes()


def test_seed_override_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", recipe("fig2"), "--out", str(a)])
    main(["simulate", "--config", recipe("fig2"), "--out", str(b), "--seed", "8"])
    assert (a / "counts_noon.csv").read_bytes() != (b / "counts_noon.csv").read_bytes()
    manifest = json.loads((b / "manifest_simulate.json").read_text())
    assert manifest["seed"] == 8


SCIPY_BLOCKED = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import qsagnac
for info in pkgutil.iter_modules(qsagnac.__path__):
    importlib.import_module("qsagnac." + info.name)
from qsagnac.cli import main
code = main(["design", "--config", sys.argv[1], "--out", sys.argv[2], "--optimize-gfring"])
del sys.modules["scipy"]
print(code, "scipy" in sys.modules or any(m.startswith("scipy.") for m in sys.modules))
"""


def fresh_python(*args):
    """Run python on args with the package importable."""
    src = os.path.dirname(os.path.dirname(qsagnac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=60)


def test_cli_import_leaves_scipy_out(tmp_path):
    out = fresh_python("-c", SCIPY_BLOCKED, recipe("table3"), str(tmp_path))
    assert out.stdout.splitlines()[-1] == "0 False"
    assert "gfring_optimum" in json.loads((tmp_path / "design_report.json").read_text())


def test_package_import_leaves_numpy_out():
    """The physical model and the design stage need no numpy, so importing them loads none."""
    out = fresh_python("-c", "import sys, qsagnac, qsagnac.sensedesign; "
                       "print('numpy' in sys.modules)")
    assert out.stdout.split() == ["False"]


def test_cli_import_leaves_numpy_out():
    """numpy and the stages that need it load in the commands that run them."""
    out = fresh_python("-c", "import sys, qsagnac.cli; print(*(m in sys.modules "
                       "for m in ('numpy', 'qsagnac.analysis', 'qsagnac.expsim')))")
    assert out.stdout.split() == ["False", "False", "False"]


# argv: numpy blocked (1 or 0), then the qsagnac arguments; prints the
# command's stdout, then its exit code
RUN_MAIN = """
import sys
if sys.argv[1] == "1":
    sys.modules["numpy"] = None  # any numpy import now raises ImportError
from qsagnac.cli import main
print(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("name, flags", [("table3", ["--optimize-gfring"]),
                                         ("fig5", [])])
def test_design_runs_with_numpy_blocked(tmp_path, name, flags):
    """design gives the same files and stdout when no numpy can be imported."""
    runs = {}
    for blocked in ("1", "0"):
        out = tmp_path / blocked
        stdout = fresh_python("-c", RUN_MAIN, blocked, "design", "--config",
                              recipe(name), "--out", str(out), *flags).stdout
        assert stdout.splitlines()[-1] == "0"
        runs[blocked] = (stdout, {f: (out / f).read_bytes() for f in os.listdir(out)})
    assert runs["1"] == runs["0"]


def test_simulate_leaves_analysis_out(tmp_path):
    code = RUN_MAIN + "print('qsagnac.analysis' in sys.modules)\n"
    out = fresh_python("-c", code, "0", "simulate", "--config", recipe("fig2"),
                       "--out", str(tmp_path))
    assert out.stdout.splitlines()[-2:] == ["0", "False"]
    assert (tmp_path / "counts_noon.csv").exists()


def test_simulate_and_fit_leave_sensedesign_out(tmp_path):
    """The design stage loads in design alone."""
    code = RUN_MAIN + "print('qsagnac.sensedesign' in sys.modules)\n"
    for command in (["simulate"], ["fit", "--fast"]):
        out = fresh_python("-c", code, "0", *command, "--config", recipe("fig4_cw"),
                           "--out", str(tmp_path))
        assert out.stdout.splitlines()[-2:] == ["0", "False"]
    assert (tmp_path / "fit_report.json").exists()


def test_fit_fig2_fast(tmp_path, capsys):
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    before = set(os.listdir(out))
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    manifest = json.loads((tmp_path / "manifest_fit.json").read_text())
    assert manifest["outputs"] == ["table_noon.csv", "table_single.csv",
                                   "fit_report.json"]
    assert (manifest["seed"], manifest["fast"]) == (7, True)
    assert set(os.listdir(out)) - before == {*manifest["outputs"], "manifest_fit.json"}

    noon = report["kinds"]["noon"]["angles"][0]
    single = report["kinds"]["single"]["angles"][0]
    assert noon["theta_deg"] == pytest.approx(2.5)
    assert noon["fit_on"]["converged"] and noon["fit_off"]["converged"]
    assert noon["earth_phase"]["phi_e"] == pytest.approx(
        5.504638278626572e-3, rel=1e-12)
    assert single["earth_phase"]["phi_e"] == pytest.approx(
        2.643326305058036e-3, rel=1e-12)
    assert report["enhancement"]["value"] == pytest.approx(
        2.082466424251077, rel=1e-12)
    assert 0.0 < report["enhancement"]["sigma"] < 1.0

    assert len(rows_of(tmp_path / "table_noon.csv")) == 1
    assert len(rows_of(tmp_path / "table_single.csv")) == 1
    assert "enhancement:" in capsys.readouterr().out


def test_fit_report_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        main(["simulate", "--config", recipe("fig2"), "--out", str(d)])
        main(["fit", "--config", recipe("fig2"), "--out", str(d), "--fast"])
    assert (a / "fit_report.json").read_bytes() == (b / "fit_report.json").read_bytes()


def test_rerun_replaces_outputs_and_leaves_hard_links(tmp_path):
    """A second run into one --out writes new files with the same bytes.

    Hard links made to the first run's outputs keep the first run's bytes
    while the second run writes, so nothing is written through them.
    """
    out, links = tmp_path / "run", tmp_path / "links"
    links.mkdir()
    commands = (["simulate", "--config", recipe("fig4_cw"), "--out", str(out)],
                ["fit", "--config", recipe("fig4_cw"), "--out", str(out), "--fast"])
    for command in commands:
        assert main(command) == 0
    names = [f"manifest_{c}.json" for c in ("simulate", "fit")]
    for manifest in list(names):
        names += json.loads((out / manifest).read_text())["outputs"]
    first = {name: (out / name).read_bytes() for name in names}
    for name in names:
        os.link(out / name, links / name)
    for command in commands:
        assert main(command) == 0
    for name in names:
        assert (links / name).read_bytes() == first[name]
        assert (out / name).read_bytes() == first[name]
        assert not os.path.samefile(out / name, links / name)


def test_failed_write_exits_2_and_leaves_no_partial_file(tmp_path, capsys,
                                                         monkeypatch):
    """A writer that fails halfway leaves no file at its path."""
    def dump_fragment(obj, f, **kwargs):
        f.write('{"schema_version": ')
        raise OSError("No space left on device")

    monkeypatch.setattr(json, "dump", dump_fragment)
    out = tmp_path / "run"
    assert main(["design", "--config", recipe("table3"), "--out", str(out)]) == 2
    assert not (out / "design_report.json").exists()
    assert not (out / "manifest_design.json").exists()
    assert "No space left on device" in capsys.readouterr().err


def test_failed_rerun_leaves_no_old_manifest(tmp_path, capsys):
    """A rerun that fails partway removes the manifest of the run before.

    The old manifest names the old seed and config, so it must not sit
    next to outputs the failed rerun has already replaced.
    """
    out = tmp_path / "run"
    assert main(["simulate", "--config", recipe("fig2"), "--out", str(out)]) == 0
    assert (out / "manifest_simulate.json").exists()
    (out / "counts_single.csv").unlink()
    (out / "counts_single.csv").mkdir()
    assert main(["simulate", "--config", recipe("fig2"), "--out", str(out),
                 "--seed", "8"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "manifest_simulate.json").exists()


def test_json_integers_read_as_floats_and_integral_floats_as_ints(tmp_path):
    """2000 is a float length and 360.0 an integral turn count: same counts."""
    config = json.loads(Path(recipe("fig2")).read_text())
    config["geometry"].update(fiber_length_m=2000, effective_area_m2=715, turns=360.0)
    config["simulate"]["duration_s"] = {"noon": 1800, "single": 900}
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", recipe("fig2"), "--out", str(a)]) == 0
    assert main(["simulate", "--config", write_config(tmp_path, config),
                 "--out", str(b)]) == 0
    for kind in ("noon", "single"):
        name = f"counts_{kind}.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("argv", [["simulate", "--fast"], ["design", "--fast"],
                                  ["design", "--seed", "3"]], ids=" ".join)
def test_flag_a_command_does_not_read_is_refused(tmp_path, capsys, argv):
    """--fast is fit's alone and design draws no random numbers: a flag that
    would change nothing is an argparse error, not silently accepted."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", recipe("table3"), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_programming_error_is_raised_not_reported_as_bad_input(tmp_path, monkeypatch):
    """Exit 2 is for bad input; a TypeError from a bug propagates."""
    def broken(spec):
        raise TypeError("broken(): a bug, not bad input")

    monkeypatch.setattr("qsagnac.sensedesign.rotation_resolution", broken)
    with pytest.raises(TypeError, match="a bug, not bad input"):
        main(["design", "--config", recipe("table3"), "--out", str(tmp_path / "run")])


LEFT_OUT = object()


def edited(config, edits):
    """config, or recipe config by name, with each dotted key path of edits set.

    A number in a key path indexes a list (design.specs.1.turns), and a
    block on the path that config lacks is added; the value LEFT_OUT
    removes the key.
    """
    if isinstance(config, str):
        config = json.loads(Path(recipe(config)).read_text())
    for key_path, value in edits.items():
        *parents, key = key_path.split(".")
        block = config
        for parent in parents:
            block = (block[int(parent)] if isinstance(block, list)
                     else block.setdefault(parent, {}))
        if value is LEFT_OUT:
            del block[key]
        else:
            block[key] = value
    return config


# shape -> the geometry edits of fig2 that give a loop of that shape
_SHAPES = {
    "square": {"geometry.effective_area_m2": LEFT_OUT},
    "circular": {"geometry.effective_area_m2": LEFT_OUT, "geometry.shape": "circular",
                 "geometry.perimeter_m": 5.0, "geometry.turns": LEFT_OUT},
}


@pytest.mark.parametrize("shape", _SHAPES)
def test_loop_of_either_shape_simulates(tmp_path, shape):
    cfg = write_config(tmp_path, edited("fig2", _SHAPES[shape]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def _config_key_names(keys):
    """Every key name of a config schema: dict keys, list items, nested blocks.

    A (keyword, type) entry is a value, with no key names in it.
    """
    if isinstance(keys, list):
        return _config_key_names(keys[0])
    names = set()
    for key, sub in keys.items():
        names.add(key)
        if not isinstance(sub, tuple):
            names |= _config_key_names(sub)
    return names


def test_readme_config_schema_names_every_config_key():
    """Each key a config may hold appears in backticks in README's schema.

    `key` and `key: value` (as in `schema_version: 1`) both count.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)(?::[^`]*)?`", section))
    assert _config_key_names(_CONFIG_KEYS) - documented == set()


def test_angle_sweep_flow(tmp_path, capsys):
    """Six-angle run: sweep fits recover the true rate, ratio near two."""
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig3_tables12"), "--out", out])
    assert main(["fit", "--config", recipe("fig3_tables12"), "--out", out,
                 "--fast"]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    for kind in ("noon", "single"):
        sweep = report["kinds"][kind]["angle_sweep"]
        assert abs(sweep["omega"] - 7.29e-5) / 7.29e-5 < 0.10
        assert len(report["kinds"][kind]["angles"]) == 6
    assert 1.7 < report["enhancement"]["value"] < 2.3
    assert "sweep: amplitude" in capsys.readouterr().out


def test_continuous_wave_flow(tmp_path):
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig4_cw"), "--out", out])
    assert (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "counts_noon.csv").exists()
    assert main(["fit", "--config", recipe("fig4_cw"), "--out", out]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["demodulation"]["phi_s"] == pytest.approx(2.8285e-3, abs=5e-5)
    cal = report["calibration"]
    assert abs(cal["scale_factor"] - 38.8) < 0.15
    assert abs(math.degrees(cal["theta_offset"])) < 0.5


def test_design_table(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["design", "--config", recipe("table3"), "--out", out]) == 0
    rows = rows_of(tmp_path / "designs.csv")
    assert [r["name"] for r in rows] == ["this work", "CFOG", "LFOG", "GFOG",
                                         "GFRING"]
    report = json.loads((tmp_path / "design_report.json").read_text())
    by_name = {d["name"]: d for d in report["designs"]}
    assert by_name["GFRING"]["delta_omega_rad_s"] == pytest.approx(
        2.42798316607657e-14, rel=1e-9)
    assert by_name["this work"]["measured"] is True
    assert "GFRING" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "manifest_design.json").read_text())
    assert manifest["outputs"] == ["designs.csv", "design_report.json"]
    assert "seed" not in manifest and "fast" not in manifest
    assert sorted(os.listdir(out)) == sorted(
        manifest["outputs"] + ["manifest_design.json"])


def test_design_optimizer_flag(tmp_path):
    out = str(tmp_path)
    assert main(["design", "--config", recipe("table3"), "--out", out,
                 "--optimize-gfring"]) == 0
    report = json.loads((tmp_path / "design_report.json").read_text())
    opt = report["gfring_optimum"]
    assert opt["turns"] == 8
    assert abs(opt["fiber_length_m"] - 47500.0) / 47500.0 < 0.05
    assert opt["report"]["delta_omega_rad_s"] < 7.3e-14 / 3.0 * 1.001


def test_design_landscape(tmp_path):
    out = str(tmp_path)
    assert main(["design", "--config", recipe("fig5"), "--out", out]) == 0
    rows = rows_of(tmp_path / "landscape.csv")
    labels = {r["name"]: r["label"] for r in rows}
    assert labels["GFRING"] == "below_omega_gr"
    assert labels["this work"] == "below_omega_e"


def test_design_optimizer_alone_with_empty_spec_list(tmp_path, capsys):
    cfg = write_config(tmp_path, edited("table3", {"design.specs": []}))
    out = tmp_path / "run"
    assert main(["design", "--config", cfg, "--out", str(out),
                 "--optimize-gfring"]) == 0
    report = json.loads((out / "design_report.json").read_text())
    assert report["designs"] == []
    assert report["gfring_optimum"]["turns"] == 8
    assert capsys.readouterr().out.startswith("gfring optimum: ")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def _value_at(doc, key_path):
    """The value at a dotted key path of doc, a number indexing a list."""
    for key in key_path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def _judge(capsys, argv, code, message, data=None, collect=False):
    """Run main on argv and hold the run to the CLI's exit contract.

    code is the exit code expected, or None for any of 0, 2 and 3.  A
    nonzero exit prints one stderr line, holding message (or one of a
    tuple of messages) and no Traceback; it prints nothing on stdout and
    leaves the --out listing as it found it, so an absent --out stays
    absent.  With data, the path of a data file, that line names the file
    once and no config. block.  A zero exit writes only finite JSON
    numbers, and where message is {report name: {key path: value}}, those
    values.  Returns the breaches; unless collect, asserts there are none.
    """
    out = Path(argv[argv.index("--out") + 1])
    listing = sorted(os.listdir(out)) if out.exists() else None
    capsys.readouterr()
    try:
        got = main(argv)
    except Exception:
        got = f"raised {traceback.format_exc()}"
    captured = capsys.readouterr()
    err, breaches = captured.err, []
    if got not in ((0, 2, 3) if code is None else (code,)):
        breaches.append(f"exit {got}, {err!r}")
    elif got:
        messages = (message,) if isinstance(message, str) else message
        if len(err.splitlines()) != 1 or "Traceback" in err \
                or not any(m in err for m in messages):
            breaches.append(f"exit {got}: {err!r} is not one line holding {message!r}")
        if data is not None and (err.count(data) != 1 or "config." in err):
            breaches.append(f"exit {got}: {err!r} does not name {data} once, alone")
        if captured.out:
            breaches.append(f"exit {got} printed {captured.out!r}")
        if (sorted(os.listdir(out)) if out.exists() else None) != listing:
            breaches.append(f"exit {got} changed --out")
    else:
        for report in out.glob("*.json"):
            try:
                doc = json.loads(report.read_text(), parse_constant=_reject_constant)
            except ValueError as exc:
                breaches.append(f"{report.name}: {exc}")
                continue
            wanted = message.get(report.name, {}) if isinstance(message, dict) else {}
            breaches += [f"{report.name}: {path} is {_value_at(doc, path)!r}, not {value!r}"
                         for path, value in wanted.items() if _value_at(doc, path) != value]
    assert collect or breaches == []
    return breaches


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The simulated data of fig2, fig3_tables12 and fig4_cw, each in a
    directory of its recipe's name; read only, never rewritten."""
    data = tmp_path_factory.mktemp("simulated")
    for name in ("fig2", "fig3_tables12", "fig4_cw"):
        assert main(["simulate", "--config", recipe(name),
                     "--out", str(data / name)]) == 0
    return data


def _not_a(json_type, name, command_line, key_path, value):
    """The row of recipe name with the value at key_path, not of json_type."""
    where = "config." + re.sub(r"\.(\d+)(?=\.|$)", r"[\1]", key_path)
    return (name, command_line, {key_path: value}, 2,
            f"{where}: {value!r} is not a JSON {json_type}")


# test name -> row, or test name -> {case: row}; a row is (recipe name or
# whole config, None for no config file; command line; {key path: value}
# edits of a recipe; exit code; message).  Each run reads no data: its
# config fails when it loads, or when its command builds what a block
# configures, before any input file is opened or output written.
_BAD_CONFIGS = {
    "test_missing_config_exits_2": (None, "simulate", {}, 2,
                                    "config error: [Errno 2] No such file or directory"),
    "test_wrong_schema_version_exits_2": (
        {"schema_version": 99, "simulate": {}}, "simulate", {}, 2,
        "schema_version 99, this build reads 1"),
    "test_non_object_config_exits_2": ([1, 2, 3], "simulate", {}, 2,
                                       "config error: config: [1, 2, 3] is not a JSON object"),
    "test_non_finite_design_value_exits_2": (
        "table3", "design", {"design.specs.1.fiber_length_m": float("nan")}, 2,
        "config.design.specs[1].fiber_length_m: non-finite number nan"),
    "test_invalid_simulation_parameters_exit_2": (
        "fig2", "simulate", {"simulate.duration_s": {"noon": 0.0, "single": 0.0}}, 2,
        "config.simulate (noon): duration must be positive"),
    # a bad second kind fails the run before the first kind's counts are written
    "test_failed_simulate_leaves_no_file": (
        "fig2", "simulate", {"simulate.duration_s.single": 0.0}, 2,
        "config.simulate (single): duration must be positive"),
    # the kinds simulated are the kinds phi0_rad gives a grid for
    "test_simulate_kinds_exits_2": (
        "fig2", "simulate", {"simulate.kinds": ["noon", "single"]}, 2,
        "config.simulate: unknown key(s) kinds"),
    # a kind with no phi0_rad grid is not simulated, so its other keys are unread
    "test_per_kind_key_without_a_grid_exits_2": {key: (
        "fig2", "simulate", {**{f"simulate.{other}.single": LEFT_OUT for other in (
            "phi0_rad", "duration_s", "visibility", "base_phase_rad") if other != key},
            **({"simulate.channel_asymmetry.single": 0.1} if key == "channel_asymmetry"
               else {})},
        2, f"config.simulate.{key}.single: read only by single counts; this run has none")
        for key in ("duration_s", "visibility", "base_phase_rad", "channel_asymmetry")},
    # a key that only runs the config does not ask for read: the loop's
    # geometry carries no angle, the counts and the trace read keys of their
    # own, and a spec gives one orientation key, whose name picks the projection
    "test_key_that_no_run_reads_exits_2": {
        **{f"{name} {path}": (name, "simulate", {path: value}, 2,
                              f"config.{path}: read only by {runs}; this run has none")
           for name, path, value, runs in (
               ("fig2", "noise.polarimeter_sigma_rad", 0.01, "trace"),
               ("fig2", "noise.leakage_fraction", 0.2, "trace"),
               ("fig2", "rates.cw_sample_rate_hz", 50.0, "trace"),
               ("fig4_cw", "noise.dark_rate_hz", 1000.0, "noon counts or single counts"),
               ("fig4_cw", "noise.motor_sigma_rad", 0.01, "noon counts or single counts"),
               ("fig4_cw", "noise.walk_sigma_rad", 0.01, "noon counts or single counts"),
               ("fig4_cw", "simulate.sample_poisson", False, "noon counts or single counts"),
               ("fig4_cw", "simulate.theta_deg", [2.5], "noon counts or single counts"),
               ("fig4_cw", "rates.pair_rate_detected_hz", 1.0, "noon counts"))},
        **{f"fig2 geometry.{key}": ("fig2", "simulate", {f"geometry.{key}": 40.0}, 2,
                                    f"config.geometry: unknown key(s) {key}")
           for key in ("frame_angle_deg", "latitude_deg")},
        "fig2 without noon rates.pair_rate_detected_hz": (
            "fig2", "simulate", {**{f"simulate.{key}.noon": LEFT_OUT for key in (
                "phi0_rad", "duration_s", "visibility", "base_phase_rad")},
                "rates.pair_rate_detected_hz": 1.0}, 2,
            "config.rates.pair_rate_detected_hz: read only by noon counts; "
            "this run has none"),
        **{f"fig4_cw fit.{key}": ("fig4_cw", "fit --fast", {f"fit.{key}": value}, 2,
                                  f"config.fit.{key}: read only by fit.counts; "
                                  "this run has none")
           for key, value in (("mc_samples", 1000), ("motor_sigma_rad", 0.0024))},
        # the geometry is the one source of the scale factor
        "fig4_cw fit.scale_factor_s": ("fig4_cw", "fit --fast", {"fit.scale_factor_s": 38.8},
                                       2, "config.fit: unknown key(s) scale_factor_s"),
        # both angles given: each would pick its own projection
        "spec latitude under cos_frame_angle": (
            "table3", "design", {"design.specs.0.latitude_deg": 48.2}, 2,
            "config.design.specs[0]: give a frame angle or a latitude, not both"),
        # a latitude alone picks sin_latitude, which the report names
        "spec latitude under the default projection": (
            "fig5", "design", {"design.specs.1.latitude_deg": 48.2}, 0,
            {"design_report.json": {"designs.1.projection": "sin_latitude",
                                    "designs.2.projection": "cos_frame_angle"}}),
        "spec frame angle under sin_latitude": (
            "fig5", "design", {"design.specs.4.frame_angle_deg": 0.0}, 2,
            "config.design.specs[4]: give a frame angle or a latitude, not both"),
    },
    "test_unknown_config_key_exits_2": {
        # a typo such as fit.mc_sample would otherwise run the 100k default
        "fit": ("fig2", "fit", {"fit.mc_sample": 5}, 2, "config.fit: unknown key(s) mc_sample"),
        "top level": ("fig2", "fit", {"fit_options": {}}, 2, "config: unknown key(s) fit_options"),
        # blocks are read from the top level only, and the trace halfwidth
        # from schedule.transition_halfwidth_s alone
        "simulate.noise": ("fig2", "simulate", {"simulate.noise": {"dark_rate_hz": 10.0}},
                           2, "config.simulate: unknown key(s) noise"),
        "fit.geometry": ("fig2", "fit", {"fit.geometry": {"turns": 360}}, 2,
                         "config.fit: unknown key(s) geometry"),
        "simulate.trace.transition_halfwidth_s": (
            "fig4_cw", "simulate", {"simulate.trace.transition_halfwidth_s": 0.05}, 2,
            "config.simulate.trace: unknown key(s) transition_halfwidth_s"),
        "fit.trace_transition_halfwidth_s": (
            "fig4_cw", "fit", {"fit.trace_transition_halfwidth_s": 0.05}, 2,
            "config.fit: unknown key(s) trace_transition_halfwidth_s"),
    },
    # a value of another JSON type than its key reads, which a conversion
    # would otherwise coerce
    "test_config_value_of_the_wrong_json_type_exits_2": {
        # bool("false") is True: the counts would be Poisson draws
        "bool from a string": _not_a("boolean", "fig2", "simulate",
                                     "simulate.sample_poisson", "false"),
        "landscape from a string": _not_a("boolean", "fig5", "design", "design.landscape", "no"),
        "bool from a number": _not_a("boolean", "fig2", "simulate", "simulate.sample_poisson", 0),
        # int(360.7) is 360
        "int from a fraction": _not_a("integer", "fig2", "simulate", "geometry.turns", 360.7),
        "mc_samples from a fraction": _not_a("integer", "fig2", "fit", "fit.mc_samples", 2.9),
        "photons_per_probe from a fraction": _not_a(
            "integer", "table3", "design", "design.specs.0.photons_per_probe", 2.9),
        "int from a string": _not_a("integer", "fig2", "fit", "fit.mc_samples", "1000"),
        # int(True) is 1
        "seed from a bool": _not_a("integer", "fig2", "simulate", "seed", True),
        "float from a string": _not_a("number", "fig2", "simulate",
                                      "geometry.fiber_length_m", "2000"),
        "float from a bool": _not_a("number", "fig2", "simulate",
                                    "simulate.true_omega_rad_s", True),
        "degrees from a string": ("fig2", "simulate", {"simulate.theta_deg": ["2.5"]}, 2,
                                  "config.simulate.theta_deg[0]: '2.5' is not a JSON number"),
        "float list item from a bool": (
            "fig2", "simulate", {"simulate.phi0_rad.noon": [0.0, 1.0, True]}, 2,
            "config.simulate.phi0_rad.noon[2]: True is not a JSON number"),
        "str from a number": _not_a("string", "table3", "design", "design.specs.0.shape", 1),
    },
    "test_malformed_config_exits_2_naming_its_key": {
        # a falsy block used to run on the defaults
        "noise list": _not_a("object", "fig2", "simulate", "noise", []),
        "noise false": _not_a("object", "fig2", "simulate", "noise", False),
        "schedule string": _not_a("object", "fig2", "simulate", "schedule", ""),
        "rates number": _not_a("object", "fig2", "simulate", "rates", 0),
        "fit trace number": _not_a("string", "fig4_cw", "fit", "fit.trace", 5),
        # a list where a value belongs was passed on: [false] is true
        "seed list": _not_a("integer", "fig2", "simulate", "seed", [1, 2]),
        "sample_poisson list": _not_a("boolean", "fig2", "simulate", "simulate.sample_poisson",
                                      [False]),
        "landscape list": _not_a("boolean", "fig5", "design", "design.landscape", [False]),
        # a kind typo used to leave single at its default visibility
        "per-kind typo": ("fig2", "simulate",
                          {"simulate.visibility": {"noon": 0.97, "singel": 0.5}}, 2,
                          "config.simulate.visibility: unknown key(s) singel"),
        "per-kind scalar": _not_a("object", "fig2", "simulate", "simulate.duration_s", 900.0),
        "base_phase_rad scalar": _not_a("array", "fig2", "simulate",
                                        "simulate.base_phase_rad.noon", 0.0),
        # fit.counts is neither an object of paths nor a path
        "counts path": _not_a("object", "fig2", "fit", "fit.counts", "counts_noon.csv"),
        "counts number": _not_a("object", "fig2", "fit", "fit.counts", 5),
        "counts list": _not_a("object", "fig2", "fit", "fit.counts", ["counts_noon.csv"]),
        "counts number path": _not_a("string", "fig2", "fit", "fit.counts.noon", 5),
        "counts null": _not_a("object", "fig2", "fit", "fit.counts", None),
        "specs object": _not_a("array", "table3", "design", "design.specs", {}),
        "spec name number": _not_a("string", "table3", "design", "design.specs.0.name", 5),
        # True == 1, so the version check alone passes it
        "schema_version true": _not_a("integer", "fig2", "simulate", "schema_version", True),
        "null": _not_a("integer", "fig2", "fit", "fit.mc_samples", None),
        "integer beyond a float": ("fig2", "simulate", {"geometry.fiber_length_m": 10 ** 400},
                                   2, "config.geometry.fiber_length_m: non-finite number 1000"),
    },
    # a key that the block's callee has no default for is left out, a
    # section asks for nothing, or the callee rejects a value, named by its
    # block path
    "test_missing_key_or_empty_section_exits_2_naming_it": {
        "geometry left out": ("fig2", "simulate", {"geometry": LEFT_OUT}, 2,
                              "config.geometry: missing fiber_length_m, turns"),
        "circular perimeter": ("fig2", "simulate", {"geometry": {
            "shape": "circular", "fiber_length_m": 2000.0}}, 2,
            "config.geometry: missing perimeter_m"),
        **{f"spec {key}": ("table3", "design", {f"design.specs.1.{key}": LEFT_OUT}, 2,
                           f"config.design.specs[1]: missing {key}")
           for key in ("alpha_db_per_km", "pair_rate_in_hz")},
        # only a shot-limited design reads its integration time
        "spec integration_time_s": (
            "table3", "design", {"design.specs.1.integration_time_s": LEFT_OUT}, 2,
            "config.design.specs[1]: a shot-limited design needs a positive "
            "integration time"),
        "spec integration_time_s of a measured design": (
            "table3", "design", {"design.specs.0.integration_time_s": 1.0}, 2,
            "config.design.specs[0]: a measured phase resolution reads no "
            "integration time"),
        "gfring empty": ("table3", "design --optimize-gfring", {"design.gfring": {}}, 2,
                         "config.design.gfring: missing latitude_deg"),
        "gfring target zero": ("table3", "design --optimize-gfring",
                               {"design.gfring.target_snr": 0}, 2,
                               "config.design.gfring: target SNR 0 is not positive"),
        "calibration empty": ("fig4_cw", "fit", {"fit": {"calibration": {}}}, 2,
                              "config.fit.calibration: missing angles_deg, phases_rad, "
                              "sigmas_rad"),
        "simulate empty": ("fig2", "simulate", {"simulate": {}}, 2,
                           "config.simulate: no phi0_rad grid and no trace"),
        "fit empty": ("fig2", "fit", {"fit": {}}, 2,
                      "config.fit: no counts, trace or calibration"),
        "design empty": ("table3", "design", {"design": {}}, 2,
                         "config.design: no specs and no --optimize-gfring"),
        "duration zero": ("fig2", "simulate", {"simulate.duration_s.noon": 0.0}, 2,
                          "config.simulate (noon): duration must be positive"),
        "phi0 grid empty": ("fig2", "simulate", {"simulate.phi0_rad.noon": []}, 2,
                            "config.simulate (noon): need at least one bias set point"),
        # a repeated set point or angle wrote a counts file that fit refuses
        "phi0 grid repeated": ("fig2", "simulate", {
            "simulate.phi0_rad.noon": [0.0, 0.0, 0.5, 1.0, 1.5, 2.0]}, 2,
            "config.simulate (noon): bias set point 0 rad repeats"),
        "frame angle repeated": ("fig2", "simulate", {
            "simulate.theta_deg": [2.5, 2.5], "simulate.base_phase_rad.noon": [0.0, 0.0],
            "simulate.base_phase_rad.single": [0.0, 0.0]}, 2,
            "config.simulate (noon): frame angle 0.0436332312999 rad repeats"),
        # the noon counts do not read it, so it would change nothing
        "channel asymmetry of noon": (
            "fig2", "simulate", {"simulate.channel_asymmetry": {"noon": 0.4}}, 2,
            "config.simulate.channel_asymmetry: unknown key(s) noon"),
        "frequency zero": ("fig2", "simulate", {"schedule.frequency_hz": 0}, 2,
                           "config.schedule: switch frequency must be positive"),
        # zero turns and a zero perimeter divided by zero, with a traceback;
        # fit checks a geometry whenever it is given, as simulate does
        **{f"turns zero under {command}{case}": (name, command, {"geometry.turns": 0}, 2,
                                                 "config.geometry: need at least one turn")
           for name, command, case in (("fig2", "simulate", ""), ("fig2", "fit", ""),
                                       ("fig3_tables12", "fit", " of an angle sweep"))},
        "circular perimeter zero": ("fig2", "simulate", {"geometry": {
            "shape": "circular", "fiber_length_m": 2000.0, "perimeter_m": 0}}, 2,
            "config.geometry: perimeter must be positive"),
        "shape unknown": ("fig2", "simulate", {"geometry.shape": "hexagonal"}, 2,
                          "config.geometry.shape: unknown loop shape 'hexagonal'"),
        "spec shape unknown": ("table3", "design", {"design.specs.2.shape": "hexagonal"},
                               2, "config.design.specs[2].shape: unknown loop shape"),
        # the orientation key given names the projection, so a projection key
        # is unknown whatever its value
        "spec projection unknown": (
            "table3", "design", {"design.specs.0.projection": "cos_frame_angle"}, 2,
            "config.design.specs[0]: unknown key(s) projection"),
        # a zero rate wrote S = Infinity into fit_report.json
        "calibration zero rate": ("fig4_cw", "fit", {"fit": {"calibration": {
            "omega_earth_rad_s": 0, "angles_deg": [-90.0, -45.0, 0.0],
            "phases_rad": [0.0, 2e-3, 2.8e-3], "sigmas_rad": [2e-5, 2e-5, 2e-5]}}}, 2,
            "config.fit.calibration: omega_earth must be positive"),
        # numpy's "expected non-negative integer" named no key
        "seed negative": ("fig2", "simulate", {"seed": -5}, 2, "config.seed: seed -5 is negative"),
        "seed option negative": ("fig2", "simulate --seed -3", {}, 2,
                                 "--seed: seed -3 is negative"),
        # values a callee that the command calls directly rejects, named by block
        "trace total time zero": ("fig4_cw", "simulate", {"simulate.trace.total_time_s": 0},
                                  2, "config.simulate.trace: trace must cover at least "
                                  "ten switch periods"),
        # the scale factor is the geometry's alone
        "scale factor zero": ("fig3_tables12", "fit", {"fit.scale_factor_s": 0}, 2,
                              "config.fit: unknown key(s) scale_factor_s"),
        # a port of a gain imbalance beyond one had a negative rate
        **{f"channel asymmetry beyond one, sample_poisson {poisson}": (
            "fig2", "simulate", {"simulate.channel_asymmetry.single": 1.5,
                                 "simulate.sample_poisson": poisson}, 2,
            "config.simulate (single): channel asymmetry must be in [-1, 1]")
           for poisson in (True, False)},
        # the bootstrap drew no motor offsets for it and reported it as given
        "motor sigma negative under --fast": (
            "fig2", "fit --fast", {"fit.motor_sigma_rad": -1.0}, 2,
            "config.fit: motor_sigma_rad -1.0 is negative"),
        "mc_samples one": ("fig2", "fit", {"fit.mc_samples": 1}, 2,
                           "config.fit: mc_samples 1, need at least two resamples"),
        # --fast replaces the sample counts, which used to leave them unread
        "mc_samples negative under --fast": (
            "fig2", "fit --fast", {"fit.mc_samples": -1}, 2,
            "config.fit: mc_samples -1, need at least two resamples"),
        "calibration mc_samples under --fast": (
            "fig4_cw", "fit --fast", {"fit.calibration.mc_samples": 0}, 2,
            "config.fit.calibration: mc_samples 0, need at least two resamples"),
        **{f"{name} zero projection": (
            name, "design", {"design.specs.4.latitude_deg": 0}, 2,
            "config.design.specs[4]: projection factor 0 is not positive; "
            "rotation not observable")
           for name in ("table3", "fig5")},
        # a negative factor was reported as zero
        "table3 southern latitude": (
            "table3", "design", {"design.specs.4.latitude_deg": -48.2}, 2,
            "config.design.specs[4]: projection factor -0.745 is not positive"),
        "table3 frame angle of a half-turn": (
            "table3", "design", {"design.specs.0.frame_angle_deg": 180}, 2,
            "config.design.specs[0]: projection factor -1 is not positive"),
    },
    "test_command_section_not_an_object_exits_2": {
        f"{case}-{command}": ({"schema_version": 1, command: section}, command, {}, 2,
                              f"config.{command}: {section!r} is not a JSON object")
        for case, section in (("list", []), ("string", "x"), ("number", 5))
        for command in ("simulate", "fit", "design")},
    # a key the shape does not read is an error, not silently dropped
    "test_geometry_key_of_the_other_shape_exits_2": {
        **{f"{shape}-{key}-{value}": (
            "fig2", "simulate", {**_SHAPES[shape], f"geometry.{key}": value}, 2,
            f"config.geometry.{key}: read only by {other} loop; this run has none")
           for shape, key, value, other in (("square", "perimeter_m", 5.0, "circular"),
                                            ("circular", "turns", 7, "square"))},
        "spec-square-perimeter_m-5.0": (
            "table3", "design", {"design.specs.0.perimeter_m": 5.0}, 2,
            "config.design.specs[0].perimeter_m: read only by circular loop; "
            "this run has none")},
    # an empty specs list designs nothing unless the optimizer runs
    "test_design_empty_spec_list": ({"schema_version": 1, "design": {"specs": []}}, "design",
                                    {}, 2, "config.design: no specs and no --optimize-gfring"),
    # a landscape with no specs to place is bad input, not a header-only CSV
    "test_design_landscape_without_specs": {
        case: ("table3", "design --optimize-gfring",
               {"design.specs": specs, "design.landscape": True}, 2,
               "config.design: landscape asked for, but no specs to place on it")
        for case, specs in (("absent", LEFT_OUT), ("empty", []))},
    # the designs table computes, the optimizer fails
    "test_design_infeasible_target_exits_3": (
        "table3", "design --optimize-gfring", {"design.gfring.target_snr": 1e9}, 3,
        "error: config.design.gfring: single turn at the loss-optimal length"),
    "test_optimizer_flag_needs_gfring_section": (
        "table3", "design --optimize-gfring", {"design.gfring": LEFT_OUT}, 2,
        "config.design: --optimize-gfring needs a design.gfring section"),
}


def _judge_config_row(tmp_path, capsys, simulated, row):
    config, command_line, edits, code, message = row
    cfg = tmp_path / "config.json"
    if config is not None:
        cfg.write_text(json.dumps(edited(config, edits)))
    _judge(capsys, [*command_line.split(), "--config", str(cfg),
                    "--out", str(tmp_path / "run")], code, message)


def _fields(i, j, *values):
    """Mutation: the fields of data row i from field j on set to values."""
    def mutate(rows):
        fields = rows[i].split(",")
        fields[j:j + len(values)] = values
        return [*rows[:i], ",".join(fields), *rows[i + 1:]]
    return mutate


def _trace_rows(drive, t=None):
    t = [0.05 * (i + 0.5) for i in range(len(drive))] if t is None else t
    return [f"{ti!r},0.0,0.001,{d}" for ti, d in zip(t, drive)]


def _half_turns_apart(rows):
    """Frame angles moved to 0, 180, 360, ... deg, where every sine is zero."""
    angles = {}
    split = [row.split(",", 1) for row in rows]
    for theta, _ in split:
        angles.setdefault(theta, str(180 * len(angles)))
    return [f"{angles[theta]},{rest}" for theta, rest in split]


def _off_counts_as_on(rows):
    """Each off record takes the counts of the on record before it, so the
    one-photon Earth phase is zero."""
    out = []
    for row in rows:
        if ",off," in row:
            row = ",".join(row.split(",")[:4] + out[-1].split(",")[4:])
        out.append(row)
    return out


# test name -> row, or test name -> {case: row}; a row is (recipe, the data
# file of its simulate run, a mutation of the file's data rows or None to
# leave the file out, exit code, message with {data} for the file's path).
# fit --fast reads the mutated file by its name, joined to --out, and the
# other data of the recipe by absolute path.
_BAD_DATA = {
    "test_fit_without_counts_exits_2": ("fig2", "counts_noon.csv", None, 2,
                                        "No such file or directory: '{data}'"),
    "test_fit_empty_counts_exits_2": ("fig2", "counts_noon.csv", lambda rows: [], 2,
                                      "config error: {data}: no count records"),
    "test_fit_non_finite_counts_field_exits_2": (
        "fig2", "counts_noon.csv", _fields(2, 0, "nan"), 2,
        "config error: {data}: row 4: non-finite theta_deg"),
    "test_fit_non_finite_trace_value_exits_2": (
        "fig4_cw", "trace.csv", _fields(5999, 2, "nan"), 2,
        "config error: {data}: row 6001: non-finite chi_rad"),
    # on and off are drive > 0.5: a drive switching below it gives no silent NaN
    "test_fit_drive_that_never_crosses_half_exits_2": (
        "fig4_cw", "trace.csv",
        lambda rows: [row[:-1] + "0.3" if row.endswith(",1") else row for row in rows], 2,
        "config error: {data}: drive never switches"),
    # a count int() reads but float() cannot gave an OverflowError traceback
    "test_fit_count_too_large_for_a_float_exits_2": (
        "fig2", "counts_single.csv", _fields(3, 4, "9" * 401), 2,
        "config error: {data}: row 5: non-finite n_h '999"),
    # finite ellipse angles whose means overflow gave phi_s = nan and exit 0
    "test_fit_trace_too_large_to_average_exits_2": (
        "fig4_cw", "trace.csv",
        lambda rows: [",".join(f[:2] + ["1e308"] + f[3:]) for f in (r.split(",") for r in rows)],
        2, "config error: {data}: on/off contrast is not finite"),
    "test_trace_data_error_exits_2_naming_the_trace_once": {
        case: ("fig4_cw", "trace.csv", lambda rows, r=trace: r, 2,
               f"config error: {{data}}: {message}")
        for case, trace, message in (
            ("constant drive", _trace_rows([1] * 400), "drive never switches"),
            ("reversed rows", _trace_rows([1] * 200 + [0] * 200,
                                          [0.05 * i for i in (*range(199), 200, 199)]
                                          + [0.05 * i for i in range(201, 400)]),
             "sample times must increase"),
            ("one row", _trace_rows([1]), "trace too short"),
            ("drive flips every sample", _trace_rows([1, 0] * 200),
             "a switch half-period retains fewer than two samples"))},
    # the noon kind fits, the single kind fails
    "test_failed_fit_leaves_no_new_file": ("fig2", "counts_single.csv", lambda rows: rows[:3],
                                           3, "error: {data} (theta = +2.50 deg): "),
    # a bad counts file is a data error: config.fit is not its source
    "test_count_data_error_of_the_bootstrap_names_no_config_block": (
        "fig2", "counts_noon.csv", lambda rows: [r for r in rows if ",on," in r], 2,
        "config error: {data} (theta = +2.50 deg): need records in both switch states"),
    # a counts file written twice would fit each record twice and quote an
    # error too small by sqrt(2)
    "test_repeated_set_point_exits_2_naming_the_csv": (
        "fig2", "counts_single.csv", lambda rows: rows + rows, 2,
        "config error: {data} (theta = +2.50 deg): bias set point -0.785398163397 rad "
        "repeats in the on records"),
    # a fit, degenerate-design or undefined-ratio error from count data keeps
    # exit 3 and names the counts file, with the frame angle when one angle's
    # bootstrap raised it, as an exit-2 data error does
    "test_count_data_error_of_exit_3_names_the_csv": {
        "zero-total row": ("fig2", "counts_single.csv", _fields(3, 4, "0", "0", "0"), 3,
                           "error: {data} (theta = +2.50 deg): record with zero total "
                           "counts; ratio undefined"),
        "four set points": ("fig2", "counts_single.csv", lambda rows: rows[:8], 3,
                            "error: {data} (theta = +2.50 deg): need at least 5 distinct "
                            "bias set points, got 4"),
        "angles a half-turn apart": ("fig3_tables12", "counts_single.csv", _half_turns_apart,
                                     3, "error: {data}: angle set does not separate cos "
                                     "and sin"),
        "no one-photon phase": ("fig2", "counts_single.csv", _off_counts_as_on, 3,
                                "error: {data}: one-photon response consistent with zero"),
    },
}


def test_angle_sweep_without_geometry_exits_2(tmp_path, capsys, simulated):
    """fit of three or more angles with no geometry has no scale factor for
    its sweep: it exits 2 before any bootstrap and writes nothing."""
    config = edited("fig3_tables12", {"geometry": LEFT_OUT})
    counts = config["fit"]["counts"]
    for kind, path in counts.items():
        counts[kind] = str(simulated / "fig3_tables12" / path)
    _judge(capsys, ["fit", "--fast", "--config", write_config(tmp_path, config),
                    "--out", str(tmp_path / "run")], 2,
           "config error: config.fit: angle sweep needs geometry")


def _judge_data_row(tmp_path, capsys, simulated, row):
    name, file_name, mutate, code, message = row
    config = edited(name, {})
    counts = config["fit"].get("counts", {})
    for kind, path in counts.items():
        if path != file_name:
            counts[kind] = str(simulated / name / path)
    cfg = write_config(tmp_path, config)
    out = tmp_path / "run"
    out.mkdir()
    header, *rows = (simulated / name / file_name).read_text().splitlines()
    if mutate is not None:
        (out / file_name).write_text("\n".join([header, *mutate(rows)]) + "\n")
    data = str(out / file_name)
    _judge(capsys, ["fit", "--fast", "--config", cfg, "--out", str(out)], code,
           message.format(data=data), data=data)


def _tests_of(table, judge_row):
    """The tests of table by name, each calling judge_row on its rows.

    A test whose entry is {case: row} is parametrized by case, so its ids
    are name[case]; the rest run their one row.
    """
    tests = {}
    for name, rows in table.items():
        if isinstance(rows, dict):
            @pytest.mark.parametrize("case", rows)
            def test(tmp_path, capsys, simulated, case, rows=rows):
                judge_row(tmp_path, capsys, simulated, rows[case])
        else:
            def test(tmp_path, capsys, simulated, row=rows):
                judge_row(tmp_path, capsys, simulated, row)
        tests[name] = test
    return tests


globals().update(_tests_of(_BAD_CONFIGS, _judge_config_row),
                 **_tests_of(_BAD_DATA, _judge_data_row))


def _boundary_values(value, schema, path=()):
    """(key path, value) for each key of value that schema reads as a number
    or a list: 0 and -1 for a number; [] and, for a longer list, its first
    item alone for a list (of values or of specs)."""
    if isinstance(schema, tuple):
        kind = schema[1]
        if isinstance(kind, list):
            yield from _shortened(value, path)
        elif kind is not bool and kind is not str:
            yield path, 0
            yield path, -1
    elif isinstance(schema, dict):
        for key, item in value.items():
            yield from _boundary_values(item, schema[key], path + (key,))
    else:
        yield from _shortened(value, path)
        for i, item in enumerate(value):
            yield from _boundary_values(item, schema[0], path + (i,))


def _shortened(value, path):
    yield path, []
    if len(value) > 1:
        yield path, value[:1]


def _swept_leaves(schema, path=()):
    """The key path of each leaf _boundary_values sweeps in a config of
    schema, with "*" for a list index."""
    if isinstance(schema, tuple):
        if isinstance(schema[1], list) or schema[1] not in (bool, str):
            yield path
    elif isinstance(schema, dict):
        for key, item in schema.items():
            yield from _swept_leaves(item, path + (key,))
    else:
        yield path
        yield from _swept_leaves(schema[0], path + ("*",))


_RUN_KEYS = ("schema_version", "seed")
# (recipe, command line, edits that add leaves the recipe lacks, the key
# paths swept): simulate of the count and trace recipes, each with the
# rates and noise its path reads, and of a circular loop; fit --fast of
# the count, trace and angle-sweep recipes; design of both design recipes.
# Each leaf is swept only on a run that reads it: a one-angle fit and a
# trace fit use no scale factor, and only a trace fit reads the schedule.
_SWEPT_RUNS = [
    ("fig2", "simulate", {
        "rates.pair_rate_detected_hz": 4000.0, "rates.heralded_single_rate_hz": 20000.0,
        "rates.coincidence_window_s": 3.75e-9, "noise.dark_rate_hz": 300.0,
        "noise.motor_sigma_rad": 2.4e-3, "noise.drift_rate_rad_s": 0.0,
        "noise.walk_sigma_rad": 0.0, "simulate.channel_asymmetry.single": 0.0},
     (*_RUN_KEYS, "geometry", "schedule", "rates", "noise", "simulate")),
    ("fig2", "simulate", _SHAPES["circular"], ("geometry",)),
    ("fig2", "fit --fast", {}, (*_RUN_KEYS, "fit")),
    ("fig4_cw", "simulate", {
        "rates.cw_sample_rate_hz": 20.0, "noise.drift_rate_rad_s": 0.0,
        "noise.polarimeter_sigma_rad": 2e-4, "noise.leakage_fraction": 0.1},
     (*_RUN_KEYS, "geometry", "schedule", "rates", "noise", "simulate")),
    ("fig4_cw", "fit --fast", {}, (*_RUN_KEYS, "schedule", "fit")),
    ("fig3_tables12", "fit --fast", {}, (*_RUN_KEYS, "geometry", "fit")),
    ("table3", "design --optimize-gfring", {}, ("schema_version", "design")),
    ("fig5", "design", {}, ("schema_version", "design")),
]


def test_boundary_values_of_every_schema_leaf(tmp_path, capsys, simulated):
    """Each numeric leaf of a config at 0 and -1, and each list leaf at []
    and at its first item, exits 0, 2 or 3 as _judge holds it to, a failed
    run naming a config path, the config file or a data file.

    The sweep reads the leaves from _CONFIG_KEYS and must reach each of
    them on a run of _SWEPT_RUNS, so a key added to the schema fails it
    until a run that reads the key is given one.  A fit reads the counts
    and trace of one unmutated simulate run by absolute path.
    """
    findings, n, reached = [], 0, set()
    for name, command_line, edits, swept in _SWEPT_RUNS:
        argv = command_line.split()
        base = edited(name, edits)
        fit = base.get("fit", {})
        for kind, path in fit.get("counts", {}).items():
            fit["counts"][kind] = str(simulated / name / path)
        if "trace" in fit:
            fit["trace"] = str(simulated / name / fit["trace"])
        for path, value in _boundary_values(base, _CONFIG_KEYS):
            key_path = ".".join(map(str, path))
            if not any(key_path == p or key_path.startswith(p + ".") for p in swept):
                continue
            n += 1
            reached.add(tuple("*" if isinstance(p, int) else p for p in path))
            # each config to a path of its own: rewriting one file in place
            # waits on the file system
            cfg = write_config(tmp_path, edited(json.loads(json.dumps(base)),
                                                {key_path: value}), name=f"m{n}.json")
            case = f"{name} {command_line} {key_path}={value}"
            findings += [f"{case}: {breach}" for breach in _judge(
                capsys, argv + ["--config", cfg, "--out", str(tmp_path / f"out{n}")],
                None, ("config.", cfg, str(simulated)), collect=True)]
    assert set(_swept_leaves(_CONFIG_KEYS)) - reached == set()
    assert findings == []


def _data_file_mutations(columns, text):
    """(case, text) for each malformed or edge-case form of a data file.

    Each column of one data row in turn holds a non-number, NaN, -inf and
    a 400-digit number; then the file is cut mid-row, one row gains or
    loses a field, the rows are repeated or reversed, or only the header
    is left.
    """
    header, *rows = text.splitlines()
    mid = len(rows) // 2
    fields = rows[mid].split(",")

    def with_row(row):
        return "\n".join([header, *rows[:mid], row, *rows[mid + 1:]]) + "\n"

    for j, name in enumerate(columns):
        for label, value in (("non-number", "x"), ("nan", "nan"), ("-inf", "-inf"),
                             ("400 digits", "9" * 400)):
            yield f"{name} {label}", with_row(
                ",".join(fields[:j] + [value] + fields[j + 1:]))
    yield "truncated", "\n".join([header, *rows[:mid]]) + "\n" + rows[mid][:4]
    yield "extra field", with_row(rows[mid] + ",0")
    yield "missing field", with_row(",".join(fields[:-1]))
    yield "repeated rows", "\n".join([header, *rows, *rows]) + "\n"
    yield "reversed rows", "\n".join([header, *rows[::-1]]) + "\n"
    yield "header only", header + "\n"


def test_mutated_data_files_exit_cleanly_naming_the_file(tmp_path, capsys, simulated):
    """Each mutation of a column of COUNTS_CSV_COLUMNS or TRACE_CSV_COLUMNS,
    and of the file as a whole, makes fit --fast exit 0, 2 or 3 as _judge
    holds it to, a failed run naming the data file once and no config
    block.

    The count mutations go to each kind's file of fig2, as a kind reads
    only some count columns; the trace mutations to the trace of fig4_cw,
    fitted without its calibration.
    """
    fig2 = json.loads(Path(recipe("fig2")).read_text())
    fig4 = json.loads(Path(recipe("fig4_cw")).read_text())
    del fig4["fit"]["calibration"]
    trace_text = (simulated / "fig4_cw" / "trace.csv").read_text()
    constant = "".join(line.rsplit(",", 1)[0] + ",1\n"
                       for line in trace_text.splitlines()[1:])
    inputs = [(fig4, "trace", None, "trace.csv", case, text) for case, text in (
        *_data_file_mutations(TRACE_CSV_COLUMNS, trace_text),
        ("constant drive", trace_text.split("\n", 1)[0] + "\n" + constant))]
    for kind in ("noon", "single"):
        text = (simulated / "fig2" / f"counts_{kind}.csv").read_text()
        inputs += [(fig2, "counts", kind, f"counts_{kind}.csv", case, mutated)
                   for case, mutated in _data_file_mutations(COUNTS_CSV_COLUMNS, text)]
    findings = []
    for n, (base, key, kind, file_name, case, text) in enumerate(inputs):
        path = tmp_path / f"in{n}" / file_name
        path.parent.mkdir()
        path.write_text(text)
        config = json.loads(json.dumps(base))
        config["fit"][key] = {kind: str(path)} if kind else str(path)
        cfg = write_config(tmp_path, config, name=f"m{n}.json")
        findings += [f"{file_name} {case}: {breach}" for breach in _judge(
            capsys, ["fit", "--fast", "--config", cfg, "--out", str(tmp_path / f"out{n}")],
            None, "", data=str(path), collect=True)]
    assert len(inputs) > 80
    assert findings == []

