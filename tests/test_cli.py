import csv
import json
import math
import os
import re
import subprocess
import sys
import traceback
import warnings
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


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_wrong_schema_version_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 99, "simulate": {}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_non_object_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, [1, 2, 3])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_non_finite_design_value_exits_2(tmp_path, capsys):
    base = json.loads(Path(recipe("table3")).read_text())
    base["design"]["specs"][1]["fiber_length_m"] = float("nan")
    cfg = write_config(tmp_path, base)
    assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "designs.csv").exists()


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


def test_invalid_simulation_parameters_exit_2(tmp_path, capsys):
    base = json.loads(Path(recipe("fig2")).read_text())
    base["simulate"]["duration_s"] = {"noon": 0.0, "single": 0.0}
    cfg = write_config(tmp_path, base)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "duration must be positive" in capsys.readouterr().err


def test_fit_fig2_fast(tmp_path, capsys):
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    before = set(os.listdir(out))
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    manifest = json.loads((tmp_path / "manifest_fit.json").read_text())
    assert manifest["outputs"] == ["table_noon.csv", "table_single.csv",
                                   "fit_report.json"]
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


def test_fit_without_counts_exits_2(tmp_path):
    assert main(["fit", "--config", recipe("fig2"), "--out", str(tmp_path),
                 "--fast"]) == 2


def test_fit_empty_counts_exits_2(tmp_path, capsys):
    """An empty counts file is named by the path fit read it from."""
    header = "theta_deg,phi0_rad,switch,duration_s,n_h,n_v,n_hv\n"
    (tmp_path / "counts_noon.csv").write_text(header)
    (tmp_path / "counts_single.csv").write_text(header)
    assert main(["fit", "--config", recipe("fig2"), "--out", str(tmp_path),
                 "--fast"]) == 2
    assert (f"config error: {tmp_path / 'counts_noon.csv'}: no count records"
            in capsys.readouterr().err)


def test_fit_non_finite_counts_field_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    path = tmp_path / "counts_noon.csv"
    lines = path.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 2
    err = capsys.readouterr().err
    assert "counts_noon.csv: row 4: non-finite theta_deg" in err
    assert "both switch states" not in err


def test_fit_non_finite_trace_value_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig4_cw"), "--out", out])
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    row = len(lines) // 2
    fields = lines[row].split(",")
    fields[2] = "nan"
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    before = sorted(os.listdir(out))
    assert main(["fit", "--config", recipe("fig4_cw"), "--out", out, "--fast"]) == 2
    assert sorted(os.listdir(out)) == before
    assert f"trace.csv: row {row + 1}: non-finite chi_rad" in capsys.readouterr().err


def test_fit_drive_that_never_crosses_half_exits_2(tmp_path, capsys):
    """On and off are drive > 0.5: a drive switching below it gives no silent NaN."""
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig4_cw"), "--out", out])
    path = tmp_path / "trace.csv"
    header, *rows = path.read_text().splitlines()
    rows = [row[:-1] + "0.3" if row.endswith(",1") else row for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "--config", recipe("fig4_cw"), "--out", out,
                     "--fast"]) == 2
    assert not (tmp_path / "fit_report.json").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "drive never switches" in capsys.readouterr().err


def test_fit_count_too_large_for_a_float_exits_2(tmp_path, capsys):
    """A count int() reads but float() cannot gave an OverflowError traceback."""
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    path = tmp_path / "counts_single.csv"
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    fields[4] = "9" * 401
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 2
    captured = capsys.readouterr()
    assert "counts_single.csv: row 5: non-finite n_h '999" in captured.err
    assert captured.out == ""


def trace_run(tmp_path, text):
    """fit of fig4_cw on a trace CSV of the given text; returns (code, trace path, out)."""
    trace = tmp_path / "data" / "trace.csv"
    trace.parent.mkdir()
    trace.write_text(text)
    config = json.loads(Path(recipe("fig4_cw")).read_text())
    config["fit"]["trace"] = str(trace)
    out = tmp_path / "run"
    code = main(["fit", "--config", write_config(tmp_path, config), "--out", str(out),
                 "--fast"])
    return code, str(trace), out


def test_fit_trace_too_large_to_average_exits_2(tmp_path, capsys):
    """Finite ellipse angles whose means overflow gave phi_s = nan and exit 0."""
    main(["simulate", "--config", recipe("fig4_cw"), "--out", str(tmp_path / "sim")])
    header, *rows = (tmp_path / "sim" / "trace.csv").read_text().splitlines()
    rows = [",".join(f[:2] + ["1e308"] + f[3:]) for f in (r.split(",") for r in rows)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, trace, out = trace_run(tmp_path, "\n".join([header, *rows]) + "\n")
    assert code == 2
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert f"config error: {trace}: on/off contrast is not finite" in captured.err
    assert captured.out == ""


def _trace_text(drive, t=None):
    t = [0.05 * (i + 0.5) for i in range(len(drive))] if t is None else t
    return "t_s,psi_rad,chi_rad,drive\n" + "".join(
        f"{ti!r},0.0,0.001,{d}\n" for ti, d in zip(t, drive))


_BAD_TRACES = {
    "constant drive": (_trace_text([1] * 400), "drive never switches"),
    "reversed rows": (_trace_text([1] * 200 + [0] * 200,
                                  [0.05 * i for i in (*range(199), 200, 199)]
                                  + [0.05 * i for i in range(201, 400)]),
                      "sample times must increase"),
    "one row": (_trace_text([1]), "trace too short"),
    "drive flips every sample": (_trace_text([1, 0] * 200), "fewer than two samples"),
}


@pytest.mark.parametrize("case", _BAD_TRACES)
def test_trace_data_error_exits_2_naming_the_trace_once(tmp_path, capsys, case):
    text, message = _BAD_TRACES[case]
    code, trace, out = trace_run(tmp_path, text)
    assert code == 2
    captured = capsys.readouterr()
    assert f"config error: {trace}: " in captured.err
    assert message in captured.err
    assert captured.err.count(trace) == 1
    assert captured.out == ""
    assert not out.exists()


def test_failed_fit_leaves_no_new_file(tmp_path, capsys):
    """The noon kind fits, the single kind fails: nothing is written or printed."""
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    path = tmp_path / "counts_single.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 3
    assert sorted(os.listdir(out)) == before
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_failed_simulate_leaves_no_file(tmp_path, capsys):
    """A bad second kind fails the run before the first kind's counts are written."""
    config = json.loads(Path(recipe("fig2")).read_text())
    config["simulate"]["duration_s"]["single"] = 0.0
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "duration must be positive" in capsys.readouterr().err


def test_simulate_kinds_exits_2(tmp_path, capsys):
    """The kinds simulated are the kinds phi0_rad gives a grid for: no kinds list."""
    cfg = config_with(tmp_path, "fig2", "simulate.kinds", ["noon", "single"])
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config.simulate: unknown key(s) kinds" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key", ["duration_s", "visibility", "base_phase_rad"])
def test_per_kind_key_without_a_grid_exits_2(tmp_path, capsys, key):
    """A kind with no phi0_rad grid is not simulated, so its other keys are unread."""
    config = json.loads(Path(recipe("fig2")).read_text())
    del config["simulate"]["phi0_rad"]["single"]
    for other in ("duration_s", "visibility", "base_phase_rad"):
        if other != key:
            del config["simulate"][other]["single"]
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config.simulate.{key}.single: " in err
    assert "Traceback" not in err
    assert not out.exists()


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

# case -> (recipe, command, key path, value)
_UNKNOWN_KEYS = {
    # a typo such as fit.mc_sample would otherwise run the 100k default
    "fit": ("fig2", "fit", "fit.mc_sample", 5),
    "top level": ("fig2", "fit", "fit_options", {}),
    # blocks are read from the top level only, and the trace halfwidth from
    # schedule.transition_halfwidth_s alone
    "simulate.noise": ("fig2", "simulate", "simulate.noise", {"dark_rate_hz": 10.0}),
    "fit.geometry": ("fig2", "fit", "fit.geometry", {"turns": 360}),
    "simulate.trace.transition_halfwidth_s": (
        "fig4_cw", "simulate", "simulate.trace.transition_halfwidth_s", 0.05),
    "fit.trace_transition_halfwidth_s": (
        "fig4_cw", "fit", "fit.trace_transition_halfwidth_s", 0.05),
}


LEFT_OUT = object()


def config_with(tmp_path, name, key_path, value):
    """Write recipe name with key_path set to value; returns the config's path.

    key_path is dotted; a number in it indexes a list (design.specs.1.turns).
    The value LEFT_OUT removes the key.
    """
    config = json.loads(Path(recipe(name)).read_text())
    *parents, key = key_path.split(".")
    block = config
    for parent in parents:
        block = block[int(parent) if isinstance(block, list) else parent]
    if value is LEFT_OUT:
        del block[key]
    else:
        block[key] = value
    return write_config(tmp_path, config)


def run_with(tmp_path, name, command, key_path, value):
    """Run command on recipe name with key_path set to value, after its simulate.

    Returns the exit code.
    """
    out = str(tmp_path)
    main(["simulate", "--config", recipe(name), "--out", out])
    return main([command, "--config", config_with(tmp_path, name, key_path, value),
                 "--out", out, "--fast"])


def message_path(key_path):
    """How an error message names key_path: config.design.specs[0].name."""
    return "config." + re.sub(r"\.(\d+)(?=\.|$)", r"[\1]", key_path)


@pytest.mark.parametrize("case", _UNKNOWN_KEYS)
def test_unknown_config_key_exits_2(tmp_path, capsys, case):
    name, command, key_path, value = _UNKNOWN_KEYS[case]
    assert run_with(tmp_path, name, command, key_path, value) == 2
    *parents, key = key_path.split(".")
    where = ".".join(["config", *parents])
    assert f"{where}: unknown key(s) {key}" in capsys.readouterr().err


# case -> (recipe, command, key path, value): a value of another JSON type
# than its key reads, which a conversion would otherwise coerce
_WRONG_TYPES = {
    # bool("false") is True: the counts would be Poisson draws
    "bool from a string": ("fig2", "simulate", "simulate.sample_poisson", "false"),
    "landscape from a string": ("fig5", "design", "design.landscape", "no"),
    "bool from a number": ("fig2", "simulate", "simulate.sample_poisson", 0),
    # int(360.7) is 360
    "int from a fraction": ("fig2", "simulate", "geometry.turns", 360.7),
    "mc_samples from a fraction": ("fig2", "fit", "fit.mc_samples", 2.9),
    "photons_per_probe from a fraction": (
        "table3", "design", "design.specs.0.photons_per_probe", 2.9),
    "int from a string": ("fig2", "fit", "fit.mc_samples", "1000"),
    # int(True) is 1
    "seed from a bool": ("fig2", "simulate", "seed", True),
    "float from a string": ("fig2", "simulate", "geometry.fiber_length_m", "2000"),
    "float from a bool": ("fig2", "simulate", "simulate.true_omega_rad_s", True),
    "degrees from a string": ("fig2", "simulate", "simulate.theta_deg", ["2.5"]),
    "float list item from a bool": ("fig2", "simulate", "simulate.phi0_rad.noon",
                                    [0.0, 1.0, True]),
    "str from a number": ("table3", "design", "design.specs.0.projection", 1),
}


@pytest.mark.parametrize("case", _WRONG_TYPES)
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, case):
    name, command, key_path, value = _WRONG_TYPES[case]
    assert run_with(tmp_path, name, command, key_path, value) == 2
    # a list item is named by its index: config.simulate.theta_deg[0]
    pattern = rf"{re.escape(message_path(key_path))}(\[\d+\])?: .* is not a JSON"
    assert re.search(pattern, capsys.readouterr().err)


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


# case -> (recipe, command, key path, value): each is rejected when the
# config loads, naming its key path, before any output is written
_MALFORMED = {
    # a falsy block used to run on the defaults
    "noise list": ("fig2", "simulate", "noise", []),
    "noise false": ("fig2", "simulate", "noise", False),
    "schedule string": ("fig2", "simulate", "schedule", ""),
    "rates number": ("fig2", "simulate", "rates", 0),
    "fit trace number": ("fig4_cw", "fit", "fit.trace", 5),
    # a list where a value belongs was passed on: [false] is true
    "seed list": ("fig2", "simulate", "seed", [1, 2]),
    "sample_poisson list": ("fig2", "simulate", "simulate.sample_poisson", [False]),
    "landscape list": ("fig5", "design", "design.landscape", [False]),
    # a kind typo used to leave single at its default visibility
    "per-kind typo": ("fig2", "simulate", "simulate.visibility",
                      {"noon": 0.97, "singel": 0.5}),
    "per-kind scalar": ("fig2", "simulate", "simulate.duration_s", 900.0),
    "base_phase_rad scalar": ("fig2", "simulate", "simulate.base_phase_rad.noon", 0.0),
    "counts path": ("fig2", "fit", "fit.counts", "counts_noon.csv"),
    # fit.counts is neither an object of paths nor a path
    "counts number": ("fig2", "fit", "fit.counts", 5),
    "counts list": ("fig2", "fit", "fit.counts", ["counts_noon.csv"]),
    "counts number path": ("fig2", "fit", "fit.counts.noon", 5),
    "counts null": ("fig2", "fit", "fit.counts", None),
    "specs object": ("table3", "design", "design.specs", {}),
    "spec name number": ("table3", "design", "design.specs.0.name", 5),
    # True == 1, so the version check alone passes it
    "schema_version true": ("fig2", "simulate", "schema_version", True),
    "null": ("fig2", "fit", "fit.mc_samples", None),
    "integer beyond a float": ("fig2", "simulate", "geometry.fiber_length_m",
                               10 ** 400),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_config_exits_2_naming_its_key(tmp_path, capsys, case):
    name, command, key_path, value = _MALFORMED[case]
    cfg = config_with(tmp_path, name, key_path, value)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"{message_path(key_path)}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


# case -> (recipe, command line, key path, value, message): a key that the
# block's callee has no default for is left out, a simulate or fit section
# asks for nothing, or the callee rejects a value, named by its block path;
# each exits 2 before any output is written or any result printed
_NOTHING_TO_READ = {
    "geometry left out": ("fig2", "simulate", "geometry", LEFT_OUT,
                          "config.geometry: missing fiber_length_m, turns"),
    "circular perimeter": ("fig2", "simulate", "geometry",
                           {"shape": "circular", "fiber_length_m": 2000.0},
                           "config.geometry: missing perimeter_m"),
    **{f"spec {key}": ("table3", "design", f"design.specs.1.{key}", LEFT_OUT,
                       f"config.design.specs[1]: missing {key}")
       for key in ("alpha_db_per_km", "pair_rate_in_hz", "integration_time_s")},
    "gfring empty": ("table3", "design --optimize-gfring", "design.gfring", {},
                     "config.design.gfring: missing latitude_deg"),
    "calibration empty": ("fig4_cw", "fit", "fit", {"calibration": {}},
                          "config.fit.calibration: missing angles_deg, "
                          "phases_rad, sigmas_rad"),
    "simulate empty": ("fig2", "simulate", "simulate", {},
                       "config.simulate: no phi0_rad grid and no trace"),
    "fit empty": ("fig2", "fit", "fit", {},
                  "config.fit: no counts, trace or calibration"),
    "design empty": ("table3", "design", "design", {},
                     "config.design: no specs and no --optimize-gfring"),
    "duration zero": ("fig2", "simulate", "simulate.duration_s.noon", 0.0,
                      "config.simulate (noon): duration must be positive"),
    "phi0 grid empty": ("fig2", "simulate", "simulate.phi0_rad.noon", [],
                        "config.simulate (noon): need at least one bias set point"),
    # a repeated set point wrote a counts file that fit refuses
    "phi0 grid repeated": ("fig2", "simulate", "simulate.phi0_rad.noon",
                           [0.0, 0.0, 0.5, 1.0, 1.5, 2.0],
                           "config.simulate (noon): bias set point 0 rad repeats"),
    "frequency zero": ("fig2", "simulate", "schedule.frequency_hz", 0,
                       "config.schedule: switch frequency must be positive"),
    # zero turns and a zero perimeter divided by zero, with a traceback
    **{f"turns zero under {command}": (
        "fig2", command, "geometry.turns", 0, "config.geometry: need at least one turn")
       for command in ("simulate", "fit")},
    "circular perimeter zero": ("fig2", "simulate", "geometry",
                                {"shape": "circular", "fiber_length_m": 2000.0,
                                 "perimeter_m": 0},
                                "config.geometry: perimeter must be positive"),
    "shape unknown": ("fig2", "simulate", "geometry.shape", "hexagonal",
                      "config.geometry.shape: unknown loop shape 'hexagonal'"),
    "spec shape unknown": ("table3", "design", "design.specs.2.shape", "hexagonal",
                           "config.design.specs[2].shape: unknown loop shape"),
    # a zero rate wrote S = Infinity into fit_report.json
    "calibration zero rate": ("fig4_cw", "fit", "fit", {"calibration": {
        "omega_earth_rad_s": 0, "angles_deg": [-90.0, -45.0, 0.0],
        "phases_rad": [0.0, 2e-3, 2.8e-3], "sigmas_rad": [2e-5, 2e-5, 2e-5]}},
        "config.fit.calibration: omega_earth must be positive"),
    # numpy's "expected non-negative integer" named no key
    "seed negative": ("fig2", "simulate", "seed", -5, "config.seed: seed -5 is negative"),
    "seed option negative": ("fig2", "simulate --seed -3", "seed", 7,
                             "--seed: seed -3 is negative"),
    # values a callee that the command calls directly rejects, named by block
    "trace total time zero": ("fig4_cw", "simulate", "simulate.trace.total_time_s", 0,
                              "config.simulate.trace: trace must cover at least "
                              "ten switch periods"),
    "scale factor zero": ("fig3_tables12", "fit", "fit.scale_factor_s", 0,
                          "config.fit: scale_factor_s 0 is not positive"),
    # the bootstrap drew no motor offsets for it and reported it as given
    "motor sigma negative under --fast": (
        "fig2", "fit --fast", "fit.motor_sigma_rad", -1.0,
        "config.fit: motor_sigma_rad -1.0 is negative"),
    "mc_samples one": ("fig2", "fit", "fit.mc_samples", 1,
                       "config.fit: mc_samples 1, need at least two resamples"),
    # --fast replaces the sample counts, which used to leave them unread
    "mc_samples negative under --fast": (
        "fig2", "fit --fast", "fit.mc_samples", -1,
        "config.fit: mc_samples -1, need at least two resamples"),
    "calibration mc_samples under --fast": (
        "fig4_cw", "fit --fast", "fit.calibration.mc_samples", 0,
        "config.fit.calibration: mc_samples 0, need at least two resamples"),
    **{f"{name} zero projection": (
        name, "design", "design.specs.4.latitude_deg", 0,
        "config.design.specs[4]: projection factor is zero; rotation not observable")
       for name in ("table3", "fig5")},
}


@pytest.mark.parametrize("case", _NOTHING_TO_READ)
def test_missing_key_or_empty_section_exits_2_naming_it(tmp_path, capsys, case):
    name, command, key_path, value, message = _NOTHING_TO_READ[case]
    cfg = config_with(tmp_path, name, key_path, value)
    out = tmp_path / "run"
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_count_data_error_of_the_bootstrap_names_no_config_block(tmp_path, capsys):
    """A bad counts file is a data error: its message names the file and the
    angle, and config.fit is not its source."""
    data = tmp_path / "data"
    main(["simulate", "--config", recipe("fig2"), "--out", str(data)])
    path = data / "counts_noon.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + [r for r in lines[1:] if ",on," in r]) + "\n")
    config = json.loads(Path(recipe("fig2")).read_text())
    config["fit"]["counts"] = {"noon": str(path)}
    cfg = write_config(tmp_path, config)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["fit", "--config", cfg, "--out", str(out), "--fast"]) == 2
    captured = capsys.readouterr()
    assert (f"config error: {path} (theta = +2.50 deg): "
            "need records in both switch states") in captured.err
    assert "config.fit" not in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_repeated_set_point_exits_2_naming_the_csv(tmp_path, capsys):
    """A counts file written twice would fit each record twice and quote an
    error too small by sqrt(2); fit refuses it, naming the file by the path
    it read and the frame angle."""
    out = tmp_path / "run"
    main(["simulate", "--config", recipe("fig2"), "--out", str(out)])
    path = out / "counts_single.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *rows, *rows]) + "\n")
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert main(["fit", "--config", recipe("fig2"), "--out", str(out), "--fast"]) == 2
    captured = capsys.readouterr()
    assert (f"config error: {path} (theta = +2.50 deg): bias set point "
            "-0.785398163397 rad repeats in the on records") in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(out)) == before


def _zero_total_row(rows):
    fields = rows[3].split(",")
    rows[3] = ",".join(fields[:4] + ["0", "0", "0"])
    return rows


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


# case: (recipe, mutation of counts_single.csv's rows, message after its path)
_EXIT_3_COUNTS = {
    "zero-total row": ("fig2", _zero_total_row, " (theta = +2.50 deg): record "
                       "with zero total counts; ratio undefined"),
    "four set points": ("fig2", lambda rows: rows[:8], " (theta = +2.50 deg): "
                        "need at least 5 distinct bias set points, got 4"),
    "angles a half-turn apart": ("fig3_tables12", _half_turns_apart,
                                 ": angle set does not separate cos and sin"),
    "no one-photon phase": ("fig2", _off_counts_as_on,
                            ": one-photon response consistent with zero"),
}


@pytest.mark.parametrize("case", _EXIT_3_COUNTS)
def test_count_data_error_of_exit_3_names_the_csv(tmp_path, capsys, case):
    """A fit, degenerate-design or undefined-ratio error from count data
    keeps exit 3 and names the counts file, with the frame angle when one
    angle's bootstrap raised it, as an exit-2 data error does."""
    name, mutate, message = _EXIT_3_COUNTS[case]
    data = tmp_path / "data"
    main(["simulate", "--config", recipe(name), "--out", str(data)])
    path = data / "counts_single.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *mutate(rows)]) + "\n")
    config = json.loads(Path(recipe(name)).read_text())
    config["fit"]["counts"] = {"noon": str(data / "counts_noon.csv"),
                               "single": str(path)}
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["fit", "--config", write_config(tmp_path, config),
                 "--out", str(out), "--fast"]) == 3
    captured = capsys.readouterr()
    assert f"error: {path}{message}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "design"])
@pytest.mark.parametrize("section", [[], "x", 5], ids=["list", "string", "number"])
def test_command_section_not_an_object_exits_2(tmp_path, capsys, command, section):
    cfg = write_config(tmp_path, {"schema_version": 1, command: section})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"config.{command}: {section!r} is not a JSON object" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("shape, key, value", [("square", "perimeter_m", 5.0),
                                               ("circular", "turns", 7)])
def test_geometry_key_of_the_other_shape_exits_2(tmp_path, capsys, shape, key, value):
    """A key the shape does not read is an error, not silently dropped."""
    config = json.loads(Path(recipe("fig2")).read_text())
    geometry = config["geometry"]
    geometry.pop("effective_area_m2")
    if shape == "circular":
        del geometry["turns"]
        geometry.update(shape="circular", perimeter_m=5.0)
    geometry[key] = value
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"config.geometry.{key}: a {shape} loop does not read it" \
        in capsys.readouterr().err
    del geometry[key]
    assert main(["simulate", "--config", write_config(tmp_path, config),
                 "--out", str(tmp_path / "run")]) == 0


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


def test_design_empty_spec_list(tmp_path, capsys):
    """An empty specs list designs nothing unless the optimizer runs."""
    cfg = write_config(tmp_path, {"schema_version": 1, "design": {"specs": []}})
    out = tmp_path / "run"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config.design: no specs and no --optimize-gfring" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_design_optimizer_alone_with_empty_spec_list(tmp_path, capsys):
    gfring = json.loads(Path(recipe("table3")).read_text())["design"]["gfring"]
    cfg = write_config(tmp_path, {"schema_version": 1,
                                  "design": {"specs": [], "gfring": gfring}})
    out = tmp_path / "run"
    assert main(["design", "--config", cfg, "--out", str(out),
                 "--optimize-gfring"]) == 0
    report = json.loads((out / "design_report.json").read_text())
    assert report["designs"] == []
    assert report["gfring_optimum"]["turns"] == 8
    assert capsys.readouterr().out.startswith("gfring optimum: ")


@pytest.mark.parametrize("specs", [None, []], ids=["absent", "empty"])
def test_design_landscape_without_specs(tmp_path, capsys, specs):
    """A landscape with no specs to place is bad input, not a header-only CSV."""
    gfring = json.loads(Path(recipe("table3")).read_text())["design"]["gfring"]
    design = {"landscape": True, "gfring": gfring}
    if specs is not None:
        design["specs"] = specs
    cfg = write_config(tmp_path, {"schema_version": 1, "design": design})
    out = tmp_path / "run"
    assert main(["design", "--config", cfg, "--out", str(out),
                 "--optimize-gfring"]) == 2
    captured = capsys.readouterr()
    assert "config.design: landscape asked for, but no specs" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_design_infeasible_target_exits_3(tmp_path, capsys):
    """The designs table computes, the optimizer fails: nothing is written or printed."""
    base = json.loads(Path(recipe("table3")).read_text())
    base["design"]["gfring"]["target_snr"] = 1e9
    cfg = write_config(tmp_path, base)
    before = sorted(os.listdir(tmp_path))
    assert main(["design", "--config", cfg, "--out", str(tmp_path),
                 "--optimize-gfring"]) == 3
    assert sorted(os.listdir(tmp_path)) == before
    assert capsys.readouterr().out == ""


def test_optimizer_flag_needs_gfring_section(tmp_path):
    base = json.loads(Path(recipe("table3")).read_text())
    del base["design"]["gfring"]
    cfg = write_config(tmp_path, base)
    before = sorted(os.listdir(tmp_path))
    assert main(["design", "--config", cfg, "--out", str(tmp_path),
                 "--optimize-gfring"]) == 2
    assert sorted(os.listdir(tmp_path)) == before


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


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


# (recipe, command line): simulate and fit --fast of the count and trace
# recipes, fit --fast of the angle sweep, design of both design recipes
_SWEPT_RUNS = [("fig2", "simulate"), ("fig2", "fit --fast"),
               ("fig4_cw", "simulate"), ("fig4_cw", "fit --fast"),
               ("fig3_tables12", "fit --fast"),
               ("table3", "design --optimize-gfring"), ("fig5", "design")]


def test_boundary_values_of_every_schema_leaf(tmp_path, capsys):
    """Each numeric leaf of a recipe at 0 and -1, and each list leaf at []
    and at its first item, exits 0, 2 or 3 without a traceback.  A failed
    run prints nothing on stdout and leaves no --out; an exit 2 names a
    config path or the input file; a run that succeeds writes only finite
    JSON numbers.

    The sweep reads the leaves from _CONFIG_KEYS, so a key added to the
    schema is swept too.  Leaves of another command's section are left
    alone, and a fit reads the counts and trace of one unmutated simulate
    run by absolute path.
    """
    data = tmp_path / "data"
    for name in ("fig2", "fig3_tables12", "fig4_cw"):
        assert main(["simulate", "--config", recipe(name),
                     "--out", str(data / name)]) == 0
    capsys.readouterr()
    findings, n = [], 0
    for name, command_line in _SWEPT_RUNS:
        argv = command_line.split()
        base = json.loads(Path(recipe(name)).read_text())
        fit = base.get("fit", {})
        for kind, path in fit.get("counts", {}).items():
            fit["counts"][kind] = str(data / name / path)
        if "trace" in fit:
            fit["trace"] = str(data / name / fit["trace"])
        others = {"simulate", "fit", "design"} - {argv[0]}
        for path, value in _boundary_values(base, _CONFIG_KEYS):
            if path[0] in others:
                continue
            n += 1
            config = json.loads(json.dumps(base))
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            # each config to a path of its own: rewriting one file in place
            # waits on the file system
            cfg = write_config(tmp_path, config, name=f"m{n}.json")
            out = tmp_path / f"out{n}"
            case = f"{name} {command_line} {'.'.join(map(str, path))}={value}"
            try:
                code = main(argv + ["--config", cfg, "--out", str(out)])
            except Exception:
                code = f"raised {traceback.format_exc()}"
            captured = capsys.readouterr()
            if code not in (0, 2, 3) or "Traceback" in captured.err:
                findings.append(f"{case}: exit {code}, {captured.err!r}")
            elif code:
                if captured.out or out.exists():
                    findings.append(f"{case}: exit {code} left stdout or --out")
                if code == 2 and "config." not in captured.err \
                        and cfg not in captured.err:
                    findings.append(f"{case}: {captured.err.strip()!r} names "
                                    "no config path or input file")
            else:
                for report in out.glob("*.json"):
                    try:
                        json.loads(report.read_text(),
                                   parse_constant=_reject_constant)
                    except ValueError as exc:
                        findings.append(f"{case}: {report.name}: {exc}")
    assert n > 100
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


def test_mutated_data_files_exit_cleanly_naming_the_file(tmp_path, capsys):
    """Each mutation of a column of COUNTS_CSV_COLUMNS or TRACE_CSV_COLUMNS,
    and of the file as a whole, makes fit --fast exit 0, 2 or 3 without a
    traceback.  A failed run prints nothing on stdout, leaves no --out and
    names the data file; a run that succeeds writes only finite JSON
    numbers.

    The count mutations go to each kind's file of fig2, as a kind reads
    only some count columns; the trace mutations to the trace of fig4_cw,
    fitted without its calibration.
    """
    data = tmp_path / "data"
    for name in ("fig2", "fig4_cw"):
        assert main(["simulate", "--config", recipe(name),
                     "--out", str(data / name)]) == 0
    capsys.readouterr()
    fig2 = json.loads(Path(recipe("fig2")).read_text())
    fig4 = json.loads(Path(recipe("fig4_cw")).read_text())
    del fig4["fit"]["calibration"]
    trace_text = (data / "fig4_cw" / "trace.csv").read_text()
    constant = "".join(line.rsplit(",", 1)[0] + ",1\n"
                       for line in trace_text.splitlines()[1:])
    inputs = [(fig4, "trace", None, "trace.csv", case, text) for case, text in (
        *_data_file_mutations(TRACE_CSV_COLUMNS, trace_text),
        ("constant drive", trace_text.split("\n", 1)[0] + "\n" + constant))]
    for kind in ("noon", "single"):
        text = (data / "fig2" / f"counts_{kind}.csv").read_text()
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
        out = tmp_path / f"out{n}"
        case = f"{file_name} {case}"
        try:
            code = main(["fit", "--fast", "--config", cfg, "--out", str(out)])
        except Exception:
            code = f"raised {traceback.format_exc()}"
        captured = capsys.readouterr()
        if code not in (0, 2, 3) or "Traceback" in captured.err:
            findings.append(f"{case}: exit {code}, {captured.err!r}")
        elif code:
            if captured.out or out.exists():
                findings.append(f"{case}: exit {code} left stdout or --out")
            if str(path) not in captured.err:
                findings.append(f"{case}: {captured.err.strip()!r} names no data file")
        else:
            for report in out.glob("*.json"):
                try:
                    json.loads(report.read_text(), parse_constant=_reject_constant)
                except ValueError as exc:
                    findings.append(f"{case}: {report.name}: {exc}")
    assert len(inputs) > 80
    assert findings == []
