import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

import qsagnac
from qsagnac.cli import _CONFIG_KEYS, main


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
import numpy as np
import qsagnac
for info in pkgutil.iter_modules(qsagnac.__path__):
    importlib.import_module("qsagnac." + info.name)
from qsagnac.cli import main
from qsagnac.polarization import solve_triplet
z = np.random.default_rng(3).standard_normal((2, 2, 2))
solve_triplet(np.linalg.qr(z[0] + 1j * z[1])[0])
code = main(["design", "--config", sys.argv[1], "--out", sys.argv[2], "--optimize-gfring"])
del sys.modules["scipy"]
print(code, "scipy" in sys.modules or any(m.startswith("scipy.") for m in sys.modules))
"""


def test_cli_import_leaves_scipy_out(tmp_path):
    src = os.path.dirname(os.path.dirname(qsagnac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, recipe("table3"), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 False"
    assert "gfring_optimum" in json.loads((tmp_path / "design_report.json").read_text())


def test_invalid_simulation_parameters_exit_2(tmp_path):
    base = json.loads(Path(recipe("fig2")).read_text())
    base["simulate"]["duration_s"] = 0.0
    cfg = write_config(tmp_path, base)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


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


def test_fit_empty_counts_exits_2(tmp_path):
    header = "theta_deg,phi0_rad,switch,duration_s,n_h,n_v,n_hv\n"
    (tmp_path / "counts_noon.csv").write_text(header)
    (tmp_path / "counts_single.csv").write_text(header)
    assert main(["fit", "--config", recipe("fig2"), "--out", str(tmp_path),
                 "--fast"]) == 2


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


def test_failed_fit_leaves_no_new_file(tmp_path, capsys):
    """The noon kind fits, the single kind fails: nothing is written."""
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    path = tmp_path / "counts_single.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
    before = sorted(os.listdir(out))
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 3
    assert sorted(os.listdir(out)) == before
    assert "error:" in capsys.readouterr().err


def test_failed_simulate_leaves_no_file(tmp_path, capsys):
    """A bad second kind fails the run before the first kind's counts are written."""
    config = json.loads(Path(recipe("fig2")).read_text())
    config["simulate"]["kinds"] = ["noon", "nooon"]
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "unknown probe kind 'nooon'" in capsys.readouterr().err


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


@pytest.mark.parametrize("case", _UNKNOWN_KEYS)
def test_unknown_config_key_exits_2(tmp_path, capsys, case):
    name, command, key_path, value = _UNKNOWN_KEYS[case]
    config = json.loads(Path(recipe(name)).read_text())
    *parents, key = key_path.split(".")
    block = config
    for parent in parents:
        block = block[parent]
    block[key] = value
    out = str(tmp_path)
    main(["simulate", "--config", recipe(name), "--out", out])
    assert main([command, "--config", write_config(tmp_path, config), "--out", out,
                 "--fast"]) == 2
    where = ".".join(["config", *parents])
    assert f"{where}: unknown key(s) {key}" in capsys.readouterr().err


def _config_key_names(keys):
    """Every key name of a config-key tree: dict keys, list items, nested blocks."""
    if isinstance(keys, list):
        return _config_key_names(keys[0])
    names = set()
    for key, sub in keys.items():
        names.add(key)
        if sub is not None:
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


def test_design_empty_spec_list(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1, "design": {"specs": []}})
    assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "design_report.json").read_text())
    assert report["designs"] == []


def test_design_infeasible_target_exits_3(tmp_path):
    """The designs table computes, the optimizer fails: nothing is written."""
    base = json.loads(Path(recipe("table3")).read_text())
    base["design"]["gfring"]["target_snr"] = 1e9
    cfg = write_config(tmp_path, base)
    before = sorted(os.listdir(tmp_path))
    assert main(["design", "--config", cfg, "--out", str(tmp_path),
                 "--optimize-gfring"]) == 3
    assert sorted(os.listdir(tmp_path)) == before


def test_optimizer_flag_needs_gfring_section(tmp_path):
    base = json.loads(Path(recipe("table3")).read_text())
    del base["design"]["gfring"]
    cfg = write_config(tmp_path, base)
    before = sorted(os.listdir(tmp_path))
    assert main(["design", "--config", cfg, "--out", str(tmp_path),
                 "--optimize-gfring"]) == 2
    assert sorted(os.listdir(tmp_path)) == before
