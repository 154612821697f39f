import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources

import pytest

import qsagnac
from qsagnac.cli import main


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
    assert "counts_noon.csv" in manifest["outputs"]
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
    base = json.loads(open(recipe("table3")).read())
    base["design"]["specs"][1]["fiber_length_m"] = float("nan")
    cfg = write_config(tmp_path, base)
    assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "designs.csv").exists()


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(qsagnac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qsagnac.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_invalid_simulation_parameters_exit_2(tmp_path):
    base = json.loads(open(recipe("fig2")).read())
    base["simulate"]["duration_s"] = 0.0
    cfg = write_config(tmp_path, base)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_fit_fig2_fast(tmp_path, capsys):
    out = str(tmp_path)
    main(["simulate", "--config", recipe("fig2"), "--out", out])
    assert main(["fit", "--config", recipe("fig2"), "--out", out, "--fast"]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())

    noon = report["kinds"]["noon"]["angles"][0]
    single = report["kinds"]["single"]["angles"][0]
    assert noon["theta_deg"] == pytest.approx(2.5)
    assert noon["fit_on"]["converged"] and noon["fit_off"]["converged"]
    assert noon["earth_phase"]["phi_e"] == pytest.approx(
        5.504638278626572e-3, rel=1e-12)
    assert single["earth_phase"]["phi_e"] == pytest.approx(
        2.643326305073135e-3, rel=1e-12)
    assert report["enhancement"]["value"] == pytest.approx(
        2.0824664242391817, rel=1e-12)
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
    base = json.loads(open(recipe("table3")).read())
    base["design"]["gfring"]["target_snr"] = 1e9
    cfg = write_config(tmp_path, base)
    assert main(["design", "--config", cfg, "--out", str(tmp_path),
                 "--optimize-gfring"]) == 3


def test_optimizer_flag_needs_gfring_section(tmp_path):
    base = json.loads(open(recipe("table3")).read())
    del base["design"]["gfring"]
    cfg = write_config(tmp_path, base)
    assert main(["design", "--config", cfg, "--out", str(tmp_path),
                 "--optimize-gfring"]) == 2
