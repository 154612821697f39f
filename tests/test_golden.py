"""Same answers: the bundled recipes against committed goldens.

tests/golden/<recipe>/ holds the outputs of one run: for the fit recipes
the fit_report.json, table_*.csv files and fit stdout of simulate + fit
--fast, with the simulated data (simulate's stdout, the counts_*.csv
files and the sha256 of trace.csv), for the design recipes the
design_report.json, CSV files and stdout of design.  `python
tests/golden/regenerate.py` rewrites them and prints the largest move of each
field class; `python tests/golden/compare.py PARENT_SRC` prints the same
moves between two source trees on the full recipes.  Text outputs must match
exactly, and report keys in name and order.  Report fields compare by
class:

- integers, strings, booleans and null exactly;
- every float of a noon (two-photon) fringe to 1e-12 relative;
- every float of a design report to 1e-12 relative;
- single (one-photon) base-fit parameters, and the Earth phases built from
  them, to 1e-6 of their sigmas;
- every other float (bootstrap and derived fields) to 1e-7 relative.
"""

import contextlib
import hashlib
import io
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from qsagnac.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
RECIPES = ("fig2", "fig3_tables12", "fig4_cw")
# design recipe -> extra design arguments
DESIGN_RECIPES = {"table3": ["--optimize-gfring"], "fig5": []}
LIMITS = {"noon": 1e-12, "design": 1e-12, "single base fit": 1e-6,
          "bootstrap and derived": 1e-7}
# the reports of design_report.json
_DESIGN_REPORTS = ("designs", "landscape", "gfring_optimum")
# Earth-phase fields of a single fit and the sigma each is measured in
_EARTH_SIGMAS = {"phi_on": "phi_on_sigma", "phi_off": "phi_off_sigma",
                 "phi_e": "phi_e_sigma"}


def recipe_outputs(out, report):
    """{file name: text} of the CSV files and the JSON report a run left in out.

    A trace.csv is pinned by its sha256, as trace.csv.sha256: the trace
    itself is too large to commit.
    """
    files = {p.name: p.read_text() for p in sorted(out.glob("*.csv"))
             if p.name != "trace.csv"}
    trace = out / "trace.csv"
    if trace.exists():
        files["trace.csv.sha256"] = hashlib.sha256(trace.read_bytes()).hexdigest() + "\n"
    files[report] = (out / report).read_text()
    return files


def run_fast_recipe(name, out_dir):
    """simulate + fit --fast of a bundled recipe; returns {file name: text}."""
    config = str(resources.files("qsagnac") / "recipes" / f"{name}.json")
    out = Path(out_dir)
    simulate_stdout = io.StringIO()
    with contextlib.redirect_stdout(simulate_stdout):
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["fit", "--config", config, "--out", str(out), "--fast"]) == 0
    return {**recipe_outputs(out, "fit_report.json"),
            "simulate_stdout.txt": simulate_stdout.getvalue(),
            "fit_stdout.txt": stdout.getvalue()}


def run_design_recipe(name, out_dir):
    """design of a bundled recipe; returns {file name: text}."""
    config = str(resources.files("qsagnac") / "recipes" / f"{name}.json")
    out = Path(out_dir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["design", "--config", config, "--out", str(out),
                     *DESIGN_RECIPES[name]]) == 0
    return {**recipe_outputs(out, "design_report.json"),
            "design_stdout.txt": stdout.getvalue()}


def _at(report, path):
    for key in path:
        report = report[key]
    return report


def _move(golden_report, path, value, golden):
    """(class, move in that class's unit) of one float field."""
    parent = path[-2] if len(path) > 1 else None
    if path[:2] == ("kinds", "noon"):
        cls = "noon"
    elif path[0] in _DESIGN_REPORTS:
        cls = "design"
    elif parent == "params":
        sigma = _at(golden_report, path[:-2])["sigmas"][path[-1]]
        return "single base fit", abs(value - golden) / sigma
    elif parent == "earth_phase" and path[-1] in _EARTH_SIGMAS:
        sigma = _at(golden_report, path[:-1])[_EARTH_SIGMAS[path[-1]]]
        return "single base fit", abs(value - golden) / sigma
    else:
        cls = "bootstrap and derived"
    return cls, abs(value - golden) / abs(golden) if golden else abs(value)


def field_moves(golden_report, current_report, changed=None):
    """Yield (path, class, move) for every float field of two reports.

    Raises AssertionError where keys or their order, lengths or types differ,
    and where an exact field differs unless changed is a list, which then
    collects (path, golden value, current value) of each such field.
    """
    stack = [((), golden_report, current_report)]
    while stack:
        path, golden, current = stack.pop()
        if isinstance(golden, dict):
            assert isinstance(current, dict) and list(golden) == list(current), path
            stack.extend((path + (k,), golden[k], current[k]) for k in golden)
        elif isinstance(golden, list):
            assert isinstance(current, list) and len(golden) == len(current), path
            stack.extend((path + (i,), g, c)
                         for i, (g, c) in enumerate(zip(golden, current)))
        elif isinstance(golden, float):
            assert isinstance(current, float) and math.isfinite(current), path
            yield (path, *_move(golden_report, path, current, golden))
        elif type(current) is not type(golden) or current != golden:
            assert changed is not None and type(current) is type(golden), \
                (path, golden, current)
            changed.append((path, golden, current))


def largest_moves(golden, current, changed=None):
    """Largest move of each field class, with the path where it occurs."""
    worst = {}
    for path, cls, move in field_moves(golden, current, changed):
        if move >= worst.get(cls, (-1.0,))[0]:
            worst[cls] = (move, "/".join(map(str, path)))
    return worst


def assert_matches_golden(name, files, report):
    """files of one run of recipe name match its goldens; report is the JSON one."""
    golden_dir = GOLDEN_DIR / name
    assert sorted(files) == sorted(p.name for p in golden_dir.iterdir())
    for file_name, text in files.items():
        if file_name != report:
            assert text == (golden_dir / file_name).read_text(), file_name
    golden = json.loads((golden_dir / report).read_text())
    for path, cls, move in field_moves(golden, json.loads(files[report])):
        assert move <= LIMITS[cls], (cls, "/".join(map(str, path)), move)


@pytest.mark.parametrize("name", RECIPES)
def test_fast_recipe_matches_golden(tmp_path, name):
    assert_matches_golden(name, run_fast_recipe(name, tmp_path), "fit_report.json")


@pytest.mark.parametrize("name", DESIGN_RECIPES)
def test_design_recipe_matches_golden(tmp_path, name):
    assert_matches_golden(name, run_design_recipe(name, tmp_path), "design_report.json")
