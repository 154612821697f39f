"""Compare the full recipes of another source tree with those of ./src.

Run from the repository root, with the src directory of another checkout
(for example a `git archive` of the parent commit):

    python tests/golden/compare.py PARENT_SRC

For each fit recipe it runs simulate and a full fit (the recipe's own
resample counts), and for each design recipe design, every command in a
fresh interpreter, once with PARENT_SRC and once with ./src as the only
PYTHONPATH entry.  Each tree runs its own copy of the recipe.  It prints,
as regenerate.py does, the largest move of each golden class against its
limit, every changed exact field and every other output that differs, and
exits 1 unless every move is inside its limit and nothing else changed.
Run on ./src against itself, it reports no move.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from regenerate import print_moves  # noqa: E402
from test_golden import DESIGN_RECIPES, RECIPES, recipe_outputs  # noqa: E402


def run(src, out, command, name, *flags):
    """stdout of one qsagnac command on recipe name, run with the package at src."""
    config = src / "qsagnac" / "recipes" / f"{name}.json"
    done = subprocess.run(
        [sys.executable, "-m", "qsagnac.cli", command, "--config", str(config),
         "--out", str(out), *flags],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{src}: {command} {name} exited {done.returncode}\n{done.stderr}")
    return done.stdout


def run_recipe(src, name, out):
    """{file name: text} of the full run of recipe name with the package at src."""
    if name in DESIGN_RECIPES:
        stdout = run(src, out, "design", name, *DESIGN_RECIPES[name])
        return {**recipe_outputs(out, "design_report.json"), "design_stdout.txt": stdout}
    simulate_stdout = run(src, out, "simulate", name)
    fit_stdout = run(src, out, "fit", name)
    return {**recipe_outputs(out, "fit_report.json"),
            "simulate_stdout.txt": simulate_stdout, "fit_stdout.txt": fit_stdout}


def main(parent_src):
    trees = (Path(parent_src).resolve(), ROOT / "src")
    same = True
    for name in (*RECIPES, *DESIGN_RECIPES):
        report = "design_report.json" if name in DESIGN_RECIPES else "fit_report.json"
        with tempfile.TemporaryDirectory() as tmp:
            old, new = (run_recipe(src, name, Path(tmp) / str(i))
                        for i, src in enumerate(trees))
        same &= print_moves(name, old, new, report)
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
