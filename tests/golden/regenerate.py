"""Rewrite the same-answers goldens of tests/test_golden.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It runs simulate + fit --fast of each fit recipe, and design of each
design recipe, in a temporary directory, prints the largest move of each
field class and every changed exact field (integer, string, boolean or
null) against the goldens it replaces, and writes the new outputs to
tests/golden/<recipe>/.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (DESIGN_RECIPES, GOLDEN_DIR, LIMITS,  # noqa: E402
                         RECIPES, largest_moves, run_design_recipe,
                         run_fast_recipe)


def print_moves(name, old, new, report):
    """Print what moved from run old to run new of recipe name.

    old and new map file names to text; report names the JSON report among
    them.  Prints the largest move of each field class with its limit,
    every changed exact field and every other file that differs; returns
    True when every move is inside its limit and nothing else changed.
    """
    changed = []
    moves = largest_moves(json.loads(old[report]), json.loads(new[report]), changed)
    same = not changed
    for cls, (move, path) in sorted(moves.items()):
        same &= move <= LIMITS[cls]
        print(f"{name}: {cls}: largest move {move:.3g} (limit {LIMITS[cls]:g}) at {path}")
    for path, was, now in sorted(changed, key=lambda c: list(map(str, c[0]))):
        print(f"{name}: exact field {'/'.join(map(str, path))}: {was!r} -> {now!r}")
    for file_name in sorted(old.keys() | new.keys()):
        if file_name != report and old.get(file_name) != new.get(file_name):
            same = False
            print(f"{name}: {file_name} changed")
    return same


def regenerate(name, run, report):
    """Run recipe name through run, print what moved, write its goldens."""
    with tempfile.TemporaryDirectory() as tmp:
        files = run(name, tmp)
    target = GOLDEN_DIR / name
    if (target / report).exists():
        print_moves(name, {p.name: p.read_text() for p in target.iterdir()},
                    files, report)
    target.mkdir(parents=True, exist_ok=True)
    for stale in target.iterdir():
        stale.unlink()
    for file_name, text in files.items():
        (target / file_name).write_text(text)
    print(f"{name}: wrote {', '.join(sorted(files))}")


def main():
    for name in RECIPES:
        regenerate(name, run_fast_recipe, "fit_report.json")
    for name in DESIGN_RECIPES:
        regenerate(name, run_design_recipe, "design_report.json")


if __name__ == "__main__":
    main()
