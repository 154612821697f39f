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

from test_golden import (DESIGN_RECIPES, GOLDEN_DIR, RECIPES,  # noqa: E402
                         largest_moves, run_design_recipe, run_fast_recipe)


def regenerate(name, run, report):
    """Run recipe name through run, print what moved, write its goldens."""
    with tempfile.TemporaryDirectory() as tmp:
        files = run(name, tmp)
    target = GOLDEN_DIR / name
    old = target / report
    if old.exists():
        changed = []
        moves = largest_moves(json.loads(old.read_text()),
                              json.loads(files[report]), changed)
        for cls, (move, path) in sorted(moves.items()):
            print(f"{name}: {cls}: largest move {move:.3g} at {path}")
        for path, was, now in sorted(changed, key=lambda c: list(map(str, c[0]))):
            print(f"{name}: exact field {'/'.join(map(str, path))}: "
                  f"{was!r} -> {now!r}")
        for file_name, text in files.items():
            path = target / file_name
            if file_name != report and (not path.exists() or path.read_text() != text):
                print(f"{name}: {file_name} changed")
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
