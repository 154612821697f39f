"""Run one qsagnac command with spans around its layer calls.

    python3 perfbench/cli_shim.py SPANS_OUT RUN PARENT -- <qsagnac arguments>

The benchmark's traced runs start commands through this file instead of
`python3 -m qsagnac.cli`.  It replaces the layer functions that
qsagnac.cli imported by name with span-recording wrappers, so every call
the command makes into expsim, analysis or sensedesign is timed from
outside the package, then runs qsagnac.cli.main and writes the spans to
SPANS_OUT as JSON.  RUN and PARENT tie the spans to the benchmark's own.
"""

import functools
import json
import sys

from spans import LAYER_CALLS, Tracer


def main():
    out, run, parent, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SPANS_OUT RUN PARENT -- ARGS...")
    tracer = Tracer(run=int(run), parent=parent)
    with tracer.span("cli.import"):
        from qsagnac import cli
    for name in LAYER_CALLS:
        attr = name.split(".", 1)[1]
        fn = getattr(cli, attr, None)
        if fn is not None:
            setattr(cli, attr, functools.partial(tracer.call, name, fn))
    with tracer.span("cli.main"):
        code = cli.main(sys.argv[5:])
    with open(out, "w") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
