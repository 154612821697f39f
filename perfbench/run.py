"""qsagnac benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run it from the root of a source checkout: the package is imported from
./src, nothing needs installing.  A run times set-up (fresh interpreters
importing qsagnac.cli and loading the workload's recipes), warms up, then
runs operations of the workload for S seconds and checks every output.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced operations and reports the per-layer
metrics, from spans the benchmark records around each call into cli,
expsim, analysis and sensedesign.  The last line of stdout is one JSON
object; the full result, with the environment, goes to perfbench/out/.
--smoke runs every workload on tiny inputs in both modes and checks that
every declared metric comes out with its unit and nothing fails.
"""

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_OPS = 3
SETUP_CODE = ("import importlib.resources, json, qsagnac.cli\n"
              "for name in {names!r}:\n"
              "    json.loads(importlib.resources.files('qsagnac.recipes')"
              ".joinpath(name).read_text())\n")
IMPORTS = ("qsagnac.cli", "qsagnac.polarization", "scipy.optimize")

# which end-to-end timing each per-layer metric should move, and where
LAYER_MAP = {
    "import.*": "setup_s on every workload; cli.*_s on cli_recipes; not sweep_s",
    "cli.interpreter_s, cli.import_s, cli.main_s": "cli.*_s on cli_recipes",
    "expsim counts path (angle_sweep, records, write/read_counts_csv)":
        "cli.simulate_s on cli_recipes; predicted under 1% of sweep_s",
    "expsim trace path (simulate_polarimeter, write/read_trace_csv, trace_bytes)":
        "trace_pipeline_s and trace_samples_per_s on polarimeter_long",
    "analysis.fit_switch_pair_s.*, analysis.fit_n_iter.*":
        "earth_phase_s.<model> and sweep_s on sweep_bootstrap",
    "analysis.mc_uncertainty_s.*, mc_resamples_per_s.*, mc_nonconverged_frac.*":
        "earth_phase_s.<model> and sweep_s on sweep_bootstrap; a small share of cli.fit_fast_s",
    "analysis.demodulate_trace_s.*, analysis.calibrate_scale_factor_s":
        "trace_pipeline_s and peak_rss_mb on polarimeter_long; cli.fit_s on cli_recipes",
    "analysis.fit_angle_sweep_s, analysis.enhancement_factor_s": "predicted: nothing end to end",
    "sensedesign.*": "predicted: cli.design_s moves only through import",
}


def pin_threads():
    for var in THREAD_VARS:
        try:
            wanted = min(int(os.environ.get(var, NPROC)), NPROC)
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(wanted, 1))


def import_program():
    """Import qsagnac from ./src of this checkout, or stop with an error."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    try:
        import qsagnac
    except ImportError as exc:
        sys.exit(f"cannot import qsagnac from {src}: {exc}")
    if not os.path.abspath(qsagnac.__file__).startswith(src + os.sep):
        sys.exit(f"qsagnac imported from {qsagnac.__file__}, not from {src}")
    return qsagnac


def environment(seed):
    import numpy
    import platform
    import scipy
    import qsagnac
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": NPROC,
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
            "qsagnac": qsagnac.__version__, "seed": seed}


def summarize(values):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n,
           "percentile": None, "percentile_value": None}
    if n > 10:
        out["percentile"] = math.floor(100.0 * (n - 10) / n)
        out["percentile_value"] = ordered[n - 11]
    return out


def parse_importtime(stderr):
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.+)$", line)
        if m:
            cumulative[m.group(3).strip()] = int(m.group(2)) * 1e-6
    return {name: cumulative.get(name, 0.0) for name in IMPORTS}


def measure_setup(recipes, repeats, importtime, cwd):
    """Wall times of fresh interpreters importing qsagnac.cli and loading recipes."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", SETUP_CODE.format(names=list(recipes))]
    walls, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        imports.append(parse_importtime(proc.stderr))
    return walls, imports


def layer_metric(span_name):
    """'analysis.fit_switch_pair.noon' -> 'analysis.fit_switch_pair_s.noon'."""
    module, fn, *suffix = span_name.split(".")
    return ".".join([f"{module}.{fn}_s", *suffix])


def layer_metrics(spans, pairs, imports, declared):
    """Per-layer values from the traced operations; 0 for a layer not called.

    pairs holds (untraced wall, traced wall, traced run) for each traced
    operation and the untraced one just before it; the tracing overhead
    and the share of untraced time the layers leave unexplained are
    medians over those pairs.
    """
    from spans import self_times
    selfs = self_times(spans)
    runs = sorted({s["run"] for s in spans if s["parent"] is None})
    busy = {run: defaultdict(float) for run in runs}
    counts = defaultdict(list)
    for s in spans:
        if s["parent"] is None:
            continue
        name, attrs, run = s["name"], s["attrs"], s["run"]
        busy[run][layer_metric(name)] += selfs[s["id"]]
        if "records" in attrs and name == "expsim.angle_sweep":
            busy[run]["expsim.records"] += attrs["records"]
        if "bytes" in attrs and name == "expsim.write_trace_csv":
            busy[run]["expsim.trace_bytes"] += attrs["bytes"]
        if "n_iter" in attrs:
            counts["analysis.fit_n_iter." + name.rsplit(".", 1)[1]] += attrs["n_iter"]
        if "resamples" in attrs:
            kind = name.rsplit(".", 1)[1]
            busy[run]["mc_resamples." + kind] += attrs["resamples"]
            counts["mc_nonconverged." + kind].append(
                (attrs["nonconverged"] * attrs["resamples"], attrs["resamples"]))

    values = {name: 0.0 for name in declared}
    for name in declared:
        if name.startswith(("expsim.", "analysis.", "sensedesign.", "cli.")) \
                and not name.startswith(("analysis.fit_n_iter", "analysis.mc_resamples",
                                     "analysis.mc_nonconverged")):
            values[name] = statistics.median(busy[run][name] for run in runs)
    for kind in ("noon", "single"):
        key = f"analysis.mc_uncertainty_s.{kind}"
        rates = [busy[r][f"mc_resamples.{kind}"] / busy[r][key] for r in runs if busy[r][key] > 0]
        values[f"analysis.mc_resamples_per_s.{kind}"] = statistics.median(rates) if rates else 0.0
        weighted = counts[f"mc_nonconverged.{kind}"]
        values[f"analysis.mc_nonconverged_frac.{kind}"] = \
            sum(w for w, _ in weighted) / sum(n for _, n in weighted) if weighted else 0.0
        fits = counts[f"analysis.fit_n_iter.{kind}"]
        values[f"analysis.fit_n_iter.{kind}"] = statistics.median(fits) if fits else 0.0
    for module in IMPORTS:
        values[f"import.{module}_s"] = statistics.median(i[module] for i in imports)
    layers = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            layers[s["run"]] += selfs[s["id"]]
    values["trace.overhead_frac"] = statistics.median(t / u for u, t, _ in pairs) - 1.0
    values["trace.unaccounted_frac"] = \
        1.0 - statistics.median(layers[run] / u for u, _, run in pairs)
    return {name: values[name] for name in declared}


def run_workload(wl_cls, seed, seconds, trace, smoke, declared):
    """One measured run; returns the result dict."""
    from spans import NullTracer, Tracer
    workdir = os.path.join(OUT, f"work-{wl_cls.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = wl_cls(seed, workdir, smoke)
        setup, imports = measure_setup(wl.recipes, 1 if smoke else SETUP_REPEATS,
                                       bool(trace), workdir)
        if wl.in_process:
            try:
                wl_cls(seed, workdir, True).op(NullTracer(), defaultdict(list), -1)
            except Exception:  # noqa: BLE001 - the timed operations raise again and count it
                traceback.print_exc(file=sys.stderr)

        tracer, null = Tracer(), NullTracer()
        timings, scratch = defaultdict(list), defaultdict(list)
        walls, pairs, last = {False: [], True: []}, [], None
        attempted, failed, raised, failures = 0, 0, 0, []
        min_ops = 1 if smoke else MIN_OPS
        deadline = time.perf_counter() + seconds
        run = 0
        while True:
            traced = bool(trace) and run % 2 == 1
            now = time.perf_counter()
            if len(walls[False]) >= min_ops and (not trace or len(pairs) >= min_ops):
                # stop before an operation of typical length would overrun
                if now + statistics.median(walls[False] + walls[True]) > deadline:
                    break
            elif raised and now >= deadline:
                break
            tr = tracer if traced else null
            tracer.run = run
            try:
                with tr.span(wl.name):
                    wall, outcomes = wl.op(tr, scratch if traced else timings, run)
            except Exception as exc:  # noqa: BLE001 - an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                raised += 1
                failures.append(f"operation {run} raised {type(exc).__name__}: {exc}")
                run += 1
                continue
            walls[traced].append(wall)
            if traced and last is not None and last[0] == run - 1:
                pairs.append((last[1], wall, run))
            last = (run, wall)
            for outcome in outcomes:
                if outcome.get("spans_file") and os.path.exists(outcome["spans_file"]):
                    with open(outcome["spans_file"]) as f:
                        tracer.spans.extend(json.load(f))
                try:
                    bad = wl.check(outcome)
                except (KeyError, TypeError, ValueError, OSError) as exc:
                    bad = [f"check of operation {run} raised {type(exc).__name__}: {exc}"]
                attempted += 1
                failed += bool(bad)
                failures += bad
            run += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "error_rate": failed / max(attempted, 1),
              "failures": failures[:20],
              "op_walls": {"untraced": walls[False], "traced": walls[True]},
              "layer_map": LAYER_MAP}
    if not walls[False] or (trace and not pairs):
        result["metrics"] = {}
        return result
    units = {m["name"]: m["unit"] for m in declared}
    if trace:
        values = layer_metrics(tracer.spans, pairs, imports, units)
        spans_path = os.path.join(OUT, f"{wl.name}-seed{seed}-spans.json")
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["note"] = "expsim.trace_bytes is computed from the trace arrays"
    else:
        values = {"setup_s": statistics.median(setup),
                  "op_s": statistics.median(walls[False]),
                  "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  if wl.in_process else wl.peak_rss_kb) / 1024.0}
        result["timings"] = {k: dict(summarize(timings[k]), unit=u)
                             for k, u in wl.timing_units.items()}
        result["timings"]["op_s"] = dict(summarize(walls[False]), unit="s")
        result["timings"]["setup_s"] = dict(summarize(setup), unit="s")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result


def report(result):
    """Human-readable lines: every metric by name with its unit."""
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w} {name} = {m['value']!r} {m['unit']}")
    for name, t in result.get("timings", {}).items():
        tail = f", p{t['percentile']} {t['percentile_value']!r}" if t["percentile"] else ""
        print(f"{w} {name} = median {t['median']!r} {t['unit']}{tail} (n={t['n']})")
    print(f"{w} error_rate = {result['error_rate']!r} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for msg in result["failures"]:
        print(f"{w} FAILED: {msg}")


def write_result(result, env):
    result["env"] = env
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}" \
        + ("-smoke" if result["smoke"] else "") + ".json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(result, f, indent=1)


def smoke(seed, workloads, bench, env):
    """Tiny inputs, both modes: every declared metric out, with its unit, no failures."""
    problems = []
    for wl_cls in workloads.values():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(wl_cls, seed, 0, trace, True, bench[key])
            write_result(result, env)
            report(result)
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] \
                        or not isinstance(got["value"], (int, float)) \
                        or not math.isfinite(got["value"]):
                    problems.append(f"{wl_cls.name} trace {trace}: {m['name']} missing or bad")
            if trace == 0:
                problems += [f"{wl_cls.name}: timing {k} missing" for k in wl_cls.timing_units
                             if k not in result.get("timings", {})]
            if result["error_rate"] != 0:
                problems.append(f"{wl_cls.name} trace {trace}: error_rate "
                                f"{result['error_rate']}")
    for p in problems:
        print(f"smoke: {p}")
    print(json.dumps({"smoke": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    pin_threads()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as exc:
        sys.exit(f"cannot read BENCHMARK.json: {exc}")
    import_program()
    from workloads import WORKLOADS
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)
    print(f"env {json.dumps(env)}")
    if args.smoke:
        return smoke(args.seed, WORKLOADS, bench, env)
    if args.workload != "all" and args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}, all")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                              False, declared)
        write_result(result, env)
        report(result)
        results.append(result)
    if not all(r["metrics"] for r in results):
        sys.exit("no operation completed; nothing to report")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
