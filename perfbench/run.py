"""fibmachine benchmark: two workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload raster --seed 1 --seconds 45 --trace 0

A workload's pass runs two parts: `raster` is `panels` then `grid-csv`,
`scalar` is `analysis` then `words` (see workloads.py).  --trace 0 runs the
named workload untraced in a closed loop (one process, one thread, the next
pass starts when the previous one ends) for --seconds and reports the
end-to-end metrics.  --trace 1 runs one traced pass of every part, so that
every layer is measured, then alternates untraced and traced passes of the
named workload to give the tracing overhead, and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the JSON result; a fuller result file,
with machine metadata, goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_RUNS = 7
TRACE_SETUP_RUNS = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("raster", "scalar"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# set-up: fresh interpreters


def setup_probe(panels: int, config_paths, runs: int, between=None) -> tuple[list[float], list[dict]]:
    """Wall time of `runs` fresh interpreters that import fibmachine and load configs.

    One untimed run first fills the bytecode cache, as an installed package
    has one, so compiling is not counted whatever the caller's environment.
    `between`, if given, is called after every run, the untimed one included.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(panels)]
    argv += [str(p) for p in config_paths]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    walls, reports = [], []
    for i in range(runs + 1):
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=env)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if Path(report["module"]).resolve().parent != (SRC / "fibmachine").resolve():
            raise RuntimeError(f"set-up probe imported fibmachine from {report['module']}")
        if i:
            walls.append(wall)
            reports.append(report)
        if between:
            between()
    return walls, reports


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def make_parts(names, seed: int, work: Path) -> dict:
    from workloads import PARTS

    return {name: PARTS[name](seed, work, ROOT) for name in names}


def timed_run(args, work: Path):
    from reference import reference_s, scaled_median
    from workloads import WORKLOADS, Tally, Workload

    wl = Workload(args.workload, make_parts(WORKLOADS[args.workload], args.seed, work))
    setup_refs = []
    setup_walls, _ = setup_probe(
        wl.panel_configs, wl.config_paths, SETUP_RUNS, between=lambda: setup_refs.append(reference_s())
    )
    tally, later = Tally(), Tally()
    wl.check(wl.run_untraced(), tally)  # warm-up pass, checked but not timed
    for part_times in wl.part_times.values():
        part_times.clear()
    times, refs = [], [reference_s()]
    start = perf_counter()
    while True:
        out = wl.run_untraced(between=lambda: refs.append(reference_s()))
        times.append(sum(part_times[-1] for part_times in wl.part_times.values()))
        wl.check(out, tally if len(times) <= MIN_PASSES else later)
        elapsed = perf_counter() - start
        if len(times) >= MIN_PASSES and elapsed + median(times) > args.seconds:
            break
    tally.join_if_wrong(later)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": scaled_median(times, refs),
        "setup_s": scaled_median(setup_walls, setup_refs),
        "peak_rss_mb": peak_mb,
    }
    samples = {"pass_wall_s": times, "setup_wall_s": setup_walls, "parts": wl.part_times,
               "reference_s": refs, "setup_reference_s": setup_refs}
    return values, tally, {"samples": samples}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def per_layer_values(tracer, probes) -> dict[str, float]:
    from workloads import Analysis

    agg = tracer.aggregate()
    c = tracer.counters

    def per_call(name, scale):
        return agg[name]["total_s"] / agg[name]["calls"] * scale

    def per_mpix(name, pixels_counter, scale):
        return agg[name]["total_s"] / (c[pixels_counter] / 1e6) * scale

    residual_calls = agg["spectrum.eigen_residual"]["calls"]
    analysis_passes = residual_calls / (2 * Analysis.RESIDUAL_POINTS)
    values = {
        "render.scan_grid.speedup_2w": probes["speedup_2w"],
        "rng.random.ns": probes["rng_ns"],
        "cli.parse_args.ms": probes["cli_parse_ms"],
        "fibmachine.import_s": median(r["import_s"] for r in probes["setup"]),
        "figures.panel_config.ms": median(r["panel_config_ms"] for r in probes["setup"]),
        "config.load_config.ms": median(r["load_config_ms"] for r in probes["setup"]),
        "odometer.succ_transducer.copy_edge_frac": (
            c["odometer.succ_transducer.copy_edges"] / c["odometer.succ_transducer.edges"]
        ),
        "odometer.succ_carry.us": per_call("odometer.succ_carry", 1e6),
        "odometer.succ_transducer.us": per_call("odometer.succ_transducer", 1e6),
        "chain.transition_matrix.s": per_call("chain.transition_matrix", 1),
        "chain.stationarity_residual.s": per_call("chain.stationarity_residual", 1),
        "chain.beta_eigen_residual.s": per_call("chain.beta_eigen_residual", 1),
        "spectrum.escape_levels.s_per_mpix": per_mpix(
            "spectrum.escape_levels", "spectrum.escape_levels.pixels", 1
        ),
        "spectrum.escape_levels.active_frac": (
            c["spectrum.escape_levels.active_pixel_levels"] / c["spectrum.escape_levels.pixel_levels"]
        ),
        "spectrum.escape_levels.levels_run": (
            c["spectrum.escape_levels.levels_run"] / agg["spectrum.escape_levels"]["calls"]
        ),
        "spectrum.in_E.us": per_call("spectrum.in_E", 1e6),
        "spectrum.in_point_spectrum.us": per_call("spectrum.in_point_spectrum", 1e6),
        "spectrum.non_connectedness_test.us": per_call("spectrum.non_connectedness_test", 1e6),
        "spectrum.eigen_residual.ms": per_call("spectrum.eigen_residual", 1e3),
        "spectrum.eigen_residual.failed": c["spectrum.eigen_residual.failed"] / analysis_passes,
        "render.lam_array.ms_per_mpix": per_mpix("render.lam_array", "spectrum.escape_levels.pixels", 1e3),
        "render.write_ppm.ms_per_mpix": per_mpix("render.write_ppm", "spectrum.escape_levels.pixels", 1e3),
        "render.scan_grid.s_per_mpix": per_mpix("render.scan_grid", "render.pixels", 1),
        "render.write_csv.s_per_mpix": per_mpix("render.write_csv", "render.pixels", 1),
        "render.parse_csv.s_per_mpix": per_mpix("render.parse_csv", "render.pixels", 1),
        "render.write_csv.bytes_per_px": c["render.write_csv.bytes"] / c["render.pixels"],
        "trace.pass_s": median(probes["traced"]),
        "trace.untraced_pass_s": median(probes["untraced"]),
    }
    values["trace.overhead_frac"] = values["trace.pass_s"] / values["trace.untraced_pass_s"] - 1.0
    for size in ("short", "long", "order3"):
        for op in ("encode", "decode"):
            values[f"numeration.{op}.{size}.us"] = per_call(f"numeration.{op}.{size}", 1e6)
    for seq in Analysis.SEQUENCES:
        span = f"chain.simulate.{seq}"
        values[f"{span}.us_per_step"] = agg[span]["total_s"] / c[f"{span}.steps"] * 1e6
        values[f"{span}.max_state"] = c[f"{span}.max_state"] / agg[span]["calls"]
    return values


def layer_probes(args, parts) -> dict:
    from fibmachine import cli, config, render
    from fibmachine.rng import SplitMix64
    from workloads import Analysis

    # rng on its own: as many draws as the analysis simulations make
    draws = len(Analysis.SEQUENCES) * Analysis.STEPS
    rand = SplitMix64(args.seed).random
    t0 = perf_counter()
    for _ in range(draws):
        rand()
    rng_ns = (perf_counter() - t0) / draws * 1e9

    # scan_grid at 1 and 2 workers on the first grid-csv panel, interleaved
    grid_csv = parts["grid-csv"]
    cfg = config.load_config(grid_csv.config_paths[grid_csv.order[0] - 1])
    best = {1: float("inf"), 2: float("inf")}
    for _ in range(2):
        for workers in (1, 2):
            t0 = perf_counter()
            render.scan_grid(cfg.grid, cfg.prob_seq, cfg.escape_config(), workers=workers)
            best[workers] = min(best[workers], perf_counter() - t0)

    # what cli.main adds before dispatch: building the parser and parsing argv
    argvs = [parts["panels"].argv, ["render", "--config", "x.json", "--format", "csv", "--out", "x.csv"]]
    argvs += [["chain", "simulate", "--steps", "50000", "--config", "x.json"], ["encode", "12"]]
    parse_ms = []
    for argv in argvs * 5:
        t0 = perf_counter()
        cli.build_parser().parse_args(argv)
        parse_ms.append((perf_counter() - t0) * 1e3)
    return {"rng_ns": rng_ns, "speedup_2w": best[1] / best[2], "cli_parse_ms": median(parse_ms)}


def traced_run(args, work: Path):
    from tracing import Tracer
    from workloads import PARTS, Tally, Workload

    run_start = perf_counter()
    parts = make_parts(PARTS, args.seed, work)
    config_paths = [p for part in parts.values() for p in part.config_paths]
    _, setup_reports = setup_probe(parts["panels"].panel_configs, config_paths, TRACE_SETUP_RUNS)
    tracer = Tracer()
    tally, later = Tally(), Tally()
    for name, part in parts.items():
        with tracer.span(f"pass:{name}"):
            out = part.run_traced(tracer)
        part.check(out, tally)

    # overhead: pairs of untraced and traced passes of the named workload,
    # alternating which of the two runs first
    wl = Workload(args.workload, parts)
    times = {False: [], True: []}
    while True:
        for traced in (False, True) if len(times[True]) % 2 == 0 else (True, False):
            t0 = perf_counter()
            if traced:
                with tracer.span(f"pass:{args.workload}"):
                    out = wl.run_traced(tracer)
            else:
                out = wl.run_untraced()
            times[traced].append(perf_counter() - t0)
            wl.check(out, later)
        pair = times[False][-1] + times[True][-1]
        if perf_counter() - run_start + pair > args.seconds:
            break
    untraced, traced = times[False], times[True]
    tally.join_if_wrong(later)

    probes = layer_probes(args, parts)
    probes.update(setup=setup_reports, traced=traced, untraced=untraced)
    values = per_layer_values(tracer, probes)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    table = tracer.aggregate()
    return values, tally, {"spans": table, "spans_file": str(spans_path.relative_to(ROOT)),
                           "overhead_samples": {"traced": traced, "untraced": untraced}}


# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "fibmachine"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # the benchmark also runs from exported trees
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    import fibmachine
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fibmachine": fibmachine.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "platform": platform.platform(),
        "cpu": cpu_model(),
    }


def print_report(args, values, units, tally, extra, meta, result_path) -> None:
    from reference import NOMINAL_S

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} ({mode})")
    if args.trace:
        print(f"  {'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        rows = sorted(extra["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"  {name:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        print(f"  tracing overhead on {args.workload}: traced pass {values['trace.pass_s']:.4f} s"
              f" vs untraced {values['trace.untraced_pass_s']:.4f} s"
              f" ({values['trace.overhead_frac']:+.2%})")
    else:
        s = extra["samples"]
        raw = s["pass_wall_s"]
        print(f"  passes: {len(raw)} timed after 1 warm-up; unscaled wall time median"
              f" {median(raw):.4f} s, min {min(raw):.4f} s, max {max(raw):.4f} s")
        for part, part_times in s["parts"].items():
            print(f"  part {part}: unscaled median {median(part_times):.4f} s")
        print(f"  set-up: {len(s['setup_wall_s'])} fresh interpreters, unscaled median"
              f" {median(s['setup_wall_s']):.4f} s")
        refs = s["reference_s"] + s["setup_reference_s"]
        print(f"  reference task: median {median(refs) * 1e3:.2f} ms, min {min(refs) * 1e3:.2f} ms,"
              f" max {max(refs) * 1e3:.2f} ms (nominal {NOMINAL_S * 1e3:.0f} ms;"
              " wall_s and setup_s are scaled to it)")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:14.6g} {unit}")
    attempted = max(tally.attempted, 1)
    print(f"  {'error_rate':42s} {(tally.failed + tally.wrong) / attempted:14.6g} ratio"
          f"  ({tally.failed} raised + {tally.wrong} wrong of {tally.attempted} operations)")
    for what in tally.problems[:10]:
        print(f"  CHECK FAILED: {what}", file=sys.stderr)
    print(f"  machine: nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']},"
          f" commit {meta['git_commit']}, source {meta['source_sha256'][:12]}")
    print(f"  result file: {result_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fibmachine" / "__init__.py").is_file():
        print(f"perfbench: no fibmachine sources under {SRC}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fibmachine

    if Path(fibmachine.__file__).resolve().parent != (SRC / "fibmachine").resolve():
        print(f"perfbench: imported fibmachine from {fibmachine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        values, tally, extra = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"perfbench: computed metrics {sorted(set(values) ^ set(units))} do not match"
              " BENCHMARK.json", file=sys.stderr)
        return 1

    meta = metadata(args.seed)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": meta,
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.wrong,
        "raised": tally.failed,
        "wrong": tally.wrong,
        "check_failures": tally.problems[:100],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        **extra,
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print_report(args, values, units, tally, extra, meta, result_path)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.wrong,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
