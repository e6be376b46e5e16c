"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 301-310 [--workloads raster,scalar]
                                  [--trace-seed 301] [--out perfbench/BENCH_seed.json]

Runs `run.py` once per workload and seed, one run at a time, and prints for
every end-to-end metric the median, the quartiles (`statistics.quantiles`,
n=4) and the quartile distance over the median, beside the metric's bound
from BENCHMARK.json.  With --trace-seed it also makes one traced run per
workload.  With --out it writes all of it, with the machine metadata of the
runs, as a BENCH JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    result = ROOT / ".perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="a range like 301-310 or a list like 1,2,3")
    ap.add_argument("--workloads", help="comma-separated; default every workload in BENCHMARK.json")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = seed_list(args.seeds)
    doc = {"what": "perfbench: end-to-end metrics of one untraced run per seed and workload"
                   + (", and one traced run per workload" if args.trace_seed is not None else ""),
           "run_seconds": seconds, "end_to_end": {}, "operations": {}, "per_layer": {}}
    for workload in workloads:
        lines = []
        for seed in seeds:
            line, result = run_once(workload, seed, seconds, 0)
            doc["machine"] = {k: v for k, v in result["machine"].items() if k != "seed"}
            lines.append(line)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g} {m['unit']}" for name, m in line["metrics"].items()), flush=True)
        summary = {"seeds": seeds}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [line["metrics"][name]["value"] for line in lines]
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            summary[name] = {"unit": metric["unit"], "median": median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median(values), "bound": metric["bound"],
                             "values": values}
            print(f"  {workload} {name}: median {median(values):.6g} {metric['unit']},"
                  f" spread {summary[name]['spread']:.3f} (bound {metric['bound']})", flush=True)
        doc["end_to_end"][workload] = summary
        doc["operations"][workload] = {
            "seeds": seeds,
            "attempted": [line["attempted"] for line in lines],
            "failed": [line["failed"] for line in lines],
            "correct": all(line["correct"] for line in lines),
        }
        if args.trace_seed is not None:
            line, result = run_once(workload, args.trace_seed, seconds, 1)
            doc["per_layer"][workload] = {"seed": args.trace_seed, **line}
            print(f"{workload} traced seed {args.trace_seed}: correct {line['correct']}", flush=True)
    if "machine" in doc:
        doc["git_commit"] = doc["machine"]["git_commit"]
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
