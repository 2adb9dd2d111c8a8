"""Repeat benchmark runs over seeds and summarise the run-to-run spread.

Usage:
    python3 perfbench/collect.py --seeds 1-10 [--trace 0|1] [--out FILE]
                                 [--compare BASE.json]

Runs perfbench/run.py once per seed and workload of BENCHMARK.json, at its
run length, and prints each run's summary (with `--trace 0`: wall_s,
samples_per_s, setup_s, peak_rss_mb and fail_rate, with units), then for
every metric of the JSON result the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the metric's bound. `--out` writes the runs and the summary
as JSON; `--compare` also prints each end-to-end median's change against an
earlier summary, flagged when it is worse by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result object, manifest, summary lines)."""
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    manifest = next((json.loads(line.split(" ", 1)[1]) for line in lines
                     if line.startswith("manifest ")), None)
    return json.loads(lines[-1]), manifest, [line for line in lines if line.startswith("  ")]


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    base = json.loads(args.compare.read_text())["summary"] if args.compare else {}

    report = {"runs": {}, "summary": {}, "manifest": None}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result, manifest, lines = run_once(workload, seed, spec["run_seconds"], args.trace)
            report["manifest"] = report["manifest"] or manifest
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  *lines, sep="\n", flush=True)
        report["runs"][workload] = runs
        summary = {}
        for metric in runs[0]["metrics"]:
            summary[metric] = summarise([r["metrics"][metric]["value"] for r in runs])
            s, bound = summary[metric], bounds.get(metric)
            line = (f"  {workload:18} {metric:24} median {s['median']:.6g}  "
                    f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
            if bound is not None:
                line += f"  bound {bound}" + ("" if s["spread"] <= bound / 3 else "  WIDE")
            old = base.get(workload, {}).get(metric)
            if old and bound is not None:
                change = s["median"] / old["median"] - 1.0
                worse = change if _lower_is_better(spec, metric) else -change
                line += f"  vs base {change:+.4f}" + ("  WORSE" if worse > bound else "")
            print(line, flush=True)
        report["summary"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def _lower_is_better(spec, metric):
    return next(m["better"] for m in spec["end_to_end"] + spec["per_layer"]
                if m["name"] == metric) == "lower"


if __name__ == "__main__":
    sys.exit(main())
