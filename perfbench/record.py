"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 perfbench/record.py --label baseline --runs 10 --trace-seed 1

Runs every workload once per seed (1 to --runs), workloads interleaved so
that a slow phase of the machine is shared between them, each in its own
worker process with BENCHMARK.json's run_seconds.  Writes
`perfbench/BENCH_<label>.json` with the machine, Python and git revision;
for each workload and end-to-end metric the values, their median, their
quartiles and the spread (q3 - q1) / median checked against a third of the
metric's bound; the same, unbounded, for set-up and the median pass in
seconds at the machine's speed and for matches per second; and the spread
between passes within a run.  With
--trace-seed, one traced run per workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, BenchError, metrics_of, run_workload  # noqa: E402


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip() + (" (src modified)" if dirty else "")


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    summary = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        summary.update(bound=bound, spread_below_third_of_bound=spread < bound / 3)
    return summary


def pass_spread(walls: list[float]) -> float | None:
    """(slowest - fastest) / median over one run's untraced passes."""
    if len(walls) < 2:
        return None
    return (max(walls) - min(walls)) / statistics.median(walls)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            try:
                result = run_workload(name, seed, spec["run_seconds"], 0)
            except BenchError as err:
                print(f"record: {err}", file=sys.stderr)
                return 2
            metrics = {k: m["value"] for k, m in metrics_of(result, 0).items()}
            runs[name].append({"seed": seed, "attempted": result["attempted"],
                               "failed": result["failed"], "pass_walls": result["pass_walls"],
                               "pass_relatives": result["pass_relatives"],
                               "applied_per_pass": result["applied_per_pass"],
                               "setup_wall_s": result["setup_wall_s"],
                               "metrics": metrics})
            shown = " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
            print(f"seed {seed} {name}: {shown} failed={result['failed']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = {}
    for name, done in runs.items():
        spreads = [s for s in (pass_spread(r["pass_walls"]) for r in done) if s is not None]
        workloads[name] = {
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "metrics": {key: summarize([r["metrics"][key] for r in done], bound)
                        for key, bound in bounds.items()},
            # Seconds, for the reader; not bounded, see README.md.
            "setup_wall_s": summarize([r["setup_wall_s"] for r in done], None),
            "wall_s": summarize([statistics.median(r["pass_walls"]) for r in done], None),
            "matches_per_s": summarize([r["applied_per_pass"] / statistics.median(r["pass_walls"])
                                        for r in done], None),
            "pass_spread_median": statistics.median(spreads) if spreads else None,
            "pass_spread_max": max(spreads) if spreads else None,
            "runs": done,
        }
    record = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_revision(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform(), "processor": platform.processor()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.runs + 1)),
        "workloads": workloads,
    }
    if args.trace_seed is not None:
        traced = {}
        for name in names:
            try:
                result = run_workload(name, args.trace_seed, spec["run_seconds"], 1)
            except BenchError as err:
                print(f"record: {err}", file=sys.stderr)
                return 2
            traced[name] = {k: m["value"] for k, m in metrics_of(result, 1).items()}
        record["per_layer"] = {"seed": args.trace_seed, "workloads": traced}
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, summary in workloads.items():
        for key, s in summary["metrics"].items():
            flag = "ok" if s["spread_below_third_of_bound"] else "WIDE"
            print(f"{name:13s} {key:14s} median {s['median']:.5g} spread {s['spread']:.3f}"
                  f" (bound {s['bound']}) {flag}")
        for key in ("setup_wall_s", "wall_s", "matches_per_s"):
            s = summary[key]
            print(f"{name:13s} {key:14s} median {s['median']:.5g} spread {s['spread']:.3f}"
                  f" (not bounded)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
