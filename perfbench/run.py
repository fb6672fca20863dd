"""Benchmark entry point for the weakspan engine.

Runs each workload in its own fresh worker process, one after the other, and
prints every metric by name with its unit.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload hex_growth --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

`--trace 0` reports the end-to-end metrics; `--trace 1` reports the
per-layer metrics of a separate traced run and writes its spans to
`.perfbench/spans-<workload>.json`.  Exit code 0 means every operation
passed its oracle gate, 1 that some failed (the result is still printed), 2
that no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hex_growth", "hex_wide_cli", "fib_seq")
END_TO_END = {"setup_s": "s", "rel_wall": "ratio", "peak_rss_mb": "MB"}
# A worker that outlives its measuring time by this much is stopped.
GRACE_S = 120.0

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import metric_units  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh worker process and return its result.

    The result holds the worker's fields plus `peak_rss_mb`, read from the
    worker's resource usage when it is reaped.
    """
    if not (ROOT / "src" / "weakspan" / "__init__.py").is_file():
        raise BenchError(f"no weakspan sources under {ROOT / 'src'}")
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir), "--result", str(result_path)]
    if trace:
        cmd += ["--spans", str(scratch / f"spans-{name}.json")]
    try:
        with open(workdir / "worker.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + seconds + GRACE_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError(f"{name}: worker ran past {seconds + GRACE_S:.0f} s and was stopped")
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{name}: worker exited with {proc.returncode} and no result")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def metrics_of(result: dict, trace: int) -> dict:
    """The metrics one result reports, each as {"value": ..., "unit": ...}."""
    if trace:
        units = metric_units()
        return {key: {"value": result["metrics"][key], "unit": unit}
                for key, unit in units.items()}
    values = dict(result["metrics"], peak_rss_mb=result["peak_rss_mb"])
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


def describe(result: dict, metrics: dict) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    walls = result["pass_walls"]
    median = f"; median {statistics.median(walls):.4f} s" if walls else ""
    lines = [f"{result['workload']} seed={result['seed']} {result['inputs']}",
             f"  untraced passes ({len(walls)}): [{', '.join(f'{w:.4f}' for w in walls)}] s"
             f"{median}; warm-up median {result['warmup_s']:.4f} s;"
             f" set-up {result['setup_wall_s']:.4f} s at this machine's speed",
             f"  fail_ratio = {failed / attempted:.4f} ({failed}/{attempted})"]
    if walls and result.get("applied_per_pass"):
        lines.append(f"  wall_s = {statistics.median(walls):.6g} s, matches_per_s = "
                     f"{result['applied_per_pass'] / statistics.median(walls):.6g} 1/s"
                     f" (medians at this machine's speed; not steady enough to compare runs)")
    if result.get("pass_relatives"):
        lines.append(f"  relative walls ({len(result['pass_relatives'])}): "
                     f"[{', '.join(f'{r:.3f}' for r in result['pass_relatives'])}]")
    if result["traced_walls"]:
        lines.append(f"  traced passes ({len(result['traced_walls'])}): "
                     f"[{', '.join(f'{w:.4f}' for w in result['traced_walls'])}] s")
    lines += [f"  {key} = {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines += [f"  FAILED {problem}" for problem in result["problems"]]
    if result.get("unfired"):
        lines.append(f"  trace integrity: never called {', '.join(result['unfired'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        metrics = metrics_of(result, args.trace)
        print("\n".join(describe(result, metrics)), flush=True)
        results.append((result, metrics))

    attempted = sum(r["attempted"] for r, _m in results)
    failed = sum(r["failed"] for r, _m in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{r['workload']}.{key}": m for r, ms in results for key, m in ms.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
