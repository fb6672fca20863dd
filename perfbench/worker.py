"""One workload in one process: set up, measure, gate every pass, write a result.

`run.py` starts this script in a fresh interpreter per workload so that peak
memory is the workload's own.  Loop: closed, one client, one operation at a
time, no threads.  With `--trace 0` every timed pass runs untraced; with
`--trace 1` traced and untraced passes alternate, and the per-layer numbers
come from the traced ones.  Set-ups, and the untraced passes of a
`--trace 0` run, are each bracketed by timings of the calibration loop
(calibrate.py).
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MAX_PROBLEMS = 5
# Runs of the calibration loop per timing of it.  Fixed, since the loop's
# first runs in a timing are slower than the later ones, so that a count
# chosen at run time would move every ratio with it.
CALIBRATION_REPS = 4


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, pass_index: int, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"pass {pass_index}: {reason}")


def gated_pass(workload, index: int, reference, tally: Tally, tracer=None):
    """Time one pass, then gate it outside the timed region.

    With a tracer, only the pass runs traced, not its gate.  Returns (wall
    seconds, outcome); wall is None when the pass raised and outcome is None
    when the pass failed its gate.
    """
    tally.attempted += 1
    if tracer is not None:
        tracer.install(index)
    start = perf_counter()
    try:
        raw = workload.run_pass()
    except Exception as err:  # a failing operation is counted, the run goes on
        tally.fail(index, f"{type(err).__name__}: {err}")
        return None, None
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    try:
        outcome = workload.inspect(raw)
    except Exception as err:
        tally.fail(index, f"gate raised {type(err).__name__}: {err}")
        return wall, None
    problems = list(outcome.problems)
    if reference is not None and outcome.fingerprint != reference.fingerprint:
        problems.append("output differs from the warm-up pass")
    if problems:
        tally.fail(index, "; ".join(problems))
        return wall, None
    return wall, outcome


def measure(workload, seconds: float, reference, tally: Tally, tracer=None,
            calibrated: bool = False):
    """Run passes until the time used plus half a typical pass reaches `seconds`.

    Returns (untraced walls, traced walls, (applied, wall, relative wall) of
    the untraced passes that passed the gate, traced pass ids).
    With a tracer, the first pass and every other one after it are traced.
    With `calibrated`, the calibration loop is timed before the first
    pass and after every pass, and a pass's relative wall is its wall time
    divided by the mean of the timings on either side of it; without, the
    relative wall is None.
    """
    walls: list[float] = []
    traced: list[float] = []
    gated: list[tuple[int, float, float | None]] = []
    traced_ids: list[int] = []
    begin = perf_counter()
    before = calibrate.seconds(CALIBRATION_REPS) if calibrated else None
    index = 0
    while True:
        index += 1
        tracing = tracer is not None and index % 2 == 1
        wall, outcome = gated_pass(workload, index, reference, tally,
                                   tracer if tracing else None)
        relative = None
        if calibrated:
            after = calibrate.seconds(CALIBRATION_REPS)
            if wall is not None:
                relative = wall / ((before + after) / 2)
            before = after
        if wall is not None:
            (traced if tracing else walls).append(wall)
            if tracing:
                traced_ids.append(index)
            elif outcome is not None:
                gated.append((outcome.applied, wall, relative))
        elapsed = perf_counter() - begin
        typical = statistics.median(walls + traced) if walls or traced else 0.0
        if elapsed + 0.5 * typical >= seconds:
            return walls, traced, gated, traced_ids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import weakspan
    if Path(weakspan.__file__).resolve().parent != ROOT / "src" / "weakspan":
        print(f"weakspan imported from {weakspan.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    import_s = perf_counter() - STARTED

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    # Set-up (a build and a warm-up pass) is repeated and its median taken,
    # so that one slow moment of the machine does not decide setup_s.  Every
    # warm-up pass is gated; the first one's output is the reference the
    # others and all timed passes must reproduce.  The calibration loop is
    # timed after the imports and after every set-up, and each of these
    # times is divided by the loop's time around it, so that setup_s is in
    # seconds at the loop's reference speed, not at the machine's speed of
    # the moment.
    tally = Tally()
    reference = None
    calibrations = [calibrate.seconds(CALIBRATION_REPS)]
    setups, relative_setups, warm_walls = [], [], []
    for _ in range(SETUPS):
        start = perf_counter()
        workload.build()
        built = perf_counter() - start
        warm_wall, outcome = gated_pass(workload, 0, reference, tally)
        warm_wall = warm_wall or 0.0
        reference = reference or outcome
        calibrations.append(calibrate.seconds(CALIBRATION_REPS))
        setups.append(built + warm_wall)
        relative_setups.append(setups[-1] / ((calibrations[-2] + calibrations[-1]) / 2))
        warm_walls.append(warm_wall)
    setup_s = calibrate.REFERENCE_S * (import_s / calibrations[0]
                                       + statistics.median(relative_setups))
    setup_wall_s = import_s + statistics.median(setups)
    warm_wall = statistics.median(warm_walls)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    walls, traced, gated, traced_ids = measure(workload, args.seconds, reference, tally, tracer,
                                               calibrated=tracer is None)

    result = {"workload": workload.name, "seed": args.seed, "inputs": workload.describe(),
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems,
              "warmup_s": warm_wall, "setup_wall_s": setup_wall_s,
              "pass_walls": walls, "traced_walls": traced}
    if tracer is None:
        relatives = [r for _a, _w, r in gated]
        result["pass_relatives"] = relatives
        result["applied_per_pass"] = gated[0][0] if gated else 0
        result["metrics"] = {
            "setup_s": setup_s,
            "rel_wall": statistics.median(relatives) if relatives else 0.0,
        }
    else:
        passes = max(len(traced), 1)
        metrics = tracer.per_pass_metrics(passes)
        roots = sum(tracer.root_seconds(i) for i in traced_ids)
        untraced = walls or [warm_wall]
        metrics["trace.wall_s"] = sum(traced) / passes
        metrics["trace.unattributed_s"] = (sum(traced) - roots) / passes
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced)
                                           if traced else 0.0)
        result["metrics"] = metrics
        result["unfired"] = tracer.unfired(workload.name)
        if args.spans:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
