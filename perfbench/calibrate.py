"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine the same pass of the same code takes up to twice as
long in a slow phase as in a quiet one, and the phases last from a second to
minutes, so even the fastest pass of a run depends on when the run was made.
`worker.measure` therefore times this loop right before and right after every
untraced pass and reports the pass's wall time divided by the mean of the
two: a slow phase slows the loop and the pass alike, and cancels in the
ratio.

The loop does the kind of work the engine does (dicts keyed by tuples,
frozensets, small integer arithmetic) but uses nothing of `weakspan`, so no
change to the engine moves it.  Changing the loop rescales every relative
metric, like any other change to the benchmark.  Set-up is bracketed the
same way, and reported as seconds at the reference speed `REFERENCE_S`.
"""

from __future__ import annotations

import random
from time import perf_counter

NODES = 3000
ROUNDS = 3
# A fixed scale, about the loop's time at a quiet moment of the machine the
# baseline was recorded on: a time divided by the loop's and multiplied by
# this is in seconds at that speed.  Used for setup_s, which must be seconds.
REFERENCE_S = 0.025


def loop() -> int:
    """About 25 ms on the machine of the recorded baseline (see README.md)."""
    rng = random.Random(7)
    nodes = {i: frozenset(rng.randrange(NODES) for _ in range(4)) for i in range(NODES)}
    total = 0
    for _round in range(ROUNDS):
        groups: dict[tuple[int, int], set[int]] = {}
        for key, neighbours in nodes.items():
            groups.setdefault((key % 97, len(neighbours)), set()).update(neighbours)
        total += sum(len(frozenset(members)) for members in groups.values())
        nodes = {key: frozenset((n * 31 + key) % NODES for n in neighbours)
                 for key, neighbours in nodes.items()}
    return total


def seconds(reps: int) -> float:
    """Wall seconds of one run of `loop`, averaged over `reps` runs."""
    start = perf_counter()
    for _ in range(reps):
        loop()
    return (perf_counter() - start) / reps
