"""Each benchmark workload runs one pass untraced and one under the tracer.

The tracer's counters read the results of the functions it wraps (for
example `coherent_set_check(...).matrix`), so a change to one of those
results would crash a traced benchmark run.  Both passes must pass the
workload's oracle gate and give the same fingerprint.  The benchmark's
files are imported, not changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_pass_gives_what_an_untraced_one_gives(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    workload.build()
    plain = workload.inspect(workload.run_pass())
    tracer = Tracer()
    tracer.install(1)
    try:
        traced = workload.inspect(workload.run_pass())
    finally:
        tracer.uninstall()
    assert plain.problems == [] and traced.problems == []
    assert traced.fingerprint == plain.fingerprint
    assert tracer.calls, "the traced pass called no wrapped function"
