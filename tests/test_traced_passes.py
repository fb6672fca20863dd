"""Each benchmark workload runs one pass untraced and one under the tracer.

The tracer's counters read the results of the functions it wraps (its
`coherent_set_check` counter reads a `matrix` from any result that is not
None), so a change to one of those results would crash a traced benchmark
run.  Both passes must pass the workload's oracle gate and give the same
fingerprint.  A refusing coherence check and a refusing `pct` also run
under the tracer: the check's counter reads 0 and each refusal comes
through unchanged.  The benchmark's files are imported, not changed.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from weakspan import (IncoherentSetError, apply_direct, loads_system,  # noqa: E402
                      rewriting, rule_matches)


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



def _clash():
    """Two applications on one node: `erase` drops the label `keep` requires."""
    read = {"nodes": [{"id": "x", "sort": "p", "label": ["u"]}]}
    erased = {"nodes": [{"id": "x", "sort": "p"}]}
    same = {"nodes": {"x": "x"}}
    rules = [{"name": name, "variables": ["u"], "L": read, "K": kept, "I": kept, "R": kept,
              "l": same, "i": same, "r": same}
             for name, kept in (("erase", erased), ("keep", read))]
    system = loads_system(json.dumps({
        "sorts": {"nodes": ["p"], "edges": {}}, "algebra": "nat", "rules": rules,
        "host": {"nodes": [{"id": "x", "sort": "p", "label": [5]}]}}))
    return [apply_direct(match) for found in rule_matches(system, system.host)
            for match in found]


def test_a_refusal_passes_the_tracer_unchanged():
    gammas = _clash()
    with pytest.raises(IncoherentSetError) as untraced:
        rewriting.coherent_set_check(gammas)
    want = untraced.value
    tracer = Tracer()
    tracer.install(1)
    try:
        with pytest.raises(IncoherentSetError) as checked:
            rewriting.coherent_set_check(gammas)
        with pytest.raises(IncoherentSetError) as raised:
            rewriting.pct(gammas)
    finally:
        tracer.uninstall()
    for error in (checked.value, raised.value):
        assert type(error) is IncoherentSetError
        assert (error.pair, error.rules, error.element, error.reason, str(error)) == (
            want.pair, want.rules, want.element, want.reason, str(want))
    assert tracer.calls["rewriting.coherent_set_check"] == 2
    assert tracer.calls["rewriting.pct"] == 1
    assert tracer.counts["rewriting.coherent_set_check.pairs"] == 0
