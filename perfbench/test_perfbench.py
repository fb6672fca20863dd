"""Self-tests of the benchmark: its oracle gates, seeds, trace and contract.

    python3 -m pytest perfbench -q

Most tests use small instances of the workloads; the seed-invariance test
runs both hex workloads at full size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from weakspan import cli, runner  # noqa: E402
from weakspan.algebras import LabelSet  # noqa: E402
from weakspan.fileio import load_system, save_graph  # noqa: E402
from workloads import WORKLOADS, HexGrowth, HexWideCli, fib_pair, start_cell  # noqa: E402


@pytest.fixture
def workdir(request):
    path = ROOT / ".perfbench" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small(name: str, seed: int, workdir: Path):
    sizes = {"hex_growth": {"radius": 4, "generations": 2},
             "hex_wide_cli": {"radius": 5, "steps": 2},
             "fib_seq": {"steps": 30}}
    workload = WORKLOADS[name](seed, workdir, **sizes[name])
    workload.build()
    return workload


def corrupt_hex_growth(workload, result):
    result.live_sets[-1] = result.live_sets[-1] | {(workload.grid.radius + 5, 0)}
    return result


def corrupt_hex_wide_cli(workload, code):
    # Overwrite the saved result with the unrewritten host.
    save_graph(load_system(workload.preset).host, workload.out)
    return code


def corrupt_fib(workload, run_result):
    graph = run_result.history[7]
    run_result.history[7] = graph.with_labels({"y": LabelSet([1 + next(iter(graph.label("y")))])})
    return run_result


CORRUPTIONS = {"hex_growth": corrupt_hex_growth, "hex_wide_cli": corrupt_hex_wide_cli,
               "fib_seq": corrupt_fib}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_passes_pass_the_gate(name, workdir):
    workload = small(name, 3, workdir)
    tally = worker.Tally()
    _wall, reference = worker.gated_pass(workload, 0, None, tally)
    walls, _traced, gated, _ids = worker.measure(workload, 0.0, reference, tally,
                                                 calibrated=True)
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    [(_applied, wall, relative)] = gated
    assert walls == [wall] and relative > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_corrupted_result_is_counted_as_a_failure(name, workdir, monkeypatch):
    workload = small(name, 3, workdir)
    tally = worker.Tally()
    _wall, reference = worker.gated_pass(workload, 0, None, tally)
    honest = workload.run_pass
    monkeypatch.setattr(workload, "run_pass", lambda: CORRUPTIONS[name](workload, honest()))
    walls, _traced, gated, _ids = worker.measure(workload, 0.0, reference, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(walls) == 1 and gated == []
    assert tally.problems and tally.problems[0].startswith("pass 1:")


def test_an_exception_and_a_nonzero_exit_code_are_failures(workdir, monkeypatch):
    workload = small("fib_seq", 3, workdir)
    tally = worker.Tally()

    def boom():
        raise RuntimeError("engine broke")

    monkeypatch.setattr(workload, "run_pass", boom)
    assert worker.gated_pass(workload, 0, None, tally) == (None, None)
    cli_workload = small("hex_wide_cli", 3, workdir)
    cli_workload.preset.unlink()
    wall, outcome = worker.gated_pass(cli_workload, 1, None, tally)
    assert wall is not None and outcome is None
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "exited with 2" in tally.problems[1]


def test_seeds_pick_inputs_in_range():
    assert {start_cell(seed) for seed in range(200)} == {(0, 0), (1, 0), (1, 1), (0, 1),
                                                        (-1, 0), (-1, -1), (0, -1)}
    pairs = [fib_pair(seed) for seed in range(1000)]
    assert all(x != y and 1 <= x <= 99 and 1 <= y <= 99 for x, y in pairs)
    assert fib_pair(17) == fib_pair(17)


def _distinct_start_seeds():
    first = 0
    second = next(s for s in range(1, 100) if start_cell(s) != start_cell(first))
    return first, second


def test_two_seeds_apply_the_same_counts_on_the_full_hex_workloads(workdir):
    per_seed = []
    for seed in _distinct_start_seeds():
        growth = HexGrowth(seed, workdir)
        growth.build()
        grown = growth.inspect(growth.run_pass())
        wide = HexWideCli(seed, workdir)
        wide.build()
        widened = wide.inspect(wide.run_pass())
        assert grown.problems == [] and widened.problems == []
        per_seed.append((grown.fingerprint[1], widened.fingerprint[1]))
    assert per_seed[0] == per_seed[1] == ((6, 6, 18), (6, 6))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_passes_fire_every_expected_wrapper_and_change_no_output(name, workdir,
                                                                        monkeypatch):
    workload = small(name, 5, workdir)
    plain = workload.inspect(workload.run_pass())
    tracer = tracing.Tracer()
    tally = worker.Tally()
    gated_untraced = []
    inspect = workload.inspect
    monkeypatch.setattr(workload, "inspect", lambda raw: (
        gated_untraced.append(not hasattr(runner.cmd_run, "__wrapped__")), inspect(raw))[1])
    wall, traced = worker.gated_pass(workload, 1, plain, tally, tracer)
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems
    assert gated_untraced == [True]
    assert traced.fingerprint == plain.fingerprint
    assert tracer.unfired(name) == []
    metrics = tracer.per_pass_metrics(1)
    self_total = sum(metrics[f"{m}.{f}.self_s"] for m, f, _e, _c in tracing.WRAPPED)
    unattributed = wall - tracer.root_seconds(1)
    assert unattributed >= 0
    assert self_total + unattributed == pytest.approx(wall, rel=1e-9)


def test_uninstall_restores_every_binding():
    import weakspan.constructions as constructions
    import weakspan.rewriting as rewriting
    originals = (runner.compose_attr, rewriting.pushout_along_neutral, cli.main)
    tracer = tracing.Tracer()
    tracer.install(1)
    try:
        assert runner.compose_attr is not originals[0]
        assert runner.compose_attr is constructions.compose_attr
        assert rewriting.pushout_along_neutral is constructions.pushout_along_neutral
    finally:
        tracer.uninstall()
    assert (runner.compose_attr, rewriting.pushout_along_neutral, cli.main) == originals


def test_benchmark_json_names_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [cls.why for cls in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_one_short_run_prints_the_contract_line():
    done = _bench(ROOT, "--workload", "fib_seq", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 2
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_a_directory_without_the_sources_gives_no_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "BENCH_*.json"))
    done = _bench(workdir, "--workload", "fib_seq", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
