"""Outside-in per-layer trace of the weakspan engine.

The tracer wraps public functions of `weakspan` modules from the outside: it
replaces every module-level binding of a function object with a timing
wrapper, and puts the original back on `uninstall`.  Nothing under `src/` is
changed on disk.  Each call becomes a span (name, start, end, parent, pass
id) kept in memory; self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
from time import perf_counter

PACKAGE = "weakspan"
ALL = ("hex_growth", "hex_wide_cli", "fib_seq")
PCT = ("hex_growth", "hex_wide_cli")


def _size(graph) -> int:
    return graph.element_count()


def _file_bytes(args, kwargs, _result, _error) -> int:
    path = args[-1] if args else next(iter(kwargs.values()))
    return os.path.getsize(path)


def _pairs(args, _kwargs, result, _error) -> int:
    if result is None or result.matrix is None:
        return 0
    return len(result.matrix) - len(args[0])


# (module, function, workloads on which a traced pass must call it, counters).
# A counter maps (args, kwargs, result, error) to an integer added to
# `<module>.<function>.<counter>`; it runs after the span has closed.
WRAPPED = (
    ("graphs", "enumerate_morphisms", ALL,
     {"yielded": lambda a, k, r, e: 0 if r is None else len(r)}),
    ("attrgraphs", "validate_attr_morphism", ALL,
     {"elements_checked": lambda a, k, r, e: _size(a[0].source)}),
    ("attrgraphs", "compose_attr", ALL, {}),
    ("attrgraphs", "rename_attributed", ALL, {}),
    ("constructions", "pushout_complement", ALL,
     {"gluing_errors": lambda a, k, r, e: int(type(e).__name__ == "GluingError")}),
    ("constructions", "pushout_along_neutral", ALL, {}),
    ("constructions", "pullback_of_neutrals", PCT, {}),
    ("constructions", "limit_of_neutrals", PCT,
     {"dprime_elements": lambda a, k, r, e: 0 if r is None else _size(r[0])}),
    ("constructions", "colimit_of_neutrals", PCT,
     {"hprime_elements": lambda a, k, r, e: 0 if r is None else _size(r[0])}),
    ("rewriting", "find_matches", ALL,
     {"matches": lambda a, k, r, e: 0 if r is None else len(r)}),
    ("rewriting", "apply_direct", ALL, {}),
    ("rewriting", "coherent_set_check", PCT, {"pairs": _pairs}),
    ("rewriting", "pct", PCT, {}),
    ("runner", "cmd_run", ALL, {}),
    ("runner", "cmd_hexca", ("hex_growth",), {}),
    ("runner", "apply_parallel_step", PCT, {}),
    ("runner", "apply_sequential_step", ("fib_seq",), {}),
    ("runner", "all_matches", ("fib_seq",), {}),
    ("runner", "relabel_parallel_result", PCT, {}),
    ("runner", "relabel_direct_result", ("fib_seq",), {}),
    ("runner", "transport_match", ("fib_seq",),
     {"invalid": lambda a, k, r, e: int(isinstance(e, ValueError))}),
    ("hexgrid", "hex_system", ("hex_growth",), {}),
    ("hexgrid", "live_cells", ("hex_growth",), {}),
    ("fileio", "load_system", ("hex_wide_cli",),
     {"bytes": lambda a, k, r, e: 0 if e else _file_bytes(a, k, r, e)}),
    ("fileio", "save_graph", ("hex_wide_cli",),
     {"bytes": lambda a, k, r, e: 0 if e else _file_bytes(a, k, r, e)}),
    ("cli", "main", ("hex_wide_cli",), {}),
)

# Trace-wide metrics; together with the wrapper metrics they are the
# benchmark's per-layer metrics.
TRACE_METRICS = (
    ("rewriting.find_matches.label_yield", "ratio"),
    ("gc.collections", "count"),
    ("gc.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_COUNTER_UNITS = {"bytes": "bytes", "label_yield": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for module, func, _expected, counters in WRAPPED:
        key = f"{module}.{func}"
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        units[f"{key}.total_s"] = "s"
        for counter in counters:
            units[f"{key}.{counter}"] = _COUNTER_UNITS.get(counter, "count")
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Spans and counters for the wrapped functions; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.gc_collections = 0
        self.gc_s = 0.0
        self.pass_id = 0
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self._gc_start = 0.0

    @staticmethod
    def _modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self, pass_id: int) -> None:
        """Wrap every module-level binding of each listed function."""
        self.pass_id = pass_id
        modules = self._modules()
        for module, func, _expected, counters in WRAPPED:
            key = f"{module}.{func}"
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, func, None) if home is not None else None
            if not callable(original):
                continue  # reported by unfired()
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(key, original, counters)
            wrapper = self._wrappers[key]
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def _wrap(self, key: str, fn, counters: dict):
        tracer = self
        name_index = len(self.names)
        self.names.append(key)
        for counter in counters:
            self.counts.setdefault(f"{key}.{counter}", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            depth = tracer._active.get(key, 0)
            tracer._active[key] = depth + 1
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._active[key] = depth
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                tracer.spans[index] = (name_index, start, end,
                                       -1 if parent is None else parent[0], tracer.pass_id)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + duration - frame[1]
                if depth == 0:
                    tracer.total_s[key] = tracer.total_s.get(key, 0.0) + duration
                for counter, count in counters.items():
                    tracer.counts[f"{key}.{counter}"] += count(args, kwargs, result, error)

        return wrapper

    def root_seconds(self, pass_id: int) -> float:
        """Summed duration of the pass's spans that have no traced parent."""
        return sum(span[2] - span[1] for span in self.spans
                   if span is not None and span[4] == pass_id and span[3] == -1)

    def unfired(self, workload: str) -> list[str]:
        """Wrappers the workload is expected to call that never fired."""
        return [f"{module}.{func}" for module, func, expected, _counters in WRAPPED
                if workload in expected and not self.calls.get(f"{module}.{func}")]

    def per_pass_metrics(self, passes: int) -> dict[str, float]:
        """Wrapper metrics as means over the traced passes."""
        out: dict[str, float] = {}
        for module, func, _expected, counters in WRAPPED:
            key = f"{module}.{func}"
            out[f"{key}.calls"] = self.calls.get(key, 0) / passes
            out[f"{key}.self_s"] = self.self_s.get(key, 0.0) / passes
            out[f"{key}.total_s"] = self.total_s.get(key, 0.0) / passes
            for counter in counters:
                out[f"{key}.{counter}"] = self.counts.get(f"{key}.{counter}", 0) / passes
        yielded = self.counts.get("graphs.enumerate_morphisms.yielded", 0)
        matches = self.counts.get("rewriting.find_matches.matches", 0)
        out["rewriting.find_matches.label_yield"] = matches / yielded if yielded else 0.0
        out["gc.collections"] = self.gc_collections / passes
        out["gc.s"] = self.gc_s / passes
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "pass"],
                       "spans": [s for s in self.spans if s is not None]}, fh)
