"""Spans around the public functions of the weakbell layers.

The tracer wraps every public function that a layer module defines and
rebinds the wrapper under every name that holds the original: module
globals (the modules import each other with ``from .channel import
...``), the package namespace and module-level dicts such as
``pointer._FAMILY_BUILDERS``.  ``install`` and ``uninstall`` swap the
bindings, so untraced passes in the same process run the original
functions with no wrapper in the way.

Spans are held in memory as ``[name, start, end, parent, note]``
lists; ``note`` carries a work count read from the call (nodes of a
built pointer, cells of a scan, bytes written ...).  Per-layer numbers
are derived from the spans after the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
import types

LAYERS = ("pointer", "channel", "bell", "protocol", "montecarlo", "cli")

POINTER_BUILDERS = frozenset(
    f"pointer.{name}"
    for name in (
        "make_square",
        "make_gaussian",
        "make_exponential",
        "make_optimal",
        "make_worst",
        "optimal_from_central",
    )
)
QUADRATURES = frozenset({"pointer.quality_factor", "pointer.precision"})
# serialising and writing an output; counted as cli.emit_s, not in the
# self time of the module that defines the serialiser
EMITTERS = frozenset(
    {
        "cli.atomic_write",
        "pointer.tradeoff_to_csv",
        "pointer.samples_to_csv",
        "bell.double_curve_to_csv",
        "bell.positivity_scan_to_csv",
        "protocol.schedule_to_csv",
    }
)


def _nodes(args, kwargs, result):
    return int(result.samples.size)


def _text_bytes(args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[1]
    return len(text.encode())


# work counts read from a call's arguments or result
NOTES = {
    **{name: _nodes for name in POINTER_BUILDERS},
    "bell.unbiased_triple_scan": lambda args, kwargs, result: int(result.cells),
    "bell.double_violation_curve": lambda args, kwargs, result: len(result),
    "protocol.build_schedule": lambda args, kwargs, result: len(result.rows),
    "montecarlo.run_chain": lambda args, kwargs, result: int(result.trials),
    "cli.atomic_write": _text_bytes,
}
# the call whose peak heap (numpy buffers included) is recorded with tracemalloc
HEAP_PEAK = "montecarlo.run_chain"


class Tracer:
    """Records one span per call of a public layer function."""

    def __init__(self):
        self.spans: list[list] = []
        self.heap_peaks: list[int] = []
        self._current = -1
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"weakbell.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        self._bindings = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "weakbell" and not module_name.startswith("weakbell."):
                continue
            for namespace in [vars(module)] + [
                v for v in vars(module).values() if isinstance(v, dict)
            ]:
                for key, value in namespace.items():
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._bindings.append((namespace, key, value, wrappers[value]))

    def _wrap(self, span_name, fn):
        note = NOTES.get(span_name)
        heap = span_name == HEAP_PEAK
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            span = [span_name, 0.0, 0.0, parent, None]
            self._current = len(spans)
            spans.append(span)
            if heap:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._current = parent
                if heap:
                    self.heap_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for namespace, key, _, wrapper in self._bindings:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original, _ in self._bindings:
            namespace[key] = original

    def reset(self) -> None:
        self.spans.clear()
        self.heap_peaks.clear()
        self._current = -1


def layer_metrics(spans, heap_peaks) -> dict:
    """Per-layer counts and times of one traced pass.

    Self time is a span's duration minus the durations of its child
    spans; calls run on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update(
        {
            "pointer.build_calls": 0,
            "pointer.nodes_built": 0,
            "pointer.build_s": 0.0,
            "pointer.quadrature_calls": 0,
            "pointer.quadrature_s": 0.0,
            "channel.calls": 0,
            "channel.spin_operator_calls": 0,
            "bell.chain_evals": 0,
            "bell.propagations": 0,
            "bell.chsh_calls": 0,
            "protocol.rows": 0,
            "montecarlo.trials": 0,
            "montecarlo.run_chain_s": 0.0,
            "montecarlo.reading_distribution_calls": 0,
            "montecarlo.analytic_joint_s": 0.0,
            "montecarlo.chi_square_s": 0.0,
            "cli.emit_s": 0.0,
            "cli.bytes_written": 0,
        }
    )
    for index, (name, start, end, parent, note) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        if name in EMITTERS:
            m["cli.emit_s"] += duration
            if name == "cli.atomic_write":
                m["cli.bytes_written"] += note or 0
        else:
            m[f"{layer}.self_s"] += duration - child[index]
        if name in POINTER_BUILDERS and (parent < 0 or spans[parent][0] not in POINTER_BUILDERS):
            m["pointer.build_calls"] += 1
            m["pointer.nodes_built"] += note or 0
            m["pointer.build_s"] += duration
        elif name in QUADRATURES:
            m["pointer.quadrature_calls"] += 1
            m["pointer.quadrature_s"] += duration
        elif layer == "channel":
            m["channel.calls"] += 1
            if name == "channel.spin_operator":
                m["channel.spin_operator_calls"] += 1
        elif name in ("bell.unbiased_triple_scan", "bell.double_violation_curve"):
            m["bell.chain_evals"] += note or 0
        elif name == "bell.sequential_average_state":
            m["bell.propagations"] += 1
        elif name == "bell.chsh":
            m["bell.chsh_calls"] += 1
        elif name == "protocol.build_schedule":
            m["protocol.rows"] += note or 0
        elif name == "montecarlo.run_chain":
            m["montecarlo.trials"] += note or 0
            m["montecarlo.run_chain_s"] += duration
        elif name == "montecarlo.reading_distribution":
            m["montecarlo.reading_distribution_calls"] += 1
        elif name == "montecarlo.analytic_joint":
            m["montecarlo.analytic_joint_s"] += duration
        elif name == "montecarlo.chi_square_report":
            m["montecarlo.chi_square_s"] += duration
    # node buffers are float64; computed from array sizes, not measured traffic
    m["pointer.bytes_computed"] = 8 * m["pointer.nodes_built"]
    trials = m["montecarlo.trials"]
    m["montecarlo.rss_per_trial_b"] = max(heap_peaks) / trials if trials and heap_peaks else 0.0
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_computed", "bytes_written", "_b")):
        return "B"
    if name == "trace.overhead":
        return "ratio"
    return "count"


# metrics that must read the same on every traced pass of one run
EXACT_COUNTS = (
    "pointer.build_calls",
    "pointer.nodes_built",
    "pointer.bytes_computed",
    "pointer.quadrature_calls",
    "channel.calls",
    "channel.spin_operator_calls",
    "bell.chain_evals",
    "bell.propagations",
    "bell.chsh_calls",
    "protocol.rows",
    "montecarlo.trials",
    "montecarlo.reading_distribution_calls",
    "cli.bytes_written",
)
