"""Span tracing for the benchmark's traced run.

The tracer wraps the public names that ``cvteleport.cli`` and
``cvteleport.teleport`` bind at module level, so every call the CLI makes
into another layer opens a span. Spans record name, start, end, parent and
the operation they belong to; they stay in memory and are written out when
the run ends. Nothing inside ``src/`` is changed: the bindings are swapped
for the traced run and restored afterwards.
"""

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# layer name -> function name as bound in cvteleport.cli / cvteleport.teleport
LAYERS = {
    "resources.make_twb": "make_twb",
    "resources.make_amplified_twb": "make_amplified_twb",
    "resources.make_photon_subtracted_twb": "make_photon_subtracted_twb",
    "resources.make_added_then_subtracted_twb": "make_added_then_subtracted_twb",
    "resources.success_probability": "success_probability",
    "schmidt.probabilities": "schmidt_probabilities",
    "metrics.entanglement_entropy": "entanglement_entropy",
    "metrics.epr_correlation": "epr_correlation",
    "metrics.non_gaussianity": "non_gaussianity",
    "metrics.metrics_report": "metrics_report",
    "metrics.mean_photon": "mean_photon",
    "teleport.series": "average_fidelity_series",
    "teleport.radial": "average_fidelity_radial",
    "teleport.grid2d": "average_fidelity_grid2d",
    "teleport.mc": "average_fidelity_sampled",
    "teleport.crossover_find": "crossover_find",
    "cli.figure_data": "figure_data",
    "cli.run_sweep": "run_sweep",
    "cli.report_crossover": "report_crossover",
}
MAIN_LAYER = "cli.main"
ALL_LAYERS = (*LAYERS, MAIN_LAYER)
# warnings the program emits, counted per layer under these metric suffixes
WARNING_KINDS = {
    "TruncationWarning": "truncation_warnings",
    "BoundaryMassWarning": "boundary_warnings",
}
MODULES = ("resources", "schmidt", "metrics", "teleport", "cli")
CONSTRUCTORS = tuple(name for name in LAYERS if name.startswith("resources.make_"))

# work counts derived from the call arguments; labelled "computed" in reports
WORK_COUNTS = {
    "teleport.series": "teleport.series.kernel_entries",
    "teleport.radial": "teleport.radial.node_terms",
    "teleport.grid2d": "teleport.grid2d.grid_terms",
    "teleport.mc": "teleport.mc.samples",
}


def _module(layer: str) -> str:
    return layer.split(".", 1)[0]


class Tracer:
    """Records spans and per-layer counters for one traced run."""

    def __init__(self):
        # one column per span field; flat lists of numbers and shared strings
        # keep the garbage collector out of the traced passes
        self.columns = {"op": [], "name": [], "start": [], "end": [], "parent": []}
        self.op_id = None
        self._stack = []  # [span index, time covered by child spans]
        self._module_depth = defaultdict(int)
        self._pass_start = 0
        self._reset_counters()

    def _reset_counters(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.module_busy = defaultdict(float)
        self.module_self = defaultdict(float)
        self.work = defaultdict(int)
        self.warnings = defaultdict(int)
        self.dim_sum = 0
        self.states_built = 0
        self.state_keys = set()

    def current_layer(self):
        return self.columns["name"][self._stack[-1][0]] if self._stack else None

    def record_warning(self, category: type) -> None:
        kind = WARNING_KINDS.get(category.__name__)
        if kind is not None:
            self.warnings[(self.current_layer() or MAIN_LAYER, kind)] += 1

    def wrap(self, layer: str, fn):
        """Return fn with a span around every call, attributed to layer."""
        observe = _observer(layer, fn)
        module = _module(layer)
        stack, depth = self._stack, self._module_depth
        ops, names, starts, ends, parents = self.columns.values()
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            outermost = depth[module] == 0
            ops.append(self.op_id)
            names.append(layer)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            stack.append([index, 0.0])
            depth[module] += 1
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[module] -= 1
                _, child_time = stack.pop()
                ends[index] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[layer] += 1
                self.busy[layer] += duration
                self.self_time[layer] += duration - child_time
                self.module_self[module] += duration - child_time
                if outermost:
                    self.module_busy[module] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def end_pass(self) -> dict:
        """Per-layer numbers of the spans since the previous call."""
        metrics = {}
        for layer in ALL_LAYERS:
            metrics[f"{layer}.calls"] = self.calls[layer]
            metrics[f"{layer}.busy_s"] = self.busy[layer]
            metrics[f"{layer}.self_s"] = self.self_time[layer]
        for module in MODULES:
            metrics[f"{module}.busy_s"] = self.module_busy[module]
            metrics[f"{module}.self_s"] = self.module_self[module]
        for name in WORK_COUNTS.values():
            metrics[name] = self.work[name]
        metrics["resources.dim_sum"] = self.dim_sum
        metrics["resources.distinct_ratio"] = (
            len(self.state_keys) / self.states_built if self.states_built else 0.0
        )
        for layer in ALL_LAYERS:
            for kind in WARNING_KINDS.values():
                metrics[f"{layer}.{kind}"] = self.warnings[(layer, kind)]
        metrics["trace.spans"] = len(self.columns["name"]) - self._pass_start
        self._pass_start = len(self.columns["name"])
        self._reset_counters()
        return metrics


def _observer(layer: str, fn):
    """Callback that derives the layer's computed work count from a call."""
    if layer in CONSTRUCTORS:

        def observe(tracer, args, kwargs, result):
            state = result[0] if isinstance(result, tuple) else result
            tracer.dim_sum += state.dim
            tracer.states_built += 1
            # parameter objects are frozen dataclasses, so equal arguments hash equal
            tracer.state_keys.add((layer, args, tuple(sorted(kwargs.items()))))

        return observe
    if layer == "teleport.series":

        def observe(tracer, args, kwargs, result):
            dim = (args[0] if args else kwargs["resource"]).dim
            tracer.work["teleport.series.kernel_entries"] += dim * dim

        return observe
    if layer in ("teleport.radial", "teleport.grid2d", "teleport.mc"):
        signature = inspect.signature(fn)

        def observe(tracer, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            dim = bound.arguments["resource"].dim
            spec = bound.arguments["spec"]
            if layer == "teleport.radial":
                count = spec.radial_nodes * dim
            elif layer == "teleport.grid2d":
                count = spec.grid_points**2 * dim
            else:
                count = spec.mc_samples
            tracer.work[WORK_COUNTS[layer]] += count

        return observe
    return None


@contextmanager
def installed(tracer: Tracer, modules):
    """Swap the layer bindings of the given modules for traced ones."""
    saved = []
    try:
        for module in modules:
            for layer, attr in LAYERS.items():
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(layer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
