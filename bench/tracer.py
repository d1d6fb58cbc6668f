"""Per-layer tracing of the admissible package from outside its source.

The tracer wraps the public module-level functions of each layer, plus the
series kernel methods, and rebinds the wrapper under every name in the
package that bound the original (``admissible.cli`` imports
``character_direct`` by name; ``evaluate_gordon_sum`` resolves
``quadratic_exponent`` through its module global).  Each call becomes a span
carrying the case id and its parent span; spans stay in memory until the
caller collects them.  The functions in LEAVES run thousands of times per
case, so they are timed and counted into their layer without a span record.

Time spent in the tracer's own bookkeeping is excluded from span durations:
span clocks read ``perf_counter() - paused``, and every stretch of
bookkeeping adds its length to ``paused``.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("series", "configurations", "fermionic", "polyspaces", "vertexops")
LEAVES = {"quadratic_exponent", "partitions_max_parts", "TruncatedSeries.__mul__"}
# TruncatedSeries methods traced besides the module-level functions.
SERIES_METHODS = ("__mul__", "to_json_obj")

# Every counter a traced case reports, zero when the layer is idle.
COUNTERS = (
    "cli.cases",
    "configurations.configs",
    "fermionic.exponent_s",
    "fermionic.vectors_visited",
    "fermionic.vectors_kept",
    "polyspaces.basis_cols",
    "polyspaces.conditions",
    "polyspaces.capacity_skips",
    "polyspaces.expand_s",
    "polyspaces.expand_calls",
    "series.mul_s",
    "series.mul_calls",
    "series.mismatch_s",
    "series.json_s",
    "series.terms_out",
    "series.max_coeff_bits",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and per-layer totals of one process; install() starts recording."""

    def __init__(self):
        self.case = None
        self.paused = 0.0
        self.spans = []  # (id, parent id, case, layer, name, start, end)
        self.stack = []  # open frames: [id, layer, name, start, child time]
        self.next_id = 0
        self.totals = {
            layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
            for layer in ("cli",) + LAYERS
        }
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.sum_windows = []  # q_max of each open evaluate_gordon_sum
        self.partitions = None  # the unwrapped partitions_max_parts

    # -- installation -------------------------------------------------------

    def install(self, package: str = "admissible"):
        """Wrap every layer's public functions in the already imported package."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                if name == "partitions_max_parts":
                    self.partitions = fn
                wrapped = self.wrap(layer, name, fn)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapped)
        series_cls = sys.modules[f"{package}.series"].TruncatedSeries
        for name in SERIES_METHODS:
            qualname = f"TruncatedSeries.{name}"
            setattr(series_cls, name, self.wrap("series", qualname, getattr(series_cls, name)))

    def wrap(self, layer: str, name: str, fn):
        if name in LEAVES:
            return self._wrap_leaf(layer, name, fn)
        return self._wrap_span(layer, name, fn)

    def _wrap_span(self, layer, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            t_in = perf_counter()
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.next_id += 1
            frame = [tracer.next_id, layer, name, 0.0, 0.0]
            tracer.before(name, args, kwargs)
            tracer.stack.append(frame)
            t0 = perf_counter()
            tracer.paused += t0 - t_in
            frame[3] = t0 - tracer.paused
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(frame, parent, args, kwargs, None, exc)
                raise
            tracer.close(frame, parent, args, kwargs, result, None)
            return result

        return traced

    def _wrap_leaf(self, layer, name, fn):
        tracer = self
        totals = self.totals[layer]
        counters = self.counters

        def timed(*args, **kwargs):
            paused = tracer.paused
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            t1 = perf_counter()
            elapsed = t1 - t0 - (tracer.paused - paused)
            parent = tracer.stack[-1] if tracer.stack else None
            totals["self_s"] += elapsed
            if parent is None or parent[1] != layer:
                totals["busy_s"] += elapsed
                totals["calls"] += 1
            if parent is not None:
                parent[4] += elapsed
            if name == "quadratic_exponent":
                counters["fermionic.exponent_s"] += elapsed
                if tracer.sum_windows:
                    data = _arg(args, kwargs, 0, "data")
                    m = _arg(args, kwargs, 1, "m")
                    shift = result + sum(w * x for w, x in zip(data.extra_q_weights, m))
                    counters["fermionic.vectors_visited"] += 1
                    if shift <= tracer.sum_windows[-1]:
                        counters["fermionic.vectors_kept"] += 1
            elif name == "TruncatedSeries.__mul__":
                counters["series.mul_s"] += elapsed
                counters["series.mul_calls"] += 1
            tracer.paused += perf_counter() - t1
            return result

        return timed

    # -- bookkeeping --------------------------------------------------------

    def before(self, name, args, kwargs):
        if name == "evaluate_gordon_sum":
            self.sum_windows.append(_arg(args, kwargs, 1, "q_max"))

    def close(self, frame, parent, args, kwargs, result, exc):
        t1 = perf_counter()
        end = t1 - self.paused
        self.stack.pop()
        span_id, layer, name, start, child = frame
        duration = end - start
        totals = self.totals[layer]
        totals["self_s"] += duration - child
        entry = parent is None or parent[1] != layer
        if entry:
            totals["busy_s"] += duration
            totals["calls"] += 1
        if parent is not None:
            parent[4] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, self.case, layer, name, start, end)
        )
        self.count(name, args, kwargs, result, exc, duration, entry)
        self.paused += perf_counter() - t1

    def count(self, name, args, kwargs, result, exc, duration, entry):
        c = self.counters
        if name == "evaluate_gordon_sum":
            self.sum_windows.pop()
        if exc is not None:
            if name == "graded_dimension" and type(exc).__name__ == "CapacityError":
                c["polyspaces.capacity_skips"] += 1
            return
        if name == "character_direct":
            c["configurations.configs"] += sum(result.coeffs.values())
        elif name == "graded_dimension":
            spec = _arg(args, kwargs, 0, "spec")
            cols, degrees = self.basis_size(spec)
            c["polyspaces.basis_cols"] += cols
            c["polyspaces.conditions"] += degrees * len(spec.conditions)
        elif name == "expand_gordon_weight":
            c["polyspaces.expand_s"] += duration
            c["polyspaces.expand_calls"] += 1
        elif name == "first_mismatch":
            c["series.mismatch_s"] += duration
        elif name == "TruncatedSeries.to_json_obj":
            c["series.json_s"] += duration
        if entry and hasattr(result, "coeffs") and hasattr(result, "q_order"):
            c["series.terms_out"] += len(result.coeffs)
            bits = max((abs(v).bit_length() for v in result.coeffs.values()), default=0)
            c["series.max_coeff_bits"] = max(c["series.max_coeff_bits"], bits)

    def basis_size(self, spec):
        """Basis columns over all degrees, and the degrees with a nonempty basis.

        Mirrors the monomial symmetric basis of ``graded_dimension``: one
        partition per family, at most ``family_sizes[i]`` parts each.
        """
        sizes = spec.family_sizes
        cols = nonempty = 0
        for d in range(spec.degree_cap + 1):
            if len(sizes) == 1:
                n = len(self.partitions(d, sizes[0]))
            else:
                n = sum(
                    len(self.partitions(d1, sizes[0])) * len(self.partitions(d - d1, sizes[1]))
                    for d1 in range(d + 1)
                )
            cols += n
            nonempty += n > 0
        return cols, nonempty

    # -- results ------------------------------------------------------------

    def start_case(self, case_id):
        self.case = case_id
        self.counters["cli.cases"] += 1

    def summary(self) -> dict:
        """Per-layer totals and counters, flattened to metric names."""
        out = {}
        for layer, totals in self.totals.items():
            for key, value in totals.items():
                out[f"{layer}.{key}"] = value
        out.update(self.counters)
        return out
