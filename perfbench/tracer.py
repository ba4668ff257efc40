"""Outside-in span tracer over the program's modules.

Tracer.install() finds every public function and public method defined in
the traced modules, plus the few private functions a per-layer metric
names, and replaces it with a wrapper that records a span (function,
start, end, parent span).  Names bound to the same function object in any
other traced module (``from .bloch import generator_matrix``) are
replaced too, so calls are caught wherever they are looked up.
uninstall() puts every replaced attribute back.

Nothing here knows the program's call graph: a function renamed or
deleted is simply never wrapped, and metrics that need it are left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("bloch", "doppler", "fluctuations", "numerics", "model",
          "experiments", "tables", "cli")

# Private functions that a per-layer metric counts.
PRIVATE = {"numerics._quadrature_propagation_integral"}


def _class_count(result):
    """Velocity classes in a build_classes or steady_state_batch result."""
    shape = getattr(result, "shape", None)
    if shape is not None:
        return shape[0] if len(shape) == 2 else 1
    return len(result)


# Work counted at the function that does it: name -> f(result) -> classes.
WORK = {"doppler.build_classes": _class_count,
        "bloch.steady_state_batch": _class_count}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {}
        for name in LAYERS:
            try:
                self.modules[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ModuleNotFoundError:
                pass
        self.spans = []          # [name, start, end, parent index, work]
        self.wrapped = set()     # span names of the wrapped functions
        self._stack = []
        self._saved = []         # (owner, attribute, original)

    def _targets(self):
        """(owner, attribute, function, span name) for every function to wrap."""
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    yield module, attr, obj, name
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            yield obj, meth, fn, f"{layer}.{attr}.{meth}"

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[4] = work(result)
                except (TypeError, AttributeError):
                    pass
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        self.wrapped = set()
        for owner, attr, fn, name in self._targets():
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
            self.wrapped.add(name)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
        owners = [self.package, *self.modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, hit[1])
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, counted work."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    for k, (name, start, end, parent, work) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[k]
        if work is not None:
            entry["work"] += work
    return dict(out)


def layer_metrics(summary, wrapped, rows: int):
    """Per-layer metrics from a span summary over `rows` sweep rows.

    `wrapped` is the set of span names the tracer wrapped; a metric whose
    function was not wrapped (renamed or deleted) is left out.
    """
    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def have(*names):
        return all(n in wrapped for n in names)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    layers = {name.split(".", 1)[0] for name in wrapped}
    for layer in LAYERS:
        if layer in layers:
            self_s = sum(e["self_s"] for n, e in summary.items()
                         if n.split(".", 1)[0] == layer)
            put(f"{layer}.self_ms", 1e3 * self_s / rows, "ms/row")

    solved = "bloch.steady_state_batch"
    classes = stat(solved, "work")

    def per_class(name, key="total_s"):
        return 1e6 * stat(name, key) / classes if classes else 0.0

    def per_call(name, scale):
        calls = stat(name, "calls")
        return scale * stat(name, "total_s") / calls if calls else 0.0

    if have(solved):
        for fn in ("generator_matrix", "steady_state_batch", "absorption_exact_batch"):
            if have(f"bloch.{fn}"):
                put(f"bloch.{fn}.us_per_class", per_class(f"bloch.{fn}"), "us")
        put("bloch.classes_solved", classes / rows, "count/row")
        for fn in ("coupling_batch", "diffusion_correlator_batch"):
            if have(f"fluctuations.{fn}"):
                put(f"fluctuations.{fn}.us_per_class",
                    per_class(f"fluctuations.{fn}"), "us")
        if have("fluctuations.field_system_at"):
            put("fluctuations.field_system_at.self_us_per_class",
                per_class("fluctuations.field_system_at", "self_s"), "us")
    if have("fluctuations.propagate"):
        put("fluctuations.propagate.us_per_row",
            1e6 * stat("fluctuations.propagate", "total_s") / rows, "us")
    if have("doppler.build_classes"):
        put("doppler.classes_per_row", stat("doppler.build_classes", "work") / rows,
            "count/row")
    if have("doppler.average"):
        put("doppler.average.calls_per_row", stat("doppler.average", "calls") / rows,
            "count/row")
    if have("numerics.propagation_integral"):
        put("numerics.propagation_integral.us_per_call",
            per_call("numerics.propagation_integral", 1e6), "us")
    if have("numerics.matrix_exponential"):
        put("numerics.matrix_exponential.calls_per_row",
            stat("numerics.matrix_exponential", "calls") / rows, "count/row")
    if have("numerics.propagation_integral", "numerics._quadrature_propagation_integral"):
        attempts = stat("numerics.propagation_integral", "calls")
        fallbacks = stat("numerics._quadrature_propagation_integral", "calls")
        put("numerics.propagation_fallback_frac",
            fallbacks / attempts if attempts else 0.0, "1")
    if have("model.derive_couplings"):
        put("model.derive_couplings.calls_per_row",
            stat("model.derive_couplings", "calls") / rows, "count/row")
    if have("experiments.pump_sweep_transform"):
        put("experiments.pump_sweep_transform.us_per_call",
            per_call("experiments.pump_sweep_transform", 1e6), "us")
    writers = [n for n in wrapped if n.startswith("tables.") and n.endswith(".write_csv")]
    if writers:
        calls = sum(stat(n, "calls") for n in writers)
        total = sum(stat(n, "total_s") for n in writers)
        put("tables.write_csv.ms", 1e3 * total / calls if calls else 0.0, "ms")
    return metrics
