"""Per-layer tracing of monoinv from outside the program.

`Tracer.install()` replaces, in every `monoinv.*` namespace that binds them,
the public functions of the layer modules with timing wrappers, and patches
the public methods, properties and operators of the layer classes in place.
It also counts `fractions.Fraction` arithmetic and comparisons.  Nothing in
the program is edited; an untraced run installs nothing.

Every wrapped call is a frame.  Its self time is its duration minus the
time of the wrapped calls (and Fraction operations) it made, so self times
partition the traced time.  A layer's self time is the sum over the frames
of its functions; private helpers count toward the function that calls
them.  Spans (name, start, end, parent, op id) are kept in memory for
calls that cross a layer boundary, up to a cap, and written out at the end.
"""

from __future__ import annotations

import fractions
import functools
import gzip
import inspect
import sys
import time

from array import array
from enum import Enum

LAYERS = ("cli", "serialize", "laws", "unimodal", "measure", "monotone", "intervals",
          "exactnum")
STAGES = ("parse", "build", "analyse", "emit", "other")

_PARSE, _BUILD, _ANALYSE, _EMIT, _OTHER = range(5)

# Calls that open a CLI stage; a frame without a tag inherits its caller's.
STAGE_OF = {
    "cli._load_json": _PARSE,
    "cli.read_samples": _PARSE,
    "cli.samples_to_spec": _PARSE,
    "cli.spec_to_measure": _PARSE,
    "measure.PiecewiseMeasure.__init__": _BUILD,
    "measure.distribution_function": _BUILD,
    "unimodal.classify": _ANALYSE,
    "unimodal.quantile_density": _ANALYSE,
    "monotone.generalized_inverse": _ANALYSE,
    "measure.lebesgue_decompose": _ANALYSE,
    "measure.density": _ANALYSE,
    "cli._interval_block": _ANALYSE,
    "laws.run_law": _ANALYSE,
    "cli._emit": _EMIT,
    "cli._classification_block": _EMIT,
    "serialize.er_to_str": _EMIT,
    "serialize.interval_to_json": _EMIT,
    "serialize.monotone_to_json": _EMIT,
    "serialize.measure_to_spec_json": _EMIT,
    "serialize.step_to_json": _EMIT,
    "serialize.modal_to_json": _EMIT,
}

# Private cli helpers wrapped only so that the stages above can be timed.
_PRIVATE_CLI = ("_load_json", "_emit", "_interval_block", "_classification_block")

_CLASS_DUNDERS = ("__init__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__add__",
                  "__sub__", "__neg__")

_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__",
    "__ge__",
)


class Tracer:
    """Collects calls, self and inclusive time per wrapped name, stage times,
    Fraction operation counts and a capped span log."""

    def __init__(self, span_cap: int = 200_000):
        self.names: list[str] = []
        self.key_of: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.stage_ns = [0] * len(STAGES)
        self.fraction = [0, 0, False]  # ops, ns, inside an op
        # frame: [child_ns, stage, layer, span id]
        self.stack: list[list] = [[0, _OTHER, "bench", -1]]
        self.op_id = -1
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._patched: set[int] = set()
        self._op_key = self._key("bench.op", "bench")

    # -- registry -----------------------------------------------------------

    def _key(self, name: str, layer: str) -> int:
        self.key_of[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.incl_ns.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        key = self._key(name, layer)
        stage = STAGE_OF.get(name, -1)
        calls, self_ns, incl_ns, stage_ns = self.calls, self.self_ns, self.incl_ns, self.stage_ns
        stack = self.stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op
        cap = self.span_cap
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            stg = parent[1] if stage < 0 else stage
            sid = -2
            if parent[2] != layer:
                if len(span_name) < cap:
                    sid = len(span_name)
                else:
                    tracer.spans_dropped += 1
            frame = [0, stg, layer, parent[3] if sid == -2 else sid]
            stack.append(frame)
            t0 = clock()
            if sid >= 0:
                span_name.append(key)
                span_start.append(t0)
                span_end.append(0)
                span_parent.append(parent[3])
                span_op.append(tracer.op_id)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[key] += 1
                incl_ns[key] += dur
                own = dur - frame[0]
                self_ns[key] += own
                stage_ns[stg] += own
                if sid >= 0:
                    span_end[sid] = t1

        return traced

    def _wrap_fraction_op(self, fn):
        counter = self.fraction
        stack, stage_ns = self.stack, self.stage_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*args):
            if counter[2]:
                return fn(*args)
            counter[2] = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                counter[2] = False
                counter[0] += 1
                counter[1] += dur
                parent = stack[-1]
                parent[0] += dur
                stage_ns[parent[1]] += dur

        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the already imported monoinv package."""
        import monoinv.cli  # noqa: F401  (loads every layer)

        modules = {name: sys.modules[f"monoinv.{name}"] for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "monoinv" or n.startswith("monoinv."))]
        replacement: dict[int, object] = {}

        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                selected = not attr.startswith("_") or (layer == "cli" and attr in _PRIVATE_CLI)
                if inspect.isfunction(obj) and selected:
                    replacement[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._patch_class(obj, layer)

        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = replacement.get(id(obj))
                if new is not None:
                    setattr(ns, attr, new)

        # click binds the command callbacks in its own objects
        cli = modules["cli"]
        for command in cli.main.commands.values():
            command.callback = self._wrap(command.callback, f"cli.{command.callback.__name__}",
                                          "cli")

        for attr in _FRACTION_OPS:
            fn = fractions.Fraction.__dict__.get(attr)
            if fn is not None:
                setattr(fractions.Fraction, attr, self._wrap_fraction_op(fn))

    def _patch_class(self, cls, layer: str) -> None:
        if issubclass(cls, (BaseException, Enum)) or id(cls) in self._patched:
            return
        self._patched.add(id(cls))
        for attr, val in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, property) and not attr.startswith("_"):
                setattr(cls, attr, property(self._wrap(val.fget, name, layer), val.fset,
                                            val.fdel, val.__doc__))
            elif inspect.isfunction(val) and (attr in _CLASS_DUNDERS or not attr.startswith("_")):
                setattr(cls, attr, self._wrap(val, name, layer))

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        root = [0, _OTHER, "bench", -1]
        if len(self.span_name) < self.span_cap:
            root[3] = len(self.span_name)
            self.span_name.append(self._op_key)
            self.span_start.append(time.perf_counter_ns())
            self.span_end.append(0)
            self.span_parent.append(-1)
            self.span_op.append(op_id)
        self.stack.append(root)

    def end_op(self, duration_ns: int) -> None:
        root = self.stack.pop()
        own = duration_ns - root[0]
        self.calls[self._op_key] += 1
        self.incl_ns[self._op_key] += duration_ns
        self.self_ns[self._op_key] += own
        self.stage_ns[_OTHER] += own
        if root[3] >= 0:
            self.span_end[root[3]] = self.span_start[root[3]] + duration_ns

    def count(self, name: str) -> int:
        """Calls so far of one wrapped name (0 if the program has no such name)."""
        key = self.key_of.get(name)
        return 0 if key is None else self.calls[key]

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        per_name = {
            name: {"layer": layer, "calls": calls, "self_ns": own, "incl_ns": incl}
            for name, layer, calls, own, incl in zip(self.names, self.layer_of, self.calls,
                                                     self.self_ns, self.incl_ns)
        }
        layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS + ("bench",)}
        for entry in per_name.values():
            layers[entry["layer"]]["calls"] += entry["calls"]
            layers[entry["layer"]]["self_ns"] += entry["self_ns"]
        ops, ns = self.fraction[0], self.fraction[1]
        layers["exactnum"]["calls"] += ops
        layers["exactnum"]["self_ns"] += ns
        return {
            "functions": per_name,
            "layers": layers,
            "stages_ns": dict(zip(STAGES, self.stage_ns)),
            "fraction_ops": ops,
            "fraction_ns": ns,
            "spans": len(self.span_name),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\n")
