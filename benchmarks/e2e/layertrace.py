"""Host-time spans around each layer's public entry points.

The traced pass of the end-to-end benchmark wraps, on the benchmark's own
instances only, the calls through which one layer enters another.  No file
of the program changes: the wrappers are instance attributes that shadow
the class methods, installed before the layer that calls them is built.

Every span records its layer, a name, host start/end (``perf_counter``),
its parent span and the benchmark op it belongs to, in flat arrays that
stay in memory until the benchmark ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans; the
time no span covers is the harness's own (layer ``other``).

Work the engine dispatches is labelled with the module that defined it:

* ``Engine.process`` wraps the generator in a forwarding generator that
  times each step (send/throw) under the generator function's module;
* ``Engine.schedule_fn`` times each callback under the callback's module;
* ``Engine.add_flush_hook`` times each hook call (the fabric's deferred
  max-min solve, the service's expiry sweep);
* ``Engine.run`` itself is a ``sim.engine`` span, so event-loop overhead
  and callbacks that no other span covers count as ``sim.engine``.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

#: Layers, named after the program's packages.  ``other`` is the harness,
#: the standard library and numpy outside any layer's span.
LAYERS = (
    "runtime", "core", "ucx", "gpu", "sim.engine", "sim.fabric", "obs", "mpi",
    "other",
)

#: Module prefix -> layer.  First match wins, so ``repro.sim.engine`` must
#: precede the ``repro.sim`` catch-all (fabric, faults, noise, links).
_MODULE_LAYERS = (
    ("repro.runtime", "runtime"),
    ("repro.core", "core"),
    ("repro.topology", "core"),
    ("repro.ucx", "ucx"),
    ("repro.gpu", "gpu"),
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim", "sim.fabric"),
    ("repro.obs", "obs"),
    ("repro.mpi", "mpi"),
)

#: FlightRecorder methods the transport calls to record (layer ``obs``).
_RECORDER_METHODS = ("begin_trace", "begin", "finish", "record", "record_path", "settle")


def layer_of(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanTracer:
    """In-memory span store with running self-time accounting."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # name id -> (layer, name)
        self._ids: dict[tuple[str, str], int] = {}
        self._by_callable: dict = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.self_s: list[float] = []  # per name id
        self.incl_s: list[float] = []
        self.calls: list[int] = []
        self._stack: list[list] = []  # [span index, child seconds]
        #: Benchmark op the next spans belong to (set by the harness).
        self.op_id = -1

    def reset(self) -> None:
        """Drop recorded spans and totals (e.g. those of the warm-up)."""
        for arr in (self.name_ix, self.start, self.end, self.parent, self.op):
            del arr[:]
        n = len(self.names)
        self.self_s, self.incl_s, self.calls = [0.0] * n, [0.0] * n, [0] * n
        self.op_id = -1

    # ------------------------------------------------------------------
    def intern(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self.names)
            self._ids[key] = nid
            self.names.append(key)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.calls.append(0)
        return nid

    def _callable_id(self, fn, prefix: str) -> int:
        """Name id for a callback, keyed by its underlying function."""
        func = getattr(fn, "__func__", fn)
        nid = self._by_callable.get(func)
        if nid is None:
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", type(func).__name__)
            nid = self.intern(layer_of(module), prefix + qualname)
            self._by_callable[func] = nid
        return nid

    def _enter(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _leave(self, frame: list) -> None:
        t = perf_counter()
        idx = frame[0]
        stack = self._stack
        stack.pop()
        d = t - self.start[idx]
        self.end[idx] = t
        nid = self.name_ix[idx]
        self.self_s[nid] += d - frame[1]
        self.incl_s[nid] += d
        self.calls[nid] += 1
        if stack:
            stack[-1][1] += d

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str, name: str):
        """``fn`` timed as one span per call."""
        nid = self.intern(layer, name)
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def steps(self, gen, nid: int):
        """Forwarding generator: one span per step of ``gen``."""
        enter, leave = self._enter, self._leave
        send, throw = gen.send, gen.throw
        value = None
        exc = None
        while True:
            frame = enter(nid)
            try:
                target = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                leave(frame)
                return stop.value
            except BaseException:
                leave(frame)
                raise
            leave(frame)
            try:
                value = yield target
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into the wrapped generator
                value, exc = None, err

    def _run_callback(self, packed) -> None:
        fn, arg, nid = packed
        frame = self._enter(nid)
        try:
            fn(arg)
        finally:
            self._leave(frame)

    # ------------------------------------------------------------------
    def instrument_engine(self, engine) -> None:
        """Wrap the engine's scheduling calls; call before any layer is
        built on ``engine`` so every registration goes through them."""
        process = engine.process
        schedule_fn = engine.schedule_fn
        add_flush_hook = engine.add_flush_hook
        by_code: dict = {}

        def traced_process(generator, name=""):
            code = generator.gi_code
            nid = by_code.get(code)
            if nid is None:
                module = generator.gi_frame.f_globals.get("__name__", "")
                nid = self.intern(layer_of(module), "step:" + generator.__qualname__)
                by_code[code] = nid
            return process(self.steps(generator, nid), name or generator.__name__)

        def traced_schedule_fn(at, fn, arg=None):
            return schedule_fn(
                at, self._run_callback, (fn, arg, self._callable_id(fn, "cb:"))
            )

        def traced_add_flush_hook(hook):
            nid = self._callable_id(hook, "flush:")
            layer, name = self.names[nid]
            add_flush_hook(self.wrap(hook, layer, name))

        engine.process = traced_process
        engine.schedule_fn = traced_schedule_fn
        engine.add_flush_hook = traced_add_flush_hook
        engine.run = self.wrap(engine.run, "sim.engine", "Engine.run")

    def instrument_context(self, ctx) -> None:
        """Wrap the public entry points of a built context's layers."""
        targets = (
            (ctx.transfers, "runtime", "TransferManager", ("submit",)),
            (ctx.planner, "core", "PathPlanner", ("plan", "plan_for_paths")),
            (ctx.graphs, "core", "GraphCache", ("get", "compile_and_store")),
            (ctx.pipeline, "ucx", "PipelineEngine", ("execute", "execute_settled")),
            (ctx.runtime.fabric, "sim.fabric", "Fabric", ("copy",)),
            (ctx.runtime, "gpu", "GPURuntime", ("open_ipc",)),
            (ctx.flight, "obs", "FlightRecorder", _RECORDER_METHODS),
        )
        for obj, layer, cls, methods in targets:
            for method in methods:
                setattr(
                    obj, method,
                    self.wrap(getattr(obj, method), layer, f"{cls}.{method}"),
                )

    # ------------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (``other`` excluded: it is the remainder
        of the traced pass's total, computed by the caller)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), s in zip(self.names, self.self_s):
            out[layer] += s
        return out

    def mean_incl_us(self, *names: str) -> float:
        """Mean inclusive µs per call of spans named ``names`` (0 if none)."""
        calls = total = 0.0
        for (_layer, n), c, t in zip(self.names, self.calls, self.incl_s):
            if n in names:
                calls += c
                total += t
        return total / calls * 1e6 if calls else 0.0

    def __len__(self) -> int:
        return len(self.start)

    def write_jsonl(self, path, t0: float) -> None:
        """A header line naming the fields and the ``[layer, name]`` table,
        then one JSON array per span (id = line number - 2, times in µs
        relative to ``t0``, parent -1 for a root span)."""
        start, end, name_ix, parent, op = (
            self.start, self.end, self.name_ix, self.parent, self.op
        )
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "fields": ["id", "name", "start_us", "end_us", "parent", "op"],
                "names": self.names,
            }) + "\n")
            for i in range(len(start)):
                fh.write(
                    f"[{i},{name_ix[i]},{(start[i] - t0) * 1e6:.3f},"
                    f"{(end[i] - t0) * 1e6:.3f},{parent[i]},{op[i]}]\n"
                )


__all__ = ["LAYERS", "SpanTracer", "layer_of"]
