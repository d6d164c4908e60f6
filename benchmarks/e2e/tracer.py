"""Outside-in layer tracing: timing proxies with a span stack.

The program under test is not edited. Every layer boundary the stack
reads per call (``oram.sink``, ``oram.ext``, ``oram.datastore``,
``datastore.engine``, ``datastore.integrity``) is replaced, after the
stack is built, by a forwarding :class:`LayerProxy`; bound methods the
callers look up per call (``oram.access``, ``kv.get``,
``scheduler.serve_batch``, ``Simulation.step``) are shadowed by timed
instance attributes. ``TracingSink`` and ``FaultyMemory`` are the
in-repo precedent for both moves.

A span's *self time* is its duration minus the part its child spans
cover, so the layers of one traced run sum to its traced wall time.
Every span is aggregated; raw spans (layer, start, end, parent, op id)
are kept in memory for the first :data:`RAW_OPS` operations only and
written out as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

#: Raw spans are kept for this many operations (steps / scheduling
#: rounds); everything after is aggregated only.
RAW_OPS = 200

_MISSING = object()

_OP_KIND_METRIC = {
    "readPath": "readpath_s",
    "evictPath": "evictpath_s",
    "earlyReshuffle": "reshuffle_s",
    "background": "background_s",
    "recovery": "recovery_s",
}


class Tracer:
    """Span stack + per-layer aggregates for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer -> [self seconds, span count]
        self.layers: Dict[str, List[float]] = {}
        #: (layer, method) -> call count, for per-method counters.
        self.method_calls: Dict[str, int] = {}
        #: OpKind value -> host seconds between begin_op and end_op.
        self.op_kind_s: Dict[str, float] = {}
        #: Host seconds of each operation (weighted: a batch span of n
        #: requests contributes n samples of duration / n).
        self.op_durations: List[float] = []
        self.raw: List[tuple] = []
        self.op_id = -1
        # Open frames: [layer, start, child seconds, raw parent index].
        self._stack: List[list] = []
        self._bracket: Optional[tuple] = None
        # (object, attribute, previous instance value) of every seam
        # replaced, so the run can put the program back as built.
        self._patched: List[tuple] = []

    # ------------------------------------------------------------ spans

    def enter(self, layer: str) -> list:
        frame = [layer, self.clock(), 0.0, -1]
        if self.op_id < RAW_OPS:
            # Reserve the raw slot now so children can name their parent.
            frame[3] = len(self.raw)
            parent = self._stack[-1][3] if self._stack else -1
            self.raw.append((layer, frame[1], frame[1], parent, self.op_id))
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(
                f"span stack corrupted: closing {frame[0]} under {top[0]}"
            )
        layer, start, child, slot = frame
        duration = end - start
        agg = self.layers.get(layer)
        if agg is None:
            agg = self.layers[layer] = [0.0, 0]
        agg[0] += duration - child
        agg[1] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if slot >= 0:
            _, _, _, parent, op = self.raw[slot]
            self.raw[slot] = (layer, start, end, parent, op)
        return duration

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    def wrap(self, fn: Callable, layer: str, name: str = "") -> Callable:
        """A timed stand-in for ``fn`` attributed to ``layer``."""
        enter, leave = self.enter, self.exit
        calls = self.method_calls
        key = f"{layer}.{name or getattr(fn, '__name__', 'call')}"
        calls.setdefault(key, 0)

        def timed(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        timed.__wrapped__ = fn          # type: ignore[attr-defined]
        return timed

    def wrap_op(
        self, fn: Callable, layer: str,
        weight: Callable[..., int] = lambda *a, **k: 1,
    ) -> Callable:
        """Like :meth:`wrap`, for the call that *is* one operation.

        Advances the op id (raw spans carry it) and records the host
        duration per operation; ``weight`` says how many operations one
        call serves (a scheduling round serves its whole batch).
        """
        durations = self.op_durations

        def timed(*args: Any, **kwargs: Any) -> Any:
            self.op_id += 1
            frame = self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.exit(frame)
                n = max(1, weight(*args, **kwargs))
                durations.extend([duration / n] * n)

        timed.__wrapped__ = fn          # type: ignore[attr-defined]
        return timed

    # ---------------------------------------------------------- patching

    def patch(self, obj: Any, name: str, value: Any) -> None:
        """Replace ``obj.name`` for the traced section (see :meth:`unpatch`)."""
        self._patched.append((obj, name, vars(obj).get(name, _MISSING)))
        setattr(obj, name, value)

    def unpatch(self) -> None:
        """Restore every patched seam: later calls are not traced."""
        for obj, name, previous in reversed(self._patched):
            if previous is _MISSING:
                delattr(obj, name)      # uncover the class's own method
            else:
                setattr(obj, name, previous)
        self._patched.clear()

    # ------------------------------------------------------ op brackets

    def bracket_begin(self, kind: Any) -> None:
        self._bracket = (str(kind), self.clock())

    def bracket_end(self) -> None:
        if self._bracket is None:
            return
        kind, start = self._bracket
        self._bracket = None
        self.op_kind_s[kind] = (
            self.op_kind_s.get(kind, 0.0) + self.clock() - start
        )

    # ---------------------------------------------------------- queries

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, (0.0, 0))[0]

    def calls(self, layer: str) -> int:
        return int(self.layers.get(layer, (0.0, 0))[1])

    def layer_sum_s(self) -> float:
        return sum(agg[0] for agg in self.layers.values())

    def op_kind_metrics(self) -> Dict[str, float]:
        """``ring.<kind>_s`` wall between sink op brackets, every kind."""
        return {
            f"ring.{metric}": self.op_kind_s.get(kind, 0.0)
            for kind, metric in _OP_KIND_METRIC.items()
        }

    def chrome_trace(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The kept raw spans as a Chrome/Perfetto trace-event document."""
        if not self.raw:
            return {"traceEvents": [], "metadata": meta or {}}
        t0 = min(start for _, start, _, _, _ in self.raw)
        events = [
            {
                "name": layer, "cat": "layer", "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op, "parent": parent},
            }
            for layer, start, end, parent, op in self.raw
        ]
        return {"traceEvents": events, "metadata": meta or {}}

    def write_chrome_trace(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(meta), f)
            f.write("\n")


class _Span:
    """``with tracer.span(layer):`` around a call made by the harness."""

    __slots__ = ("_tracer", "_layer", "_frame")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self._tracer = tracer
        self._layer = layer
        self._frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.enter(self._layer)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.exit(self._frame)


class LayerProxy:
    """Forward everything to ``inner``; time every public method call.

    Attribute reads and writes reach the wrapped object (so
    ``proxy.armed = True`` or ``proxy.now`` behave as before), public
    callables come back wrapped in a span of ``layer`` (cached on the
    proxy, so a hot method costs one instance-dict hit), and whatever
    the callee raises propagates unchanged after the span is closed.
    """

    def __init__(self, inner: Any, layer: str, tracer: Tracer) -> None:
        object.__setattr__(self, "_proxy_inner", inner)
        object.__setattr__(self, "_proxy_layer", layer)
        object.__setattr__(self, "_proxy_tracer", tracer)

    def __getattr__(self, name: str) -> Any:
        inner = object.__getattribute__(self, "_proxy_inner")
        value = getattr(inner, name)
        if name.startswith("_") or not callable(value):
            return value
        tracer = object.__getattribute__(self, "_proxy_tracer")
        layer = object.__getattribute__(self, "_proxy_layer")
        timed = tracer.wrap(value, layer, name)
        object.__setattr__(self, name, timed)
        return timed

    def __setattr__(self, name: str, value: Any) -> None:
        # A cached timed method would otherwise shadow the new value.
        self.__dict__.pop(name, None)
        setattr(object.__getattribute__(self, "_proxy_inner"), name, value)


class SinkProxy(LayerProxy):
    """A :class:`LayerProxy` for the memory sink that also clocks the
    controller's ``begin_op``/``end_op`` brackets by operation kind."""

    def __init__(self, inner: Any, layer: str, tracer: Tracer) -> None:
        super().__init__(inner, layer, tracer)
        begin = tracer.wrap(inner.begin_op, layer, "begin_op")
        end = tracer.wrap(inner.end_op, layer, "end_op")

        def begin_op(kind: Any) -> None:
            tracer.bracket_begin(kind)
            begin(kind)

        def end_op() -> None:
            end()
            tracer.bracket_end()

        object.__setattr__(self, "begin_op", begin_op)
        object.__setattr__(self, "end_op", end_op)


# ------------------------------------------------------------ installation

#: Layer names are the repo's module names.
L_REPLAY = "serve.replay"
L_SCHEDULER = "serve.scheduler"
L_KV = "app.kvstore"
L_RING = "oram.ring"
L_REMOTE = "core.remote"
L_DATASTORE = "oram.datastore"
L_ENGINE = "crypto.engine"
L_INTEGRITY = "crypto.integrity"
L_MEM = "mem"
L_SIM = "sim.engine"


def instrument_oram(oram: Any, tracer: Tracer, datastore: Any = None) -> None:
    """Install proxies on one controller's seams.

    ``datastore`` is the :class:`EncryptedTreeStore` itself (the
    controller may hold a ``FaultyMemory`` around it); its crypto
    engine and Merkle tree become layers of their own.
    """
    patch = tracer.patch
    patch(oram, "sink", SinkProxy(oram.sink, L_MEM, tracer))
    if oram.ext is not None:
        patch(oram, "ext", LayerProxy(oram.ext, L_REMOTE, tracer))
    if oram.datastore is not None:
        patch(oram, "datastore",
              LayerProxy(oram.datastore, L_DATASTORE, tracer))
    if datastore is not None:
        patch(datastore, "engine",
              LayerProxy(datastore.engine, L_ENGINE, tracer))
        if datastore.integrity is not None:
            patch(datastore, "integrity",
                  LayerProxy(datastore.integrity, L_INTEGRITY, tracer))
    for name in ("access", "flush_recovery"):
        patch(oram, name, tracer.wrap(getattr(oram, name), L_RING, name))


def instrument_kv(kv: Any, tracer: Tracer) -> None:
    for name in ("get", "put", "delete", "resident_value"):
        tracer.patch(kv, name, tracer.wrap(getattr(kv, name), L_KV, name))


def instrument_scheduler(scheduler: Any, tracer: Tracer) -> None:
    tracer.patch(scheduler, "serve_batch", tracer.wrap_op(
        scheduler.serve_batch, L_SCHEDULER, weight=lambda batch: len(batch),
    ))


def instrument_simulation(sim: Any, tracer: Tracer) -> None:
    instrument_oram(sim.oram, tracer, datastore=sim.datastore)
    tracer.patch(sim, "step", tracer.wrap_op(sim.step, L_SIM))
