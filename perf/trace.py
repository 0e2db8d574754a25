"""Span tracing from outside the program.

:class:`Tracer` wraps each layer's public entry points for the length
of a ``with tracer.installed():`` block — the ``FileSystemClient``
methods of every client class, ``repro.rpc.call``, ``RpcServer`` handler
dispatch, ``Network.transfer``, ``Disk.io`` and ``run_episode`` — and
records one span per call: name, layer, unit id, simulated start and
end, and the parent span.  Spans stay in memory;
:func:`write_chrome_trace` writes them out when the run ends.

The parent of a span is the enclosing wrapped call in the same
simulation process.  It is found on the Python stack: a ``yield from``
chain *is* the stack while it runs, so the nearest frame of
:meth:`Tracer._run` above a call is its cause.  Work handed to another
simulation process (a client's parallel block fetches, an RPC attempt
under a retry timer) starts a new stack and hangs off the unit's root;
linking those needs context carried inside the program.

A wrapper adds one generator frame per call and schedules nothing, so
the simulation is unchanged (``perf/tests/test_trace_neutral.py``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

from repro import rpc
from repro.sim.disk import Disk
from repro.sim.network import Network
from repro.vfs.api import FileSystemClient

from perf import phases
from perf.layers import layer_of_module
from perf.phases import APP_OPS

__all__ = ["Span", "Tracer", "self_times", "write_chrome_trace"]


class Span:
    """One wrapped call: ``start``/``end`` in simulated seconds."""

    __slots__ = ("name", "layer", "unit", "start", "end", "parent", "kind", "detail")

    def __init__(self, name, layer, unit, parent, kind, detail=""):
        self.name = name
        self.layer = layer
        self.unit = unit
        self.start = self.end = 0.0
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.kind = kind  # "op" | "rpc" | "handler" | "transfer" | "disk" | "episode"
        self.detail = detail


def _client_classes():
    """Every class that implements part of ``FileSystemClient``."""
    seen, todo = [], list(FileSystemClient.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for base in cls.__mro__:
            if (
                base.__module__.startswith("repro.")
                and base is not FileSystemClient
                and base not in seen
            ):
                seen.append(base)
    return seen


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = ""
        self._episode = -1  # open run_episode span: the root of its children
        self._open: dict[int, object] = {}  # unfinished span -> its simulator

    # -- recording -----------------------------------------------------------
    def _parent(self) -> int:
        frame = sys._getframe(2)
        code = Tracer._run.__code__
        while frame is not None:
            if frame.f_code is code:
                return frame.f_locals["index"]
            frame = frame.f_back
        return self._episode

    def _run(self, gen, span, sim):
        """Drive ``gen`` as the body of ``span``."""
        spans = self.spans
        index = len(spans)  # noqa: F841 - read by _parent() through the frame
        spans.append(span)
        span.start = span.end = sim.now
        self._open[index] = sim
        try:
            return (yield from gen)
        finally:
            if self._open.pop(index, None) is not None:
                span.end = sim.now

    def _wrap(self, func, kind, layer, describe):
        """``func`` returns a generator; ``describe(*args)`` → (sim, name, detail)."""
        tracer = self

        def wrapper(*args, **kwargs):
            sim, name, detail = describe(*args, **kwargs)
            span = Span(name, layer, tracer.unit, tracer._parent(), kind, detail)
            return tracer._run(func(*args, **kwargs), span, sim)

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation --------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap the entry points; the originals return on exit, raise or not."""
        saved: list = []

        def patch(owner, name, replacement):
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)

        try:
            for cls in _client_classes():
                layer = layer_of_module(cls.__module__)
                for op in APP_OPS:
                    func = cls.__dict__.get(op)
                    if callable(func):
                        patch(cls, op, self._wrap(
                            func, "op", layer,
                            lambda self_, *a, _op=op, **k: (self_.node.sim, _op, ""),
                        ))
            patch(rpc, "call", self._wrap(
                rpc.call, "rpc", "rpc",
                lambda node, server, proc, *a, **k: (node.sim, f"rpc:{proc}", server.name),
            ))
            handler_of = rpc.RpcServer.handler
            tracer = self

            def traced_handler(server, proc):
                handler = handler_of(server, proc)
                return tracer._wrap(
                    handler, "handler", layer_of_module(handler.__module__),
                    lambda *a, **k: (server.sim, f"handle:{proc}", server.name),
                )

            patch(rpc.RpcServer, "handler", traced_handler)
            patch(Network, "transfer", self._wrap(
                Network.transfer, "transfer", "sim.network",
                lambda net, src, dst, nbytes: (net.sim, "transfer", f"{src}>{dst}"),
            ))
            patch(Disk, "io", self._wrap(
                Disk.io, "disk", "sim.disk",
                lambda disk, offset, nbytes, write: (
                    disk.sim, "io:write" if write else "io:read", disk.name
                ),
            ))
            run_episode = phases.run_episode

            def traced_episode(program, arch, *args, **kwargs):
                # Each episode has its own simulator and clock: give it
                # its own track.
                unit = tracer.unit
                tracer.unit = f"{unit}/{arch}"
                span = Span(f"episode:{arch}", "check", tracer.unit, -1, "episode",
                            f"seed {program.seed}")
                tracer._episode = len(tracer.spans)
                tracer.spans.append(span)
                try:
                    result = run_episode(program, arch, *args, **kwargs)
                    span.end = result.stats.get("sim_time", 0.0)
                    return result
                finally:
                    tracer._episode = -1
                    tracer.unit = unit

            # The benchmark reaches run_episode through the name
            # ``perf.phases`` bound at import.
            patch(phases, "run_episode", traced_episode)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
            # Calls still in flight when the phase ended (a daemon's
            # flusher parked on its disk) end here, and say so.
            for index, sim in self._open.items():
                self.spans[index].end = sim.now
                self.spans[index].detail += " (unfinished)"
            self._open.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: Σ over its spans of duration minus what children cover.

    Children of one span may overlap each other (legs of one RPC), so
    the covered part is the union of their intervals clipped to the
    parent, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.layer] = out.get(span.layer, 0.0) + (span.end - span.start) - covered
    return out


def write_chrome_trace(spans: list[Span], path) -> None:
    """Write ``spans`` as Chrome trace-event JSON (Perfetto loads it).

    One trace process per unit (per episode for torture).  Within it a
    root span, or a direct child of an episode, takes the first lane
    that is free at its start; its descendants share that lane, where
    they nest inside it.  A span's record is spread over its event:
    ``name``, ``cat`` (the layer), ``ts``/``dur`` (simulated start and
    duration, in microseconds), and in ``args`` its ``id``, its
    ``parent``'s id (-1 for a root), its ``unit`` and a ``detail``.
    """
    units = {u: i + 1 for i, u in enumerate(dict.fromkeys(s.unit for s in spans))}
    lane_ends: dict[str, list[float]] = {}
    lanes: list[int] = []
    for span in spans:  # parents precede children: spans are in begin order
        if span.parent >= 0 and spans[span.parent].kind != "episode":
            lanes.append(lanes[span.parent])
            continue
        ends = lane_ends.setdefault(span.unit, [])
        for lane, end in enumerate(ends):
            if end <= span.start:
                break
        else:
            lane = len(ends)
            ends.append(0.0)
        ends[lane] = max(span.end, span.start)
        lanes.append(lane)
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": unit}}
        for unit, pid in units.items()
    ]
    for index, span in enumerate(spans):
        args = {"id": index, "parent": span.parent, "unit": span.unit}
        if span.detail:
            args["detail"] = span.detail
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": units[span.unit],
            "tid": lanes[index],
            "args": args,
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, separators=(",", ":"))
