"""Span-based tracing: what every layer was doing, on a timeline.

A :class:`SpanCollector` installed around simulated activity records
one span per interesting unit of work — a client ``read``/``write``/
``fsync``, each RPC attempt, the server-side handler execution, each
disk request — and exports them in the Chrome trace-event JSON format,
so a run can be dropped into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` and read as a flame chart::

    from repro.obs import SpanCollector

    with SpanCollector(sim) as spans:
        sim.run(until=proc)
    spans.write_chrome_trace("run.trace.json")

Tracing from outside: while installed, the collector wraps a fixed
table of entry points (:meth:`SpanCollector._wrappers`: the NFS client
ops, RPC attempts and handlers, disk requests, storage flushes) and
restores them on exit, raise or not.  The product imports nothing from
here, so untraced it runs no tracing code, and a wrapper schedules
nothing, so a traced run keeps the untraced event schedule.

Tracks: each span carries a ``track`` (rendered as the Chrome "pid",
one per node or component) and a lane within it (the "tid"), held by
a simulation process or spawn leg while it has a span open there, so
concurrent work on one node stacks into parallel lanes instead of
overlapping, and a track has no more lanes than it had workers at once.
"""

from __future__ import annotations

import json
import sys
from bisect import insort
from dataclasses import dataclass, field
from typing import Optional

from repro import rpc
from repro.nfs.client import Nfs4Client
from repro.pvfs2.storage import StorageDaemon
from repro.sim.disk import Disk
from repro.sim.engine import Interrupt, SimulationError, Simulator, _Driver
from repro.vfs.api import FsError

__all__ = ["Span", "SpanCollector"]

#: The installed collector, if any: at most one is installed at a time.
ACTIVE: Optional["SpanCollector"] = None

#: The code of ``_Driver._resume``: its frame's ``self`` is the running
#: process or spawn leg.
_RESUME = _Driver._resume.__code__


@dataclass
class Span:
    """One timed unit of work on some component's timeline."""

    name: str
    cat: str
    track: str
    lane: int
    start: float
    end: Optional[float] = None
    args: dict = field(default_factory=dict)
    #: ``(track, driver)`` holding the lane while the span is open.
    _holder: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


class SpanCollector:
    """Context manager collecting :class:`Span` records for one sim."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.spans: list[Span] = []
        #: ``(track, driver)`` -> ``[lane, spans open]`` while it has one open.
        self._held: dict[tuple, list] = {}
        #: Per track: its lanes not held now, ascending, and how many it has.
        self._free: dict[str, list[int]] = {}
        self._lane_count: dict[str, int] = {}

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "SpanCollector":
        global ACTIVE
        if ACTIVE is not None:
            raise RuntimeError("a SpanCollector is already installed")
        wrappers = self._wrappers()
        self._saved = [(owner, name, vars(owner)[name]) for owner, name, _ in wrappers]
        for owner, name, wrapper in wrappers:
            setattr(owner, name, wrapper)
        ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global ACTIVE
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        ACTIVE = None

    def _wrappers(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, wrapper)`` per traced entry point: the span
        names and arguments.  A wrapper calls the attribute's value at
        installation; its span opens at the generator's first resume."""
        col = self
        attempt, retrying = rpc._attempt, rpc._retrying

        def spanning(owner, name, begin):
            # ``begin`` takes the wrapped function's arguments and opens its span.
            func = vars(owner)[name]

            def wrapper(*args, **kwargs):
                span = begin(*args, **kwargs)
                try:
                    return (yield from func(*args, **kwargs))
                finally:
                    col.end(span)

            return owner, name, wrapper

        def traced_attempt(client_node, server, proc, handler, args, payload, *rest, retries):
            # Only an exchange that ran to its reply carries the payload
            # sizes (an RpcTrace record); an abandoned attempt has none.
            span = col.begin(
                f"rpc:{proc}", "rpc", client_node.name, server=server.name, attempt=retries
            )
            req_bytes = payload.nbytes if payload is not None else 0
            handler = handling(handler, f"handle:{proc}", server.node.name)
            try:
                value = yield from attempt(
                    client_node, server, proc, handler, args, payload, *rest, retries=retries
                )
            except FsError:  # an error reply carries no payload back
                col.end(span, req_bytes=req_bytes, reply_bytes=0, error=True, ok=False)
                raise
            except BaseException:
                col.end(span, ok=False)
                raise
            reply_bytes = value[1].nbytes if value[1] is not None else 0
            col.end(span, req_bytes=req_bytes, reply_bytes=reply_bytes, error=False, ok=True)
            return value

        def traced_retrying(client_node, server, proc, handler, args, payload, *rest):
            first_send = col.sim.now
            try:
                return (
                    yield from retrying(client_node, server, proc, handler, args, payload, *rest)
                )
            except rpc.RpcTimeout as exc:
                # One span for the whole failed call, first send to give-up.
                span = col.begin(
                    f"rpc:{proc}", "rpc", client_node.name,
                    server=server.name, attempt=exc.attempts - 1,
                )
                span.start = first_send
                col.end(
                    span, ok=False, timeout=True, error=True, reply_bytes=0,
                    req_bytes=payload.nbytes if payload is not None else 0,
                )
                raise

        def handling(handler, name, track):
            # The attempt's handler run (none for a replayed reply).
            def handle(args, payload):
                span = col.begin(name, "server", track)
                ok = True
                try:
                    return (yield from handler(args, payload))
                except (Interrupt, SimulationError):
                    raise
                except Exception:
                    ok = False  # an FsError, or a bug the server replies to
                    raise
                finally:
                    col.end(span, ok=ok)

            return handle

        return [
            spanning(Nfs4Client, "read", lambda client, f, offset, nbytes: col.begin(
                "read", "client-op", client.node.name, path=f.path, offset=offset, nbytes=nbytes
            )),
            spanning(Nfs4Client, "write", lambda client, f, offset, payload: col.begin(
                "write", "client-op", client.node.name,
                path=f.path, offset=offset, nbytes=payload.nbytes,
            )),
            spanning(Nfs4Client, "fsync", lambda client, f: col.begin(
                "fsync", "client-op", client.node.name, path=f.path
            )),
            (rpc, "_attempt", traced_attempt),
            (rpc, "_retrying", traced_retrying),
            spanning(Disk, "io", lambda disk, offset, nbytes, write: col.begin(
                "disk:write" if write else "disk:read", "disk", disk.name,
                offset=offset, nbytes=nbytes,
            )),
            spanning(StorageDaemon, "_flush_extent", lambda d, disk_idx, handle, start, nbytes: (
                col.begin("flush", "storage", d.name, handle=handle, offset=start, nbytes=nbytes)
            )),
        ]

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, cat: str, track: str, **args) -> Span:
        """Open a span on ``track`` starting now, in its driver's lane.

        The driver is the running process or spawn leg: the ``self`` of
        the nearest ``_Driver._resume`` frame on the stack (a spawn leg's
        first segment runs inside its spawner's resume), keyed by itself,
        not its address.  It keeps its lane while it has a span open on
        the track (nested spans share it); otherwise it takes the lowest
        free lane, else a new one — so lanes follow the simulated order
        alone, and a driver is held only while it has a span open.
        """
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not _RESUME:
            frame = frame.f_back
        key = (track, frame.f_locals["self"] if frame is not None else None)
        held = self._held.get(key)
        if held is None:
            free = self._free.setdefault(track, [])
            if free:
                lane = free.pop(0)
            else:
                lane = self._lane_count.get(track, 0)
                self._lane_count[track] = lane + 1
            self._held[key] = held = [lane, 0]
        held[1] += 1
        span = Span(name=name, cat=cat, track=track, lane=held[0], start=self.sim.now, args=args)
        span._holder = key
        self.spans.append(span)
        return span

    def end(self, span: Span, **extra_args) -> None:
        """Close ``span`` now; ``extra_args`` merge into its args.  The
        last span its driver has open on the track gives the lane back."""
        span.end = self.sim.now
        if extra_args:
            span.args.update(extra_args)
        key, span._holder = span._holder, None
        if key is not None:
            held = self._held[key]
            held[1] -= 1
            if not held[1]:
                del self._held[key]
                insort(self._free[key[0]], held[0])

    # -- analysis ----------------------------------------------------------
    def by_category(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.cat, []).append(s)
        return out

    # -- export ------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The run as a Chrome trace-event JSON object.

        Sim seconds become trace microseconds.  Spans still open at
        export time get zero duration and an ``unfinished`` marker
        rather than being dropped — an unfinished span is usually the
        bug being hunted.
        """
        pids = {track: i + 1 for i, track in enumerate(
            sorted({s.track for s in self.spans})
        )}
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": track},
            }
            for track, pid in pids.items()
        ]
        for s in self.spans:
            args = dict(s.args)
            end = s.end
            if end is None:
                end = s.start
                args["unfinished"] = True
            events.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": (end - s.start) * 1e6,
                    "pid": pids[s.track],
                    "tid": s.lane,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, default=str)
