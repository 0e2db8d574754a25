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

Pay-for-what-you-use: instrumented code checks the module-level
``ACTIVE`` slot (one attribute load) and does nothing when no collector
is installed, so uninstrumented benchmark runs keep their event
schedule and cost.  It is the only tracing hook in the request path:
:class:`repro.obs.RpcTrace` is a reducer over the ``rpc`` spans.

Tracks: each span carries a ``track`` (rendered as the Chrome "pid",
one per node or component) and a lane within it (the "tid"), assigned
per simulation process so concurrent work on one node stacks into
parallel lanes instead of overlapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.engine import Simulator

__all__ = ["Span", "SpanCollector"]

#: The installed collector, if any (read by instrumented code paths).
ACTIVE: Optional["SpanCollector"] = None


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


class SpanCollector:
    """Context manager collecting :class:`Span` records for one sim."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.spans: list[Span] = []
        self._lanes: dict[tuple, int] = {}
        self._lane_count: dict[str, int] = {}

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "SpanCollector":
        global ACTIVE
        if ACTIVE is not None:
            raise RuntimeError("a SpanCollector is already installed")
        ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global ACTIVE
        ACTIVE = None

    # -- recording ---------------------------------------------------------
    def _lane_for(self, track: str) -> int:
        """Lane within ``track`` for the currently running process.

        One lane per (track, process): concurrent spans on the same
        component land in parallel lanes; sequential work from the same
        process reuses its lane.
        """
        proc = self.sim._active_process
        key = (track, id(proc) if proc is not None else 0)
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lane_count.get(track, 0)
            self._lane_count[track] = lane + 1
            self._lanes[key] = lane
        return lane

    def begin(self, name: str, cat: str, track: str, **args) -> Span:
        """Open a span on ``track`` starting now."""
        span = Span(
            name=name,
            cat=cat,
            track=track,
            lane=self._lane_for(track),
            start=self.sim.now,
            args=args,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, **extra_args) -> None:
        """Close ``span`` now; ``extra_args`` merge into its args."""
        span.end = self.sim.now
        if extra_args:
            span.args.update(extra_args)

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
