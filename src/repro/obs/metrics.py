"""Metrics registry: named gauges + a sampler.

Components do not push into the registry on their hot paths — they keep
the plain attribute counters they already have (``nic.tx_bytes``,
``disk.busy_time``, ``client.writeback_errors``, ...) and an
observation pass *registers* them afterwards as gauges
(:meth:`MetricsRegistry.gauge`): zero-argument callables sampled on
demand.

:class:`Sampler` walks the registry at a fixed sim-time interval and
produces per-metric time series — the raw material for "disk queue
depth over the run" style plots.  It drives itself with a re-armed
:meth:`~repro.sim.engine.Simulator.timeout` timer
(:meth:`~repro.sim.engine.Event.reset`) and must be stopped explicitly, so
a drained event queue still ends the run.

See :mod:`repro.obs.attach` for the functions that wire the simulator's
components into a registry.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator

__all__ = ["Gauge", "MetricsRegistry", "Sampler"]


class Gauge:
    """Named instantaneous reading, backed by a callable."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return self.fn()


class MetricsRegistry:
    """Flat namespace of gauges, collected into one dict on demand.

    Metric names are dotted paths (``s0.disk0.busy_seconds``);
    registration is first-wins-raises to catch accidental double
    observation.
    """

    def __init__(self):
        self._gauges: dict[str, Gauge] = {}

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        g = self._gauges[name] = Gauge(name, fn)
        return g

    def names(self) -> list[str]:
        return sorted(self._gauges)

    def collect(self) -> dict:
        """Every metric's current value, flat, sorted by name."""
        return dict(sorted(self.sample_numeric().items()))

    def sample_numeric(self) -> dict[str, float]:
        """Every gauge read once, in registration order — what the
        :class:`Sampler` records."""
        return {name: g.read() for name, g in self._gauges.items()}


class Sampler:
    """Sim-time periodic snapshot of a registry's numeric metrics.

    Between :meth:`start` and :meth:`stop` the sampler records
    ``(t, {name: value})`` every ``interval`` sim seconds.  The tick is
    a re-armed Timeout with a callback — no Process — so an idle
    simulation is two heap entries away from draining, and stopping
    cancels cleanly.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry, interval: float = 0.25):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.samples: list[tuple[float, dict[str, float]]] = []
        self._tick = None
        self._started = False
        self._running = False

    def start(self) -> "Sampler":
        if self._started:
            raise RuntimeError("a Sampler is single-use; make a new one")
        self._started = True
        self._running = True
        self._take()  # t0 sample, then one every interval
        self._arm()
        return self

    def stop(self) -> None:
        """Take a final sample and disarm the tick.

        The final sample replaces a tick's at the same instant: the tick
        may have run before the rest of that instant's work.
        """
        if not self._running:
            return
        self._running = False
        if self.samples[-1][0] == self.sim.now:
            self.samples.pop()
        self._take()
        if self._tick is not None:
            # A tick still pending on the heap fires as a no-op; one
            # already processed stays processed.  Either way, detach.
            self._tick._discard_callback(self._on_tick)

    def _take(self) -> None:
        self.samples.append((self.sim.now, self.registry.sample_numeric()))

    def _on_tick(self, _ev) -> None:
        if not self._running:
            return
        self._take()
        self._arm()

    def _arm(self) -> None:
        # Reuse one Timeout across ticks (the runner/RPC re-arm idiom):
        # _on_tick runs after the tick is processed, so reset() is legal.
        if self._tick is None:
            self._tick = self.sim.timeout(self.interval)
        else:
            self._tick = self._tick.reset(self.interval)
        self._tick.add_callback(self._on_tick)

    # -- analysis ----------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-shaped form: sample times plus one series per metric."""
        times = [t for t, _vals in self.samples]
        names = sorted({n for _t, vals in self.samples for n in vals})
        return {
            "interval": self.interval,
            "t": times,
            "series": {
                n: [vals.get(n) for _t, vals in self.samples] for n in names
            },
        }
