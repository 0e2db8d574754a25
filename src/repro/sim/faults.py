"""Deterministic fault injection for cluster simulations.

The :class:`FaultInjector` schedules failures and repairs at simulated
times — it is the experiment-side counterpart of the recovery machinery
in the protocol layers (RPC retry, session replay, pNFS failover).
Schedules are driven purely by sim time (a dropped flow draws from the
simulation's seeded RNG), so a run with a given seed is exactly
reproducible (no wall clock anywhere).

Fault classes it knows how to inject:

* **service failure** — any :class:`repro.rpc.RpcServer` (an NFS data
  server, an MDS, a PVFS2 daemon endpoint) goes fail-stop: requests and
  replies in flight are lost, new requests vanish;
* **disk failure** — a :class:`repro.sim.disk.Disk` starts raising
  :class:`~repro.sim.disk.DiskFailed`;
* **NIC faults** — a :class:`repro.sim.network.Nic` goes down (drops
  every flow), drops a seeded random fraction of flows, or adds
  latency;
* **node crash** — the node's NIC goes down and every service/disk
  passed alongside it fails, modelling a power loss.

Usage::

    inj = FaultInjector(sim)
    inj.outage(ds.rpc, start=2.0, duration=1.5)     # fail at 2s, back at 3.5s
    inj.at(4.0, lambda: nic_delay(...))             # anything callable
    sim.run()
    print(inj.events)                                # [(2.0, 'fail ...'), ...]

Every action is also available un-scheduled (``fail_server(s)``) for
tests that drive time by hand.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sim.disk import Disk
from repro.sim.engine import Simulator
from repro.sim.network import Nic
from repro.sim.node import Node

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules deterministic failures/repairs against sim components."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Chronological log of injected events: (sim time, description).
        self.events: list[tuple[float, str]] = []

    def _log(self, what: str) -> None:
        self.events.append((self.sim.now, what))

    # -- scheduling ---------------------------------------------------------
    def at(self, when: float, action: Callable[[], None], name: str = "") -> None:
        """Run ``action()`` at sim time ``when`` (>= now)."""
        if when < self.sim.now:
            raise ValueError(f"cannot schedule fault in the past ({when} < {self.sim.now})")

        def fire(_):
            if name:
                self._log(name)
            action()

        self.sim.call_later(when - self.sim.now, fire)

    # -- immediate actions --------------------------------------------------
    def fail_server(self, server) -> None:
        """Fail-stop an :class:`repro.rpc.RpcServer`."""
        server.fail()
        self._log(f"fail server {server.name}")

    def restore_server(self, server) -> None:
        server.restore()
        self._log(f"restore server {server.name}")

    def fail_disk(self, disk: Disk) -> None:
        disk.fail()
        self._log(f"fail disk {disk.name}")

    def restore_disk(self, disk: Disk) -> None:
        disk.restore()
        self._log(f"restore disk {disk.name}")

    def nic_down(self, nic: Nic) -> None:
        """Every flow touching ``nic`` is lost until :meth:`nic_up`.

        New flows are dropped at transfer start; a flow already in
        flight sends no further chunk and never completes (chunks
        holding a pipe finish their service and release it).  Either
        way only an RPC timeout notices, and the sender's
        ``flows_dropped`` counts the flow once.
        """
        nic.down = True
        self._log(f"nic down {nic.name}")

    def nic_up(self, nic: Nic) -> None:
        nic.down = False
        self._log(f"nic up {nic.name}")

    def nic_drop(self, nic: Nic, prob: float) -> None:
        """Lose a seeded-random fraction ``prob`` of flows through
        ``nic`` (0 turns the fault off)."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        nic.drop_prob = prob
        self._log(f"nic drop {nic.name} p={prob}")

    def nic_delay(self, nic: Nic, extra_latency: float) -> None:
        """Add ``extra_latency`` seconds one-way to flows through
        ``nic`` (0 turns the fault off)."""
        if extra_latency < 0:
            raise ValueError("extra latency must be >= 0")
        nic.extra_latency = extra_latency
        self._log(f"nic delay {nic.name} +{extra_latency}s")

    def crash_node(self, node: Node, services: Iterable = ()) -> None:
        """Power-fail ``node``: NIC down, disks failed, and every
        service in ``services`` (its RpcServers/daemons) fail-stopped.
        As with :meth:`nic_down`, flows in flight through the node's
        NIC are lost: a request still on the wire never reaches the
        powered-off server's handler."""
        node.nic.down = True
        for disk in node.disks:
            disk.fail()
        for svc in services:
            svc.fail()
        self._log(f"crash node {node.name}")

    def restart_node(self, node: Node, services: Iterable = ()) -> None:
        """Undo :meth:`crash_node`.  Volatile state lost in the crash
        stays lost — restoring a service does not restore its data."""
        node.nic.down = False
        for disk in node.disks:
            disk.restore()
        for svc in services:
            svc.restore()
        self._log(f"restart node {node.name}")

    # -- composite schedules ------------------------------------------------
    def outage(self, server, start: float, duration: float) -> None:
        """Fail ``server`` at ``start`` and restore it ``duration``
        seconds later — the standard kill/restart experiment."""
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        self.at(start, lambda: self.fail_server(server))
        self.at(start + duration, lambda: self.restore_server(server))

    def flaky_nic(self, nic: Nic, prob: float, start: float, duration: float) -> None:
        """Drop a random fraction of ``nic``'s flows during the window
        ``[start, start + duration)``."""
        if duration <= 0:
            raise ValueError("flaky window must be positive")
        self.at(start, lambda: self.nic_drop(nic, prob))
        self.at(start + duration, lambda: self.nic_drop(nic, 0.0))
