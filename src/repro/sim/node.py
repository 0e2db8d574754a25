"""Cluster node: CPU + NIC + disks + shared I/O bus.

A :class:`Node` is the hosting abstraction for every daemon in the
reproduction (NFS servers, PVFS2 daemons, pNFS metadata servers,
application clients).  Daemons receive the node at construction and
charge their work to its resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cpu import Cpu, CpuSpec
from repro.sim.disk import Disk, DiskSpec
from repro.sim.engine import Event, Simulator
from repro.sim.network import Network, Nic
from repro.sim.resources import Resource

__all__ = ["NodeSpec", "Node"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one node (paper §6.1).

    ``io_bus_bw`` is the node-wide ceiling on disk traffic in
    bytes/second — CPU, memory, and bus effects folded into one number.
    It is what prevents a two-disk 3-tier storage node from doubling
    its bandwidth.
    """

    name: str
    cpu: CpuSpec = field(default_factory=CpuSpec)
    nic_bw: float = 117e6
    disks: tuple[DiskSpec, ...] = ()
    io_bus_bw: float = 30e6

    def __post_init__(self):
        if not self.name:
            raise ValueError("node needs a name")
        if self.nic_bw <= 0:
            raise ValueError("nic_bw must be positive")
        if self.io_bus_bw <= 0:
            raise ValueError("io_bus_bw must be positive")


class Node:
    """A materialised node wired into a network."""

    def __init__(self, sim: Simulator, spec: NodeSpec, network: Network):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.network = network
        self.cpu = Cpu(sim, spec.cpu, name=f"{spec.name}.cpu")
        self.nic: Nic = network.add_nic(spec.name, spec.nic_bw)
        self.io_bus = Resource(sim, 1, name=f"{spec.name}.iobus") if spec.disks else None
        self.disks: list[Disk] = [
            Disk(
                sim,
                dspec,
                name=f"{spec.name}.disk{i}",
                io_bus=self.io_bus,
                bus_bw=spec.io_bus_bw,
            )
            for i, dspec in enumerate(spec.disks)
        ]

    def compute(self, work_seconds: float) -> Event:
        """Charge protocol work to this node's CPU; the event fires when
        it is done."""
        return self.cpu.consume(work_seconds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"
