"""The paper's testbed (§6.1): the hardware envelope.

Sixteen nodes on gigabit Ethernet with jumbo frames (one experiment
uses 100 Mbps):

* six server-class nodes — dual 1.7 GHz P4, 2 GB RAM, one 7200 rpm
  ATA/100 disk (two in the 3-tier layout), 3Com gigabit NIC; one
  doubles as metadata manager;
* client nodes 1–7 — dual 1.3 GHz P3; clients 8–9 match the servers.

Calibration philosophy: hardware envelopes (NIC, disk, CPU clocks) are
taken from the paper/datasheets and live here; per-operation protocol
costs are the free parameters, fitted so the absolute anchors of
Figure 6/7 are reproduced (≈119 MB/s disk-bound aggregate writes,
≈500 MB/s CPU-bound warm-cache reads, NFSv4 flat at a single server's
ceiling, PVFS2 small-I/O collapse).  Those are the defaults of
:class:`~repro.nfs.config.NfsConfig` and
:class:`~repro.pvfs2.config.Pvfs2Config`; the per-architecture
surcharges are the rows of :mod:`repro.cluster.configs`.  Each number
lives in exactly one of the three.
"""

from __future__ import annotations

from repro.sim.cpu import CpuSpec
from repro.sim.disk import DiskSpec
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Node, NodeSpec

__all__ = ["FAST_ETHERNET", "GIGE", "MAX_CLIENTS", "Testbed"]

#: Gigabit Ethernet with jumbo frames: practical TCP payload rate.
GIGE = 117e6
#: 100 Mbps Ethernet (Figure 6c).
FAST_ETHERNET = 11.5e6
#: One-way message latency: wire + switch + interrupt/stack.
LATENCY = 80e-6

#: Seagate 80 GB 7200 rpm ATA/100 as seen through ext3 + journalling
#: under concurrent striped load.  write_bw is the effective sustained
#: rate that calibrates Fig 6a's 119 MB/s over six disks.
SERVER_DISK = DiskSpec(read_bw=50e6, write_bw=20e6, positioning=0.0085)

#: Node-wide disk-path ceiling (CPU+bus): calibrates "two disks in one
#: 3-tier storage node do not double bandwidth" (§6.2) —
#: 3 nodes x ~27.5 MB/s ≈ the 83 MB/s 3-tier write plateau.
SERVER_IO_BUS = 28e6

SERVER_CPU = CpuSpec(cores=2, speed=1.7)
CLIENT_CPU_SLOW = CpuSpec(cores=2, speed=1.3)  # clients 1-7
CLIENT_CPU_FAST = CpuSpec(cores=2, speed=1.7)  # clients 8-9
#: Client nodes 1-9.
MAX_CLIENTS = 9


class Testbed:
    """A materialised cluster: server nodes, client nodes, one switch.

    ``server_disks`` gives the disk count per server node — ``(1,)*6``
    for the standard layout, ``(0, 0, 0, 2, 2, 2)`` for 3-tier (the
    paper moves the disks from the data servers to the storage nodes,
    keeping nodes and disks constant).  An extra diskless server-class
    node hosts standalone roles (the NFSv4 server).
    """

    #: Keep pytest from trying to collect this class when imported
    #: into test modules ("Test…" prefix).
    __test__ = False

    def __init__(
        self,
        n_clients: int = 8,
        net_bw: float = GIGE,
        server_disks: tuple[int, ...] = (1, 1, 1, 1, 1, 1),
        latency: float = LATENCY,
        seed: int | None = None,
    ):
        if not 1 <= n_clients <= MAX_CLIENTS:
            raise ValueError(f"the testbed has between 1 and {MAX_CLIENTS} client nodes")
        self.sim = Simulator() if seed is None else Simulator(seed=seed)
        self.network = Network(self.sim, latency=latency)
        self.server_nodes: list[Node] = []
        for i, ndisks in enumerate(server_disks):
            spec = NodeSpec(
                name=f"server{i}",
                cpu=SERVER_CPU,
                nic_bw=net_bw,
                disks=(SERVER_DISK,) * ndisks,
                io_bus_bw=SERVER_IO_BUS,
            )
            self.server_nodes.append(Node(self.sim, spec, self.network))
        self.extra_node = Node(
            self.sim,
            NodeSpec(name="extra0", cpu=SERVER_CPU, nic_bw=net_bw),
            self.network,
        )
        self.client_nodes: list[Node] = []
        for i in range(n_clients):
            cpu = CLIENT_CPU_SLOW if i < 7 else CLIENT_CPU_FAST
            spec = NodeSpec(name=f"client{i}", cpu=cpu, nic_bw=net_bw)
            self.client_nodes.append(Node(self.sim, spec, self.network))

    @property
    def storage_nodes(self) -> list[Node]:
        """Server nodes that carry disks."""
        return [n for n in self.server_nodes if n.disks]

    @property
    def diskless_server_nodes(self) -> list[Node]:
        """Server nodes without disks (3-tier data servers)."""
        return [n for n in self.server_nodes if not n.disks]
