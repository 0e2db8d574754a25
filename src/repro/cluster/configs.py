"""The architectures of the paper's evaluation, as a table.

An architecture is what stands between the clients and PVFS2; the back
end is held constant (§6.1): six server nodes, six disks, 2 MB PVFS2
stripes.  :data:`ARCHITECTURES` has one :class:`Architecture` row each
and :func:`make_deployment` is the only builder — an ablation is
``dataclasses.replace(row, field=value)``, a new architecture is a row.

* ``direct-pnfs`` — data servers on every storage node over local-only
  conduits; layout translator on the colocated MDS (Figure 5).
* ``pvfs2`` — the native parallel file system client.
* ``pnfs-2tier`` — pNFS file-layout data servers colocated with the
  storage nodes but issued synthetic layouts (1 MB stripes, a deliberate
  block-size mismatch against the 2 MB PVFS2 placement, §3.4.1): on
  average only 1/6 of each request is local, the rest moves between
  servers (Figure 3b).
* ``pnfs-3tier`` — three dedicated data servers in front of three
  two-disk storage nodes (Figure 3a).
* ``nfsv4`` — one NFSv4 server on a dedicated node exporting a PVFS2
  client.

Beyond the paper, ``direct-pnfs-sharded`` is ``direct-pnfs`` with two
hash-partitioned metadata servers (:mod:`repro.pvfs2.sharding`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from repro.cluster.testbed import GIGE, Testbed
from repro.core.system import PnfsSystem
from repro.nfs.client import Nfs4Client
from repro.nfs.config import NfsConfig
from repro.nfs.server import Nfs4Server
from repro.pvfs2.config import Pvfs2Config
from repro.pvfs2.system import Pvfs2System
from repro.sim.node import Node

__all__ = ["ARCHITECTURES", "Architecture", "Deployment", "make_deployment"]

MB = 1024 * 1024

#: Per-byte CPU cost (s/byte) of the nfsd <-> loopback <-> user-level
#: PVFS2 hop on a data server that shares its node with a storage
#: daemon (§5): an extra user↔kernel copy plus the crossings.  Through
#: the conduit, replies cross the transfer buffers once more than writes
#: do — the read extra.  The read total calibrates the data-server CPU
#: ceiling that flattens warm-cache reads near 509 MB/s (Fig 7a) and
#: costs Direct-pNFS the Figure 7b crossover against PVFS2 at eight
#: clients.
DEFAULT_LOOPBACK_COPY = 8e-9
DEFAULT_LOOPBACK_READ_EXTRA = 12e-9

#: Gateway surcharges for NFS servers whose backend is a FULL parallel-FS
#: client (store-and-forward).  These are *measured* inefficiencies the
#: paper attributes to indirect data access (§3.4.1/§6.2.1) that a pure
#: copy model underestimates: kernel/user crossings, request
#: re-buffering, and stripe-unaligned backend requests.  Calibrated so
#: the standalone NFSv4 write curve sits at its flat ≈45 MB/s and the
#: 3-tier read plateau lands near the paper's 115 MB/s.
GATEWAY_WRITE_PER_BYTE = 50e-9
GATEWAY_READ_PER_BYTE_3TIER = 65e-9


@dataclass(frozen=True)
class Architecture:
    """One row of the table.

    ``front`` is what clients mount: ``"pvfs2"`` (the native client),
    ``"nfsv4"`` (one server on the testbed's extra node) or ``"pnfs"``
    (a :class:`~repro.core.system.PnfsSystem`, which the next three
    fields shape).  ``dedicated_ds`` puts the data servers on three
    diskless nodes in front of three two-disk storage nodes;
    ``conduit`` makes their backends local-only; ``layout_stripe`` is
    the synthetic layouts' stripe unit, ``None`` for translated
    layouts.  ``n_meta`` is the PVFS2 (and so pNFS) metadata-server
    count.  The two per-byte surcharges are each direction's whole
    extra server CPU (reply bytes, request bytes) on the NFS server(s)
    that carry data.  ``label`` names clients and servers.
    """

    label: str
    front: str
    dedicated_ds: bool = False
    conduit: bool = False
    layout_stripe: int | None = None
    n_meta: int = 1
    extra_read_per_byte: float = 0.0
    extra_write_per_byte: float = 0.0


ARCHITECTURES: dict[str, Architecture] = {
    "direct-pnfs": Architecture(
        "direct-pnfs", "pnfs", conduit=True,
        extra_read_per_byte=DEFAULT_LOOPBACK_COPY + DEFAULT_LOOPBACK_READ_EXTRA,
        extra_write_per_byte=DEFAULT_LOOPBACK_COPY,
    ),
    "pvfs2": Architecture("pvfs2", "pvfs2"),
    "pnfs-2tier": Architecture(
        "pnfs-2tier", "pnfs", layout_stripe=1 * MB,
        extra_read_per_byte=DEFAULT_LOOPBACK_COPY,
        extra_write_per_byte=DEFAULT_LOOPBACK_COPY + GATEWAY_WRITE_PER_BYTE,
    ),
    "pnfs-3tier": Architecture(
        "pnfs-3tier", "pnfs", dedicated_ds=True, layout_stripe=2 * MB,
        extra_read_per_byte=GATEWAY_READ_PER_BYTE_3TIER,
        extra_write_per_byte=GATEWAY_WRITE_PER_BYTE,
    ),
    "nfsv4": Architecture("nfsv4", "nfsv4", extra_write_per_byte=GATEWAY_WRITE_PER_BYTE),
}
ARCHITECTURES["direct-pnfs-sharded"] = replace(ARCHITECTURES["direct-pnfs"], n_meta=2)


@dataclass
class Deployment:
    """A running architecture plus the handles the harness needs."""

    label: str
    testbed: Testbed
    make_client: Callable[[Node], object]
    pvfs: Pvfs2System
    servers: list = field(default_factory=list)
    #: The pNFS front (fault helpers, MDS list); ``None`` without one.
    pnfs: PnfsSystem | None = None


def make_deployment(
    arch: str | Architecture,
    n_clients: int = 8,
    net_bw: float = GIGE,
    nfs_overrides: dict | None = None,
    pvfs_overrides: dict | None = None,
    seed: int | None = None,
    testbed: Testbed | None = None,
) -> Deployment:
    """Build an architecture — a table name or a row — on a testbed.

    Without ``testbed`` a fresh one is built from ``n_clients``,
    ``net_bw`` and ``seed`` (which initialises its simulator:
    identical-seed deployments replay identically) with the row's disk
    layout.  The overrides are ``NfsConfig`` / ``Pvfs2Config`` fields.
    """
    row = ARCHITECTURES.get(arch, arch)  # a row is its own entry
    if isinstance(row, str):
        raise ValueError(f"unknown architecture {arch!r}; choose from {sorted(ARCHITECTURES)}")
    disks = (0, 0, 0, 2, 2, 2) if row.dedicated_ds else (1, 1, 1, 1, 1, 1)
    tb = testbed or Testbed(n_clients=n_clients, net_bw=net_bw, server_disks=disks, seed=seed)
    if row.dedicated_ds and not tb.diskless_server_nodes:
        raise ValueError(f"{row.label} needs a testbed built with server_disks={disks}")
    nfs_cfg = NfsConfig(**(nfs_overrides or {}))
    pvfs_cfg = Pvfs2Config(**(pvfs_overrides or {}))
    pvfs = Pvfs2System(tb.sim, tb.storage_nodes, pvfs_cfg, n_meta=row.n_meta)
    pnfs = None
    if row.front == "pvfs2":
        make_client = pvfs.make_client
        servers = pvfs.daemons + pvfs.metadata_servers
    elif row.front == "nfsv4":
        server = Nfs4Server(
            tb.sim, tb.extra_node, pvfs.make_client(tb.extra_node), nfs_cfg,
            name="nfsv4-server",
            extra_read_per_byte=row.extra_read_per_byte,
            extra_write_per_byte=row.extra_write_per_byte,
        )
        make_client = partial(Nfs4Client, tb.sim, server=server, cfg=nfs_cfg)
        servers = [server]
    else:
        pnfs = PnfsSystem(
            tb.sim, pvfs, nfs_cfg, row,
            ds_nodes=tb.diskless_server_nodes if row.dedicated_ds else None,
        )
        make_client = pnfs.make_client
        servers = pnfs.data_servers + pnfs.mds_list
    return Deployment(
        label=arch if isinstance(arch, str) else row.label,
        testbed=tb,
        make_client=make_client,
        pvfs=pvfs,
        servers=servers,
        pnfs=pnfs,
    )
