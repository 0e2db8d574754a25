"""Assemble a complete Direct-pNFS deployment (paper Figures 4 and 5).

Given a running :class:`~repro.pvfs2.system.Pvfs2System`:

* every storage node gets a data server (NFSv4.1 over the local
  conduit);
* each PVFS2 metadata node also hosts a pNFS metadata server — pNFS
  and parallel-FS metadata components co-exist on one node, eliminating
  remote parallel-FS metadata requests from the pNFS server (§4.1);
* the metadata server's layout provider is the layout translator.

Clients are stock :class:`~repro.pnfs.client.PnfsClient` instances — no
file-system-specific layout driver anywhere on the client.  Over a
PVFS2 with several metadata servers they sit behind
:class:`~repro.core.multi_mds.ShardedPnfsRouter`, one session per shard.
"""

from __future__ import annotations

from repro.core.data_server import DEFAULT_LOOPBACK_COPY, build_data_server
from repro.core.layout_translator import LayoutTranslator
from repro.core.multi_mds import ShardedPnfsRouter
from repro.nfs.config import NfsConfig
from repro.pnfs.server import PnfsMetadataServer
from repro.pvfs2.system import Pvfs2System
from repro.sim.engine import Simulator
from repro.sim.node import Node

__all__ = ["DirectPnfsSystem"]


class DirectPnfsSystem:
    """A running Direct-pNFS file system exported from a parallel FS."""

    label = "direct-pnfs"

    def __init__(
        self,
        sim: Simulator,
        pvfs: Pvfs2System,
        cfg: NfsConfig | None = None,
        loopback_copy_per_byte: float = DEFAULT_LOOPBACK_COPY,
    ):
        self.sim = sim
        self.pvfs = pvfs
        self.cfg = cfg or NfsConfig()
        # One data server per storage node, in daemon order so the
        # identity device mapping lines up with the distribution.
        self.data_servers = [
            build_data_server(
                sim, node, pvfs, self.cfg, loopback_copy_per_byte=loopback_copy_per_byte
            )
            for node in pvfs.storage_nodes
        ]
        # One pNFS MDS colocated with each parallel FS MDS; its backend
        # is a full parallel-FS client whose metadata traffic is loopback.
        self.mds_list: list[PnfsMetadataServer] = []
        for pvfs_mds in pvfs.metadata_servers:
            backend = pvfs.make_client(pvfs_mds.node)
            self.mds_list.append(
                PnfsMetadataServer(
                    sim,
                    pvfs_mds.node,
                    backend,
                    self.cfg,
                    self.data_servers,
                    LayoutTranslator(backend),
                    name=f"{pvfs_mds.node.name}.direct-mds",
                )
            )
        self.mds = self.mds_list[0]

    def make_client(self, node: Node):
        """An unmodified NFSv4.1 client with the file layout driver."""
        # Imported here: repro.pnfs.client itself imports the
        # aggregation-driver registry from repro.core.
        from repro.pnfs.client import PnfsClient

        shards = [PnfsClient(self.sim, node, mds, self.cfg) for mds in self.mds_list]
        if len(shards) > 1:
            return ShardedPnfsRouter(node, shards)
        shards[0].label = self.label
        return shards[0]

    # -- fault-injection targets -------------------------------------------
    def data_server_for(self, node: Node | str):
        """The data-server service hosted on ``node`` (injector target).

        Failing ``data_server_for(n).rpc`` kills the NFS endpoint while
        the node's parallel-FS daemon keeps running — the scenario where
        clients fall back to proxied I/O through the MDS (§5) and all
        data stays reachable.
        """
        name = node.name if isinstance(node, Node) else node
        for ds in self.data_servers:
            if ds.node.name == name:
                return ds
        raise KeyError(f"no data server on node {name!r}")

    def kill_data_server(self, node: Node | str) -> None:
        """Fail-stop the data-server service on ``node``."""
        self.data_server_for(node).rpc.fail()

    def restart_data_server(self, node: Node | str) -> None:
        """Bring the data-server service on ``node`` back up."""
        self.data_server_for(node).rpc.restore()
