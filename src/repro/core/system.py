"""Assemble a file-layout pNFS front over a running parallel FS.

Every pNFS architecture is the same three things in front of a
:class:`~repro.pvfs2.system.Pvfs2System` (paper Figures 3–5):

* N data servers — stock NFSv4.1 servers, each over a parallel-FS
  client on its own node;
* one pNFS metadata server per parallel-FS metadata server, on the
  first data-server nodes;
* stock :class:`~repro.pnfs.client.PnfsClient` instances — no
  file-system-specific layout driver anywhere on the client.  Over
  several metadata servers they sit behind
  :class:`~repro.core.multi_mds.ShardedPnfsRouter`, one session per shard.

**Direct-pNFS = pNFS + layout translator + conduit** (§4), and nothing
else.  The *translator* replaces blind synthetic layouts with the
parallel FS's own distribution, so clients learn the exact location of
every byte; the *conduit* replaces the full parallel-FS client behind
each data server with a local-only one — "the PVFS2 client on the data
servers functions solely as a conduit between the NFSv4 server and the
PVFS2 storage node on the node" (§5).  With accurate layouts a data
server is only ever asked for bytes its own node stores, data servers
never talk to each other, and because data servers then share the
storage nodes, pNFS and parallel-FS metadata servers share a node too —
no remote parallel-FS metadata requests from the pNFS server (§4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.layout_translator import LayoutTranslator
from repro.core.multi_mds import ShardedPnfsRouter
from repro.nfs.config import NfsConfig
from repro.nfs.server import Nfs4Server
from repro.pnfs.client import PnfsClient
from repro.pnfs.providers import SyntheticFileLayoutProvider
from repro.pnfs.server import PnfsMetadataServer
from repro.pvfs2.system import Pvfs2System
from repro.sim.engine import Simulator
from repro.sim.node import Node

if TYPE_CHECKING:
    from repro.cluster.configs import Architecture

__all__ = ["PnfsSystem"]


class PnfsSystem:
    """A running file-layout pNFS file system exported from a parallel FS.

    ``arch`` is the pNFS row of :data:`~repro.cluster.configs.ARCHITECTURES`
    that shapes it: its ``conduit`` makes the data servers' backends
    local-only; its ``layout_stripe`` issues synthetic round-robin
    layouts at that unit — blind to where PVFS2 put the bytes (§3.4.1)
    — instead of translated ones; its two surcharges are every data
    server's; its ``label`` names the clients and, less its ``pnfs``
    affix, the servers.  ``ds_nodes`` are dedicated data-server nodes
    (3-tier); by default the data servers share the parallel FS's
    storage nodes, in daemon order, so the translator's identity device
    mapping lines up with the distribution.
    """

    def __init__(
        self,
        sim: Simulator,
        pvfs: Pvfs2System,
        cfg: NfsConfig,
        arch: Architecture,
        ds_nodes: list[Node] | None = None,
    ):
        self.sim = sim
        self.pvfs = pvfs
        self.cfg = cfg
        self.label = arch.label
        # Server names are hashed into the trace pins and printed by the
        # fault log: ``{node}.{tier}-ds`` / ``{node}.{tier}-mds``, the
        # MDS of a dedicated tier historically without its node prefix.
        tier = arch.label.removeprefix("pnfs-").removesuffix("-pnfs")
        dedicated = ds_nodes is not None
        if not dedicated:
            ds_nodes = pvfs.storage_nodes
        self.data_servers = [
            Nfs4Server(
                sim, node, pvfs.make_client(node, local_only=arch.conduit), cfg,
                name=f"{node.name}.{tier}-ds",
                extra_read_per_byte=arch.extra_read_per_byte,
                extra_write_per_byte=arch.extra_write_per_byte,
            )
            for node in ds_nodes
        ]
        # Each MDS's backend is a full parallel-FS client; beside a
        # parallel-FS MDS its metadata traffic is loopback.
        self.mds_list: list[PnfsMetadataServer] = []
        for node in ds_nodes[: len(pvfs.metadata_servers)]:
            backend = pvfs.make_client(node)
            if arch.layout_stripe is None:
                provider = LayoutTranslator(backend)
            else:
                provider = SyntheticFileLayoutProvider(len(ds_nodes), arch.layout_stripe)
            name = f"{tier}-mds" if dedicated else f"{node.name}.{tier}-mds"
            self.mds_list.append(
                PnfsMetadataServer(sim, node, backend, cfg, self.data_servers, provider, name=name)
            )
        self.mds = self.mds_list[0]

    def make_client(self, node: Node):
        """An unmodified NFSv4.1 client with the file layout driver."""
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
