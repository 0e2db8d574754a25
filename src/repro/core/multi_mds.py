"""Extension: Direct-pNFS over decentralised metadata.

:mod:`repro.pvfs2.sharding` hash-partitions the PVFS2 namespace over
several metadata servers; :class:`~repro.core.system.PnfsSystem`, built
from the ``direct-pnfs-sharded`` row of
:data:`~repro.cluster.configs.ARCHITECTURES`, then colocates one pNFS
metadata server with each.  The client side is
this router: stock pNFS clients, one session per shard, control
operations routed by path — the decentralised counterpart of NFSv4's
single metadata server (§6.4.3, future work in the paper).
"""

from __future__ import annotations

from repro.pvfs2.sharding import ShardRouting, is_broadcast_path
from repro.sim.node import Node
from repro.vfs.api import FileSystemClient, OpenFile

__all__ = ["ShardedPnfsRouter"]


class ShardedPnfsRouter(ShardRouting, FileSystemClient):
    """Client-side router over one stock pNFS client per metadata shard."""

    label = "direct-pnfs-sharded"

    def __init__(self, node: Node, shards: list):
        self.node = node
        self.shards = shards

    # Byte-range locks live on the NFS servers (a PVFS2 client has
    # none, so these are not on ShardRouting): the open file's own
    # shard holds its lock table.
    def lock(self, f: OpenFile, start: int, end: int, kind: str = "write"):
        return (yield from f.client.lock(f, start, end, kind))

    def unlock(self, f: OpenFile, start: int, end: int):
        return (yield from f.client.unlock(f, start, end))

    def install(self, path: str, nbytes: int):
        return self._shard(path).install(path, nbytes)

    # Broadcast paths: each pNFS MDS's *backend* is itself a sharded
    # client that broadcasts/unions — routing through one MDS suffices
    # (and broadcasting here too would double-create).  The backend
    # also refuses a rename of a top-level directory.
    def mkdir(self, path: str):
        if is_broadcast_path(path):
            return (yield from self.shards[0].mkdir(path))
        return (yield from self._shard(path).mkdir(path))

    def readdir(self, path: str):
        if is_broadcast_path(path):
            return (yield from self.shards[0].readdir(path))
        return (yield from self._shard(path).readdir(path))

    def remove(self, path: str):
        if is_broadcast_path(path):
            return (yield from self.shards[0].remove(path))
        return (yield from self._shard(path).remove(path))

    def rename(self, old: str, new: str):
        return (yield from self._rename_shard(old, new).rename(old, new))
