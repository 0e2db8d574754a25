"""Extension: decentralised metadata (the paper's future-work item).

§6.4.3 closes: "NFSv4 relies on a central metadata server, effectively
recentralizing the decentralized parallel file system metadata
protocol... the sharp contrast in metadata management technique between
NFSv4 and parallel file systems merits further study."

This module is that study, as a labelled **extension beyond the paper**:
``Pvfs2System(n_meta=N)`` hash-partitions the namespace across several
PVFS2 metadata servers (as real PVFS2 supports).  Sharding is by the
subtree two levels deep; the root and top-level directories are
*broadcast* (replicated on every shard) so each shard resolves its
subtrees locally.  Clients route operations by path; data placement is
unchanged (all shards share the same storage daemons), so the data-path
results of the paper are unaffected while metadata throughput scales
with the shard count — quantified by the mdtest workload in
``benchmarks/test_metadata_scaling.py`` (which also records the caveat:
with PVFS2's synchronous metadata journalling on, the per-create
daemon-side disk work does not shard and caps the gain).

Restrictions (documented, enforced): a rename may not cross shards or
move a broadcast (top-level) directory, and directory listings of
broadcast paths are shard unions.  A top-level *file* lives on one
shard and renames there like any other path.
"""

from __future__ import annotations

from repro.pvfs2.client import Pvfs2Client
from repro.sim.node import Node
from repro.vfs.api import FileSystemClient, FsError, NoEntry, OpenFile, split_path

__all__ = ["SHARD_HANDLE_STRIDE", "ShardRouting", "ShardedPvfs2Client", "shard_of"]

#: Shard ``k``'s metadata server hands out namespace and datafile
#: handles above ``k * SHARD_HANDLE_STRIDE``, so a handle names its shard.
SHARD_HANDLE_STRIDE = 1 << 32


def _fnv(text: str) -> int:
    """Stable, implementation-independent hash (FNV-1a 32-bit)."""
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def shard_of(path: str, nshards: int) -> int:
    """Deterministic shard for a path.

    Sharding is by the subtree rooted two levels deep: the first two
    path components are hashed.  Top-level directories are *broadcast*
    (they exist on every shard) so that deeper subtrees can resolve
    locally; see :meth:`ShardRouting.mkdir`.
    """
    parts = split_path(path)
    if not parts:
        return 0
    return _fnv("/".join(parts[:2])) % nshards


def is_broadcast_path(path: str) -> bool:
    """Top-level directories (and the root) are replicated on all shards."""
    return len(split_path(path)) <= 1


class ShardRouting:
    """Routing shared by the PVFS2- and pNFS-level sharded clients.

    ``self.shards`` must be a list of per-shard FileSystemClients.
    Top-level directories are broadcast: mkdir creates them on every
    shard (so deep subtrees resolve locally), readdir unions children
    across shards, and remove attempts every shard.
    """

    shards: list

    def _shard(self, path: str):
        return self.shards[shard_of(path, len(self.shards))]

    def mount(self):
        infos = []
        for shard in self.shards:
            infos.append((yield from shard.mount()))
        return infos[0]

    def create(self, path: str):
        return (yield from self._shard(path).create(path))

    def open(self, path: str, write: bool = True):
        return (yield from self._shard(path).open(path, write=write))

    def read(self, f: OpenFile, offset, nbytes):
        return (yield from f.client.read(f, offset, nbytes))

    def write(self, f: OpenFile, offset, payload):
        return (yield from f.client.write(f, offset, payload))

    def fsync(self, f: OpenFile):
        return (yield from f.client.fsync(f))

    def close(self, f: OpenFile):
        return (yield from f.client.close(f))

    def getattr(self, path: str):
        return (yield from self._shard(path).getattr(path))

    def mkdir(self, path: str):
        if is_broadcast_path(path):
            for shard in self.shards:
                yield from shard.mkdir(path)
            return None
        return (yield from self._shard(path).mkdir(path))

    def readdir(self, path: str):
        if is_broadcast_path(path):
            names: set[str] = set()
            for shard in self.shards:
                names.update((yield from shard.readdir(path)))
            return sorted(names)
        return (yield from self._shard(path).readdir(path))

    def remove(self, path: str):
        if is_broadcast_path(path):
            removed = False
            for shard in self.shards:
                try:
                    yield from shard.remove(path)
                    removed = True
                except NoEntry:
                    continue
            if not removed:
                raise NoEntry(path)
            return None
        return (yield from self._shard(path).remove(path))

    def _rename_shard(self, old: str, new: str):
        if shard_of(old, len(self.shards)) != shard_of(new, len(self.shards)):
            raise FsError(
                f"rename across metadata shards is not supported: {old} -> {new}"
            )
        return self._shard(old)

    def rename(self, old: str, new: str):
        shard = self._rename_shard(old, new)
        if is_broadcast_path(old) or is_broadcast_path(new):
            attrs = yield from shard.getattr(old)
            if attrs.is_dir:
                raise FsError(f"rename of a broadcast (top-level) directory: {old}")
        return (yield from shard.rename(old, new))

    def truncate(self, path: str, size: int):
        return (yield from self._shard(path).truncate(path, size))

    def setattr(self, path: str, mode: int):
        return (yield from self._shard(path).setattr(path, mode))


class ShardedPvfs2Client(ShardRouting, FileSystemClient):
    """Routes each operation to the shard owning its path (or handle).

    ``shards[k]`` is a plain client of metadata server ``k``; see
    :meth:`repro.pvfs2.system.Pvfs2System.make_client`.
    """

    label = "pvfs2-sharded"

    def __init__(self, node: Node, shards: list[Pvfs2Client]):
        self.node = node
        self.shards = shards

    def _shard_by_handle(self, handle: int) -> Pvfs2Client:
        return self.shards[handle // SHARD_HANDLE_STRIDE]

    def open_by_handle(self, handle: int):
        return (yield from self._shard_by_handle(handle).open_by_handle(handle))

    def size_hint(self, handle, size):
        return (yield from self._shard_by_handle(handle).size_hint(handle, size))

    def install(self, path: str, nbytes: int) -> int:
        return self._shard(path).install(path, nbytes)

    def bind(self, handle: int):
        return self._shard_by_handle(handle).bind(handle)
