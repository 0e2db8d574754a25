"""The native PVFS2 client.

Implements :class:`~repro.vfs.api.FileSystemClient` by speaking the
PVFS2 storage protocol directly to the storage daemons and the metadata
protocol to the MDS.  Faithful to the traits the paper attributes to
PVFS2 1.5.1 (§5):

* **no client data cache and no write-back cache** — every application
  read/write becomes storage-protocol requests immediately, so 8 KB
  application I/O pays a full round trip per request (Figures 6d/6e,
  7c/7d);
* **large transfer buffers** — a read/write is one request per storage
  server touched, for that server's single bstream extent of the byte
  range however many stripe units it spans, moved in ``flow_unit``
  slices;
* **limited request parallelisation** — at most ``client_max_flight``
  flow units outstanding per client;
* **substantial per-request overhead** — request setup once per server
  touched, on top of the storage-protocol RPC cost of each flow unit.

A ``local_only`` restriction turns the client into the loopback conduit
used by Direct-pNFS data servers: it refuses I/O that would touch a
non-local server, guaranteeing the data server only ever reads its own
storage node (DESIGN.md §4.1).
"""

from __future__ import annotations

from repro import rpc
from repro.pvfs2.config import Pvfs2Config
from repro.pvfs2.distribution import DISTRIBUTIONS, extents
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.sim.resources import Resource
from repro.vfs.api import (
    FileSystemClient,
    FsError,
    IsDirectory,
    OpenFile,
    Payload,
)
from repro.vfs.striping import StripPattern

__all__ = ["Pvfs2Client"]


class Pvfs2Client(FileSystemClient):
    """Application-facing PVFS2 client bound to one cluster node."""

    label = "pvfs2"

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        mds,
        daemons: list,
        cfg: Pvfs2Config,
        local_only: bool = False,
    ):
        self.sim = sim
        self.node = node
        self.mds = mds
        self.daemons = daemons
        self.cfg = cfg
        self.local_only = local_only
        self._flight = Resource(sim, cfg.client_max_flight, name=f"{node.name}.pvfs2flight")
        self.bytes_read = 0
        self.bytes_written = 0

    # -- metadata plumbing -------------------------------------------------
    def _mds_call(self, proc: str, args: dict):
        return rpc.call(self.node, self.mds.rpc, proc, args)

    def _require_file(self, info: dict, path: str) -> None:
        if info["is_dir"]:
            raise IsDirectory(path)

    def _dist_of(self, f: OpenFile) -> StripPattern:
        dist = f.state.get("dist_obj")
        if dist is None:
            desc = f.state["dist"]
            dist = f.state["dist_obj"] = DISTRIBUTIONS[desc["type"]](desc)
        return dist

    def _open_from_info(self, path: str, info: dict) -> OpenFile:
        f = OpenFile(path=path, handle=info["handle"], client=self)
        f.state["dfiles"] = info["dfiles"]
        f.state["dist"] = info["dist"]
        return f

    # -- FileSystemClient --------------------------------------------------
    def mount(self):
        info, _ = yield from self._mds_call("mount", {})
        return info

    def create(self, path: str):
        info, _ = yield from self._mds_call("create", {"path": path})
        return self._open_from_info(path, info)

    def open(self, path: str, write: bool = True):
        info, _ = yield from self._mds_call("lookup", {"path": path})
        self._require_file(info, path)
        return self._open_from_info(path, info)

    def open_by_handle(self, handle: int):
        info, _ = yield from self._mds_call("lookup_handle", {"handle": handle})
        self._require_file(info, f"handle:{handle}")
        return self._open_from_info(f"handle:{handle}", info)

    def setattr(self, path: str, mode=None):
        info, _ = yield from self._mds_call("setattr", {"path": path, "mode": mode})
        return info["attrs"]

    def size_hint(self, handle: int, size):
        yield from self._mds_call("setsize_hint", {"handle": handle, "size": size})

    def _check_local(self, server_idx: int) -> None:
        if self.local_only and self.daemons[server_idx].node is not self.node:
            raise FsError(
                f"local-only PVFS2 conduit on {self.node.name} asked for "
                f"remote server {server_idx}"
            )

    def _unit_io(self, op: str, server: int, args: dict, payload=None):
        if not self._flight.try_acquire():
            yield self._flight.acquire()
        try:
            return (
                yield from rpc.call(
                    self.node, self.daemons[server].rpc, op, args, payload=payload
                )
            )
        finally:
            self._flight.release()

    def _split_units(self, dist, offset: int, nbytes: int):
        """Flow units of one op: ``(server, local, length, setup, parts)``.

        Each server's bstream extent of the range is cut into
        ``flow_unit`` slices.  ``parts`` are the ``(src_off, length)``
        logical pieces (``src_off`` relative to ``offset``) that tile a
        slice; ``setup`` marks the first slice of an extent.
        """
        flow_unit = self.cfg.flow_unit
        units: list[tuple[int, int, int, bool, list[tuple[int, int]]]] = []
        for server, ext_local, ext_length, ext_pieces in extents(dist, offset, nbytes):
            self._check_local(server)
            pieces = iter(ext_pieces)
            _server, _local, piece_length, piece_logical = next(pieces)
            used = 0  # bytes of the current piece already handed to a slice
            pos = 0
            while pos < ext_length:
                length = ext_length - pos
                if length > flow_unit:
                    length = flow_unit
                parts = []
                need = length
                while need:
                    if used == piece_length:
                        _server, _local, piece_length, piece_logical = next(pieces)
                        used = 0
                    take = piece_length - used
                    if take > need:
                        take = need
                    parts.append((piece_logical - offset + used, take))
                    used += take
                    need -= take
                units.append((server, ext_local + pos, length, pos == 0, parts))
                pos += length
        return units

    def _setup(self, units):
        """Client-side request setup, once per server touched by the op:
        the CPU charge's event (already fired when there is none)."""
        nsetups = 0
        for unit in units:
            if unit[3]:
                nsetups += 1
        return self.node.compute(self.cfg.request_setup_client * nsetups)

    def read(self, f: OpenFile, offset: int, nbytes: int):
        dist = self._dist_of(f)
        dfiles = f.state["dfiles"]
        units = self._split_units(dist, offset, nbytes)
        yield self._setup(units)
        results = yield self.sim.spawn(
            *(
                self._unit_io(
                    "read",
                    server,
                    {
                        "handle": dfiles[server],
                        "offset": local,
                        "nbytes": length,
                        "setup": setup,
                    },
                )
                for server, local, length, setup, _parts in units
            )
        )
        # Scatter each reply back onto its logical pieces; a reply cut
        # short by the end of its bstream leaves the later ones empty.
        # A reply is never longer than asked, so a one-piece slice's
        # reply is its piece as it stands.
        frags: list[tuple[int, int, Payload]] = []
        for (_server, _local, _length, _setup, parts), (_n, reply) in zip(units, results):
            if len(parts) == 1:
                src_off, length = parts[0]
                frags.append((src_off, length, reply))
                continue
            pos = 0
            for src_off, length in parts:
                frags.append((src_off, length, reply.slice(pos, length)))
                pos += length
        # Logical offsets are unique: the sort never compares payloads.
        frags.sort()
        out = Payload.assemble([(want, p) for _src_off, want, p in frags])
        self.bytes_read += out.nbytes
        return out

    def write(self, f: OpenFile, offset: int, payload: Payload):
        dist = self._dist_of(f)
        dfiles = f.state["dfiles"]
        units = self._split_units(dist, offset, payload.nbytes)
        yield self._setup(units)
        yield self.sim.spawn(
            *(
                self._unit_io(
                    "write",
                    server,
                    {"handle": dfiles[server], "offset": local, "setup": setup},
                    # Gather the slice's logical pieces into one payload.
                    payload.slice(*parts[0])
                    if len(parts) == 1
                    else Payload.concat([payload.slice(*part) for part in parts]),
                )
                for server, local, _length, setup, parts in units
            )
        )
        self.bytes_written += payload.nbytes
        # No MDS round trip on the write path: PVFS2 file size lives on
        # the storage servers and is recomputed by getattr.
        return payload.nbytes

    def fsync(self, f: OpenFile):
        dfiles = f.state["dfiles"]
        targets = []
        for server, dfile in enumerate(dfiles):
            if self.local_only and self.daemons[server].node is not self.node:
                continue  # conduit flushes only its local daemon
            targets.append((server, dfile))
        # Posting one flush request per storage server costs the same
        # request setup as any other PVFS2 request — a real burden for
        # fsync-per-transaction workloads (§6.4).
        if targets:
            yield self.node.compute(self.cfg.request_setup_client * len(targets))
        yield self.sim.spawn(
            *(
                rpc.call(self.node, self.daemons[server].rpc, "flush", {"handle": dfile})
                for server, dfile in targets
            )
        )

    def close(self, f: OpenFile):
        # PVFS2 close is a purely local operation: no cache to flush,
        # durability only on explicit fsync (paper §5).
        f.closed = True
        return None
        yield  # pragma: no cover

    def getattr(self, path: str):
        info, _ = yield from self._mds_call("getattr", {"path": path})
        return info["attrs"]

    def mkdir(self, path: str):
        info, _ = yield from self._mds_call("mkdir", {"path": path})
        return info

    def readdir(self, path: str):
        names, _ = yield from self._mds_call("readdir", {"path": path})
        return names

    def remove(self, path: str):
        yield from self._mds_call("remove", {"path": path})

    def rename(self, old: str, new: str):
        yield from self._mds_call("rename", {"old": old, "new": new})

    def truncate(self, path: str, size: int):
        """Truncate ``path`` to ``size`` bytes (extension beyond POSIX open)."""
        yield from self._mds_call("truncate", {"path": path, "size": size})

    # -- set-up by construction -------------------------------------------
    def install(self, path: str, nbytes: int) -> int:
        """Fill the existing file ``path`` with ``nbytes`` of synthetic
        data, bypassing the wire: a plain call, no simulated time.

        The file is resolved at its metadata server and each server's
        extent of ``[0, nbytes)`` is laid into its bstream, durable
        (:meth:`StorageDaemon.install`) — the state a write of the whole
        file, an fsync and a drain of the daemons would leave, without
        simulating any of it.  Workloads use it to set up data sets
        their measured phase only reads.  Returns the file's handle.
        """
        f = self.bind(self.mds.namespace.resolve(path).handle)
        dfiles = f.state["dfiles"]
        for ext in extents(self._dist_of(f), 0, nbytes):
            self.daemons[ext.server].install(
                dfiles[ext.server], ext.local, Payload.synthetic(ext.length)
            )
        return f.handle

    def bind(self, handle: int) -> OpenFile:
        """What :meth:`open_by_handle` returns, read off the metadata
        server directly: no RPC, no simulated time."""
        info = self.mds._entry_info(self.mds.namespace.by_handle(handle))
        self._require_file(info, f"handle:{handle}")
        return self._open_from_info(f"handle:{handle}", info)
