"""PVFS2 metadata server.

Owns the namespace and per-file metadata (datafile handles + data
distribution).  Two behaviours the paper leans on are modelled
faithfully:

* **file creation is expensive**: creating a file allocates a datafile
  on *every* storage server (one RPC each) — the reason metadata-heavy
  phases (Postmark, SSH-build configure) are slow on parallel file
  systems (§6.4.3);
* **file size is distributed**: getattr on a file queries every storage
  server for its bstream size and combines them through the
  distribution — the metadata "ripple effect" of §3.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import rpc
from repro.pvfs2.config import Pvfs2Config
from repro.pvfs2.distribution import DISTRIBUTIONS
from repro.pvfs2.storage import Journal
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.vfs.api import InvalidArgument, IsDirectory, NoEntry
from repro.vfs.namespace import Namespace
from repro.vfs.striping import StripPattern

__all__ = ["FileMeta", "MetadataServer"]


@dataclass
class FileMeta:
    """Metadata of one regular file."""

    ns_handle: int
    dfiles: list[int]
    dist_desc: dict
    dist: StripPattern  # built from ``dist_desc`` at create


class MetadataServer:
    """The PVFS2 metadata manager (one per file system in the paper)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        daemons: list,
        cfg: Pvfs2Config,
        name: str = "",
        handle_base: int = 0,
    ):
        if not daemons:
            raise ValueError("need at least one storage daemon")
        self.sim = sim
        self.node = node
        self.daemons = daemons
        self.cfg = cfg
        self.name = name or f"{node.name}.pvfs2-mds"
        self.rpc = rpc.RpcServer(
            sim, node, self.name, cfg.meta_costs, threads=cfg.storage_threads
        )
        # Namespace and datafile handles both start above ``handle_base``:
        # metadata servers sharing storage daemons get disjoint spaces.
        self.namespace = Namespace(handle_base)
        self.files: dict[int, FileMeta] = {}
        self._next_dfile = handle_base + 1
        self._created_files = 0
        self.journal = Journal(sim, node, cfg, self.name, base=1 << 40)
        for proc, handler in [
            ("mount", self._h_mount),
            ("lookup", self._h_lookup),
            ("lookup_handle", self._h_lookup_handle),
            ("setattr", self._h_setattr),
            ("create", self._h_create),
            ("getattr", self._h_getattr),
            ("setsize_hint", self._h_setsize_hint),
            ("mkdir", self._h_mkdir),
            ("readdir", self._h_readdir),
            ("remove", self._h_remove),
            ("rename", self._h_rename),
            ("truncate", self._h_truncate),
        ]:
            self.rpc.register(proc, handler)

    # -- helpers -----------------------------------------------------------
    def _file_meta(self, ns_handle: int) -> FileMeta:
        try:
            return self.files[ns_handle]
        except KeyError:
            raise NoEntry(f"file meta for handle {ns_handle}") from None

    def _all_daemons(self, proc: str, args: list[dict]):
        """Join of ``proc`` on every storage server in parallel, server
        ``i`` with ``args[i]``; its value is the ``(result, payload)``
        replies in server order."""
        return self.sim.spawn(
            *(
                rpc.call(self.node, daemon.rpc, proc, a)
                for daemon, a in zip(self.daemons, args)
            )
        )

    def _query_sizes(self, meta: FileMeta):
        """Gather bstream sizes from every storage server (parallel)."""
        replies = yield self._all_daemons(
            "bstream_size", [{"handle": d} for d in meta.dfiles]
        )
        return [size for size, _payload in replies]

    def _entry_info(self, entry) -> dict:
        info = {
            "handle": entry.handle,
            "is_dir": entry.is_dir,
            "attrs": entry.attrs.copy(),
        }
        if not entry.is_dir:
            meta = self._file_meta(entry.handle)
            info["dfiles"] = list(meta.dfiles)
            info["dist"] = dict(meta.dist_desc)
        return info

    # -- handlers ----------------------------------------------------------
    def _h_mount(self, args, payload):
        return {"root": self.namespace.root.handle, "nservers": len(self.daemons)}, None
        yield  # pragma: no cover

    def _h_lookup(self, args, payload):
        entry = self.namespace.resolve(args["path"])
        return self._entry_info(entry), None
        yield  # pragma: no cover

    def _h_lookup_handle(self, args, payload):
        entry = self.namespace.by_handle(args["handle"])
        return self._entry_info(entry), None
        yield  # pragma: no cover

    def _h_setattr(self, args, payload):
        entry = self.namespace.resolve(args["path"])
        if args.get("mode") is not None:
            entry.attrs.mode = args["mode"]
        entry.attrs.ctime = self.sim.now
        return self._entry_info(entry), None
        yield  # pragma: no cover

    def _h_create(self, args, payload):
        path = args["path"]
        nservers = len(self.daemons)
        dist = args.get("dist")
        if dist is None:
            # Rotate the first datafile per file so concurrent streams
            # spread over the storage servers instead of convoying.
            dist = {
                "type": "simple_stripe",
                "nservers": nservers,
                "stripe_size": self.cfg.stripe_size,
                "start_server": self._created_files % nservers,
            }
        # A description every later getattr and client can place bytes
        # by, over this file system's servers — or no file at all.
        try:
            pattern = DISTRIBUTIONS[dist["type"]](dist)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"distribution {dist!r}: {exc!r}") from None
        if dist["nservers"] != nservers:
            raise InvalidArgument(f"distribution {dist!r} is not over {nservers} servers")
        self._created_files += 1
        entry = self.namespace.create(path, is_dir=False, now=self.sim.now)
        dfiles = []
        for _ in self.daemons:
            dfiles.append(self._next_dfile)
            self._next_dfile += 1
        meta = FileMeta(entry.handle, dfiles, dist, pattern)
        self.files[entry.handle] = meta
        yield from self.journal.write()
        # Allocate a datafile on every storage server — the costly part.
        yield self._all_daemons("create_bstream", [{"handle": d} for d in dfiles])
        return self._entry_info(entry), None

    def _h_getattr(self, args, payload):
        if "handle" in args:
            entry = self.namespace.by_handle(args["handle"])
        else:
            entry = self.namespace.resolve(args["path"])
        attrs = entry.attrs.copy()
        if not entry.is_dir:
            meta = self._file_meta(entry.handle)
            sizes = yield from self._query_sizes(meta)
            attrs.size = meta.dist.logical_size(sizes)
        info = self._entry_info(entry)
        info["attrs"] = attrs
        return info, None

    def _h_setsize_hint(self, args, payload):
        """Record an mtime/size hint after client I/O (cheap, local)."""
        entry = self.namespace.by_handle(args["handle"])
        entry.attrs.mtime = self.sim.now
        if args.get("size") is not None:
            entry.attrs.size = max(entry.attrs.size, args["size"])
        return None, None
        yield  # pragma: no cover

    def _h_mkdir(self, args, payload):
        entry = self.namespace.create(args["path"], is_dir=True, now=self.sim.now)
        yield from self.journal.write()
        return self._entry_info(entry), None

    def _h_readdir(self, args, payload):
        return self.namespace.listdir(args["path"]), None
        yield  # pragma: no cover

    def _h_remove(self, args, payload):
        entry = self.namespace.resolve(args["path"])
        if entry.is_dir:
            self.namespace.remove(args["path"], now=self.sim.now)
            yield from self.journal.write()
            return None, None
        meta = self.files.pop(entry.handle, None)
        self.namespace.remove(args["path"], now=self.sim.now)
        yield from self.journal.write()
        if meta is not None:
            yield self._all_daemons(
                "remove_bstream", [{"handle": d} for d in meta.dfiles]
            )
        return None, None

    def _h_rename(self, args, payload):
        self.namespace.rename(args["old"], args["new"], now=self.sim.now)
        yield from self.journal.write()
        return None, None

    def _h_truncate(self, args, payload):
        entry = self.namespace.resolve(args["path"])
        if entry.is_dir:
            raise IsDirectory(args["path"])
        meta = self._file_meta(entry.handle)
        size = args["size"]
        # Per-server local sizes implied by truncating to `size`.
        local_end = meta.dist.local_sizes(size)
        yield self._all_daemons(
            "truncate_bstream",
            [{"handle": d, "size": n} for d, n in zip(meta.dfiles, local_end)],
        )
        entry.attrs.size = size
        # Deterministic attribute bump: truncate is a metadata change,
        # so clients revalidating by mtime must see it move.
        entry.attrs.mtime = self.sim.now
        entry.attrs.ctime = self.sim.now
        return None, None
