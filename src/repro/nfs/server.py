"""NFSv4(.1) server exporting any FileSystemClient backend.

The server is the building block of four of the five architectures:

* **NFSv4**: one server whose backend is a full PVFS2 client;
* **pNFS-3tier** data servers: backends are full PVFS2 clients on
  dedicated nodes;
* **pNFS-2tier** data servers: backends are full PVFS2 clients
  colocated with storage nodes;
* **Direct-pNFS** data servers: backends are *local-only* PVFS2
  conduits (loopback), plus a per-byte loopback copy tax.

Filehandles are the backend's stable object handles; a data server that
receives I/O for a filehandle it has never opened binds it lazily via
the backend's ``open_by_handle`` (how our Direct-pNFS data servers
serve layouts issued by the metadata server, §5).

WRITE honours the prototype's departure from NFSv4 durability (§5):
every write is UNSTABLE — it lands in the exported file system's
storage-node memory and reaches the platter on COMMIT (client
fsync/close), matching PVFS2 semantics.
"""

from __future__ import annotations

from dataclasses import replace

from repro import rpc
from repro.nfs.config import NfsConfig
from repro.nfs.locks import LockManager
from repro.rpc import RpcServer
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.vfs.api import FileSystemClient, FsError, InvalidArgument, OpenFile

__all__ = ["Nfs4Server"]


class Nfs4Server:
    """One NFSv4.1 server endpoint on a node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        backend: FileSystemClient,
        cfg: NfsConfig,
        name: str = "",
        extra_read_per_byte: float = 0.0,
        extra_write_per_byte: float = 0.0,
    ):
        self.sim = sim
        self.node = node
        self.backend = backend
        self.cfg = cfg
        self.name = name or f"{node.name}.nfsd"
        # The surcharges — extra CPU per request (write) and reply (read)
        # byte: the Direct-pNFS loopback conduit copy, the gateway costs
        # of a full parallel-FS backend (repro.cluster.configs) — are
        # part of the server's streaming pipeline: fold them into the RPC
        # cost model so they overlap the wire (and still consume this
        # node's CPU).
        costs = replace(
            cfg.costs,
            server_per_byte_in=cfg.costs.server_per_byte_in + extra_write_per_byte,
            server_per_byte_out=cfg.costs.server_per_byte_out + extra_read_per_byte,
        )
        self.rpc = RpcServer(sim, node, self.name, costs, threads=cfg.server_threads)
        self._open_files: dict[object, OpenFile] = {}
        self._next_stateid = 1
        # NFSv4 open/delegation state: read delegations are granted to
        # read-only opens with no conflicting writer, held per client
        # callback endpoint, and recalled (CB_RECALL) when a writer
        # appears.  Lease bookkeeping tracks per-client liveness.
        self._read_delegations: dict[object, dict[object, int]] = {}  # fh -> {cb: stateid}
        self._write_opens: dict[object, int] = {}
        self._lease_seen: dict[object, float] = {}  # cb -> last renewal
        self.delegations_granted = 0
        self.delegations_recalled = 0
        self.locks = LockManager()
        for proc, handler in [
            ("mount", self._h_mount),
            ("open", self._h_open),
            ("close", self._h_close),
            ("read", self._h_read),
            ("write", self._h_write),
            ("commit", self._h_commit),
            ("getattr", self._h_getattr),
            ("setattr", self._h_setattr),
            ("mkdir", self._h_mkdir),
            ("readdir", self._h_readdir),
            ("remove", self._h_remove),
            ("rename", self._h_rename),
            ("truncate", self._h_truncate),
            ("renew", self._h_renew),
            ("lock", self._h_lock),
            ("unlock", self._h_unlock),
        ]:
            self.rpc.register(proc, handler)

    # -- backend plumbing ---------------------------------------------------
    def _file(self, fh):
        """Bind a filehandle to a backend open file, lazily."""
        f = self._open_files.get(fh)
        if f is None:
            f = yield from self.backend.open_by_handle(fh)
            self._open_files[fh] = f
        return f

    def bind(self, fh) -> None:
        """Bind ``fh`` now, as :meth:`_file` would at its first I/O, with
        no simulated time (set-up of installed files)."""
        if fh not in self._open_files:
            self._open_files[fh] = self.backend.bind(fh)

    # -- handlers -------------------------------------------------------------
    def _h_mount(self, args, payload):
        info = yield from self.backend.mount()
        return {"root": info.get("root", 1)}, None

    def _h_open(self, args, payload):
        path, create = args["path"], args.get("create", False)
        write = bool(args.get("write", True)) or create
        callback = args.get("callback")
        if callback is not None:
            self._lease_seen[callback] = self.sim.now
        if create:
            f = yield from self.backend.create(path)
        else:
            f = yield from self.backend.open(path, write=write)
        self._open_files[f.handle] = f
        stateid = self._next_stateid
        self._next_stateid += 1
        attrs = yield from self.backend.getattr(path)
        delegation = None
        if write:
            # A writer conflicts with outstanding read delegations.
            yield from self.recall_read_delegations(f.handle, exclude=callback)
            self._write_opens[f.handle] = self._write_opens.get(f.handle, 0) + 1
        elif callback is not None and not self._write_opens.get(f.handle):
            holders = self._read_delegations.setdefault(f.handle, {})
            if callback not in holders:
                holders[callback] = stateid
                self.delegations_granted += 1
            delegation = {"type": "read", "stateid": holders[callback]}
        return {
            "fh": f.handle,
            "stateid": stateid,
            "attrs": attrs,
            "write": write,
            "delegation": delegation,
        }, None

    def _h_close(self, args, payload):
        f = self._open_files.get(args["fh"])
        if args.get("write"):
            count = self._write_opens.get(args["fh"], 0) - 1
            if count > 0:
                self._write_opens[args["fh"]] = count
            else:
                self._write_opens.pop(args["fh"], None)
        if f is not None:
            yield from self.backend.close(f)
        return None, None

    def _h_renew(self, args, payload):
        self._lease_seen[args["callback"]] = self.sim.now
        return {"lease_time": self.cfg.lease_time}, None
        yield  # pragma: no cover

    # -- byte-range locks (NFSv4 LOCK / LOCKU) ------------------------------
    def _h_lock(self, args, payload):
        granted = self.locks.lock(
            args["fh"], args["owner"], args["start"], args["end"], args["kind"]
        )
        return {"granted": (granted.start, granted.end, granted.kind)}, None
        yield  # pragma: no cover

    def _h_unlock(self, args, payload):
        freed = self.locks.unlock(args["fh"], args["owner"], args["start"], args["end"])
        return {"freed": freed}, None
        yield  # pragma: no cover

    # -- delegation / lease state machinery ---------------------------------
    def _cb_call(self, callback, proc, args):
        """Backchannel RPC with the server's bounded retry budget.

        A client that cannot be reached must not park server-side work
        forever: the state being recalled is already revoked in the
        server's tables, so when the callback exhausts its retries the
        revocation simply stands.
        """
        try:
            yield from rpc.call(
                self.node, callback, proc, args, policy=self.cfg.rpc_policy
            )
        except (rpc.RpcTimeout, FsError):
            pass

    def recall_read_delegations(self, fh, exclude=None):
        """Generator: CB_RECALL outstanding read delegations on ``fh``.

        The holder drops its delegation while answering the callback
        (recall-on-reply — the DELEGRETURN exchange folded into one
        round trip for simplicity).  ``exclude`` skips the requester's
        own callback endpoint: its delegation is simply discarded.
        """
        holders = self._read_delegations.get(fh)
        if not holders:
            return
        recalls = []
        for cb, stateid in list(holders.items()):
            del holders[cb]
            if cb is exclude:
                continue
            recalls.append(
                self._cb_call(cb, "cb_recall_delegation", {"fh": fh, "stateid": stateid})
            )
            self.delegations_recalled += 1
        yield self.sim.spawn(*recalls)

    def expire_client(self, callback) -> int:
        """Drop all state of a client whose lease lapsed; returns the
        number of delegations discarded (no callbacks — it is gone)."""
        dropped = 0
        for holders in self._read_delegations.values():
            if holders.pop(callback, None) is not None:
                dropped += 1
        # Lock owners are (callback, tag) pairs: drop the client's locks.
        for fh in list(self.locks._locks):
            for lock in list(self.locks.held(fh)):
                if isinstance(lock.owner, tuple) and lock.owner[0] is callback:
                    dropped += self.locks.release_owner(lock.owner)
        self._lease_seen.pop(callback, None)
        return dropped

    def lease_expired(self, callback) -> bool:
        """True if the client has not renewed within the lease time."""
        last = self._lease_seen.get(callback)
        return last is not None and self.sim.now - last > self.cfg.lease_time

    def _h_read(self, args, payload):
        fh, offset, nbytes = args["fh"], args["offset"], args["nbytes"]
        f = yield from self._file(fh)
        data = yield from self.backend.read(f, offset, nbytes)
        return {"count": data.nbytes, "eof": data.nbytes < nbytes}, data

    def _h_write(self, args, payload):
        fh, offset = args["fh"], args["offset"]
        if payload is None:
            raise InvalidArgument("WRITE carries no data")  # NFS4ERR_INVAL
        f = yield from self._file(fh)
        count = yield from self.backend.write(f, offset, payload)
        return {"count": count}, None

    def _h_commit(self, args, payload):
        f = yield from self._file(args["fh"])
        yield from self.backend.fsync(f)
        return None, None

    def _h_getattr(self, args, payload):
        attrs = yield from self.backend.getattr(args["path"])
        return {"attrs": attrs}, None

    def _h_setattr(self, args, payload):
        attrs = yield from self.backend.setattr(args["path"], args["mode"])
        return {"attrs": attrs}, None

    def _h_mkdir(self, args, payload):
        yield from self.backend.mkdir(args["path"])
        return None, None

    def _h_readdir(self, args, payload):
        names = yield from self.backend.readdir(args["path"])
        return {"names": names}, None

    def _recall_detached(self, args, *paths):
        """CB_RECALL the read delegations on the files open under
        ``paths``, except the caller's own, without blocking its op.

        Truncate, REMOVE and RENAME conflict with read delegations
        exactly as a writer OPEN does (RFC 7530 §10.4.4): holders could
        otherwise keep serving a cut, removed or replaced file locally.
        A delegation can only exist for a file this server has opened,
        so the open-file table names each delegated file's path.
        Recalls are fired *without blocking the op*: a recall is a
        backchannel round trip that can outlive this client's RPC
        patience, and a handler parked on it would be abandoned and
        re-executed on retransmission — an exactly-once violation the
        torture harness caught.  Real servers answer the conflicting op
        with NFS4ERR_DELAY rather than blocking; firing the recall
        asynchronously models the same non-blocking property.
        """
        for fh, holders in list(self._read_delegations.items()):
            if holders and self._open_files[fh].path in paths:
                self.sim.process(
                    self.recall_read_delegations(fh, exclude=args.get("callback")),
                    name=f"{self.name}.recall",
                )

    def _h_remove(self, args, payload):
        self._recall_detached(args, args["path"])
        yield from self.backend.remove(args["path"])
        return None, None

    def _h_rename(self, args, payload):
        self._recall_detached(args, args["old"], args["new"])
        yield from self.backend.rename(args["old"], args["new"])
        return None, None

    def _h_truncate(self, args, payload):
        path = args["path"]
        self._recall_detached(args, path)
        yield from self.backend.truncate(path, args["size"])
        # Reply with post-truncate attributes so the client can refresh
        # its attribute cache deterministically (size and bumped mtime)
        # instead of waiting out ac_timeo on a stale entry.
        attrs = yield from self.backend.getattr(path)
        return {"attrs": attrs}, None
