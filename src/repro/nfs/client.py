"""NFSv4.1 client with Linux-style page cache behaviour.

Two mechanisms here produce the paper's headline small-I/O results:

* the **write-back cache**: application writes land in the client page
  cache and are pushed asynchronously in wsize-sized WRITE RPCs, so an
  8 KB-block workload generates the same wire traffic as a 2 MB-block
  workload (Figures 6d/6e);
* **readahead**: sequential read streams trigger asynchronous window
  prefetches, so small sequential reads are served from cache
  (Figures 7c/7d).

Durability follows the prototype (§5): dirty data is committed with
COMMIT only on ``fsync``/``close``.

The I/O path is factored through ``_io_read`` / ``_io_write`` /
``_io_commit`` so the pNFS client can reroute it through a layout to
the data servers while reusing the entire cache machinery — pNFS
"leverages the strengths of NFSv4.1 to improve I/O performance over
the entire range of I/O workloads" (§1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import rpc
from repro.nfs.config import NfsConfig
from repro.nfs.intervals import IntervalSet
from repro.nfs.pagecache import END, PageCache
from repro.nfs.server import Nfs4Server
from repro.nfs.sessions import Session
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.vfs.api import FileAttributes, FileSystemClient, FsError, OpenFile, Payload

__all__ = ["Nfs4Client", "NfsOpen"]


@dataclass
class _Inode:
    """What one client keeps about one file (Linux: the inode), found by
    filehandle: its live opens, the page cache its last close retained
    (revalidated close-to-open style on the next open), the attributes
    of the read delegation it holds and, on pNFS, its layout, valid for
    the life of the inode (§5)."""

    opens: list = field(default_factory=list)
    pc: Optional[PageCache] = None
    delegation: Optional[FileAttributes] = None
    layout: object = None


@dataclass(eq=False)
class NfsOpen(OpenFile):
    """One NFS open: its own page cache over the file's ``inode`` and,
    on pNFS, the layout it does I/O through (``agg`` maps a byte range
    to the layout's data servers), the data servers and the MDS it
    owes a COMMIT and the size the MDS last heard by LAYOUTCOMMIT."""

    inode: _Inode = None
    pc: PageCache = None
    #: Opened under a read delegation: no OPEN or CLOSE on the wire.
    local: bool = False
    layout: object = None
    agg: object = None
    commit_slots: set = field(default_factory=set)
    mds_dirty: bool = False
    layoutcommitted_size: Optional[int] = None


class Nfs4Client(FileSystemClient):
    """Application-facing NFSv4.1 client bound to one node."""

    label = "nfsv4"

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        server: Nfs4Server,
        cfg: NfsConfig,
    ):
        self.sim = sim
        self.node = node
        self.server = server
        self.cfg = cfg
        self._sessions: dict[object, Session] = {}
        self._attr_cache: dict[str, tuple[object, float]] = {}
        #: Per-file records by filehandle, and the filehandle each name
        #: last resolved to here.  A file's pages outlive its opens (the
        #: reason repeated header reads during a build are free).
        self._inodes: dict[object, _Inode] = {}
        self._names: dict[str, object] = {}
        #: NFSv4 backchannel: delegation recalls (and, in the pNFS
        #: subclass, layout recalls) arrive here.
        from repro.rpc import RpcServer

        self._cb = RpcServer(sim, node, f"{node.name}.nfs4-cb", cfg.costs, threads=2)
        self._cb.register("cb_recall_delegation", self._h_cb_recall_delegation)
        self.bytes_read = 0
        self.bytes_written = 0
        # -- page-cache observability (plain ints: free when unobserved) --
        #: Bytes served from already-valid pages vs fetched on demand.
        self.cache_hit_bytes = 0
        self.cache_miss_bytes = 0
        #: Bytes prefetched vs later consumed by a read; the difference
        #: is readahead waste (fetched but never read).
        self.readahead_issued_bytes = 0
        self.readahead_used_bytes = 0
        #: Asynchronous write-backs that failed (the error is latched on
        #: the open file and surfaced at the next fsync/close).
        self.writeback_errors = 0
        #: Prefetches that failed (silently: the pages stay invalid and
        #: a later read asks for them again).
        self.readahead_errors = 0

    @property
    def readahead_wasted_bytes(self) -> int:
        """Prefetched bytes no read has (yet) consumed."""
        return self.readahead_issued_bytes - self.readahead_used_bytes

    # -- RPC plumbing ------------------------------------------------------
    def _session_for(self, server: Nfs4Server) -> Session:
        sess = self._sessions.get(server)
        if sess is None:
            sess = Session(
                self.sim,
                self.cfg.session_slots,
                name=f"{self.node.name}->{server.name}",
            )
            self._sessions[server] = sess
        return sess

    def _call(self, proc: str, args: dict, payload=None, server: Optional[Nfs4Server] = None):
        server = server or self.server
        session = self._session_for(server)
        policy = self.cfg.rpc_policy
        # With the fault layer on, each logical call gets a session
        # sequence id so retransmissions of non-idempotent ops replay
        # the cached reply instead of re-executing (exactly-once).
        seq = session.next_seq() if policy is not None else None
        if not session.slots.try_acquire():
            yield session.slots.acquire()
        try:
            result = yield from rpc.call(
                self.node,
                server.rpc,
                proc,
                args,
                payload=payload,
                policy=policy,
                session=session if policy is not None else None,
                seq=seq,
            )
        finally:
            session.slots.release()
        return result

    # -- I/O hooks (overridden by the pNFS client) ---------------------------
    def _io_read(self, f: NfsOpen, offset: int, nbytes: int):
        """One wire READ ≤ rsize; returns (result dict, payload)."""
        return (
            yield from self._call(
                "read", {"fh": f.handle, "offset": offset, "nbytes": nbytes}
            )
        )

    def _io_write(self, f: NfsOpen, offset: int, payload: Payload):
        """One wire WRITE ≤ wsize; returns (result dict, payload)."""
        return (
            yield from self._call(
                "write", {"fh": f.handle, "offset": offset}, payload=payload
            )
        )

    def _io_commit(self, f: NfsOpen):
        """COMMIT cached writes to stable storage."""
        yield from self._call("commit", {"fh": f.handle})

    def _post_open(self, f: NfsOpen):
        """pNFS hook: fetch a layout after OPEN.  No-op for plain NFSv4."""
        return None
        yield  # pragma: no cover

    # -- per-file state ---------------------------------------------------
    def _inode(self, path: str) -> _Inode:
        """The record of the file ``path`` names here (an empty one,
        not entered in the table, if none)."""
        return self._inodes.get(self._names.get(path)) or _Inode()

    def _new_open(self, path: str, fh, size: int, attrs=None, writable=True) -> NfsOpen:
        """An open of ``fh`` under ``path``, its page cache adopting the
        inode's retained one when revalidation allows."""
        inode = self._inodes.get(fh)
        if inode is None:
            inode = self._inodes[fh] = _Inode()
        self._names[path] = fh
        f = NfsOpen(path, fh, self, writable, inode=inode, pc=PageCache(size, attrs, inode.pc))
        inode.opens.append(f)
        return f

    def _forget(self, path: str) -> None:
        """``path`` no longer names its file: drop the name, and the
        record with it unless the file is open here.  Retained pages are
        found by filehandle, which PVFS2 never reuses, so this is only
        memory."""
        fh = self._names.pop(path, None)
        if fh in self._inodes and not self._inodes[fh].opens:
            del self._inodes[fh]

    # -- set-up by construction ---------------------------------------------
    def install(self, path: str, nbytes: int):
        """Install ``path``'s first ``nbytes`` straight into the exported
        file system (its ``install``), no simulated time; returns the
        filehandle."""
        return self.server.backend.install(path, nbytes)

    # -- FileSystemClient ----------------------------------------------------
    def mount(self):
        result, _ = yield from self._call("mount", {})
        return result

    def create(self, path: str):
        result, _ = yield from self._call("open", {"path": path, "create": True})
        f = self._new_open(path, result["fh"], 0)
        self._attr_cache.pop(path, None)
        yield from self._post_open(f)
        return f

    def _h_cb_recall_delegation(self, args, payload):
        """Backchannel: surrender the delegation (recall-on-reply)."""
        inode = self._inodes.get(args["fh"])
        if inode is not None:
            inode.delegation = None
        return None, None
        yield  # pragma: no cover

    def open(self, path: str, write: bool = True):
        inode = self._inode(path)
        held = inode.delegation
        if write:
            # A local writer gives up its own read delegation.
            inode.delegation = None
        elif held is not None:
            # Open served locally under the read delegation: no round
            # trip at all (the Linux NFSv4 fast path).
            f = self._new_open(path, self._names[path], held.size, held, writable=False)
            f.local = True
            yield from self._post_open(f)
            return f
        result, _ = yield from self._call(
            "open", {"path": path, "write": write, "callback": self._cb}
        )
        attrs = result["attrs"]
        f = self._new_open(path, result["fh"], attrs.size if attrs else 0, attrs, write)
        if result.get("delegation"):
            f.inode.delegation = attrs
        yield from self._post_open(f)
        return f

    # -- reads ----------------------------------------------------------------
    def _fetch_block(self, f: NfsOpen, start: int, end: int):
        pc = f.pc
        gen = pc.trunc_gen
        _result, data = yield from self._io_read(f, start, end - start)
        if pc.trunc_gen != gen:
            # The file was truncated while this fetch was on the wire:
            # the bytes predate the cut and must not repopulate pages
            # the truncation just invalidated.
            pc.forget_readahead()
            return
        # The attribute-derived size is authoritative: a short read
        # below it is a sparse hole, zero-filled exactly as the VFS
        # does.  (Servers addressing holes cannot tell them from EOF.)
        want = min(end, pc.size) - start
        if data.nbytes < want:
            pad = want - data.nbytes
            filler = (
                Payload.synthetic(pad)
                if data.is_synthetic and data.nbytes
                else Payload(b"\x00" * pad)
            )
            data = Payload.concat([data, filler])
        if data.nbytes:
            # Never clobber pages dirtied (or being flushed) while this
            # fetch was in flight — page-cache semantics: local
            # modifications win over a concurrently completing read.
            protected = pc.dirty.copy()
            for s, e in pc.flushing:
                protected.add(s, e)
            for s, e in protected.gaps(start, start + data.nbytes):
                pc.cache.write(s, data.slice(s - start, e - s))
                pc.valid.add(s, e)

    def _prefetch_block(self, f: NfsOpen, start: int, end: int):
        """One readahead block.  Its process is pre-defused: a failure
        reaches a reader already waiting on the block and is otherwise
        silent, as in Linux — the bytes stay invalid and the next read
        that wants them asks again."""
        pc = f.pc
        try:
            yield from self._fetch_block(f, start, end)
        except (FsError, rpc.RpcTimeout):
            self.readahead_errors += 1
            pc.forget_readahead()
            raise
        finally:
            pc.ra_done = True  # the next read prunes it from the pipeline

    @staticmethod
    def _blocks(ranges, size: int):
        """Cut each range, from its own start, into pieces of ≤ ``size``."""
        for s, e in ranges:
            for pos in range(s, e, size):
                yield pos, min(pos + size, e)

    def _extend_readahead(self, f: NfsOpen, pc: PageCache, end: int) -> None:
        """Top up the prefetch pipeline to a full window beyond ``end``.

        One prefetch process per rsize block, so readers wait only for
        the blocks they overlap.  Issued *before* any wait so the
        pipeline refills while the reader blocks at the frontier.
        """
        rsize = self.cfg.rsize
        top = min(-(-(end + self.cfg.readahead) // rsize) * rsize, pc.size)
        if top == pc.ra_top and end >= pc.ra_from:
            # The rounded window top moves once per rsize: this window
            # lies inside the one last examined, which left nothing to
            # issue, and nothing has invalidated that since.
            return
        pc.ra_from, pc.ra_top = end, top
        # missing = (window \ valid) \ already-pending fetches
        missing = pc.valid.gaps(end, top)
        if missing and pc.ra:
            pending = IntervalSet()
            for s, e in missing:
                pending.add(s, e)
            for s, e, _p in pc.ra:
                pending.remove(s, e)
            missing = list(pending)
        for s, e in self._blocks(missing, rsize):
            proc = self.sim.process(self._prefetch_block(f, s, e))
            proc.defuse()
            pc.ra.append((s, e, proc))
            pc.ra_lo = min(pc.ra_lo, s)
            pc.ra_issued.add(s, e)
            self.readahead_issued_bytes += e - s

    def read(self, f: NfsOpen, offset: int, nbytes: int):
        pc = f.pc
        end = offset + nbytes
        if end > pc.size:
            end = pc.size
        if end <= offset:
            return Payload(b"")

        # Sequential stream: top up the prefetch window BEFORE waiting,
        # so the pipeline refills while we block at its frontier.
        sequential = pc.last_read_end is None or offset == pc.last_read_end
        if sequential and self.cfg.readahead > 0:
            self._extend_readahead(f, pc, end)

        # Wait for readahead already covering part of this range — none
        # can when every pending block starts at or beyond ``end``.
        if pc.ra_done or pc.ra_lo < end:
            overlapping = [
                p for (s, e, p) in pc.ra if s < end and e > offset and p.is_alive
            ]
            if overlapping:
                yield self.sim.all_of(overlapping)
            pc.ra = [r for r in pc.ra if r[2].is_alive]
            pc.ra_lo = min((r[0] for r in pc.ra), default=END)
            pc.ra_done = False
            end = min(end, pc.size)  # eof may have moved during the wait
            if end <= offset:
                return Payload(b"")

        # Readahead accounting: bytes of this range a prefetch covered
        # count as used (each issued byte is counted used at most once).
        self.readahead_used_bytes += pc.ra_issued.take(offset, end)

        # Hit/miss accounting: a miss is a byte fetched synchronously
        # on demand; everything else (cached or prefetched) is a hit.
        if pc.valid.covers(offset, end):
            self.cache_hit_bytes += end - offset
        else:
            gaps = pc.valid.gaps(offset, end)
            miss = sum(e - s for s, e in gaps)
            self.cache_miss_bytes += miss
            self.cache_hit_bytes += (end - offset) - miss
            yield self.sim.spawn(
                *(
                    self._fetch_block(f, s, e)
                    for s, e in self._blocks(gaps, self.cfg.rsize)
                )
            )
            end = min(end, pc.size)
            if end <= offset:
                return Payload(b"")
        pc.last_read_end = end

        length = end - offset
        yield self.node.compute(self.cfg.client_copy_per_byte * length)
        self.bytes_read += length
        return pc.cache.read(offset, length)

    # -- writes ---------------------------------------------------------------
    def _writeback(self, f: NfsOpen, start: int, end: int):
        pc = f.pc
        data = pc.cache.read(start, end - start)
        try:
            yield from self._io_write(f, start, data)
        except (FsError, rpc.RpcTimeout) as exc:
            # Failed write-back: the pages are still dirty.  Re-mark the
            # range so the next fsync retries it (flushing the cache's
            # *current* contents, which may include newer overwrites),
            # latch the first error errseq-style on the open file, and
            # swallow the exception — an unawaited failing process would
            # otherwise crash the whole simulation.  Before this path
            # existed the range had already left ``dirty`` and the bytes
            # were silently lost while fsync reported success.
            pc.dirty.add(start, end)
            pc.flush_deferred = True
            if pc.wb_error is None:
                pc.wb_error = exc
            self.writeback_errors += 1
            return
        finally:
            pc.flushing.remove(start, end)
        pc.commit_needed = True
        self.bytes_written += data.nbytes

    def _spawn_writeback(self, f: NfsOpen, start: int, end: int) -> None:
        pc = f.pc
        pc.dirty.remove(start, end)
        pc.flushing.add(start, end)
        pc.inflight.append(self.sim.process(self._writeback(f, start, end)))

    def _flush_full_blocks(self, f: NfsOpen, pc: PageCache) -> None:
        """Kick async WRITEs for every full wsize-aligned dirty block.

        A byte already under write-back is never flushed again until
        that write-back completes (Linux PageWriteback semantics): two
        in-flight WRITEs covering the same range can be executed by the
        server in either order, so the one carrying older data may win
        — found by the torture harness as seed 146's silent reordering
        loss.  Deferred bytes stay dirty; fsync's flush loop (or the
        next full-block pass, which ``flush_deferred`` asks every write
        for until none is left) picks them up once the range clears.
        """
        wsize = self.cfg.wsize
        flushing = pc.flushing
        pc.flush_deferred = False
        for s, e in list(pc.dirty):
            pos = -(-s // wsize) * wsize
            last = (e // wsize) * wsize
            while pos < last:
                if flushing.gaps(pos, pos + wsize) == [(pos, pos + wsize)]:
                    self._spawn_writeback(f, pos, pos + wsize)
                else:
                    pc.flush_deferred = True
                pos += wsize

    def write(self, f: NfsOpen, offset: int, payload: Payload):
        pc = f.pc
        nbytes = payload.nbytes
        yield self.node.compute(self.cfg.client_copy_per_byte * nbytes)
        pc.cache.write(offset, payload)
        end = offset + nbytes
        pc.valid.add(offset, end)
        run_start, run_end = pc.dirty.add(offset, end)
        if end > pc.size:
            pc.size = end
        pc.own_writes = True
        # Only the run just written can have completed a wsize block —
        # unless an earlier pass (or a failed write-back) left one.
        wsize = self.cfg.wsize
        if pc.flush_deferred or -(-run_start // wsize) * wsize + wsize <= run_end:
            self._flush_full_blocks(f, pc)
        return nbytes

    def fsync(self, f: NfsOpen):
        pc = f.pc
        # Flush every remaining dirty run in ≤ wsize slices — except
        # bytes already under write-back, which are deferred until the
        # in-flight WRITE completes (same-range WRITEs must never race:
        # the server may apply them in either order).  Loop until
        # nothing is dirty or in flight, or a write-back error latches
        # (the failed ranges are re-dirtied; retrying them within this
        # fsync would spin against a dead server).
        while True:
            plan: list[tuple[int, int]] = []
            for s, e in list(pc.dirty):
                plan.extend(pc.flushing.gaps(s, e))
            for s, e in self._blocks(plan, self.cfg.wsize):
                self._spawn_writeback(f, s, e)
            if not pc.inflight:
                break
            while pc.inflight:
                procs, pc.inflight = pc.inflight, []
                yield self.sim.all_of(procs)
            if pc.wb_error is not None:
                break
        err = pc.wb_error
        if err is not None:
            # Surface the latched write-back failure (errseq semantics:
            # reported once, then cleared).  The failed ranges are back
            # in ``dirty``, so a later fsync — after the server
            # recovers — re-flushes them; nothing is silently dropped.
            pc.wb_error = None
            raise err
        if pc.commit_needed:
            yield from self._io_commit(f)
            pc.commit_needed = False

    def close(self, f: NfsOpen):
        try:
            yield from self.fsync(f)
        finally:
            # Retain the pages for close-to-open reuse — *including* any
            # ranges a failed flush re-dirtied.  Dirty pages belong to
            # the inode, not the fd (Linux: the address_space outlives
            # every open): when the flush above fails, close reports the
            # error, but the data must survive so a later open of the
            # same file re-flushes it once the server recovers.  Before
            # this, the re-dirtied ranges died with the abandoned
            # OpenFile and a post-reopen fsync reported clean — torture
            # seed 65 (write, reopen during a long outage, fsync).
            f.inode.pc = f.pc
            f.inode.opens.remove(f)
        if not f.local:
            yield from self._call("close", {"fh": f.handle, "write": f.writable})
        self._attr_cache.pop(f.path, None)

    # -- metadata --------------------------------------------------------------
    def getattr(self, path: str):
        hit = self._attr_cache.get(path)
        if hit is not None and hit[1] > self.sim.now:
            return self._clamp_local_size(path, hit[0])
        result, _ = yield from self._call("getattr", {"path": path})
        attrs = result["attrs"]
        self._attr_cache[path] = (attrs, self.sim.now + self.cfg.ac_timeo)
        return self._clamp_local_size(path, attrs)

    def _clamp_local_size(self, path: str, attrs):
        """Local i_size is authoritative while this client may still owe
        the server bytes (Linux keeps i_size while write-backs are
        outstanding): while the file is open here, and while a failed
        close's dirty pages wait for the next open.  Both the server's
        and the cached size under-report an extend not yet written back."""
        inode = self._inode(path)
        sizes = [f.pc.size for f in inode.opens]
        if inode.pc is not None and inode.pc.dirty:
            sizes.append(inode.pc.size)
        if sizes and attrs is not None and attrs.size < max(sizes):
            attrs = attrs.copy()
            attrs.size = max(sizes)
        return attrs

    def setattr(self, path: str, mode: int):
        result, _ = yield from self._call("setattr", {"path": path, "mode": mode})
        self._attr_cache.pop(path, None)
        return result["attrs"]

    def mkdir(self, path: str):
        yield from self._call("mkdir", {"path": path})

    def readdir(self, path: str):
        result, _ = yield from self._call("readdir", {"path": path})
        return result["names"]

    def remove(self, path: str):
        yield from self._call("remove", {"path": path, "callback": self._cb})
        self._attr_cache.pop(path, None)
        self._forget(path)

    def rename(self, old: str, new: str):
        yield from self._call("rename", {"old": old, "new": new, "callback": self._cb})
        self._attr_cache.pop(old, None)
        self._attr_cache.pop(new, None)
        # The target's file (if any) was replaced; the renamed file's
        # pages and live opens follow it to its new name.  The server
        # recalled other clients' delegations on both; this client
        # drops its own.
        inode = self._inode(old)
        self._forget(new)
        if old in self._names:
            self._names[new] = self._names.pop(old)
        inode.delegation = None
        for f in inode.opens:
            f.path = new

    def truncate(self, path: str, size: int):
        inode = self._inode(path)
        open_files = list(inode.opens)
        # Wait out in-flight write-backs first (Linux truncate blocks on
        # PageWriteback): a WRITE completing after the cut would land
        # pre-truncate bytes back on the server.
        for f in open_files:
            pc = f.pc
            while pc.inflight:
                procs, pc.inflight = pc.inflight, []
                yield self.sim.all_of(procs)
        inode.delegation = None
        result, _ = yield from self._call(
            "truncate", {"path": path, "size": size, "callback": self._cb}
        )
        # Clip every open handle of the file, and the retained
        # close-to-open cache (clipped, not evicted: dirty ranges below
        # the cut are still owed to the server).
        for f in open_files:
            f.pc.clip(size)
        if inode.pc is not None and inode.pc.size > size:
            inode.pc.clip(size)
        attrs = (result or {}).get("attrs")
        if attrs is not None:
            self._attr_cache[path] = (attrs, self.sim.now + self.cfg.ac_timeo)
        else:
            self._attr_cache.pop(path, None)

    # -- byte-range locks ----------------------------------------------------
    def _lock_owner(self, f: NfsOpen):
        return (self._cb, f.handle)

    def lock(self, f: NfsOpen, start: int, end: int, kind: str = "write"):
        """Acquire an advisory byte-range lock (NFSv4 LOCK).

        Raises :class:`repro.nfs.locks.LockConflict` when another
        client holds a conflicting lock — no blocking/queueing, as in
        NFSv4 (clients poll/retry).
        """
        result, _ = yield from self._call(
            "lock",
            {
                "fh": f.handle,
                "owner": self._lock_owner(f),
                "start": start,
                "end": end,
                "kind": kind,
            },
        )
        return result["granted"]

    def unlock(self, f: NfsOpen, start: int, end: int):
        """Release an advisory byte-range lock (NFSv4 LOCKU)."""
        result, _ = yield from self._call(
            "unlock",
            {
                "fh": f.handle,
                "owner": self._lock_owner(f),
                "start": start,
                "end": end,
            },
        )
        return result["freed"]
