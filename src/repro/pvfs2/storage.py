"""PVFS2 storage daemon ("trove" + "flow" in real PVFS2).

Each daemon owns a set of *bstreams* — the local byte streams backing
one datafile each — kept in memory (the paper's read experiments use a
warm server cache) and drained to disk by a write-behind flusher.

Two bounded pools shape the performance curves:

* ``flow_pool`` — the fixed kernel↔user transfer-buffer pool.  Every
  read/write request holds one buffer while the daemon copies data
  between the request and the bstream; this is the "fixed number of
  buffers to transfer data between the kernel and the user-level
  storage daemon" that caps single-file read throughput (§6.2).
* ``dirty_tokens`` — the in-memory dirty-data bound.  Writes admit
  instantly until the watermark, then back-pressure to disk speed,
  which makes sustained large writes disk-bound as in Figure 6.

Durability: data reaches the platter via the flusher; a ``flush``
request (client fsync) blocks until the daemon's dirty backlog is
drained, matching "PVFS2 buffers data on storage nodes and sends the
data to stable storage only when necessary or at the application's
request" (§5).
"""

from __future__ import annotations

from repro.nfs.intervals import IntervalSet
from repro.pvfs2.config import Pvfs2Config
from repro.rpc import RpcServer
from repro.sim.engine import Event, Simulator
from repro.sim.node import Node
from repro.sim.resources import Resource
from repro.vfs.api import FsError, InvalidArgument, Payload
from repro.vfs.filedata import FileData

__all__ = ["Journal", "StorageDaemon"]

#: Max bytes the flusher coalesces into one disk request.
FLUSH_COALESCE = 4 * 1024 * 1024

#: Virtual disk address stride between bstreams (forces repositioning
#: when the flusher alternates between files).
BSTREAM_STRIDE = 1 << 34

#: Extra user-level copy cost (s/byte) for the daemon's kernel↔user hop.
DAEMON_COPY_PER_BYTE = 2.0e-9


def cscan_pick(dirty: dict[int, IntervalSet], sweep_pos: tuple[int, int]) -> int | None:
    """The bstream whose first dirty extent the flusher writes next;
    ``None`` when nothing is dirty.

    A C-SCAN elevator over ``(bstream, offset)``: the lowest first
    extent at or after ``sweep_pos`` (the end of the last one written),
    wrapping to the lowest of all when none is.  Interval sets have
    already merged contiguous arrivals, so each pick is a maximal
    sequential run.  A bstream has one first extent, so the order is
    the handles' except on the sweep's own bstream, whose first extent
    counts as ahead only from ``sweep_pos`` on.  One walk of ``dirty``.
    """
    sweep_handle, sweep_offset = sweep_pos
    lowest = ahead = None
    for handle, ivs in dirty.items():
        if not ivs:
            continue
        if lowest is None or handle < lowest:
            lowest = handle
        if (ahead is None or handle < ahead) and (
            handle > sweep_handle
            or (handle == sweep_handle and ivs.first[0] >= sweep_offset)
        ):
            ahead = handle
    return lowest if ahead is None else ahead


class Journal:
    """Synchronous metadata writes (trove/BDB sync) on a node's first
    disk, one at a time, laid out sequentially from disk address ``base``."""

    def __init__(self, sim: Simulator, node: Node, cfg: Pvfs2Config, name: str, base: int):
        self.node = node
        self.cfg = cfg
        self.base = base
        self._lock = Resource(sim, 1, name=f"{name}.journal")
        self._seq = 0

    def write(self):
        if not self.cfg.metadata_sync or not self.node.disks:
            return
        if not self._lock.try_acquire():
            yield self._lock.acquire()
        try:
            offset = self.base + self._seq * self.cfg.journal_io_bytes
            self._seq += 1
            yield from self.node.disks[0].io(
                offset, self.cfg.journal_io_bytes, write=True
            )
        finally:
            self._lock.release()


class StorageDaemon:
    """One storage node's data service."""

    def __init__(self, sim: Simulator, node: Node, cfg: Pvfs2Config):
        self.sim = sim
        self.node = node
        self.cfg = cfg
        self.name = f"{node.name}.pvfs2d"
        self.rpc = RpcServer(sim, node, self.name, cfg.costs, threads=cfg.storage_threads)
        self.flow_pool = Resource(sim, cfg.flow_buffers, name=f"{self.name}.flow")
        self.dirty_tokens = Resource(
            sim, cfg.dirty_watermark, name=f"{self.name}.dirty"
        )
        self.bstreams: dict[int, FileData] = {}
        #: Byte ranges known to have reached the disk (per bstream) —
        #: the survivors of a crash.
        self._persisted: dict[int, IntervalSet] = {}
        self.crashes = 0
        ndisks = max(1, len(node.disks))
        #: Dirty byte ranges per disk, per bstream — *interval sets*, so
        #: overwriting already-dirty bytes costs nothing extra (page-
        #: cache semantics) and contiguous arrivals coalesce for free.
        self._dirty: list[dict[int, IntervalSet]] = [{} for _ in range(ndisks)]
        self._pending_bytes = 0
        self._dirty_signal: list[Event | None] = [None] * ndisks
        self._drain_waiters: list[Event] = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.journal = Journal(sim, node, cfg, self.name, base=1 << 41)
        for proc, handler in [
            ("read", self._h_read),
            ("write", self._h_write),
            ("flush", self._h_flush),
            ("create_bstream", self._h_create),
            ("remove_bstream", self._h_remove),
            ("bstream_size", self._h_size),
            ("truncate_bstream", self._h_truncate),
        ]:
            self.rpc.register(proc, handler)
        for disk_idx in range(ndisks):
            sim.process(
                self._flusher(disk_idx), name=f"{self.name}.flusher{disk_idx}"
            )

    # -- helpers ---------------------------------------------------------
    def _bstream(self, handle: int) -> FileData:
        """Bstream ``handle``, created empty if it does not exist yet."""
        fd = self.bstreams.get(handle)
        if fd is None:
            fd = self.bstreams[handle] = FileData()
        return fd

    def _disk_index(self, handle: int) -> int:
        """Bstreams are spread over the node's disks (two in 3-tier)."""
        return handle % len(self._dirty)

    @property
    def dirty_backlog(self) -> int:
        """Bytes accepted but not yet on the platter."""
        return self._pending_bytes

    # -- handlers ----------------------------------------------------------
    def _h_create(self, args, payload):
        self._bstream(args["handle"])
        yield from self.journal.write()
        return None, None

    def _h_remove(self, args, payload):
        handle = args["handle"]
        self.bstreams.pop(handle, None)
        self._persisted.pop(handle, None)
        # The file's queued write-behind goes with it: its bytes will
        # never reach the disk, so they give back their admission
        # tokens and leave the backlog a flush barrier waits on.  (An
        # extent already on the arm finishes and is accounted by the
        # flusher.)
        ivs = self._dirty[self._disk_index(handle)].pop(handle, None)
        if ivs:
            self._retire(ivs.total)
        yield from self.journal.write()
        return None, None

    def _h_size(self, args, payload):
        fd = self.bstreams.get(args["handle"])
        return (fd.size if fd is not None else 0), None
        yield  # pragma: no cover

    def _h_truncate(self, args, payload):
        self._bstream(args["handle"]).truncate(args["size"])
        return None, None
        yield  # pragma: no cover

    def _h_read(self, args, payload):
        handle, offset, nbytes = args["handle"], args["offset"], args["nbytes"]
        if args.get("setup"):
            yield self.node.compute(self.cfg.request_setup_server)
        fd = self.bstreams.get(handle)
        if fd is None:
            return 0, Payload(b"")
        if not self.flow_pool.try_acquire():
            yield self.flow_pool.acquire()
        try:
            data = fd.read(offset, nbytes)
            yield self.node.compute(DAEMON_COPY_PER_BYTE * data.nbytes)
        finally:
            self.flow_pool.release()
        self.bytes_read += data.nbytes
        return data.nbytes, data

    def _h_write(self, args, payload):
        handle, offset = args["handle"], args["offset"]
        if payload is None:
            raise InvalidArgument("write carries no data")
        nbytes = payload.nbytes
        if args.get("setup"):
            yield self.node.compute(
                self.cfg.request_setup_server + self.cfg.request_setup_write_extra
            )
        delta = 0
        if not self.flow_pool.try_acquire():
            yield self.flow_pool.acquire()
        try:
            yield self.node.compute(DAEMON_COPY_PER_BYTE * nbytes)
            disk_idx = self._disk_index(handle)
            # Overwrites of already-dirty bytes are free (the page is
            # rewritten in memory); only newly-dirtied bytes need
            # admission tokens.  The token acquire yields, and the
            # flusher may drain (and even drop) this bstream's interval
            # set meanwhile — so re-fetch and re-count until settled,
            # then mutate with no yields in between.
            dirty = self._dirty[disk_idx]
            acquired = 0
            while True:
                ivs = dirty.get(handle)
                if ivs is None:
                    ivs = dirty[handle] = IntervalSet()
                overlap = 0
                for s, e in ivs.runs_in(offset, offset + nbytes):
                    overlap += e - s
                need = (nbytes - overlap) - acquired
                if need <= 0:
                    break
                grant = min(need, self.dirty_tokens.capacity)
                if not self.dirty_tokens.try_acquire(grant):
                    yield self.dirty_tokens.acquire(grant)
                acquired += grant
            self._bstream(handle).write(offset, payload)
            if nbytes > 0:
                # Nothing yielded since ``overlap`` was counted: the add
                # dirties exactly the rest.
                ivs.add(offset, offset + nbytes)
                delta = nbytes - overlap
                self._pending_bytes += delta
                if acquired > delta:
                    self.dirty_tokens.release(acquired - delta)
        finally:
            self.flow_pool.release()
        if delta > 0:
            if self._dirty_signal[disk_idx] is not None:
                self._dirty_signal[disk_idx].succeed()
                self._dirty_signal[disk_idx] = None
        self.bytes_written += nbytes
        return nbytes, None

    def install(self, handle: int, offset: int, payload: Payload) -> None:
        """Lay ``payload`` into bstream ``handle`` at ``offset`` directly.

        No request, no simulated time: the bytes end up resident, clean
        and on the platter, as a write followed by a full drain leaves
        them.  The direct writer (:meth:`Pvfs2Client.install`) uses it
        to set up data sets that the measured phase only reads.
        """
        self._bstream(handle).write(offset, payload)
        if payload.nbytes:
            self._persisted.setdefault(handle, IntervalSet()).add(
                offset, offset + payload.nbytes
            )

    def persisted_bytes(self, handle: int) -> int:
        """Bytes of ``handle`` known to be on a platter (introspection)."""
        ivs = self._persisted.get(handle)
        return ivs.total if ivs is not None else 0

    def crash(self) -> None:
        """Fail-stop crash: all buffered (non-persisted) data is lost.

        The daemon restarts immediately with only the on-disk state —
        the failure mode §5's durability discussion trades against:
        "many scientific applications can re-create lost data, so PVFS2
        buffers data on storage nodes".  In-flight flush barriers fail
        with an I/O error that propagates to the caller's fsync.
        """
        self.crashes += 1
        for handle, fd in self.bstreams.items():
            survived = self._persisted.get(handle, IntervalSet())
            # Lost ranges read back as zeros after the restart.
            for s, e in survived.gaps(0, fd.size):
                if fd.exact:
                    fd.write(s, Payload(b"\x00" * (e - s)))
        # Dirty buffers are gone; admission tokens return to the pool.
        for per_disk in self._dirty:
            per_disk.clear()
        if self.dirty_tokens.in_use:
            self.dirty_tokens.release(self.dirty_tokens.in_use)
        self._pending_bytes = 0
        waiters, self._drain_waiters = self._drain_waiters, []
        for ev in waiters:
            ev.fail(FsError(f"{self.name}: storage daemon crashed during flush"))

    def _h_flush(self, args, payload):
        """Barrier: returns once the dirty backlog fits the disk's own
        write cache (ATA drives acknowledge from cache — see config).
        Issuing the flush costs trove a request-setup's worth of work."""
        yield self.node.compute(self.cfg.request_setup_server)
        if self._pending_bytes <= self.cfg.disk_cache_bytes:
            return None, None
        ev = Event(self.sim)
        self._drain_waiters.append(ev)
        yield ev
        return None, None

    # -- write-behind ------------------------------------------------------
    def _flusher(self, disk_idx: int):
        dirty = self._dirty[disk_idx]
        sweep_pos: tuple[int, int] = (0, 0)
        while True:
            handle = cscan_pick(dirty, sweep_pos)
            if handle is None:
                self._dirty_signal[disk_idx] = Event(self.sim)
                yield self._dirty_signal[disk_idx]
                continue
            ivs = dirty[handle]
            start, end = ivs.first
            nbytes = min(end - start, FLUSH_COALESCE)
            ivs.remove(start, start + nbytes)
            if not ivs:
                del dirty[handle]
            sweep_pos = (handle, start + nbytes)
            yield from self._flush_extent(disk_idx, handle, start, nbytes)
            # A bstream removed while this extent was on the arm stays
            # removed: nothing of it is persisted.
            if handle in self.bstreams:
                persisted = self._persisted.get(handle)
                if persisted is None:
                    persisted = self._persisted[handle] = IntervalSet()
                persisted.add(start, start + nbytes)
            self._retire(nbytes)

    def _flush_extent(self, disk_idx: int, handle: int, start: int, nbytes: int):
        """The disk write of one flushed extent (a collector's ``flush``
        span wraps it): ``disk.io``'s generator, returned rather than
        delegated to, so the flusher resumes no frame of this method."""
        return self.node.disks[disk_idx].io(
            handle * BSTREAM_STRIDE + start, nbytes, write=True
        )

    def _retire(self, nbytes: int) -> None:
        """``nbytes`` of write-behind left the queue, written or dropped
        with their bstream: they give back their admission tokens and
        backlog, and the flush barriers go once the backlog fits the
        disk's write cache."""
        # The clamps guard the crash path: a crash mid-io zeroes the
        # accounting while an extent is still on the arm.
        release = min(nbytes, self.dirty_tokens.in_use)
        if release > 0:
            self.dirty_tokens.release(release)
        self._pending_bytes = max(0, self._pending_bytes - nbytes)
        if self._pending_bytes <= self.cfg.disk_cache_bytes and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                ev.succeed()
