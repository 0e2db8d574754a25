"""One open file's page cache: pages, range sets and stream cursors.

The NFSv4 client keeps one :class:`PageCache` per open file and retains
it across ``close`` for close-to-open reuse (Linux: the address_space
belongs to the inode and outlives every open).  Besides the pages and
the interval sets that classify them, it holds the cursors that make a
cache *hit* constant work — what sequential readahead has already
examined, where the pending prefetches lie, whether any full dirty
block is waiting on a write-back — so an 8 KB call inside a 2 MB block
does comparisons, not set algebra.  The cursors only ever skip work the
set computations would find empty; everything that could make them find
new work resets the cursor instead.
"""

from __future__ import annotations

from typing import Optional

from repro.nfs.intervals import IntervalSet
from repro.vfs.filedata import FileData

__all__ = ["END", "PageCache"]

END = 1 << 62  # beyond any file offset


class PageCache:
    """Client-side cache state of one open (or retained) file."""

    __slots__ = (
        "cache", "valid", "dirty", "flushing", "inflight", "size", "trunc_gen",
        "wb_error", "commit_needed", "flush_deferred",
        "ra", "ra_lo", "ra_done", "ra_issued", "ra_from", "ra_top",
        "last_read_end", "path", "mtime", "own_writes",
    )  # fmt: skip

    def __init__(self, size: int, attrs=None, retained: Optional["PageCache"] = None):
        #: Page contents; ``valid`` ⊇ ``dirty`` ∪ ``flushing`` classify them.
        self.cache, self.valid, self.dirty = FileData(), IntervalSet(), IntervalSet()
        self.commit_needed = False
        if retained is not None and retained.dirty:
            # Unflushed dirty pages (a previous close's flush failed and
            # re-dirtied them) pin the whole page cache: revalidation
            # must not discard data the client still owes the server.
            # This open takes the debt over; a second open must not.
            self.cache, self.valid, self.dirty = retained.cache, retained.valid, retained.dirty
            self.commit_needed = retained.commit_needed
            retained.dirty, retained.commit_needed = IntervalSet(), False
            # An unflushed extending write makes the server size stale.
            size = max(size, retained.size)
        elif retained is not None and attrs is not None:
            # Close-to-open revalidation: reuse the cached pages when
            # the attributes say the file has not changed.  When this
            # client wrote the file itself, the server mtime is unknown
            # to it, so size match is the (weakly consistent, Linux-
            # faithful) criterion.
            if attrs.size == retained.size and (
                retained.own_writes or attrs.mtime == retained.mtime
            ):
                self.cache, self.valid = retained.cache, retained.valid
        self.size = size
        self.flushing = IntervalSet()
        #: Write-back processes fsync/truncate must wait out.
        self.inflight: list = []
        self.trunc_gen = 0
        self.wb_error: Optional[BaseException] = None
        #: A full wsize block may be sitting in ``dirty`` (it overlapped
        #: ``flushing``, a write-back failed, or it was adopted above):
        #: the next write must run the full-block pass even if its own
        #: run completes no block.
        self.flush_deferred = bool(self.dirty)
        #: Prefetches as ``(start, end, process)``: the live ones plus
        #: any that finished since a read last pruned the list, which
        #: ``ra_done`` flags.  None of them starts below ``ra_lo``.
        self.ra: list = []
        self.ra_lo, self.ra_done = END, False
        #: Prefetched bytes no read has consumed yet (accounting only).
        self.ra_issued = IntervalSet()
        #: The window readahead last examined: every byte of
        #: ``[ra_from, ra_top)`` is valid or covered by an entry of ``ra``.
        self.ra_from, self.ra_top = 0, -1
        self.last_read_end: Optional[int] = None
        #: Name it was closed under (retained caches are found by path).
        self.path: Optional[str] = None
        self.mtime = attrs.mtime if attrs is not None else None
        self.own_writes = False

    def forget_readahead(self) -> None:
        """Bytes readahead counted as covered may be invalid again (a
        truncate, a prefetch that failed or discarded its data): the
        next sequential read re-examines its whole window."""
        self.ra_top = -1

    def clip(self, size: int) -> None:
        """Truncate to ``size``: stale pages past the new EOF must not
        be served, nor dirty ones written back to resurrect the cut."""
        self.size = size
        self.trunc_gen += 1  # in-flight fetches discard their data
        self.cache.truncate(size)
        for ranges in (self.valid, self.dirty, self.flushing, self.ra_issued):
            ranges.remove(size, END)
        self.last_read_end = None
        self.forget_readahead()
