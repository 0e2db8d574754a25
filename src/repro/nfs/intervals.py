"""Half-open interval sets over byte ranges.

The NFSv4 client's page cache tracks which byte ranges of a file are
*valid* (cached) and which are *dirty* (written but not yet on the
server) as interval sets.  Intervals are ``[start, end)`` pairs kept
sorted and coalesced.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = ["IntervalSet"]

_INF = float("inf")  # sorts after any end in a ``(start, end)`` probe


class IntervalSet:
    """Sorted, coalesced set of half-open integer intervals."""

    __slots__ = ("_ivs",)

    def __init__(self):
        self._ivs: list[tuple[int, int]] = []

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __iter__(self):
        return iter(self._ivs)

    @property
    def first(self) -> tuple[int, int]:
        """The lowest interval (the set must not be empty)."""
        return self._ivs[0]

    @property
    def total(self) -> int:
        """Total bytes covered."""
        return sum(e - s for s, e in self._ivs)

    def add(self, start: int, end: int) -> tuple[int, int]:
        """Insert ``[start, end)``, merging overlapping/adjacent intervals;
        returns the coalesced run it now belongs to.

        Growing the last run — the append stream every sequential
        writer produces — is done in place, without a bisect.
        """
        if start >= end:
            return (start, end)
        ivs = self._ivs
        if ivs:
            s, e = ivs[-1]
            if s <= start <= e:
                if end > e:
                    e = end
                run = ivs[-1] = (s, e)
                return run
        # Find all intervals touching [start, end] (adjacency merges too).
        lo = bisect_left(ivs, (start,))
        # Step back if the previous interval reaches start.
        if lo > 0 and ivs[lo - 1][1] >= start:
            lo -= 1
        hi = lo
        while hi < len(ivs) and ivs[hi][0] <= end:
            start = min(start, ivs[hi][0])
            end = max(end, ivs[hi][1])
            hi += 1
        ivs[lo:hi] = [(start, end)]
        return (start, end)

    def take(self, start: int, end: int) -> int:
        """Delete coverage of ``[start, end)``, splitting as needed;
        returns how many bytes of it were covered.

        Like :meth:`add`, the touched run is located with ``bisect`` and
        replaced with one slice splice — O(log n + k) for k affected
        intervals, instead of rebuilding the whole list.  Trimming the
        front of the first run — a sequential reader consuming what
        readahead issued — rewrites that run in place.
        """
        ivs = self._ivs
        if start >= end or not ivs:
            return 0
        s, e = ivs[0]
        if start == s and end < e:
            ivs[0] = (end, e)
            return end - start
        lo = bisect_left(ivs, (start,))
        # The preceding interval may reach into [start, end).
        if lo > 0 and ivs[lo - 1][1] > start:
            lo -= 1
        hi = lo
        n = len(ivs)
        taken = 0
        repl: list[tuple[int, int]] = []
        while hi < n and ivs[hi][0] < end:
            s, e = ivs[hi]
            if s < start:
                repl.append((s, start))
                s = start
            if e > end:
                repl.append((end, e))
                e = end
            taken += e - s
            hi += 1
        if hi > lo:
            ivs[lo:hi] = repl
        return taken

    remove = take  # for callers that do not want the count

    def _first_overlapping(self, start: int) -> int:
        """Index of the first interval with ``end > start``."""
        ivs = self._ivs
        i = bisect_right(ivs, (start, _INF)) - 1
        if i < 0 or ivs[i][1] <= start:
            i += 1
        return i

    def covers(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` is fully covered."""
        if start >= end:
            return True
        idx = bisect_right(self._ivs, (start, _INF)) - 1
        if idx < 0:
            return False
        s, e = self._ivs[idx]
        return s <= start and e >= end

    def gaps(self, start: int, end: int) -> list[tuple[int, int]]:
        """Sub-ranges of ``[start, end)`` *not* covered.

        Starts at the first overlapping interval (bisect) rather than
        scanning from index 0 — this is on the per-read/per-write hot
        path of the NFS client's page cache.
        """
        out: list[tuple[int, int]] = []
        if start >= end:
            return out
        ivs = self._ivs
        pos = start
        n = len(ivs)
        i = self._first_overlapping(start)
        while i < n:
            s, e = ivs[i]
            if s >= end:
                break
            if s > pos:
                out.append((pos, s))
            pos = e
            if pos >= end:
                break
            i += 1
        if pos < end:
            out.append((pos, end))
        return out

    def runs_in(self, start: int, end: int) -> list[tuple[int, int]]:
        """Covered sub-ranges of ``[start, end)`` (bisect-located)."""
        out: list[tuple[int, int]] = []
        if start >= end:
            return out
        ivs = self._ivs
        n = len(ivs)
        i = self._first_overlapping(start)
        while i < n:
            s, e = ivs[i]
            if s >= end:
                break
            lo = s if s > start else start
            hi = e if e < end else end
            if lo < hi:
                out.append((lo, hi))
            i += 1
        return out

    def copy(self) -> "IntervalSet":
        dup = IntervalSet()
        dup._ivs = list(self._ivs)
        return dup
