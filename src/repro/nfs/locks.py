"""NFSv4 byte-range locks.

Part of the NFSv4 access-transparency story (§3.2): applications get
*one* advisory byte-range locking model across every exported parallel
file system, instead of each parallel FS's own (or missing) lock
manager.  The server arbitrates; lock state lives with the client's
lease like all other NFSv4 state.

The manager implements POSIX-style advisory semantics: shared (read)
locks coexist; exclusive (write) locks conflict with everything
overlapping; locks are per (owner, fh) and unlock may split ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.vfs.api import FsError

__all__ = ["LockConflict", "LockManager", "LockRange", "READ_LT", "WRITE_LT"]

READ_LT = "read"
WRITE_LT = "write"


class LockConflict(FsError):
    """Requested range conflicts with a lock held by another owner."""


@dataclass(frozen=True)
class LockRange:
    """One granted lock: [start, end) held by ``owner``."""

    owner: object
    start: int
    end: int
    kind: str

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end


#: Shared empty table returned to read-only paths: querying a never-
#: locked filehandle must not materialise per-fh state.
_NO_LOCKS: tuple = ()


class LockManager:
    """Per-filehandle byte-range lock tables.

    Tables exist only while at least one lock is held on the
    filehandle: read paths (``test``/``held``) never create one, and
    ``unlock``/``release_owner`` prune tables they empty — otherwise
    open/lock/close churn over a server's lifetime grows ``_locks``
    without bound.
    """

    def __init__(self):
        self._locks: dict[object, list[LockRange]] = {}
        self.granted = 0
        self.conflicts = 0

    def _table(self, fh):
        """Read-only view of the locks on ``fh`` (never mutates)."""
        return self._locks.get(fh, _NO_LOCKS)

    def _store(self, fh, table: list[LockRange]) -> None:
        """Replace ``fh``'s table, dropping it when it emptied."""
        if table:
            self._locks[fh] = table
        else:
            self._locks.pop(fh, None)

    @staticmethod
    def _validate(start: int, end: int, kind: str) -> None:
        if start < 0 or end <= start:
            raise ValueError(f"bad lock range [{start}, {end})")
        if kind not in (READ_LT, WRITE_LT):
            raise ValueError(f"unknown lock type {kind!r}")

    def test(self, fh, owner, start: int, end: int, kind: str):
        """Return the first conflicting lock, or None (LOCK's conflict check)."""
        self._validate(start, end, kind)
        for lock in self._table(fh):
            if lock.owner == owner or not lock.overlaps(start, end):
                continue
            if kind == WRITE_LT or lock.kind == WRITE_LT:
                return lock
        return None

    def lock(self, fh, owner, start: int, end: int, kind: str) -> LockRange:
        """Grant [start, end) to ``owner`` or raise :class:`LockConflict`.

        An owner's own overlapping locks are upgraded/merged: the new
        range replaces the overlapped parts of its previous locks.
        """
        conflict = self.test(fh, owner, start, end, kind)
        if conflict is not None:
            self.conflicts += 1
            raise LockConflict(
                f"[{start},{end}) {kind} conflicts with {conflict.kind} "
                f"[{conflict.start},{conflict.end}) held by {conflict.owner!r}"
            )
        # Carve the owner's own overlapping locks out of the new range.
        remaining: list[LockRange] = []
        for lock in self._table(fh):
            if lock.owner != owner or not lock.overlaps(start, end):
                remaining.append(lock)
                continue
            if lock.start < start:
                remaining.append(LockRange(owner, lock.start, start, lock.kind))
            if lock.end > end:
                remaining.append(LockRange(owner, end, lock.end, lock.kind))
        granted = LockRange(owner, start, end, kind)
        remaining.append(granted)
        self._locks[fh] = remaining
        self.granted += 1
        return granted

    def unlock(self, fh, owner, start: int, end: int) -> int:
        """Release the owner's coverage of [start, end); returns bytes freed."""
        if start < 0 or end <= start:
            raise ValueError(f"bad unlock range [{start}, {end})")
        freed = 0
        remaining: list[LockRange] = []
        for lock in self._table(fh):
            if lock.owner != owner or not lock.overlaps(start, end):
                remaining.append(lock)
                continue
            freed += min(lock.end, end) - max(lock.start, start)
            if lock.start < start:
                remaining.append(LockRange(owner, lock.start, start, lock.kind))
            if lock.end > end:
                remaining.append(LockRange(owner, end, lock.end, lock.kind))
        self._store(fh, remaining)
        return freed

    def release_owner(self, owner) -> int:
        """Drop every lock of ``owner`` (close / lease expiry); returns count."""
        dropped = 0
        for fh, table in list(self._locks.items()):
            kept = [lock for lock in table if lock.owner != owner]
            dropped += len(table) - len(kept)
            self._store(fh, kept)
        return dropped

    def held(self, fh) -> Iterable[LockRange]:
        """Snapshot of the locks on ``fh``."""
        return tuple(self._table(fh))

    @property
    def table_count(self) -> int:
        """Number of per-filehandle tables currently materialised."""
        return len(self._locks)

    def snapshot(self) -> dict:
        """Immutable snapshot of every table (invariant checkers)."""
        return {fh: tuple(table) for fh, table in self._locks.items()}
