"""The per-byte reference model the checker's ``repro.check.model``
replaced, kept as the test reference for it.

This is the earlier layout, 12 bytes of numpy state per file byte: a
per-byte owner map (int16) consulted by ``check_getattr``'s sole-writer
test, two int32 write-index arrays and an int16 writer array, with
observed data widened to int32 before comparison.  Its oracles are the
ones the product model must reproduce verdict for verdict and string
for string (``tests/check/test_model_equivalence.py``).  Do not
optimise it: its value is that it is the old code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.check.program import SHARED, Program

__all__ = ["Model", "owner_map"]


def owner_map(program: Program, path: str) -> np.ndarray:
    """``program.owner_of`` for every byte of ``path`` at once (int16)."""
    size = program.file_size(path)
    if path == SHARED:
        return ((np.arange(size) // program.chunk) % program.n_clients).astype(np.int16)
    return np.full(size, program.owner_of(path, 0), dtype=np.int16)

#: Error kinds that may legitimately cost data (degrade read-your-writes
#: to the tolerant oracle).  Lock conflicts never taint.
_DATA_OPS = (
    "write",
    "fsync",
    "reopen",
    "close",
    "open",
    "truncate",
    "recreate",
    "rename",
)


@dataclass
class _Write:
    start: int
    end: int
    tag: int
    client: int
    acked: bool = False
    #: True for the pseudo-write a truncate enters into the history:
    #: tag 0 (the hole value) over [new_size, cap).
    is_trunc: bool = False


@dataclass
class _FileState:
    size: int  # allocation cap — the byte-array extent, not logical size
    owner: np.ndarray  # per-byte writing client
    writes: list[_Write] = field(default_factory=list)
    last_acked_idx: np.ndarray = None  # type: ignore[assignment]
    acked_writer: np.ndarray = None  # type: ignore[assignment]
    floor_idx: np.ndarray = None  # type: ignore[assignment]
    #: Logical-size window: every acked size-changing op raises/sets
    #: ``size_lo``; every *attempted* one raises ``size_hi``.  When the
    #: two agree the post-quiesce server size is exactly pinned.
    size_lo: int = 0
    size_hi: int = 0
    #: Per-client own-size floor: a client's getattr must never report
    #: less than its own acknowledged extends (used for the shared
    #: file, where the exact size is a cross-client race).
    own_floor: dict = field(default_factory=dict)
    #: A namespace op (remove/recreate/rename) on this file errored —
    #: even its *name* is no longer certain; skip final verification.
    ns_uncertain: bool = False
    #: A truncate errored: the logical size is one of two values.
    size_uncertain: bool = False
    #: Removed and not (yet) certainly recreated.
    absent: bool = False

    def __post_init__(self):
        self.last_acked_idx = np.full(self.size, -1, dtype=np.int32)
        self.acked_writer = np.full(self.size, -1, dtype=np.int16)
        self.floor_idx = np.full(self.size, -1, dtype=np.int32)

    def tags(self) -> np.ndarray:
        return np.array([w.tag for w in self.writes] or [0], dtype=np.int32)

    @property
    def size_known(self) -> bool:
        return not self.size_uncertain and self.size_lo == self.size_hi


class Model:
    """Shadow state + oracles for one program execution."""

    def __init__(self, program: Program):
        self.program = program
        self.files: dict[str, _FileState] = {}
        for path in program.files:
            self.files[path] = self._new_state(path)
        #: (client, path) pairs that saw an I/O error: read-your-writes
        #: no longer applies (data may legitimately have been dropped
        #: after the error was *surfaced* — that is errseq working).
        self.tainted: set[tuple[int, str]] = set()
        #: Reference namespace for directories: dir path -> child name
        #: -> "sure" (mkdir acked) | "maybe" (mkdir attempted, errored).
        self.dirs: dict[str, dict[str, str]] = {}
        self.reads_checked = 0
        self.bytes_checked = 0
        self.synthetic_reads = 0

    def _new_state(self, path: str) -> _FileState:
        owner = owner_map(self.program, path)
        return _FileState(size=len(owner), owner=owner)

    def _state(self, path: str) -> _FileState:
        """State for ``path``, materialising one if the runner reaches a
        name the model has not tracked there (possible only after a
        namespace op whose outcome was ambiguous) — such states are born
        ``ns_uncertain`` so they are never verified, only tolerated."""
        st = self.files.get(path)
        if st is None:
            st = self._new_state(path)
            st.ns_uncertain = True
            self.files[path] = st
        return st

    # -- write lifecycle ---------------------------------------------------
    def on_write_start(self, client: int, path: str, start: int, end: int, tag: int) -> int:
        """Register an attempted write; returns its index.

        Attempted-but-unacknowledged writes may still land on disk (the
        ack, not the data, can be what the fault destroyed), so they
        enter the oracle's *allowed* sets immediately.
        """
        st = self._state(path)
        st.writes.append(_Write(start, end, tag, client))
        st.size_hi = max(st.size_hi, end)
        return len(st.writes) - 1

    def on_write_ack(self, path: str, idx: int) -> None:
        st = self.files[path]
        w = st.writes[idx]
        w.acked = True
        st.last_acked_idx[w.start : w.end] = idx
        st.acked_writer[w.start : w.end] = w.client
        st.size_lo = max(st.size_lo, w.end)
        st.own_floor[w.client] = max(st.own_floor.get(w.client, 0), w.end)

    # -- truncate lifecycle ------------------------------------------------
    def on_trunc_start(self, client: int, path: str, new_size: int) -> int:
        """A truncate attempt enters the history immediately: tag 0 over
        [new_size, cap) — even an unacknowledged truncate may have
        landed, so post-cut holes must be tolerated either way."""
        st = self._state(path)
        st.writes.append(
            _Write(min(new_size, st.size), st.size, 0, client, is_trunc=True)
        )
        st.size_hi = max(st.size_hi, new_size)
        return len(st.writes) - 1

    def on_trunc_ack(self, path: str, idx: int, new_size: int) -> None:
        """Truncate acknowledged: it is synchronous server-side metadata,
        so the durability floor over the cut range rises *now* — bytes
        past ``new_size`` resurfacing later is resurrection."""
        st = self.files[path]
        w = st.writes[idx]
        w.acked = True
        st.last_acked_idx[w.start : w.end] = idx
        st.acked_writer[w.start : w.end] = w.client
        st.floor_idx[w.start : w.end] = idx
        # Single-writer files only: the acked truncate pins the exact
        # logical size until the next size-changing op.
        st.size_lo = st.size_hi = new_size
        st.size_uncertain = False
        for c in list(st.own_floor):
            st.own_floor[c] = min(st.own_floor[c], new_size)

    def on_trunc_error(self, client: int, path: str) -> None:
        st = self._state(path)
        st.size_uncertain = True
        self.on_error(client, path, "truncate")

    # -- namespace lifecycle -----------------------------------------------
    def _fresh_state(self, path: str) -> "_FileState":
        old = self._state(path)
        return _FileState(size=old.size, owner=old.owner)

    def on_remove_ack(self, client: int, path: str) -> None:
        """The file was removed: its history dies with it.  A recreated
        file starts from an empty history — the dead file's bytes must
        never resurface under the same name."""
        st = self._fresh_state(path)
        st.absent = True
        self.files[path] = st
        self.tainted = {(cl, p) for (cl, p) in self.tainted if p != path}

    def on_recreate_ack(self, client: int, path: str) -> None:
        self._state(path).absent = False

    def on_ns_error(self, client: int, path: str, op_kind: str) -> None:
        """A namespace op errored: the file's very name/existence is now
        uncertain — drop it from final verification."""
        self._state(path).ns_uncertain = True
        self.on_error(client, path, op_kind)

    def on_rename_ack(self, client: int, old: str, new: str) -> None:
        """The file's history follows it to the new name; anything that
        previously lived at the new name (rename-over) dies, taints
        included."""
        st = self.files.pop(old, None)
        if st is None:
            st = self._fresh_state(new)
            st.ns_uncertain = True
        self.files[new] = st
        self.tainted = {
            (cl, new if p == old else p)
            for (cl, p) in self.tainted
            if p != new
        }

    def on_rename_error(self, client: int, old: str, new: str) -> None:
        """Either name may now hold the file (or neither, transiently):
        both drop out of verification."""
        for p in (old, new):
            self._state(p).ns_uncertain = True
        self.on_error(client, old, "rename")

    def on_mkdir_ack(self, client: int, path: str) -> None:
        parent, _, leaf = path.rpartition("/")
        if parent and parent != "/":
            self.dirs.setdefault(parent, {})[leaf] = "sure"
        self.dirs.setdefault(path, {})

    def on_mkdir_error(self, client: int, path: str) -> None:
        parent, _, leaf = path.rpartition("/")
        if parent and parent != "/":
            entry = self.dirs.setdefault(parent, {})
            entry.setdefault(leaf, "maybe")
        self.dirs.setdefault(path, {})

    def on_durable(self, client: int, path: str) -> None:
        """A successful fsync/close by ``client``: every write it has
        had acknowledged so far is now guaranteed durable."""
        st = self._state(path)
        mine = st.acked_writer == client
        st.floor_idx[mine] = np.maximum(st.floor_idx[mine], st.last_acked_idx[mine])

    def on_error(self, client: int, path: str, op_kind: str) -> None:
        if op_kind in _DATA_OPS:
            self.tainted.add((client, path))

    # -- namespace / attribute oracles -------------------------------------
    def check_getattr(self, client: int, path: str, attrs) -> list[str]:
        """Mid-episode size oracle for one getattr reply.

        Single-writer files (private/scratch): the owner's own getattr
        must report the exact current size — local extends count (Linux
        i_size semantics), which is what flushes out attr-cache
        staleness after own writes.  The shared file's exact size is a
        cross-client race, but a reader must never see less than its
        own acknowledged extends, nor more than any write ever reached.
        """
        st = self.files.get(path)
        if st is None or attrs is None:
            return []
        if attrs.size > st.size_hi:
            return [
                f"getattr-size: client{client} {path} size {int(attrs.size)} "
                f"> {st.size_hi}, beyond any write/truncate ever attempted"
            ]
        if (client, path) in self.tainted:
            return []
        own = st.own_floor.get(client, 0)
        if attrs.size < own:
            return [
                f"getattr-size: client{client} {path} size {int(attrs.size)} "
                f"< {own}, below the client's own acknowledged extend "
                f"(stale own-write attributes)"
            ]
        multi = st.owner.size > 0 and bool((st.owner != st.owner[0]).any())
        sole_writer = not multi and st.owner.size > 0 and int(st.owner[0]) == client
        if (
            sole_writer
            and st.size_known
            and not st.ns_uncertain
            and not st.absent
            and attrs.size != st.size_lo
        ):
            return [
                f"getattr-size: client{client} {path} size {int(attrs.size)} "
                f"!= {st.size_lo}, the sole writer's acknowledged size"
            ]
        return []

    def check_readdir(self, client: int, path: str, names) -> list[str]:
        """Listing oracle: acked children must appear; nothing the model
        never attempted to create may appear."""
        entry = self.dirs.get(path)
        if entry is None:
            return []
        got = set(names)
        sure = {n for n, s in entry.items() if s == "sure"}
        missing = sure - got
        invented = got - set(entry)
        v = []
        if missing:
            v.append(
                f"readdir: client{client} {path} listing misses acknowledged "
                f"entries {sorted(missing)}"
            )
        if invented:
            v.append(
                f"readdir: client{client} {path} listing invented entries "
                f"{sorted(invented)}"
            )
        return v

    def final_paths(self) -> list[str]:
        """File paths the post-heal verifier can check: present, and with
        a history the model is still certain about."""
        return sorted(
            p
            for p, st in self.files.items()
            if not st.ns_uncertain and not st.absent
        )

    def check_final_getattr(self, path: str, attrs) -> list[str]:
        """Post-quiesce size oracle: with every client closed and faults
        healed, a fresh client's getattr must report the exact final
        size whenever the model has it pinned."""
        st = self.files[path]
        if attrs is None:
            return []
        tainted_file = any(p == path for (_c, p) in self.tainted)
        if st.ns_uncertain or not st.size_known or tainted_file:
            if attrs.size > st.size_hi:
                return [
                    f"final-getattr: {path} size {int(attrs.size)} > "
                    f"{st.size_hi}, beyond any write/truncate ever attempted"
                ]
            return []
        if attrs.size != st.size_lo:
            return [
                f"final-getattr: {path} size {int(attrs.size)} != "
                f"{st.size_lo} after quiesce (all writes acknowledged and "
                f"closed cleanly)"
            ]
        return []

    # -- oracles -----------------------------------------------------------
    def _allowed_mask(
        self, st: _FileState, offset: int, observed: np.ndarray, floor: np.ndarray | None
    ) -> np.ndarray:
        """Bytes of ``observed`` explainable by the write history.

        With ``floor`` (final check) a write only explains bytes whose
        durability floor it meets; without (mid-episode) any historical
        value — or a hole — is acceptable.
        """
        n = len(observed)
        end = offset + n
        if floor is None:
            allowed = observed == 0
        else:
            allowed = (observed == 0) & (floor == -1)
        for idx, w in enumerate(st.writes):
            if w.end <= offset or w.start >= end:
                continue
            lo, hi = max(w.start, offset) - offset, min(w.end, end) - offset
            span = slice(lo, hi)
            ok = observed[span] == w.tag
            if floor is not None:
                ok &= idx >= floor[span]
            allowed[span] |= ok
        return allowed

    def check_read(
        self, client: int, path: str, offset: int, data: bytes | None, nbytes: int
    ) -> list[str]:
        """Mid-episode oracle for one read's result."""
        self.reads_checked += 1
        if data is None:
            self.synthetic_reads += 1
            return []
        st = self._state(path)
        observed = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
        self.bytes_checked += len(observed)
        violations = []
        allowed = self._allowed_mask(st, offset, observed, floor=None)
        if not allowed.all():
            bad = int(np.flatnonzero(~allowed)[0])
            violations.append(
                f"read-oracle: client{client} {path}[{offset}+{nbytes}] "
                f"byte {offset + bad} = {int(observed[bad])}, never written"
            )
        # Read-your-writes on the reader's own acknowledged bytes.
        if (client, path) not in self.tainted:
            end = offset + len(observed)
            region = slice(offset, end)
            own = (st.acked_writer[region] == client) & (
                st.last_acked_idx[region] >= 0
            )
            if own.any():
                expected = st.tags()[st.last_acked_idx[region]]
                mism = own & (observed != expected)
                if mism.any():
                    bad = int(np.flatnonzero(mism)[0])
                    violations.append(
                        f"read-your-writes: client{client} {path} byte "
                        f"{offset + bad} = {int(observed[bad])}, expected "
                        f"{int(expected[bad])} (own acknowledged write, "
                        f"no error surfaced)"
                    )
        return violations

    def check_final(self, path: str, data: bytes | None, nbytes: int) -> list[str]:
        """Post-heal durability oracle over a fresh client's read-back."""
        st = self.files[path]
        observed = np.zeros(st.size, dtype=np.int32)
        if data is not None:
            got = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
            observed[: min(len(got), st.size)] = got[: st.size]
        elif nbytes and any(w.acked for w in st.writes):
            return [
                f"final-read: {path} returned synthetic payload — cannot "
                f"verify durability of acknowledged writes"
            ]
        allowed = self._allowed_mask(st, 0, observed, floor=st.floor_idx)
        if allowed.all():
            return []
        bad_idx = np.flatnonzero(~allowed)
        bad = int(bad_idx[0])
        floor = int(st.floor_idx[bad])
        want = int(st.tags()[floor]) if floor >= 0 else 0
        if floor >= 0 and st.writes[floor].is_trunc:
            kind = (
                "truncate-resurrection: bytes beyond an acknowledged "
                "truncate reappeared"
            )
        elif floor >= 0:
            kind = "silent-loss: acknowledged+fsynced write lost"
        else:
            kind = "corruption: value never written"
        return [
            f"durability: {path} {len(bad_idx)} bad bytes, first at "
            f"{bad}: got {int(observed[bad])}, durability floor requires "
            f">= write tag {want} — {kind}"
        ]
