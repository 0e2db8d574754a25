"""Seeded torture programs: concurrent multi-client workloads.

A :class:`Program` is a deterministic function of its seed: per-client
op lists (overlapping and noncontiguous reads/writes, byte-range locks,
fsync, close/reopen, think time) over one shared file plus per-client
private files, and a fault schedule.  Programs are architecture-
agnostic — the runner maps abstract fault targets ("server 2", "client
1's NIC") onto whatever the deployment provides, and skips op/fault
kinds an architecture cannot express (PVFS2 has no locks and no RPC
retry, so it gets delay faults only).

**Byte ownership** makes concurrent writes checkable without modelling
server-side serialisation: the shared file is divided into ``chunk``-
sized slots and slot ``s`` belongs to client ``s % n_clients``; clients
write only bytes they own, so every byte has a single, well-ordered
writer history.  Each write carries a distinct nonzero *tag* byte, so
any observed byte identifies exactly which write produced it.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

__all__ = [
    "FaultSpec",
    "Op",
    "Program",
    "dir_path",
    "generate",
    "ns_path",
    "private_path",
    "scratch_path",
]

KB = 1024

SHARED = "/torture-shared"


def private_path(client: int) -> str:
    return f"/torture-private{client}"


def scratch_path(client: int) -> str:
    """Per-client scratch file: the truncate/remove/rename victim."""
    return f"/torture-scratch{client}"


def ns_path(slot: int) -> str:
    """Shared namespace slot ``slot`` — a rename target name.

    The slot *names* are shared across episodes, but each episode
    assigns every slot to exactly one client (rotated by the seed, see
    :meth:`Program.ns_slot_of`), so concurrent namespace traffic stays
    single-writer and therefore checkable.
    """
    return f"/torture-ns{slot}"


def dir_path(client: int) -> str:
    """Per-client directory for mkdir/readdir traffic."""
    return f"/torture-dir{client}"


@dataclass(frozen=True)
class Op:
    """One client-program step.

    ``kind`` is one of ``write`` (own bytes, tagged), ``read``,
    ``fsync``, ``reopen`` (close + open, drops close-to-open state),
    ``lock`` / ``unlock`` (advisory byte-range), ``sleep``; metadata
    programs add ``truncate`` (``length`` holds the new size),
    ``recreate`` (remove + create the same path), ``rename`` (``file``
    → ``dest``), ``mkdir``, ``readdir`` and ``getattr``.
    """

    kind: str
    file: str = ""
    offset: int = 0
    length: int = 0
    tag: int = 0
    lock_kind: str = "write"
    delay: float = 0.0
    #: rename destination (metadata programs only; "" otherwise keeps
    #: old serialized programs loadable).
    dest: str = ""


@dataclass(frozen=True)
class FaultSpec:
    """One abstract fault: resolved against a deployment by the runner.

    ``kind``: ``outage`` (one server fail/restore), ``blackout`` (every
    server down for the window — defeats pNFS MDS-proxy failover, the
    schedule that must flush out silent write-back loss), ``nic_drop``
    / ``nic_delay`` (a client NIC loses a fraction of flows / gains
    latency for the window).  ``target`` indexes servers (outage) or
    clients (nic_*); ``param`` is the drop probability or added delay.
    """

    kind: str
    target: int = 0
    start: float = 0.1
    duration: float = 0.5
    param: float = 0.0


@dataclass
class Program:
    """A complete torture episode: workload + fault schedule."""

    seed: int
    n_clients: int
    chunk: int
    shared_size: int
    private_size: int
    ops: list[list[Op]] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)
    #: True when the program exercises metadata/namespace op kinds.
    metadata: bool = False

    # -- ownership ---------------------------------------------------------
    def ns_slot_of(self, client: int) -> int:
        """The shared namespace slot owned by ``client`` this episode.

        Rotated by the seed so the slot *names* are contended across
        episodes while staying single-owner within one.
        """
        return (client + self.seed) % self.n_clients

    def owner_of(self, path: str, offset: int) -> int:
        """The client allowed to write byte ``offset`` of ``path``."""
        if path == SHARED:
            return (offset // self.chunk) % self.n_clients
        for c in range(self.n_clients):
            if path == private_path(c):
                return c
            if path == scratch_path(c) or path == ns_path(self.ns_slot_of(c)):
                return c
        raise ValueError(f"unknown torture file {path!r}")

    def file_size(self, path: str) -> int:
        return self.shared_size if path == SHARED else self.private_size

    @property
    def files(self) -> list[str]:
        paths = [SHARED] + [private_path(c) for c in range(self.n_clients)]
        if self.metadata:
            paths += [scratch_path(c) for c in range(self.n_clients)]
        return paths

    @property
    def op_count(self) -> int:
        return sum(len(t) for t in self.ops)

    # -- (de)serialisation — failing programs ship as CI artifacts ---------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "n_clients": self.n_clients,
                "chunk": self.chunk,
                "shared_size": self.shared_size,
                "private_size": self.private_size,
                "ops": [[asdict(op) for op in track] for track in self.ops],
                "faults": [asdict(f) for f in self.faults],
                "metadata": self.metadata,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Program":
        raw = json.loads(text)
        return cls(
            seed=raw["seed"],
            n_clients=raw["n_clients"],
            chunk=raw["chunk"],
            shared_size=raw["shared_size"],
            private_size=raw["private_size"],
            ops=[[Op(**op) for op in track] for track in raw["ops"]],
            faults=[FaultSpec(**f) for f in raw["faults"]],
            metadata=raw.get("metadata", False),
        )

    def without(self, drop_ops: set = frozenset(), drop_faults: set = frozenset()) -> "Program":
        """Copy minus the ops/faults named by (client, index) / index."""
        ops = [
            [op for j, op in enumerate(track) if (c, j) not in drop_ops]
            for c, track in enumerate(self.ops)
        ]
        faults = [f for i, f in enumerate(self.faults) if i not in drop_faults]
        return replace(self, ops=ops, faults=faults)


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------

_OP_KINDS = ["write", "read", "fsync", "reopen", "lock", "sleep"]
_OP_WEIGHTS = [0.40, 0.23, 0.12, 0.07, 0.13, 0.05]

#: Metadata programs add namespace/attribute op kinds.  The weights are
#: a separate universe: enabling ``metadata_ops`` deliberately changes
#: every rng draw, which is why the flag defaults off — the pinned
#: data-path regression seeds must keep their exact streams.
_META_OP_KINDS = _OP_KINDS + [
    "truncate",
    "recreate",
    "rename",
    "mkdir",
    "readdir",
    "getattr",
]
_META_OP_WEIGHTS = [
    0.28, 0.16, 0.09, 0.05, 0.09, 0.04,  # the data-path kinds
    0.09, 0.05, 0.05, 0.04, 0.03, 0.03,  # the metadata kinds
]

_FAULT_KINDS = ["outage", "blackout", "nic_drop", "nic_delay"]
_FAULT_WEIGHTS = [0.40, 0.20, 0.25, 0.15]


def _cdf(weights: list[float]) -> list[float]:
    """The table numpy's ``choice(p=weights)`` searches: the cumulative
    weights, normalised by their total, as Python floats.

    ``kinds[bisect.bisect_right(cdf, rng.random())]`` is then the same
    draw as numpy's ``choice(kinds, p=weights)`` — one ``random()``, a
    right-sided search — without re-validating ``p`` on every call.
    """
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf.tolist()


_OP_CDF = _cdf(_OP_WEIGHTS)
_META_OP_CDF = _cdf(_META_OP_WEIGHTS)
_FAULT_CDF = _cdf(_FAULT_WEIGHTS)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` for scalars: numpy's own formula over one
    ``random()``, without the array machinery."""
    return lo + (hi - lo) * rng.random()


def generate(
    seed: int,
    n_clients: int | None = None,
    ops_per_client: int | None = None,
    with_faults: bool = True,
    metadata_ops: bool = False,
) -> Program:
    """The torture program for ``seed`` — pure function of its arguments."""
    rng = np.random.default_rng(seed)
    n = int(n_clients) if n_clients is not None else int(rng.integers(2, 4))
    chunk = (8, 16, 32)[int(rng.integers(0, 3))] * KB
    slots_per_client = int(rng.integers(2, 4))
    prog = Program(
        seed=seed,
        n_clients=n,
        chunk=chunk,
        shared_size=chunk * n * slots_per_client,
        private_size=chunk * int(rng.integers(1, 4)),
        metadata=bool(metadata_ops),
    )
    next_tag = 1

    def take_tag() -> int:
        nonlocal next_tag
        tag = (next_tag - 1) % 255 + 1  # 1..255, never 0 (the hole value)
        next_tag += 1
        return tag

    for c in range(n):
        track: list[Op] = []
        held: list[tuple[str, int, int]] = []  # (file, start, end) we hold
        own_slots = [k * n + c for k in range(slots_per_client)]

        def own_range(rng=rng, c=c, own_slots=own_slots):
            """A write range the client owns: one shared slot or private."""
            if rng.random() < 0.6:
                slot = own_slots[int(rng.integers(0, len(own_slots)))]
                base = slot * chunk
                span = chunk
                path = SHARED
            else:
                base, span, path = 0, prog.private_size, private_path(c)
            start = base + int(rng.integers(0, span))
            length = int(rng.integers(1, span - (start - base) + 1))
            return path, start, start + length

        def rw_path(rng=rng, c=c):
            """A read/fsync/reopen target: anywhere in any file —
            including other owners' bytes."""
            return SHARED if rng.random() < 0.7 else private_path(c)

        # Metadata programs: current name of the client's scratch file
        # (renames toggle it against the client's namespace slot) and
        # the number of directories created so far.
        cur_scratch = scratch_path(c)
        slot_name = ns_path(prog.ns_slot_of(c))
        ndirs = 0

        def meta_rw_path(rng=rng, c=c):
            """A read/fsync/reopen target including the scratch file."""
            r = rng.random()
            if r < 0.5:
                return SHARED
            if r < 0.8:
                return private_path(c)
            return cur_scratch

        def own_range_meta(rng=rng, c=c, own_slots=own_slots):
            """Like own_range, but a quarter of writes hit the scratch
            file so truncate/recreate have bytes to resurrect."""
            r = rng.random()
            if r < 0.5:
                slot = own_slots[int(rng.integers(0, len(own_slots)))]
                base, span, path = slot * chunk, chunk, SHARED
            elif r < 0.75:
                base, span, path = 0, prog.private_size, private_path(c)
            else:
                base, span, path = 0, prog.private_size, cur_scratch
            start = base + int(rng.integers(0, span))
            length = int(rng.integers(1, span - (start - base) + 1))
            return path, start, start + length

        # The mode selects the op table and the two path pickers; the
        # metadata kinds are reachable from the metadata table only.
        if metadata_ops:
            kinds, cdf = _META_OP_KINDS, _META_OP_CDF
            write_range, pick_path = own_range_meta, meta_rw_path
        else:
            kinds, cdf = _OP_KINDS, _OP_CDF
            write_range, pick_path = own_range, rw_path

        count = (
            int(ops_per_client)
            if ops_per_client is not None
            else int(rng.integers(6, 14))
        )
        for _ in range(count):
            kind = kinds[bisect.bisect_right(cdf, rng.random())]
            if kind == "write":
                path, start, end = write_range()
                track.append(
                    Op("write", path, start, end - start, tag=take_tag())
                )
            elif kind == "read":
                path = pick_path()
                size = prog.file_size(path)
                start = int(rng.integers(0, size))
                length = int(rng.integers(1, min(64 * KB, size - start) + 1))
                track.append(Op("read", path, start, length))
            elif kind == "fsync":
                track.append(Op("fsync", pick_path()))
            elif kind == "reopen":
                track.append(Op("reopen", pick_path()))
            elif kind == "lock":
                # Locks stay on the stable files in either mode: a lock
                # held on a path that is then renamed/recreated could
                # never be released by its (path-keyed) unlock op.
                if held and rng.random() < 0.45:
                    path, start, end = held.pop(int(rng.integers(len(held))))
                    track.append(Op("unlock", path, start, end - start))
                else:
                    path, start, end = own_range()
                    lk = "write" if rng.random() < 0.7 else "read"
                    track.append(Op("lock", path, start, end - start, lock_kind=lk))
                    held.append((path, start, end))
            elif kind == "truncate":
                target = cur_scratch if rng.random() < 0.6 else private_path(c)
                new_size = int(rng.integers(0, prog.private_size + 1))
                track.append(Op("truncate", target, length=new_size))
            elif kind == "recreate":
                track.append(Op("recreate", cur_scratch))
            elif kind == "rename":
                other = (
                    slot_name
                    if cur_scratch == scratch_path(c)
                    else scratch_path(c)
                )
                track.append(Op("rename", cur_scratch, dest=other))
                cur_scratch = other
            elif kind == "mkdir":
                path = (
                    dir_path(c) if ndirs == 0 else f"{dir_path(c)}/d{ndirs}"
                )
                track.append(Op("mkdir", path))
                ndirs += 1
            elif kind == "readdir":
                if ndirs == 0:
                    track.append(Op("mkdir", dir_path(c)))
                    ndirs += 1
                else:
                    track.append(Op("readdir", dir_path(c)))
            elif kind == "getattr":
                r = rng.random()
                path = (
                    SHARED
                    if r < 0.4
                    else (private_path(c) if r < 0.7 else cur_scratch)
                )
                track.append(Op("getattr", path))
            else:
                # Think time stretches the episode across the fault
                # windows; without it the whole workload outruns them.
                track.append(Op("sleep", delay=_uniform(rng, 0.01, 0.15)))
        # Orderly epilogue: drop every lock still held, then persist.
        for path, start, end in held:
            track.append(Op("unlock", path, start, end - start))
        track.append(Op("fsync", SHARED))
        track.append(Op("fsync", private_path(c)))
        if metadata_ops:
            track.append(Op("fsync", cur_scratch))
        prog.ops.append(track)

    if with_faults:
        for _ in range(int(rng.integers(0, 3))):
            kind = _FAULT_KINDS[bisect.bisect_right(_FAULT_CDF, rng.random())]
            # Start/duration are sized against the workload: episodes run
            # their ops in a few hundred milliseconds of sim time, so
            # windows beyond that only ever fault an idle cluster.  Most
            # windows are shorter than the RPC retry budget (~3.75 s
            # under the torture config) — retransmission must save the
            # data; a minority outlast it, forcing write-backs to *fail*
            # and the errseq/failover paths to carry the episode.
            duration = (
                _uniform(rng, 4.0, 8.0)
                if rng.random() < 0.3
                else _uniform(rng, 0.05, 0.45)
            )
            spec = FaultSpec(
                kind=kind,
                target=int(rng.integers(0, 8)),
                start=_uniform(rng, 0.002, 0.2),
                duration=duration,
                param=_uniform(rng, 0.05, 0.4)
                if kind == "nic_drop"
                else _uniform(rng, 0.001, 0.05),
            )
            prog.faults.append(spec)
    return prog
