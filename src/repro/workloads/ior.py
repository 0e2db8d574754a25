"""IOR micro-benchmark (paper §6.2).

Clients sequentially read or write separate 500 MB files, or disjoint
500 MB portions of a single file, with a configurable application block
size — 2 MB ("large block") and 8 KB ("small block") in the paper's
figures.  Read experiments run against files that ``prepare`` creates
through the admin client and fills with ``admin.install``, so the data
starts resident in the storage nodes' memory and already on disk: the
paper's warm server cache, with no simulated time spent putting it
there.
"""

from __future__ import annotations

from repro.vfs.api import FileSystemClient, Payload
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["IorWorkload"]

MB = 1024 * 1024


class IorWorkload(Workload):
    """Sequential per-client read or write streams."""

    name = "ior"

    def __init__(
        self,
        op: str = "write",
        block_size: int = 2 * MB,
        file_size: int = 500 * MB,
        shared_file: bool = False,
        fsync_every: int = 0,
        scale: float = 1.0,
        seed: int = 20070625,
    ):
        super().__init__(scale=scale, seed=seed)
        if op not in ("read", "write"):
            raise ValueError("op must be 'read' or 'write'")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        self.op = op
        self.block_size = block_size
        # Scale, then round up to a whole number of blocks.
        scaled = max(int(file_size * scale), block_size)
        self.file_size = ((scaled + block_size - 1) // block_size) * block_size
        self.shared_file = shared_file
        #: fsync after every N blocks (0 = only at the end) — the
        #: O_SYNC-style mode used by the write-back-cache ablation.
        self.fsync_every = fsync_every

    # -- helpers --------------------------------------------------------------
    def _path(self, client_idx: int) -> str:
        return "/ior/shared" if self.shared_file else f"/ior/f{client_idx}"

    def _base(self, client_idx: int) -> int:
        return client_idx * self.file_size if self.shared_file else 0

    # -- Workload ---------------------------------------------------------------
    def prepare(self, sim, admin: FileSystemClient, n_clients: int):
        yield from admin.mkdir("/ior")
        if self.op == "read":
            # The data set, created over the wire and filled directly:
            # resident and durable, the paper's warm server cache.
            files = (
                [("/ior/shared", self.file_size * n_clients)]
                if self.shared_file
                else [(f"/ior/f{i}", self.file_size) for i in range(n_clients)]
            )
            for path, nbytes in files:
                f = yield from admin.create(path)
                yield from admin.close(f)
                admin.install(path, nbytes)
        elif self.shared_file:
            # Writers to a single file need it to exist up front.
            f = yield from admin.create("/ior/shared")
            yield from admin.close(f)

    def client_proc(self, sim, fsc: FileSystemClient, client_idx: int, n_clients: int):
        path = self._path(client_idx)
        base = self._base(client_idx)
        writing = self.op == "write"
        if writing and not self.shared_file:
            f = yield from fsc.create(path)
        else:
            f = yield from fsc.open(path, write=writing)

        file_size, block_size, fsync_every = self.file_size, self.block_size, self.fsync_every
        # A payload is immutable, so one serves every full block.
        block = Payload.synthetic(block_size)
        moved = 0
        pos = 0
        blocks = 0
        while pos < file_size:
            n = file_size - pos
            if n > block_size:
                n = block_size
            if writing:
                yield from fsc.write(
                    f, base + pos, block if n == block_size else Payload.synthetic(n)
                )
                blocks += 1
                if fsync_every and blocks % fsync_every == 0:
                    yield from fsc.fsync(f)
            else:
                data = yield from fsc.read(f, base + pos, n)
                if data.nbytes != n:
                    raise RuntimeError(
                        f"IOR read shortfall at {base + pos}: {data.nbytes} != {n}"
                    )
            moved += n
            pos += n

        if writing:
            yield from fsc.fsync(f)
        yield from fsc.close(f)
        return WorkloadResult(bytes_moved=moved, transactions=file_size // block_size)
