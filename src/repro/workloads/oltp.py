"""OLTP macro-benchmark (paper §6.4.1).

A database-style workload: a single large shared file, and per client a
stream of transactions, each an 8 KB random read-modify-write with the
data sent to stable storage after every transaction (fsync).  The paper
runs 20,000 transactions per client; aggregate throughput counts the
8 KB transaction payload.
"""

from __future__ import annotations

from repro.vfs.api import FileSystemClient, Payload
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["OltpWorkload"]

KB = 1024
MB = 1024 * 1024


class OltpWorkload(Workload):
    """8 KB read-modify-write transactions on one shared file."""

    name = "oltp"

    def __init__(
        self,
        transactions: int = 20_000,
        io_size: int = 8 * KB,
        region_bytes: int = 16 * MB,
        scale: float = 1.0,
        seed: int = 20070625,
    ):
        super().__init__(scale=scale, seed=seed)
        self.transactions = max(10, int(transactions * scale))
        self.io_size = io_size
        # The hot region is NOT scaled: the working-set density, which
        # governs write-back coalescing, must stay scale-invariant.
        self.region_bytes = max(io_size * 16, int(region_bytes))

    def prepare(self, sim, admin: FileSystemClient, n_clients: int):
        # The database exists before the run: created over the wire,
        # its regions installed directly, resident and durable.
        yield from admin.mkdir("/oltp")
        f = yield from admin.create("/oltp/db")
        yield from admin.close(f)
        admin.install("/oltp/db", self.region_bytes * n_clients)

    def client_proc(self, sim, fsc: FileSystemClient, client_idx: int, n_clients: int):
        rng = self.rng(client_idx)
        f = yield from fsc.open("/oltp/db")
        base = client_idx * self.region_bytes
        slots = self.region_bytes // self.io_size
        moved = 0
        for _ in range(self.transactions):
            offset = base + int(rng.integers(0, slots)) * self.io_size
            data = yield from fsc.read(f, offset, self.io_size)
            if data.nbytes != self.io_size:
                raise RuntimeError("OLTP read shortfall")
            yield from fsc.write(f, offset, Payload.synthetic(self.io_size))
            yield from fsc.fsync(f)
            moved += self.io_size
        yield from fsc.close(f)
        return WorkloadResult(bytes_moved=moved, transactions=self.transactions)
