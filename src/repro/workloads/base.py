"""Workload interface.

A workload is architecture-agnostic: it only sees
:class:`~repro.vfs.api.FileSystemClient` instances.  The benchmark
runner calls ``prepare`` once through an extra "admin" client, then
starts ``client_proc`` simultaneously on every client.  ``prepare``
makes the namespace over the wire (directories, files: handle
allocation, placement and open state as any client would leave them)
and lays the bulk bytes a read experiment reads straight into the
storage daemons with ``admin.install(path, nbytes)``.  The paper
measures reads from a warm server cache, not how the data got there,
so simulating an admin client writing it would cost host time no
figure reports.

All workloads accept a ``scale`` factor that shrinks data volumes and
operation counts proportionally, so the test suite can exercise them
quickly while benchmark runs use larger (or full) scale.  Random
streams are seeded per (workload, client) — runs are deterministic.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.vfs.api import FileSystemClient

__all__ = ["Workload", "WorkloadResult"]


@dataclass
class WorkloadResult:
    """Per-client outcome of one workload run."""

    bytes_moved: int = 0
    transactions: int = 0
    #: Workload-specific measurements (phase timings, txn windows, ...).
    extra: dict = field(default_factory=dict)


class Workload(ABC):
    """Base class for all benchmark workloads."""

    name: str = "abstract"

    def __init__(self, scale: float = 1.0, seed: int = 20070625):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed

    def rng(self, client_idx: int) -> np.random.Generator:
        """Deterministic per-client random stream.

        The name is folded in with ``crc32``, not ``hash()``: string
        hashes are randomised per process, which would make the same
        workload draw different streams in different worker processes —
        parallel sweeps must be bit-identical to serial ones.
        """
        name_tag = zlib.crc32(self.name.encode()) & 0xFFFF
        return np.random.default_rng((self.seed, name_tag, client_idx))

    @abstractmethod
    def prepare(self, sim, admin: FileSystemClient, n_clients: int):
        """Generator: one-time setup (directories, pre-created files).

        Namespace operations go through ``admin``; bulk data a read
        phase needs is installed with ``admin.install``.
        """

    @abstractmethod
    def client_proc(self, sim, fsc: FileSystemClient, client_idx: int, n_clients: int):
        """Generator: one client's benchmark; returns a WorkloadResult."""
