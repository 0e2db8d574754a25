"""PVFS2 tunables and cost model.

Defaults reproduce PVFS2 1.5.1 as the paper deploys and describes it
(§5, §6.1): 2 MB stripes, large transfer buffers, limited request
parallelisation, substantial per-request overhead, no client data or
write-back cache.  They *are* the calibrated values every figure runs
(docs/calibration.md): ``Pvfs2Config()`` is what ``make_deployment``
builds with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rpc import RpcCosts

__all__ = ["Pvfs2Config"]


@dataclass(frozen=True)
class Pvfs2Config:
    """All PVFS2 knobs in one place.

    ``flow_unit`` is the transfer-buffer granularity between client and
    storage daemon; ``flow_buffers`` bounds the *per-daemon* buffer pool
    (the fixed kernel↔user buffer pool of §6.2 that caps single-file
    read throughput); ``client_max_flight`` bounds one client's
    outstanding flow units (limited request parallelisation);
    ``dirty_watermark`` is the storage daemon's in-memory dirty-data
    bound — writes beyond it are back-pressured to disk speed.
    """

    stripe_size: int = 2 * 1024 * 1024
    flow_unit: int = 256 * 1024
    flow_buffers: int = 8
    client_max_flight: int = 8
    dirty_watermark: int = 64 * 1024 * 1024
    storage_threads: int = 16
    #: Write-cache/queue allowance: a flush barrier returns once the
    #: backlog is at or below this.  2002-era ATA drives acknowledge
    #: writes from their on-drive cache and 2.6.17 ext3 issued no write
    #: barriers (§6.1 hardware), so "stable" meant handed to the
    #: storage stack — small-commit workloads (OLTP, Postmark) ride
    #: this allowance, while multi-hundred-MB streaming drains still
    #: wait for the platters.
    disk_cache_bytes: int = 16 * 1024 * 1024
    #: PVFS2 1.5 syncs metadata mutations (dspace create/remove) to its
    #: Berkeley-DB store: every create/remove/rename journals a small
    #: synchronous write on the metadata and storage servers' disks —
    #: the reason file creation is expensive on the parallel FS
    #: (paper §6.4.3) and Postmark collapses.
    metadata_sync: bool = True
    journal_io_bytes: int = 4096

    #: Per-flow-unit RPC costs (cheap: units pipeline within a request;
    #: the heavy per-*request* setup is separate, below).
    costs: RpcCosts = field(
        default_factory=lambda: RpcCosts(
            client_per_call=60e-6,
            client_per_byte=4.5e-9,
            server_per_call=60e-6,
            server_per_byte_in=5.0e-9,
            server_per_byte_out=5.0e-9,
        )
    )
    #: Per-*request* setup, charged once per (I/O op, server) pair —
    #: the "substantial per-request overhead" of §5: request posting,
    #: flow establishment, user-level daemon scheduling.  Calibrates
    #: the small-I/O collapse (39.4 / 51 MB/s in Figs 6d, 7c).  Writes
    #: pay an additional two-phase acknowledgement/admission cost.
    request_setup_client: float = 900e-6
    request_setup_server: float = 500e-6
    request_setup_write_extra: float = 250e-6
    #: Metadata-protocol RPC costs (lighter than the data path).
    meta_costs: RpcCosts = field(
        default_factory=lambda: RpcCosts(
            client_per_call=150e-6,
            client_per_byte=2e-9,
            server_per_call=180e-6,
            server_per_byte_in=2e-9,
            server_per_byte_out=2e-9,
        )
    )

    def __post_init__(self):
        if self.stripe_size < 1 or self.flow_unit < 1:
            raise ValueError("stripe_size and flow_unit must be >= 1")
        if self.flow_buffers < 1 or self.client_max_flight < 1:
            raise ValueError("buffer counts must be >= 1")
        if self.dirty_watermark < self.flow_unit:
            raise ValueError("dirty_watermark must hold at least one flow unit")
