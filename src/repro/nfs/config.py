"""NFS tunables and cost model.

The defaults *are* the calibrated values every figure runs: the
paper's experimental setup (§6.1: 2 MB rsize and wsize, eight server
threads) and the Linux NFSv4 path costs fitted to its anchors
(docs/calibration.md) — lighter per call than the PVFS2 storage
protocol, the asynchronous, multi-threaded kernel implementation the
paper credits for its small-I/O advantage.  ``NfsConfig()`` is what
``make_deployment`` builds with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.rpc import RpcCosts, RpcPolicy

__all__ = ["NfsConfig"]


@dataclass(frozen=True)
class NfsConfig:
    """All NFS knobs in one place."""

    rsize: int = 2 * 1024 * 1024
    wsize: int = 2 * 1024 * 1024
    server_threads: int = 8
    session_slots: int = 64
    #: Readahead window fetched beyond a sequential read stream.
    readahead: int = 12 * 1024 * 1024
    #: Attribute-cache timeout (seconds).
    ac_timeo: float = 3.0
    #: Client lease duration (state is discarded when it lapses).
    lease_time: float = 90.0
    #: App↔page-cache memcpy cost charged on the client (s/byte).
    client_copy_per_byte: float = 1.0e-9
    #: The RPC fault layer: client-side timeouts, backoff and retries
    #: (:class:`repro.rpc.RpcPolicy`).  ``None`` (the default) disables
    #: it entirely — calls wait forever, the pre-fault-layer behaviour,
    #: so calibrated experiments are bit-identical unless a config opts
    #: in.  With a policy, a call that runs out of retries raises
    #: :class:`repro.rpc.RpcTimeout`; retransmission is exactly-once via
    #: the session reply cache (repro.nfs.sessions).
    rpc_policy: Optional[RpcPolicy] = None
    #: Direct-pNFS failover: how long (seconds) a failed data server is
    #: blacklisted before the client re-probes the direct path.  While
    #: blacklisted, its stripes are proxied through the MDS.
    ds_retry_interval: float = 2.0
    #: NFSv4 path costs: the in-kernel, multi-threaded Linux
    #: implementation.
    costs: RpcCosts = field(
        default_factory=lambda: RpcCosts(
            client_per_call=35e-6,
            client_per_byte=3.5e-9,
            server_per_call=50e-6,
            server_per_byte_in=5.5e-9,
            server_per_byte_out=5.5e-9,
        )
    )

    def __post_init__(self):
        if self.rsize < 1 or self.wsize < 1:
            raise ValueError("rsize/wsize must be >= 1")
        if self.server_threads < 1 or self.session_slots < 1:
            raise ValueError("thread/slot counts must be >= 1")
        if self.readahead < 0:
            raise ValueError("readahead must be >= 0")
        if self.ds_retry_interval <= 0:
            raise ValueError("ds_retry_interval must be positive")
