"""Wire simulator components into a :class:`MetricsRegistry`.

Components keep their plain attribute counters (free when nobody is
looking); these helpers register gauges over them so a registry — and
therefore a :class:`~repro.obs.metrics.Sampler` — sees every layer
under dotted names::

    s0.cpu.busy_seconds      s0.nic.tx_bytes       s0.disk0.busy_seconds
    s0.disk0.queue           mds.rpc.calls_served  c0.client.writeback_errors

Everything here is duck-typed on the attribute names the components
already expose, so this module imports nothing from the simulation
layers and can be attached to any object that looks right (the tests
attach bare stubs).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "observe_node",
    "observe_rpc_server",
    "observe_client",
    "observe_storage_daemon",
    "observe_network",
    "observe_engine",
    "observe_deployment",
]


def _gauge_attr(reg: MetricsRegistry, name: str, obj, attr: str) -> None:
    reg.gauge(name, lambda: getattr(obj, attr))


def observe_node(reg: MetricsRegistry, node) -> None:
    """CPU, NIC, and disk counters of one node."""
    n = node.name
    _gauge_attr(reg, f"{n}.cpu.busy_seconds", node.cpu, "busy_time")
    reg.gauge(f"{n}.cpu.queue", lambda: node.cpu.cores.queue_len)
    nic = node.nic
    for attr in ("tx_bytes", "rx_bytes", "loopback_bytes", "flows_dropped"):
        _gauge_attr(reg, f"{n}.nic.{attr}", nic, attr)
    for i, disk in enumerate(node.disks):
        d = f"{n}.disk{i}"
        _gauge_attr(reg, f"{d}.busy_seconds", disk, "busy_time")
        _gauge_attr(reg, f"{d}.read_bytes", disk, "read_bytes")
        _gauge_attr(reg, f"{d}.write_bytes", disk, "write_bytes")
        _gauge_attr(reg, f"{d}.requests", disk, "requests")
        # Queue depth: requests waiting for the arm plus the one on it.
        reg.gauge(
            f"{d}.queue", lambda a=disk.arm: a.queue_len + a.in_use
        )


def observe_rpc_server(reg: MetricsRegistry, server, name: str = "") -> None:
    """RPC service counters: served/errors/replays/retransmissions."""
    n = name or server.name
    for attr in (
        "calls_served",
        "errors",
        "calls_replayed",
        "retransmissions",
        "client_timeouts",
    ):
        _gauge_attr(reg, f"{n}.rpc.{attr}", server, attr)
    threads = server.threads
    reg.gauge(f"{n}.rpc.threads_busy", lambda: threads.in_use)
    reg.gauge(f"{n}.rpc.threads_queue", lambda: threads.queue_len)
    _gauge_attr(reg, f"{n}.rpc.threads_high_water", threads, "high_water")


def observe_client(reg: MetricsRegistry, client, name: str = "") -> None:
    """File-system client counters; NFS page-cache ones when present."""
    n = name or f"{client.node.name}.{client.label}"
    _gauge_attr(reg, f"{n}.bytes_read", client, "bytes_read")
    _gauge_attr(reg, f"{n}.bytes_written", client, "bytes_written")
    for attr in (
        "cache_hit_bytes",
        "cache_miss_bytes",
        "readahead_issued_bytes",
        "readahead_used_bytes",
        "readahead_wasted_bytes",
        "readahead_errors",
        "writeback_errors",
    ):
        if hasattr(client, attr):
            _gauge_attr(reg, f"{n}.{attr}", client, attr)
    for attr in ("failovers", "recoveries", "proxied_bytes"):
        if hasattr(client, attr):
            _gauge_attr(reg, f"{n}.{attr}", client, attr)


def observe_storage_daemon(reg: MetricsRegistry, daemon) -> None:
    """PVFS2 storage-daemon counters: backlog, buffers, crash count."""
    n = daemon.name
    _gauge_attr(reg, f"{n}.bytes_read", daemon, "bytes_read")
    _gauge_attr(reg, f"{n}.bytes_written", daemon, "bytes_written")
    reg.gauge(f"{n}.dirty_backlog", lambda: daemon.dirty_backlog)
    flow = daemon.flow_pool
    reg.gauge(f"{n}.flow_buffers_busy", lambda: flow.in_use)
    _gauge_attr(reg, f"{n}.flow_buffers_high_water", flow, "high_water")
    _gauge_attr(reg, f"{n}.crashes", daemon, "crashes")


def observe_network(reg: MetricsRegistry, network) -> None:
    """Network-wide flow counters."""
    for attr in ("flows_completed", "flows_chunked"):
        _gauge_attr(reg, f"net.{attr}", network, attr)


def observe_engine(reg: MetricsRegistry, sim) -> None:
    """Event-kernel counters: calls scheduled and run, queue depth.

    Exposes :class:`~repro.sim.engine.EngineStats` so a sampler can
    plot events-per-RPC against the RPC-server counters.
    """
    stats = sim.stats
    for attr in ("events_scheduled", "events_processed", "peak_heap"):
        _gauge_attr(reg, f"engine.{attr}", stats, attr)


def observe_deployment(reg: MetricsRegistry, dep, clients=()) -> None:
    """Observe a whole :class:`~repro.cluster.configs.Deployment`.

    Registers every testbed node, every server-side RPC service
    (NFS data/metadata servers, PVFS2 daemons and PVFS2 metadata
    servers, found by duck typing), the network, and any ``clients``
    passed in.
    """
    tb = dep.testbed
    observe_engine(reg, tb.sim)
    observe_network(reg, tb.network)
    for node in tb.server_nodes + tb.client_nodes + [tb.extra_node]:
        observe_node(reg, node)
    seen = set()

    def observe_rpc_of(service) -> None:
        rpc = getattr(service, "rpc", None)
        if rpc is not None and hasattr(rpc, "calls_served") and id(rpc) not in seen:
            seen.add(id(rpc))
            observe_rpc_server(reg, rpc)

    for server in getattr(dep, "servers", ()):
        observe_rpc_of(server)
    for daemon in getattr(dep.pvfs, "daemons", ()):
        observe_storage_daemon(reg, daemon)
        observe_rpc_of(daemon)
    # ``dep.servers`` is the NFS tier wherever there is one; the PVFS2
    # metadata servers behind it take the create/journal path.
    for mds in getattr(dep.pvfs, "metadata_servers", ()):
        observe_rpc_of(mds)
    for client in clients:
        observe_client(reg, client)
