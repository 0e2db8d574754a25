"""Wire simulator components into a :class:`MetricsRegistry`.

Components keep their plain attribute counters (free when nobody is
looking); these helpers register gauges over them so a registry — and
therefore a :class:`~repro.obs.metrics.Sampler` — sees every layer
under dotted names::

    s0.cpu.busy_seconds      s0.nic.tx_bytes       s0.disk0.busy_seconds
    s0.disk0.queue           mds.rpc.calls_served  c0.client.writeback_errors
    s0.direct-mds.layouts_granted

Everything here is duck-typed on the attribute names the components
already expose, so this module imports nothing from the simulation
layers and can be attached to any object that looks right (the tests
attach bare stubs).  :func:`node_utilisation` reads the node gauges
back: two registry readings make the per-node utilisation rows behind
the paper's §6.2.1 attribution, and :func:`bottleneck` names the
busiest of them.  :func:`measure_with_metrics` does all of that around
a cell's measured phase.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, Sampler

__all__ = [
    "bottleneck",
    "measure_with_metrics",
    "node_utilisation",
    "observe_node",
    "observe_rpc_server",
    "observe_protocol_events",
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


def node_utilisation(nodes, first: dict, last: dict, window: float) -> list[dict]:
    """Per-node utilisation between two readings of :func:`observe_node`'s gauges.

    ``first`` and ``last`` are ``{name: value}`` readings of a registry
    taken ``window`` sim seconds apart.  One row per node: the busy
    fraction of its CPU (over all cores), of its NIC in each direction,
    and of its busiest disk (0.0 when diskless), and the ``dominant``
    resource class — the one closest to saturation.
    """
    if window <= 0:
        raise ValueError("readings must span a positive window")
    rows = []
    for node in nodes:
        n = node.name

        def used(metric: str):
            return last[f"{n}.{metric}"] - first[f"{n}.{metric}"]

        disk = 0.0
        for i in range(len(node.disks)):
            disk = max(disk, used(f"disk{i}.busy_seconds") / window)
        cpu = used("cpu.busy_seconds") / (window * node.cpu.spec.cores)
        nic_tx = used("nic.tx_bytes") / node.nic.bandwidth / window
        nic_rx = used("nic.rx_bytes") / node.nic.bandwidth / window
        classes = {"cpu": cpu, "nic": max(nic_tx, nic_rx), "disk": disk}
        rows.append({
            "node": n,
            "cpu": cpu,
            "nic_tx": nic_tx,
            "nic_rx": nic_rx,
            "disk": disk,
            "window": window,
            "dominant": max(classes, key=classes.get),
        })
    return rows


def bottleneck(rows: list[dict]) -> dict:
    """The most-utilised (node, component) pair over utilisation rows —
    the component a run's makespan is attributed to; ``{}`` for none."""
    best: dict = {}
    for r in rows:
        for component in ("cpu", "nic_tx", "nic_rx", "disk"):
            if not best or r[component] > best["utilisation"]:
                best = {"node": r["node"], "component": component, "utilisation": r[component]}
    return best


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


def observe_protocol_events(reg: MetricsRegistry, server) -> None:
    """The NFSv4 / pNFS protocol events a server counts: delegations and
    layouts granted and recalled, byte-range lock conflicts."""
    n = server.name
    events = ("delegations_granted", "delegations_recalled", "layouts_granted", "layouts_recalled")
    for attr in events:
        if hasattr(server, attr):
            _gauge_attr(reg, f"{n}.{attr}", server, attr)
    if hasattr(server, "locks"):
        _gauge_attr(reg, f"{n}.lock_conflicts", server.locks, "conflicts")


def observe_client(reg: MetricsRegistry, client, name: str = "") -> None:
    """File-system client counters; NFS page-cache ones when present.

    A shard router keeps no counters of its own: each shard's client is
    observed as ``{name}.shard{i}``.
    """
    n = name or f"{client.node.name}.{client.label}"
    shards = getattr(client, "shards", None)
    if shards is not None:
        for i, shard in enumerate(shards):
            observe_client(reg, shard, f"{n}.shard{i}")
        return
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
    servers, found by duck typing), the NFS tier's protocol events,
    the network, and any ``clients`` passed in.
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
        observe_protocol_events(reg, server)
    for daemon in getattr(dep.pvfs, "daemons", ()):
        observe_storage_daemon(reg, daemon)
        observe_rpc_of(daemon)
    # ``dep.servers`` is the NFS tier wherever there is one; the PVFS2
    # metadata servers behind it take the create/journal path.
    for mds in getattr(dep.pvfs, "metadata_servers", ()):
        observe_rpc_of(mds)
    for client in clients:
        observe_client(reg, client)


def measure_with_metrics(cell, interval: float = 0.25):
    """``(result, section)`` of a set-up cell's ``measure()`` (duck-typed:
    ``dep``, ``sim``, ``clients``) with the deployment observed and
    sampled every ``interval`` sim s: final ``counters``, ``series``,
    per-node ``utilisation`` over the measured phase and ``bottleneck``.
    """
    registry = MetricsRegistry()
    observe_deployment(registry, cell.dep, clients=cell.clients)
    sampler = Sampler(cell.sim, registry, interval=interval).start()
    try:
        result = cell.measure()
    finally:
        sampler.stop()
    counters = registry.collect()
    tb = cell.dep.testbed
    monitored = tb.server_nodes + [tb.extra_node] + tb.client_nodes[: len(cell.clients)]
    rows = node_utilisation(monitored, sampler.samples[0][1], counters, result.makespan)
    return result, {
        "counters": counters,
        "series": sampler.as_dict(),
        "utilisation": rows,
        "bottleneck": bottleneck(rows),
    }
