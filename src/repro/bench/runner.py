"""Execute one experiment cell: (architecture, workload, #clients).

The runner reproduces the paper's measurement protocol: a preparation
pass through an extra admin client (read data sets are created over the
wire and their bytes installed straight into the storage daemons, the
paper's warm server cache), then all clients started at the same
instant, and the aggregate throughput computed as total payload bytes
over the group makespan, in decimal MB/s as the figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.configs import Architecture, Deployment, make_deployment
from repro.cluster.testbed import GIGE
from repro.sim.stats import MB
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["RunResult", "run_cell"]


@dataclass
class RunResult:
    """Measured outcome of one cell."""

    arch: str
    workload: str
    n_clients: int
    makespan: float
    total_bytes: int
    results: list[WorkloadResult] = field(default_factory=list)
    #: Observability section (populated when ``run_cell(metrics=True)``):
    #: final counter/gauge values, the sampler's time series, per-node
    #: utilisation rows over the measured phase (the server nodes, the
    #: extra node and the measured client nodes), and the bottleneck
    #: verdict — the metrics/utilization section of the JSON report.
    metrics: dict = field(default_factory=dict)
    #: Span trace of the measured phase (populated when
    #: ``run_cell(trace=True)``); export with
    #: ``result.trace.write_chrome_trace(path)``.
    trace: object | None = None
    #: Engine cost telemetry for the whole cell (prepare + settle +
    #: measured phase): ``EngineStats.as_dict()`` plus the count of
    #: wire flows the network carried (``flows_chunked``).
    engine: dict = field(default_factory=dict)

    @property
    def aggregate_mbps(self) -> float:
        """Total payload MB (decimal) over the group makespan."""
        if self.makespan <= 0:
            raise ValueError("zero makespan")
        return self.total_bytes / MB / self.makespan

    @property
    def transactions_per_second(self) -> float:
        """Aggregate tps over the transaction window (Postmark) or run."""
        starts = [r.extra.get("txn_start") for r in self.results]
        ends = [r.extra.get("txn_end") for r in self.results]
        total = sum(r.transactions for r in self.results)
        if all(s is not None for s in starts) and all(e is not None for e in ends):
            window = max(ends) - min(starts)
        else:
            window = self.makespan
        return total / window if window > 0 else float("inf")

    @property
    def runtime(self) -> float:
        """Wall-clock runtime (BTIO's metric; lower is better)."""
        return self.makespan


def run_cell(
    arch: str | Architecture | Deployment,
    workload: Workload,
    n_clients: int,
    net_bw: float = GIGE,
    nfs_overrides: dict | None = None,
    pvfs_overrides: dict | None = None,
    metrics: bool = False,
    sample_interval: float = 0.25,
    trace: bool = False,
    seed: int | None = None,
) -> RunResult:
    """Build the architecture, run the workload on ``n_clients``.

    ``arch`` is whatever :func:`make_deployment` takes — a table name
    or an :class:`Architecture` row — or an already-built
    :class:`Deployment` (for a run that adjusts a component first, or
    reads one after; the four build arguments are then unused).
    ``seed`` initialises the deployment's simulator (randomised pipe
    arbitration); ``None`` is the simulator's own default.

    ``metrics=True`` attaches a :class:`~repro.obs.MetricsRegistry` to
    every component, samples it every ``sample_interval`` sim seconds
    over the measured phase, and fills ``RunResult.metrics`` with
    counters, time series, per-node CPU / NIC / disk utilisation (the
    sampler's first reading against the final one), and the bottleneck
    verdict.  ``trace=True`` records spans over the measured phase into
    ``RunResult.trace``.  Both default off and add nothing to the run
    when off.
    """
    dep = arch
    if not isinstance(arch, Deployment):
        dep = make_deployment(
            arch,
            n_clients=n_clients,
            net_bw=net_bw,
            nfs_overrides=nfs_overrides,
            pvfs_overrides=pvfs_overrides,
            seed=seed,
        )
    tb = dep.testbed
    sim = tb.sim

    # Preparation through an admin client on client node 0.
    admin = dep.make_client(tb.client_nodes[0])

    def prep():
        yield from admin.mount()
        yield from workload.prepare(sim, admin, n_clients)

    prep_proc = sim.process(prep(), name="prepare")
    sim.run(until=prep_proc)

    # Quiesce: let the storage daemons drain what a prepare wrote over
    # the wire before the measured phase (the paper runs each experiment
    # in isolation).  Installed data is already on disk, so after a
    # read prepare this returns at once.
    def settle():
        deadline = sim.now + 600.0  # safety bound; drains take seconds
        tick = None
        while any(d.dirty_backlog > 0 for d in dep.pvfs.daemons):
            if sim.now >= deadline:
                raise RuntimeError("storage daemons failed to quiesce")
            # Reuse one Timeout for the polling tick: the previous one
            # is always processed by the time we loop.
            tick = sim.timeout(0.25) if tick is None else tick.reset()
            yield tick

    sim.run(until=sim.process(settle(), name="settle"))

    # Mount all measurement clients before the clock starts.
    clients = [dep.make_client(tb.client_nodes[i]) for i in range(n_clients)]

    def mount_all():
        for c in clients:
            yield from c.mount()

    mount_proc = sim.process(mount_all(), name="mounts")
    sim.run(until=mount_proc)

    registry = sampler = None
    if metrics:
        from repro.obs import MetricsRegistry, Sampler, observe_deployment

        registry = MetricsRegistry()
        observe_deployment(registry, dep, clients=clients)
        sampler = Sampler(sim, registry, interval=sample_interval).start()

    collector = None
    if trace:
        from repro.obs import SpanCollector

        collector = SpanCollector(sim)
        collector.__enter__()

    t0 = sim.now
    try:
        procs = [
            sim.process(
                workload.client_proc(sim, c, i, n_clients), name=f"client{i}"
            )
            for i, c in enumerate(clients)
        ]
        done = sim.all_of(procs)
        sim.run(until=done)
    finally:
        if collector is not None:
            collector.__exit__(None, None, None)
        if sampler is not None:
            sampler.stop()
    makespan = sim.now - t0
    results = [p.value for p in procs]

    metrics_section: dict = {}
    if metrics:
        from repro.obs import bottleneck, node_utilisation

        counters = registry.collect()
        monitored = tb.server_nodes + [tb.extra_node] + tb.client_nodes[:n_clients]
        rows = node_utilisation(monitored, sampler.samples[0][1], counters, makespan)
        metrics_section = {
            "counters": counters,
            "series": sampler.as_dict(),
            "utilisation": rows,
            "bottleneck": bottleneck(rows),
        }
    engine = dict(sim.stats.as_dict())
    engine["flows_chunked"] = tb.network.flows_chunked
    return RunResult(
        arch=dep.label,
        workload=workload.name,
        n_clients=n_clients,
        makespan=makespan,
        total_bytes=sum(r.bytes_moved for r in results),
        results=results,
        metrics=metrics_section,
        trace=collector,
        engine=engine,
    )
