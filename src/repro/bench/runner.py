"""Set up and measure one experiment cell: (architecture, workload, #clients).

The runner reproduces the paper's measurement protocol in two phases: a
preparation pass through an extra admin client (read data sets are
created over the wire and their bytes installed straight into the
storage daemons, the paper's warm server cache), then all clients
started at the same instant, and the aggregate throughput computed as
total payload bytes over the group makespan, in decimal MB/s as the
figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.configs import Architecture, Deployment, make_deployment
from repro.cluster.testbed import GIGE
from repro.sim.stats import MB
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["Cell", "RunResult", "run_cell"]


@dataclass
class RunResult:
    """Measured outcome of one cell."""

    arch: str
    workload: str
    n_clients: int
    makespan: float
    total_bytes: int
    results: list[WorkloadResult] = field(default_factory=list)
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


@dataclass
class Cell:
    """One cell in the paper's two phases: :meth:`setup`, then :meth:`measure`.

    ``arch`` is whatever :func:`make_deployment` takes — a table name
    or an :class:`Architecture` row — or an already-built
    :class:`Deployment` (for a run that adjusts a component first, or
    reads one after; the four build arguments are then unused).
    ``seed`` initialises the deployment's simulator (randomised pipe
    arbitration); ``None`` is the simulator's own default.  After
    :meth:`setup`, ``dep``, ``sim`` and ``clients`` (the mounted
    measurement clients) are what an observer around :meth:`measure`
    watches.
    """

    arch: str | Architecture | Deployment
    workload: Workload
    n_clients: int
    net_bw: float = GIGE
    nfs_overrides: dict | None = None
    pvfs_overrides: dict | None = None
    seed: int | None = None

    def setup(self) -> None:
        """Build, prepare the data sets through an admin client, settle
        and mount every measurement client."""
        dep = self.dep = self.arch
        if not isinstance(dep, Deployment):
            dep = self.dep = make_deployment(
                dep, self.n_clients, self.net_bw, self.nfs_overrides, self.pvfs_overrides, self.seed
            )
        tb = dep.testbed
        sim = self.sim = tb.sim
        workload, n_clients = self.workload, self.n_clients

        # Preparation through an admin client on client node 0.
        admin = dep.make_client(tb.client_nodes[0])

        def prep():
            yield from admin.mount()
            yield from workload.prepare(sim, admin, n_clients)

        sim.run(until=sim.process(prep(), name="prepare"))
        self.settle()

        # Mount all measurement clients before the clock starts.
        clients = self.clients = [dep.make_client(tb.client_nodes[i]) for i in range(n_clients)]

        def mount_all():
            for c in clients:
                yield from c.mount()

        sim.run(until=sim.process(mount_all(), name="mounts"))

    def settle(self) -> None:
        """Let the storage daemons drain what was written over the wire
        (the paper runs each experiment in isolation).  Installed data is
        already on disk, so after a read prepare this returns at once."""
        sim, daemons = self.sim, self.dep.pvfs.daemons

        def poll():
            deadline = sim.now + 600.0  # safety bound; drains take seconds
            tick = None
            while any(d.dirty_backlog > 0 for d in daemons):
                if sim.now >= deadline:
                    raise RuntimeError("storage daemons failed to quiesce")
                # Reuse one Timeout for the polling tick: the previous one
                # is always processed by the time we loop.
                tick = sim.timeout(0.25) if tick is None else tick.reset()
                yield tick

        sim.run(until=sim.process(poll(), name="settle"))

    def measure(self) -> RunResult:
        """Start every client at one instant and run to the last finish."""
        sim, workload, n_clients = self.sim, self.workload, self.n_clients
        t0 = sim.now
        procs = [
            sim.process(workload.client_proc(sim, c, i, n_clients), name=f"client{i}")
            for i, c in enumerate(self.clients)
        ]
        sim.run(until=sim.all_of(procs))
        results = [p.value for p in procs]
        engine = dict(sim.stats.as_dict())
        engine["flows_chunked"] = self.dep.testbed.network.flows_chunked
        return RunResult(
            arch=self.dep.label,
            workload=workload.name,
            n_clients=n_clients,
            makespan=sim.now - t0,
            total_bytes=sum(r.bytes_moved for r in results),
            results=results,
            engine=engine,
        )


def run_cell(
    arch: str | Architecture | Deployment,
    workload: Workload,
    n_clients: int,
    net_bw: float = GIGE,
    nfs_overrides: dict | None = None,
    pvfs_overrides: dict | None = None,
    seed: int | None = None,
) -> RunResult:
    """Set up and measure one :class:`Cell`."""
    cell = Cell(arch, workload, n_clients, net_bw, nfs_overrides, pvfs_overrides, seed)
    cell.setup()
    return cell.measure()
