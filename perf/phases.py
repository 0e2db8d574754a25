"""Phase driver: run one unit as set-up, then the measured phase.

``repro.bench.runner.run_cell`` is one call from deployment build to
result, so it cannot say how much host time went before the first
measured operation.  This module replays its protocol — build, prepare
through an admin client, let the storage daemons drain, mount — as
:meth:`CellUnit.setup`, and the simultaneous client start as
:meth:`CellUnit.measure`, with nothing in between.
``perf/tests/test_phases.py`` holds it to ``run_cell``'s makespan, byte
count and event count, exactly, on every architecture.

A torture unit is a few seeded programs: generating them is the
set-up, their episodes are the measured phase.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.check import generate, run_episode
from repro.check import runner as check_runner
from repro.cluster.configs import make_deployment
from repro.workloads import IorWorkload, MdtestWorkload

__all__ = [
    "APP_OPS",
    "TORTURE_ARCHES",
    "CellUnit",
    "CountingClient",
    "TortureUnit",
    "UnitResult",
    "capture_deployments",
    "program_shape",
]

KB = 1024
MB = 1024 * 1024

#: The application-facing calls a workload issues; each one is an "op"
#: for ``attempted``/``failed``.
APP_OPS = (
    "create", "open", "read", "write", "fsync", "close", "getattr",
    "mkdir", "readdir", "remove", "rename", "truncate", "setattr",
)

#: (directories, files per directory) per client; all hold 60 files.
#: The default seed selects mdtest's own default of ten directories.
MDTEST_TREES = ((12, 5), (10, 6), (15, 4), (6, 10))

TORTURE_ARCHES = ("direct-pnfs", "pvfs2", "pnfs-2tier", "pnfs-3tier", "nfsv4")


class CountingClient:
    """Counts a workload's calls into its file-system client.

    Each counted method returns the client's own generator, so no frame
    is added to any ``yield from`` chain and the simulation is the one
    ``run_cell`` would have run.
    """

    def __init__(self, inner):
        self._inner = inner
        self.ops = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counted(name):
    def method(self, *args, **kwargs):
        self.ops += 1
        return getattr(self._inner, name)(*args, **kwargs)

    method.__name__ = name
    return method


for _name in APP_OPS:
    setattr(CountingClient, _name, _counted(_name))


@dataclass
class UnitResult:
    """What one unit did, in simulated terms; host time is the caller's."""

    unit_id: str
    events: int = 0
    sim_time: float = 0.0
    bytes_moved: int = 0
    ops: int = 0
    error: str = ""
    #: Torture trace hashes, in episode order.
    hashes: tuple = ()
    #: Aggregate MB/s of a cell (decimal MB over the makespan), for the
    #: paper-reference comparison.
    mbps: float = 0.0
    #: Checker totals of a torture unit (``EpisodeResult.stats`` sums).
    check: dict = field(default_factory=dict)

    def physics(self) -> tuple:
        """The exactly-repeating part, as hashed into the fingerprint."""
        return (
            self.unit_id, repr(self.sim_time), self.events,
            self.bytes_moved, self.ops, self.hashes,
        )


@dataclass(frozen=True)
class CellUnit:
    """One (architecture, workload, client count) cell."""

    unit_id: str
    arch: str
    n_clients: int
    kind: str  # "ior-write" | "ior-read" | "mdtest"
    scale: float
    block: int = 2 * MB
    pvfs_stripe: int = 0  # 0 = the deployment default (2 MB)
    #: ``repro.bench.paper_data.PAPER`` figure this cell is a point of.
    paper_fig: str = ""

    def workload(self, seed: int, shrink: float = 1.0):
        scale = self.scale / shrink
        if self.kind == "mdtest":
            # mdtest draws nothing from its seed and never contends for a
            # pipe, so the seed picks the directory fan-out instead, at a
            # constant files-per-client (``scale`` x 60).
            ndirs, per_dir = MDTEST_TREES[seed % len(MDTEST_TREES)]
            return MdtestWorkload(nfiles=ndirs * per_dir, ndirs=ndirs, scale=scale, seed=seed)
        return IorWorkload(
            op=self.kind.removeprefix("ior-"),
            block_size=self.block,
            scale=scale,
            seed=seed,
        )

    def setup(self, seed: int, shrink: float = 1.0):
        """Everything before the first measured operation."""
        workload = self.workload(seed, shrink)
        dep = make_deployment(
            self.arch,
            n_clients=self.n_clients,
            pvfs_overrides={"stripe_size": self.pvfs_stripe} if self.pvfs_stripe else None,
            seed=seed,
        )
        tb = dep.testbed
        sim = tb.sim
        admin = dep.make_client(tb.client_nodes[0])

        def prep():
            yield from admin.mount()
            yield from workload.prepare(sim, admin, self.n_clients)

        sim.run(until=sim.process(prep(), name="prepare"))

        def settle():
            deadline = sim.now + 600.0
            tick = None
            while any(d.dirty_backlog > 0 for d in dep.pvfs.daemons):
                if sim.now >= deadline:
                    raise RuntimeError("storage daemons failed to quiesce")
                tick = sim.timeout(0.25) if tick is None else tick.reset()
                yield tick

        sim.run(until=sim.process(settle(), name="settle"))
        clients = [dep.make_client(tb.client_nodes[i]) for i in range(self.n_clients)]

        def mount_all():
            for c in clients:
                yield from c.mount()

        sim.run(until=sim.process(mount_all(), name="mounts"))
        return workload, dep, clients

    def measure(self, state, watch=None) -> UnitResult:
        """All clients started at one instant, run to the last finish.

        ``watch(deployment, clients)`` is told what is about to run.
        """
        workload, dep, clients = state
        if watch is not None:
            watch(dep, clients)
        sim = dep.testbed.sim
        counted = [CountingClient(c) for c in clients]
        written_before = sum(d.bytes_written for d in dep.pvfs.daemons)
        t0 = sim.now
        procs = [
            sim.process(
                workload.client_proc(sim, c, i, self.n_clients), name=f"client{i}"
            )
            for i, c in enumerate(counted)
        ]
        sim.run(until=sim.all_of(procs))
        makespan = sim.now - t0
        results = [p.value for p in procs]
        total = sum(r.bytes_moved for r in results)
        res = UnitResult(
            unit_id=self.unit_id,
            events=sim.stats.events_processed,
            sim_time=makespan,
            bytes_moved=total,
            ops=sum(c.ops for c in counted),
            mbps=total / 1e6 / makespan if makespan > 0 else 0.0,
        )
        res.error = self._check(workload, dep, results, written_before)
        return res

    def _check(self, workload, dep, results, written_before) -> str:
        """Byte and operation accounting of the measured phase."""
        if self.kind == "mdtest":
            per_client = results[0].transactions
            if per_client < 1 or any(r.transactions != per_client for r in results):
                return f"{self.unit_id}: clients finished unequal file counts"
            return ""
        want = workload.file_size * self.n_clients
        got = sum(r.bytes_moved for r in results)
        if got != want:
            return f"{self.unit_id}: moved {got} bytes, expected {want}"
        if self.kind == "ior-write":
            stored = sum(d.bytes_written for d in dep.pvfs.daemons) - written_before
            if stored != want:
                return f"{self.unit_id}: daemons stored {stored} bytes, expected {want}"
        return ""


@contextmanager
def capture_deployments(watch=None):
    """Collect the deployments ``run_episode`` builds, with their clients.

    ``run_episode`` keeps its simulator to itself; its event count and
    component counters are only reachable through the deployment, so
    the name it looks up is wrapped for the duration.  ``watch`` sees
    each deployment as it is built; its client list fills as the
    episode makes clients.
    """
    captured: list = []
    original = check_runner.make_deployment

    def capturing(*args, **kwargs):
        dep = original(*args, **kwargs)
        clients: list = []
        make_client = dep.make_client

        def recording(node):
            client = make_client(node)
            clients.append(client)
            return client

        dep.make_client = recording
        captured.append((dep, clients))
        if watch is not None:
            watch(dep, clients)
        return dep

    check_runner.make_deployment = capturing
    try:
        yield captured
    finally:
        check_runner.make_deployment = original


def program_shape(program) -> tuple:
    """(chunk KB, clients, shared slots per client, private chunks)."""
    chunk = program.chunk
    return (
        chunk // KB,
        program.n_clients,
        program.shared_size // (chunk * program.n_clients),
        program.private_size // chunk,
    )


@dataclass(frozen=True)
class TortureUnit:
    """A few torture programs of fixed shapes, one architecture each.

    The checker builds its reference model byte by byte, so an
    episode's host cost follows the program's file sizes, which
    ``generate`` draws over a 13-fold range: consecutive seeds cost
    0.2-2.6 s each (measured), and a batch small enough to repeat would
    say more about which sizes the seed drew than about the code.  A
    unit therefore fixes the *shapes* it runs and lets the seed choose
    which program of each shape: it walks consecutive seeds from its
    start and takes the first program of every wanted shape.
    """

    unit_id: str
    index: int
    #: ((shape, architecture), ...) in running order.
    slots: tuple

    #: Seeds between the starts of successive units' walks.
    STRIDE = 1000

    def setup(self, seed: int, shrink: float = 1.0):
        wanted = {shape: arch for shape, arch in self.slots}
        if shrink > 1.0:  # quick mode: the first slot only
            shape, arch = self.slots[0]
            wanted = {shape: arch}
        start = seed % 100_000 + self.index * self.STRIDE
        found: dict = {}
        for candidate in range(start, start + self.STRIDE):
            program = generate(candidate, metadata_ops=True)
            shape = program_shape(program)
            if shape in wanted and shape not in found:
                found[shape] = program
                if len(found) == len(wanted):
                    return [(found[shape], wanted[shape]) for shape in wanted]
        raise RuntimeError(f"{self.unit_id}: no program of shapes {set(wanted) - set(found)}")

    def measure(self, episodes, watch=None) -> UnitResult:
        res = UnitResult(unit_id=self.unit_id)
        hashes, problems = [], []
        check = dict.fromkeys(
            ("episodes", "ops", "reads_checked", "bytes_checked", "violations", "wedged"), 0
        )
        with capture_deployments(watch) as captured:
            for program, arch in episodes:
                ep = run_episode(program, arch)
                hashes.append(ep.trace_hash)
                res.sim_time += ep.stats["sim_time"]
                res.bytes_moved += ep.stats["bytes_checked"]
                check["episodes"] += 1
                check["ops"] += ep.op_count
                check["reads_checked"] += ep.stats["reads_checked"]
                check["bytes_checked"] += ep.stats["bytes_checked"]
                check["violations"] += len(ep.violations)
                check["wedged"] += int(ep.wedged)
                if ep.violations or ep.wedged:
                    problems.append(
                        f"seed {program.seed} on {arch}: "
                        f"{ep.violations[0] if ep.violations else 'wedged'}"
                    )
        res.events = sum(dep.testbed.sim.stats.events_processed for dep, _ in captured)
        res.ops = check["ops"]
        res.hashes = tuple(hashes)
        res.check = check
        res.error = "; ".join(problems)
        return res
