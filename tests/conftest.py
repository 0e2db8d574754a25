"""Shared test fixtures: small clusters and process-driving helpers."""

import gc
import importlib.util
import pathlib
import sys
from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.sim import CpuSpec, DiskSpec, Network, Node, NodeSpec, Simulator

from tests.localfs import LocalClient, LocalFileSystem


@dataclass
class MiniCluster:
    """A small testbed: storage nodes + client nodes on one switch."""

    sim: Simulator
    network: Network
    storage: list[Node] = field(default_factory=list)
    clients: list[Node] = field(default_factory=list)


def build_cluster(
    n_storage: int = 3,
    n_clients: int = 2,
    nic_bw: float = 117e6,
    latency: float = 60e-6,
    disk: DiskSpec | None = None,
) -> MiniCluster:
    sim = Simulator()
    net = Network(sim, latency=latency)
    disk = disk or DiskSpec(read_bw=55e6, write_bw=24e6, positioning=0.004)
    storage = [
        Node(
            sim,
            NodeSpec(
                name=f"s{i}",
                cpu=CpuSpec(cores=2, speed=1.3),
                nic_bw=nic_bw,
                disks=(disk,),
                io_bus_bw=28e6,
            ),
            net,
        )
        for i in range(n_storage)
    ]
    clients = [
        Node(
            sim,
            NodeSpec(name=f"c{i}", cpu=CpuSpec(cores=2, speed=1.0), nic_bw=nic_bw),
            net,
        )
        for i in range(n_clients)
    ]
    return MiniCluster(sim=sim, network=net, storage=storage, clients=clients)


def load_script(name: str):
    """Import ``scripts/<name>.py`` (the pin recorders tier-1 replays)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def profile_calls(fn, *args) -> tuple[int, Counter]:
    """Call ``fn(*args)`` under ``sys.setprofile``: ``(Python and C calls
    made, Counter of the code objects entered)``.  A generator's code is
    entered again at each resumption, and each entry is a call.

    Host work as a count, not a time: it moves with the interpreter,
    not with the machine or its load.
    """
    calls = 0
    entered: Counter = Counter()

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1
            entered[frame.f_code] += 1
        elif event == "c_call":
            calls += 1

    # A cycle collection landing inside the measurement would finalise
    # another simulator's suspended generators under the profiler.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, entered


def drive(sim: Simulator, gen):
    """Run generator ``gen`` as a process to completion; return its value."""
    proc = sim.process(gen)
    return sim.run(until=proc)


def build_nfs(cluster: MiniCluster, **cfg):
    """``(c0, c1, server)``: an ``Nfs4Server`` over an in-memory file
    system on ``storage[0]``, mounted by two clients (``clients[0]``
    first); ``cfg`` is the ``NfsConfig`` all three share."""
    cfg = NfsConfig(**cfg)
    server = Nfs4Server(
        cluster.sim, cluster.storage[0], LocalClient(cluster.sim, LocalFileSystem()), cfg
    )
    c0 = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
    c1 = Nfs4Client(cluster.sim, cluster.clients[1], server, cfg)
    drive(cluster.sim, c0.mount())
    drive(cluster.sim, c1.mount())
    return c0, c1, server


def delegated(client: Nfs4Client, path: str) -> bool:
    """Whether ``client`` holds a read delegation on the file ``path``
    names there."""
    return client._inode(path).delegation is not None


@pytest.fixture
def cluster():
    return build_cluster()
