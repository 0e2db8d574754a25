"""Discrete-event cluster simulation substrate.

This package provides the performance layer of the reproduction: a
deterministic discrete-event engine (:mod:`repro.sim.engine`), FIFO
service pools (:mod:`repro.sim.resources`), and hardware models — network
(:mod:`repro.sim.network`), disk (:mod:`repro.sim.disk`), CPU
(:mod:`repro.sim.cpu`) — composed into cluster nodes
(:mod:`repro.sim.node`) with measurement helpers
(:mod:`repro.sim.stats`) and deterministic fault injection
(:mod:`repro.sim.faults`).

All protocol implementations (NFSv4, pNFS, PVFS2, Direct-pNFS) run as
processes on this engine, so that the same code path serves both the
functional tests and the performance experiments.
"""

from repro.sim.engine import (
    AnyOf,
    EngineStats,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource
from repro.sim.network import Network, Nic, Pipe
from repro.sim.disk import Disk, DiskFailed, DiskSpec
from repro.sim.faults import FaultInjector
from repro.sim.cpu import Cpu, CpuSpec
from repro.sim.node import Node, NodeSpec

__all__ = [
    "AnyOf",
    "Cpu",
    "CpuSpec",
    "Disk",
    "DiskFailed",
    "DiskSpec",
    "EngineStats",
    "Event",
    "FaultInjector",
    "Interrupt",
    "Network",
    "Nic",
    "Node",
    "NodeSpec",
    "Pipe",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
]
