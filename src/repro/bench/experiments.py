"""Every figure panel of the paper's evaluation, as a runnable sweep.

An :class:`Experiment` names the workload factory, systems, client
counts, network, and metric for one figure panel.  ``run_experiment``
executes the sweep at a chosen scale and returns
``{system: {n_clients: value}}`` plus the per-cell raw results.

Scale note: data volumes shrink with ``scale`` (default 0.1 → 50 MB
IOR files); all systems shrink identically, so steady-state throughput
ratios and curve shapes are preserved while runs stay fast.  BTIO's
compute term scales too, keeping the compute/I-O ratio of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench.runner import RunResult, run_cell
from repro.cluster.testbed import FAST_ETHERNET, GIGE
from repro.workloads import (
    AtlasWorkload,
    BtioWorkload,
    IorWorkload,
    OltpWorkload,
    PostmarkWorkload,
    SshBuildWorkload,
)

__all__ = ["EXPERIMENTS", "Experiment", "ExperimentResult", "run_experiment"]

MB = 1024 * 1024

ALL_FIVE = ["direct-pnfs", "pvfs2", "pnfs-2tier", "pnfs-3tier", "nfsv4"]
HEAD_TO_HEAD = ["direct-pnfs", "pvfs2"]


@dataclass
class Experiment:
    """One figure panel."""

    id: str
    title: str
    metric: str  # "mbps" | "runtime" | "tps"
    systems: list[str]
    client_counts: list[int]
    workload: Callable[[float], object]  # scale -> Workload
    net_bw: float = GIGE
    pvfs_overrides: dict = field(default_factory=dict)
    nfs_overrides: dict = field(default_factory=dict)
    #: Per-experiment multiplier on the global scale (the 100 Mbps run
    #: needs longer streams for pipeline fill/drain to amortise).
    scale_factor: float = 1.0

    def value_of(self, result: RunResult) -> float:
        if self.metric == "mbps":
            return result.aggregate_mbps
        if self.metric == "runtime":
            return result.runtime
        if self.metric == "tps":
            return result.transactions_per_second
        raise ValueError(f"unknown metric {self.metric!r}")


@dataclass
class ExperimentResult:
    """Sweep output for one experiment."""

    experiment: Experiment
    scale: float
    values: dict[str, dict[int, float]]
    raw: dict[tuple[str, int], RunResult] = field(default_factory=dict)
    #: Batch cost telemetry (``EngineReport.as_dict()``): workers,
    #: cache hits, per-cell wall seconds.  Timing only — never part of
    #: the deterministic result content.
    parallel: dict = field(default_factory=dict)


def _ior(op: str, block: int, shared: bool):
    return lambda scale: IorWorkload(
        op=op, block_size=block, shared_file=shared, scale=scale
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment(
            "fig6a",
            "IOR write, separate files, large block",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("write", 4 * MB, shared=False),  # paper: 2-4 MB blocks
        ),
        Experiment(
            "fig6b",
            "IOR write, single file, large block",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("write", 4 * MB, shared=True),
        ),
        Experiment(
            "fig6c",
            "IOR write, separate files, 100 Mbps Ethernet",
            "mbps",
            ["direct-pnfs", "pvfs2", "pnfs-2tier"],
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("write", 4 * MB, shared=False),
            net_bw=FAST_ETHERNET,
            scale_factor=2.0,
        ),
        Experiment(
            "fig6d",
            "IOR write, separate files, 8 KB block",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("write", 8 * 1024, shared=False),
        ),
        Experiment(
            "fig6e",
            "IOR write, single file, 8 KB block",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("write", 8 * 1024, shared=True),
        ),
        Experiment(
            "fig7a",
            "IOR read, separate files, large block (warm cache)",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("read", 4 * MB, shared=False),
        ),
        Experiment(
            "fig7b",
            "IOR read, single file, large block (warm cache)",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("read", 4 * MB, shared=True),
        ),
        Experiment(
            "fig7c",
            "IOR read, separate files, 8 KB block",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("read", 8 * 1024, shared=False),
        ),
        Experiment(
            "fig7d",
            "IOR read, single file, 8 KB block",
            "mbps",
            ALL_FIVE,
            [1, 2, 3, 4, 5, 6, 7, 8],
            _ior("read", 8 * 1024, shared=True),
        ),
        Experiment(
            "fig8a",
            "ATLAS digitization write replay",
            "mbps",
            HEAD_TO_HEAD,
            [1, 4, 8],
            lambda scale: AtlasWorkload(scale=scale),
        ),
        Experiment(
            "fig8b",
            "NPB BTIO class A (runtime, lower is better)",
            "runtime",
            HEAD_TO_HEAD,
            [1, 4, 9],
            lambda scale: BtioWorkload(scale=scale),
        ),
        Experiment(
            "fig8c",
            "OLTP: 8 KB read-modify-write + fsync",
            "mbps",
            HEAD_TO_HEAD,
            [1, 4, 8],
            lambda scale: OltpWorkload(scale=scale),
        ),
        Experiment(
            "fig8d",
            "Postmark (transactions per second)",
            "tps",
            HEAD_TO_HEAD,
            [1, 4, 8],
            lambda scale: PostmarkWorkload(scale=scale),
            pvfs_overrides={"stripe_size": 64 * 1024},
            nfs_overrides={"rsize": 64 * 1024, "wsize": 64 * 1024},
        ),
        Experiment(
            "sshbuild",
            "SSH-build phases (§6.4.3, in-text)",
            "runtime",
            HEAD_TO_HEAD,
            [1],
            lambda scale: SshBuildWorkload(scale=scale),
        ),
    ]
}


def run_experiment(
    exp_id: str,
    scale: float = 0.1,
    client_counts: list[int] | None = None,
    systems: list[str] | None = None,
    jobs: int = 1,
    cache=None,
    progress=None,
) -> ExperimentResult:
    """Run one figure panel's sweep and collect the metric values.

    ``jobs`` fans the (system, client-count) cells over that many
    worker processes via :mod:`repro.parallel`; every cell is a pure
    function of its spec, so the sweep's values are identical whatever
    ``jobs`` is.  ``cache`` (a :class:`repro.parallel.ResultCache`)
    skips cells whose spec + code fingerprint already have a stored
    result.  ``progress(spec, result, wall, cached)`` is called per
    finished cell — see :class:`repro.parallel.ProgressReporter`.
    """
    from repro.parallel import figure_cell_spec, run_jobs

    exp = EXPERIMENTS[exp_id]
    counts = client_counts or exp.client_counts
    chosen = systems or exp.systems
    pairs = [(system, n) for system in chosen for n in counts]
    specs = [figure_cell_spec(exp_id, system, n, scale) for system, n in pairs]
    results, report = run_jobs(specs, jobs=jobs, cache=cache, progress=progress)
    values: dict[str, dict[int, float]] = {system: {} for system in chosen}
    raw: dict[tuple[str, int], RunResult] = {}
    for (system, n), result in zip(pairs, results):
        values[system][n] = exp.value_of(result)
        raw[(system, n)] = result
    return ExperimentResult(
        experiment=exp,
        scale=scale,
        values=values,
        raw=raw,
        parallel=report.as_dict(),
    )
