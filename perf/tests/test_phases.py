"""The phase driver must be ``run_cell`` cut in two, nothing else."""

import pytest

from repro.bench.runner import run_cell
from repro.cluster.configs import ARCHITECTURES
from repro.workloads import WorkloadResult

from perf.phases import KB, CellUnit
from perf.workloads import DEFAULT_SEED, WORKLOADS


def _both(unit):
    result = unit.measure(unit.setup(DEFAULT_SEED))
    reference = run_cell(
        unit.arch,
        unit.workload(DEFAULT_SEED),
        unit.n_clients,
        pvfs_overrides={"stripe_size": unit.pvfs_stripe} if unit.pvfs_stripe else None,
    )
    return result, reference


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
@pytest.mark.parametrize("kind", ["ior-write", "ior-read"])
def test_driver_equals_run_cell(arch, kind):
    unit = CellUnit(unit_id="t", arch=arch, n_clients=2, kind=kind, scale=0.01)
    result, reference = _both(unit)
    assert result.error == ""
    assert result.sim_time == reference.makespan
    assert result.bytes_moved == reference.total_bytes
    assert result.events == reference.engine["events_processed"]
    assert result.ops > 0


@pytest.mark.parametrize(
    "unit",
    [
        CellUnit(unit_id="md", arch="direct-pnfs-sharded", n_clients=2, kind="mdtest", scale=0.2),
        CellUnit(unit_id="8k", arch="nfsv4", n_clients=2, kind="ior-write", scale=0.005,
                 block=8 * KB),
        CellUnit(unit_id="4k", arch="pvfs2", n_clients=2, kind="ior-read", scale=0.002,
                 pvfs_stripe=4 * KB),
    ],
    ids=lambda u: u.unit_id,
)
def test_other_cell_kinds_equal_run_cell(unit):
    result, reference = _both(unit)
    assert result.error == ""
    assert (result.sim_time, result.bytes_moved, result.events) == (
        reference.makespan, reference.total_bytes, reference.engine["events_processed"],
    )


def test_pinned_cell_is_in_bulk_write():
    """``BENCH_engine.json``'s cell: direct-pnfs, 8 clients, 2 MB writes, scale 0.2."""
    unit = WORKLOADS["bulk_write"][0]
    assert (unit.arch, unit.n_clients, unit.kind, unit.scale) == (
        "direct-pnfs", 8, "ior-write", 0.2,
    )


def test_byte_accounting_catches_lost_bytes():
    unit = CellUnit(unit_id="t", arch="pvfs2", n_clients=2, kind="ior-write", scale=0.01)
    workload, dep, clients = unit.setup(DEFAULT_SEED)
    before = sum(d.bytes_written for d in dep.pvfs.daemons)
    assert unit.measure((workload, dep, clients)).error == ""
    results = [WorkloadResult(bytes_moved=workload.file_size)] * 2
    assert unit._check(workload, dep, results, before) == ""
    assert "daemons stored" in unit._check(workload, dep, results, before + 1)
    assert "moved" in unit._check(workload, dep, results[:1], before)
