"""Bottleneck attribution tests — the paper's §6.2.1 discussion as code.

"In the write experiments, Direct-pNFS and PVFS2 fully utilize the
available disk bandwidth.  In the read experiments, data are read
directly from the server cache, so the disks are not a bottleneck.
Instead, client and server CPU performance becomes the limiting
factor."

The per-node rows come from the metrics registry attached around a
cell's measured phase (:func:`repro.obs.measure_with_metrics`,
:func:`repro.obs.node_utilisation`).
"""

from types import SimpleNamespace

import pytest

from repro.bench.runner import Cell
from repro.obs import measure_with_metrics, node_utilisation
from repro.workloads import IorWorkload

MB = 1024 * 1024


def utilisation(arch, workload, n_clients):
    """Per-node utilisation rows over the cell's measured phase."""
    cell = Cell(arch, workload, n_clients)
    cell.setup()
    return measure_with_metrics(cell)[1]["utilisation"]


class TestWriteRegime:
    @pytest.mark.parametrize("arch", ["direct-pnfs", "pvfs2"])
    def test_large_writes_are_disk_bound(self, arch):
        rows = utilisation(
            arch,
            IorWorkload(op="write", block_size=4 * MB, scale=0.1),
            8,
        )
        storage = [u for u in rows if u["node"].startswith("server")]
        assert storage
        # disks saturated...
        assert sum(u["disk"] for u in storage) / len(storage) > 0.7
        # ...and clearly the dominant resource on most storage nodes
        dominants = [u["dominant"] for u in storage]
        assert dominants.count("disk") >= len(storage) - 1


class TestReadRegime:
    def test_warm_reads_leave_disks_idle(self):
        rows = utilisation(
            "direct-pnfs",
            IorWorkload(op="read", block_size=4 * MB, scale=0.1),
            8,
        )
        storage = [u for u in rows if u["node"].startswith("server")]
        assert all(u["disk"] < 0.05 for u in storage)
        # servers loaded on CPU/NIC instead
        assert all(u["dominant"] in ("cpu", "nic") for u in storage)
        assert max(max(u["cpu"], u["nic_tx"]) for u in storage) > 0.5

    def test_nfsv4_single_server_is_the_hotspot(self):
        rows = utilisation(
            "nfsv4",
            IorWorkload(op="read", block_size=4 * MB, scale=0.1),
            4,
        )
        by_node = {u["node"]: u for u in rows}
        gateway = by_node["extra0"]
        backends = [u for n, u in by_node.items() if n.startswith("server")]
        # the single NFS server's NIC runs hot while backends coast
        assert max(gateway["nic_tx"], gateway["nic_rx"]) > 0.7
        assert all(max(u["nic_tx"], u["nic_rx"]) < 0.5 for u in backends)


def _node(name="x", cores=1, bandwidth=1.0, n_disks=1):
    """A stub with the capacities :func:`node_utilisation` divides by."""
    return SimpleNamespace(
        name=name,
        cpu=SimpleNamespace(spec=SimpleNamespace(cores=cores)),
        nic=SimpleNamespace(bandwidth=bandwidth),
        disks=[None] * n_disks,
    )


def _reading(cpu=0.0, tx=0.0, rx=0.0, disk=0.0, name="x"):
    return {
        f"{name}.cpu.busy_seconds": cpu,
        f"{name}.nic.tx_bytes": tx,
        f"{name}.nic.rx_bytes": rx,
        f"{name}.disk0.busy_seconds": disk,
    }


class TestReportMechanics:
    def test_dominant_resource_selection(self):
        (r,) = node_utilisation(
            [_node()], _reading(), _reading(cpu=0.3, tx=0.9, rx=0.2, disk=0.5), 1.0
        )
        assert r["dominant"] == "nic"

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            node_utilisation([_node()], _reading(), _reading(), 0.0)
