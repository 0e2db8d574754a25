"""Functional tests of the workload generators.

Run each workload at tiny scale over a small Direct-pNFS deployment and
check its observable footprint (files created, bytes moved, trace
statistics) rather than performance.
"""

import numpy as np
import pytest

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.nfs import NfsConfig
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.workloads import (
    AtlasWorkload,
    BtioWorkload,
    IorWorkload,
    OltpWorkload,
    PostmarkWorkload,
    SshBuildWorkload,
)
from repro.workloads.atlas import SMALL_LARGE_CUTOFF, generate_digitization_trace

from tests.conftest import build_cluster, drive


@pytest.fixture
def setup(cluster):
    pvfs = Pvfs2System(
        cluster.sim, cluster.storage, Pvfs2Config(stripe_size=256 * 1024)
    )
    system = PnfsSystem(
        cluster.sim, pvfs, NfsConfig(rsize=256 * 1024, wsize=256 * 1024),
        ARCHITECTURES["direct-pnfs"],
    )
    return cluster, system


def run_workload(setup, workload, n_clients=2):
    cluster, system = setup
    sim = cluster.sim
    admin = system.make_client(cluster.clients[0])

    def prep():
        yield from admin.mount()
        yield from workload.prepare(sim, admin, n_clients)

    drive(sim, prep())
    clients = [system.make_client(cluster.clients[i]) for i in range(n_clients)]

    def run_one(i):
        yield from clients[i].mount()
        return (yield from workload.client_proc(sim, clients[i], i, n_clients))

    procs = [sim.process(run_one(i)) for i in range(n_clients)]
    sim.run(until=sim.all_of(procs))
    return [p.value for p in procs], clients


class TestIor:
    def test_write_moves_expected_bytes(self, setup):
        w = IorWorkload(op="write", block_size=64 * 1024, file_size=1 << 20, scale=1.0)
        results, _ = run_workload(setup, w)
        assert all(r.bytes_moved == 1 << 20 for r in results)

    def test_read_requires_prepared_files(self, setup):
        w = IorWorkload(op="read", block_size=64 * 1024, file_size=1 << 20, scale=1.0)
        results, _ = run_workload(setup, w)
        assert all(r.bytes_moved == 1 << 20 for r in results)

    def test_shared_file_clients_write_disjoint_regions(self, setup):
        cluster, system = setup
        w = IorWorkload(
            op="write", block_size=64 * 1024, file_size=1 << 20, shared_file=True
        )
        run_workload(setup, w, n_clients=2)
        checker = system.make_client(cluster.clients[0])

        def check():
            yield from checker.mount()
            attrs = yield from checker.getattr("/ior/shared")
            return attrs

        attrs = drive(cluster.sim, check())
        assert attrs.size == 2 * (1 << 20)

    @pytest.mark.parametrize("shared_file", [False, True])
    def test_read_prepare_cost_is_per_file_not_per_byte(self, shared_file):
        """The data set is installed, not written: set-up events follow
        the file count, and a 64x larger file costs the same."""
        events = []
        for file_size in (1 << 20, 64 << 20):
            cluster = build_cluster()
            pvfs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config(stripe_size=256 * 1024))
            system = PnfsSystem(cluster.sim, pvfs, NfsConfig(), ARCHITECTURES["direct-pnfs"])
            w = IorWorkload(
                op="read", block_size=1 << 20, file_size=file_size, shared_file=shared_file
            )
            admin = system.make_client(cluster.clients[0])

            def prep(admin=admin, w=w, sim=cluster.sim):
                yield from admin.mount()
                yield from w.prepare(sim, admin, 2)

            drive(cluster.sim, prep())
            events.append(cluster.sim.stats.events_processed)
        assert events[0] == events[1]

    def test_file_size_rounded_to_blocks(self):
        w = IorWorkload(op="write", block_size=8192, file_size=100_000, scale=1.0)
        assert w.file_size % 8192 == 0
        assert w.file_size >= 100_000

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            IorWorkload(op="append")


class TestAtlasTrace:
    def test_trace_size_mix_matches_paper(self):
        rng = np.random.default_rng(7)
        total = 64 * 1024 * 1024
        trace = generate_digitization_trace(rng, total, 1000)
        sizes = np.array([s for (_o, s) in trace])
        small = sizes < SMALL_LARGE_CUTOFF
        # 95% of requests are small...
        assert 0.90 <= small.mean() <= 0.99
        # ...but at least ~90% of the bytes are in large requests.
        assert sizes[~small].sum() / sizes.sum() >= 0.88
        # total volume close to requested
        assert abs(sizes.sum() - total) / total < 0.15

    def test_trace_offsets_within_file(self):
        rng = np.random.default_rng(9)
        total = 8 * 1024 * 1024
        for off, size in generate_digitization_trace(rng, total, 100):
            assert 0 <= off < total

    def test_trace_deterministic_per_seed(self):
        t1 = generate_digitization_trace(np.random.default_rng(1), 1 << 22, 100)
        t2 = generate_digitization_trace(np.random.default_rng(1), 1 << 22, 100)
        assert t1 == t2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_digitization_trace(np.random.default_rng(0), 100, 5)

    def test_workload_runs_and_creates_files(self, setup):
        w = AtlasWorkload(total_bytes=8 << 20, n_requests=60, scale=1.0)
        results, _ = run_workload(setup, w)
        assert all(r.transactions == 60 for r in results)
        assert all(r.bytes_moved > 6 << 20 for r in results)


class TestBtio:
    def test_checkpoints_build_full_file(self, setup):
        cluster, system = setup
        w = BtioWorkload(
            total_bytes=4 << 20,
            checkpoints=4,
            compute_seconds_per_checkpoint=0.0,
            scale=1.0,
        )
        results, _ = run_workload(setup, w, n_clients=2)
        checker = system.make_client(cluster.clients[0])

        def check():
            yield from checker.mount()
            return (yield from checker.getattr("/btio/out"))

        attrs = drive(cluster.sim, check())
        assert attrs.size == 4 << 20
        # write + verification read per client
        assert all(r.bytes_moved == 2 * (4 << 20) // 2 for r in results)

    def test_compute_scales_down_with_clients(self, setup):
        w = BtioWorkload(
            total_bytes=1 << 20, checkpoints=2, compute_seconds_per_checkpoint=10.0
        )
        assert w.compute_per_checkpoint == 10.0


class TestOltp:
    def test_transactions_counted(self, setup):
        w = OltpWorkload(transactions=20, region_bytes=1 << 20, scale=1.0)
        results, _ = run_workload(setup, w)
        assert all(r.transactions == 20 for r in results)
        assert all(r.bytes_moved == 20 * 8192 for r in results)

    def test_reads_always_hit_prepared_data(self, setup):
        w = OltpWorkload(transactions=10, region_bytes=1 << 20, scale=1.0)
        results, _ = run_workload(setup, w, n_clients=2)  # raises on shortfall
        assert len(results) == 2


class TestPostmark:
    def test_transaction_window_reported(self, setup):
        w = PostmarkWorkload(transactions=30, nfiles=10, fmax=8 * 1024, scale=1.0)
        results, _ = run_workload(setup, w)
        for r in results:
            assert r.transactions == 30
            assert r.extra["txn_end"] > r.extra["txn_start"]

    def test_cleanup_removes_files(self, setup):
        cluster, system = setup
        w = PostmarkWorkload(transactions=20, nfiles=10, fmax=4 * 1024, scale=1.0)
        run_workload(setup, w, n_clients=1)
        checker = system.make_client(cluster.clients[0])

        def check():
            yield from checker.mount()
            leftovers = []
            for d in range(w.ndirs):
                names = yield from checker.readdir(f"/postmark/c0/d{d}")
                leftovers.extend(names)
            return leftovers

        assert drive(cluster.sim, check()) == []


class TestSshBuild:
    def test_phases_reported_and_ordered(self, setup):
        w = SshBuildWorkload(nsources=25, scale=1.0)
        results, _ = run_workload(setup, w, n_clients=1)
        phases = results[0].extra["phases"]
        assert set(phases) == {"uncompress", "configure", "build"}
        assert all(v > 0 for v in phases.values())

    def test_build_tree_left_behind(self, setup):
        cluster, system = setup
        w = SshBuildWorkload(nsources=20, scale=1.0)
        run_workload(setup, w, n_clients=1)
        checker = system.make_client(cluster.clients[0])

        def check():
            yield from checker.mount()
            objs = yield from checker.readdir("/build/c0/obj")
            binattrs = yield from checker.getattr("/build/c0/sshd")
            return objs, binattrs

        objs, binattrs = drive(cluster.sim, check())
        assert len(objs) == 20
        assert binattrs.size > 0


class TestScaleParameter:
    def test_scale_shrinks_volumes(self):
        full = IorWorkload(op="write", scale=1.0)
        tenth = IorWorkload(op="write", scale=0.1)
        assert tenth.file_size < full.file_size

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            IorWorkload(scale=0)

    def test_rng_deterministic_per_client(self):
        w = AtlasWorkload()
        a = w.rng(3).integers(0, 1 << 30, 5)
        b = w.rng(3).integers(0, 1 << 30, 5)
        c = w.rng(4).integers(0, 1 << 30, 5)
        assert list(a) == list(b)
        assert list(a) != list(c)
