"""Direct unit tests of the storage daemon's write-behind machinery."""

import pytest

from repro import rpc
from repro.pvfs2 import Pvfs2Config, StorageDaemon
from repro.vfs import Payload
from repro.vfs.api import InvalidArgument

from tests.conftest import build_cluster, drive


def make_daemon(cluster, **cfg_kw):
    cfg_kw.setdefault("stripe_size", 64 * 1024)
    cfg = Pvfs2Config(**cfg_kw)
    return StorageDaemon(cluster.sim, cluster.storage[0], cfg)


def call(cluster, daemon, proc, args, payload=None):
    def gen():
        return (yield from rpc.call(cluster.clients[0], daemon.rpc, proc, args, payload))

    return drive(cluster.sim, gen())


class TestWriteBehind:
    def test_write_lands_in_bstream_and_drains(self, cluster):
        daemon = make_daemon(cluster)
        call(cluster, daemon, "write", {"handle": 1, "offset": 0, "setup": True},
             Payload(b"abc"))
        assert daemon.bstreams[1].read(0, 3).data == b"abc"
        cluster.sim.run()  # drain
        assert daemon.dirty_backlog == 0
        assert daemon.persisted_bytes(1) == 3

    @staticmethod
    def _slow_disk_cluster():
        """Cluster whose disk is so slow the flusher cannot drain
        between RPCs — keeps writes dirty long enough to observe."""
        from repro.sim import DiskSpec
        from tests.conftest import build_cluster

        return build_cluster(disk=DiskSpec(read_bw=1e5, write_bw=1e5, positioning=0.5))

    def test_overwrite_of_queued_bytes_needs_no_new_tokens(self):
        """The flusher grabs the FIRST extent immediately; a later,
        still-queued extent can be overwritten for free."""
        cluster = self._slow_disk_cluster()
        daemon = make_daemon(cluster)
        # extent A: the flusher picks it up and sits on the slow disk
        call(cluster, daemon, "write", {"handle": 1, "offset": 0}, Payload(b"A" * 500))
        # extent B: queued behind A
        call(cluster, daemon, "write", {"handle": 1, "offset": 100_000}, Payload(b"x" * 1000))
        used = daemon.dirty_tokens.in_use
        # overwrite the queued extent: no new tokens, content updated
        call(cluster, daemon, "write", {"handle": 1, "offset": 100_000}, Payload(b"y" * 1000))
        assert daemon.dirty_tokens.in_use == used
        assert daemon.bstreams[1].read(100_000, 4).data == b"yyyy"

    def test_partial_overlap_accounts_only_new_bytes(self):
        cluster = self._slow_disk_cluster()
        daemon = make_daemon(cluster)
        call(cluster, daemon, "write", {"handle": 1, "offset": 0}, Payload(b"A" * 500))
        call(cluster, daemon, "write", {"handle": 1, "offset": 100_000}, Payload(b"a" * 1000))
        backlog = daemon.dirty_backlog
        # half-overlapping extent: only the new 500 bytes are accounted
        call(cluster, daemon, "write", {"handle": 1, "offset": 100_500}, Payload(b"b" * 1000))
        assert daemon.dirty_backlog == backlog + 500
        cluster.sim.run()
        assert daemon.persisted_bytes(1) == 500 + 1500

    def test_newly_dirtied_bytes_are_the_growth_of_the_dirty_runs(self):
        """Each write accounts ``nbytes - overlap`` — exactly the growth
        of the bstream's dirty runs, ``total`` after minus before, which
        the daemon once computed with two scans per write."""
        cluster = self._slow_disk_cluster()
        daemon = make_daemon(cluster)

        def dirty_runs():
            ivs = daemon._dirty[0].get(1)
            return list(ivs) if ivs else []

        # The flusher takes this extent onto the slow disk and sits there
        # for the rest of the test: nothing below drains.
        call(cluster, daemon, "write", {"handle": 1, "offset": 0}, Payload(b"A" * 500))
        steps = [
            (100_000, 1000, [(100_000, 101_000)]),  # disjoint
            (100_500, 1000, [(100_000, 101_500)]),  # overlaps the tail
            (101_500, 500, [(100_000, 102_000)]),  # adjacent to the tail
            (98_000, 1000, [(98_000, 99_000), (100_000, 102_000)]),  # disjoint, below
            (99_000, 1000, [(98_000, 102_000)]),  # adjacent on both sides
            (97_000, 6000, [(97_000, 103_000)]),  # covers everything, and more
            (97_500, 100, [(97_000, 103_000)]),  # already dirty: free
            (200_000, 300, [(97_000, 103_000), (200_000, 200_300)]),  # disjoint, above
        ]
        for offset, nbytes, want in steps:
            before = sum(e - s for s, e in dirty_runs())
            pending, tokens = daemon.dirty_backlog, daemon.dirty_tokens.in_use
            call(cluster, daemon, "write", {"handle": 1, "offset": offset},
                 Payload(b"w" * nbytes))
            runs = dirty_runs()
            grown = sum(e - s for s, e in runs) - before
            assert runs == want, offset
            assert daemon.dirty_backlog - pending == grown, offset
            assert daemon.dirty_tokens.in_use - tokens == grown, offset
        assert daemon.dirty_backlog == 500 + 6000 + 300

    def test_write_without_data_is_invalid(self, cluster):
        daemon = make_daemon(cluster)
        with pytest.raises(InvalidArgument):
            call(cluster, daemon, "write", {"handle": 1, "offset": 0}, payload=None)

    def test_contiguous_writes_merge_into_one_disk_io(self, cluster):
        daemon = make_daemon(cluster)
        disk = cluster.storage[0].disks[0]
        for i in range(8):
            call(
                cluster,
                daemon,
                "write",
                {"handle": 1, "offset": i * 1000},
                Payload.synthetic(1000),
            )
        cluster.sim.run()
        # interval merging: the flusher wrote few large extents, not 8
        assert disk.requests <= 3

    def test_flush_returns_fast_under_cache_allowance(self, cluster):
        daemon = make_daemon(cluster, disk_cache_bytes=1 << 20)
        call(cluster, daemon, "write", {"handle": 1, "offset": 0},
             Payload.synthetic(100_000))
        t0 = cluster.sim.now
        call(cluster, daemon, "flush", {"handle": 1})
        # no platter wait: only RPC + setup costs
        assert cluster.sim.now - t0 < 0.01

    def test_flush_waits_when_backlog_exceeds_allowance(self, cluster):
        daemon = make_daemon(cluster, disk_cache_bytes=64 * 1024)

        def scenario():
            yield from rpc.call(
                cluster.clients[0],
                daemon.rpc,
                "write",
                {"handle": 1, "offset": 0},
                Payload.synthetic(8 * 1024 * 1024 // 100),
            )
            # pile up more via many writes
            for i in range(1, 40):
                yield from rpc.call(
                    cluster.clients[0],
                    daemon.rpc,
                    "write",
                    {"handle": 1, "offset": i * 81920},
                    Payload.synthetic(81920),
                )
            t0 = cluster.sim.now
            yield from rpc.call(cluster.clients[0], daemon.rpc, "flush", {"handle": 1})
            return cluster.sim.now - t0

        waited = drive(cluster.sim, scenario())
        assert waited > 0.02  # actually sat at the barrier

    def test_removing_a_bstream_drops_its_queued_write_behind(self):
        """A removed bstream's queued extents never reach the disk: they
        give back their tokens and backlog, so a flush barrier on
        another file does not wait for them, and the extent that was
        already on the arm lands without re-creating the file's
        persisted ranges."""
        cluster = self._slow_disk_cluster()
        daemon = make_daemon(cluster, disk_cache_bytes=0)
        disk = cluster.storage[0].disks[0]
        # extent A: the flusher takes it onto the slow disk at once
        call(cluster, daemon, "write", {"handle": 1, "offset": 0}, Payload(b"A" * 500))
        # extent B: queued behind A (0.51 s of disk time if it were written)
        call(cluster, daemon, "write", {"handle": 1, "offset": 100_000}, Payload(b"x" * 1000))
        assert daemon.dirty_backlog == daemon.dirty_tokens.in_use == 1500
        call(cluster, daemon, "remove_bstream", {"handle": 1})
        # A landed while the remove's journal write queued behind it.
        assert daemon.dirty_backlog == daemon.dirty_tokens.in_use == 0
        call(cluster, daemon, "write", {"handle": 2, "offset": 0}, Payload(b"B" * 100))
        t0 = cluster.sim.now
        call(cluster, daemon, "flush", {"handle": 2})
        waited = cluster.sim.now - t0
        cluster.sim.run()
        assert daemon.dirty_backlog == daemon.dirty_tokens.in_use == 0
        assert daemon.persisted_bytes(1) == 0
        assert daemon.persisted_bytes(2) == 100
        # A, the remove's journal write and handle 2's extent: never B.
        assert disk.write_bytes == 500 + daemon.cfg.journal_io_bytes + 100
        # The barrier waited for handle 2's one positioning, not for B's.
        assert waited < 2 * disk.spec.positioning, waited

    def test_reads_see_unflushed_writes(self, cluster):
        daemon = make_daemon(cluster)
        call(cluster, daemon, "write", {"handle": 7, "offset": 0}, Payload(b"fresh"))
        result, data = call(
            cluster, daemon, "read", {"handle": 7, "offset": 0, "nbytes": 5}
        )
        assert data.data == b"fresh"

    def test_read_of_missing_bstream_returns_empty(self, cluster):
        daemon = make_daemon(cluster)
        result, data = call(
            cluster, daemon, "read", {"handle": 99, "offset": 0, "nbytes": 10}
        )
        assert result == 0
        assert data.nbytes == 0


class TestElevator:
    def test_sweep_prefers_forward_order(self, cluster):
        """Out-of-order arrivals drain in ascending offset order."""
        daemon = make_daemon(cluster)
        disk = cluster.storage[0].disks[0]
        offsets = [5_000_000, 1_000_000, 3_000_000]
        for off in offsets:
            call(
                cluster,
                daemon,
                "write",
                {"handle": 1, "offset": off},
                Payload.synthetic(4096),
            )
        t_before = disk.busy_time
        cluster.sim.run()
        # Three extents at 2 MB and 4 MB forward gaps: sweeps, not full
        # seeks, after the first positioning.
        spent = disk.busy_time - t_before
        full_seeks = 3 * disk.spec.positioning
        assert spent < full_seeks + 0.003

    def test_multiple_handles_spread_over_disks(self, cluster):
        """With two disks, bstreams stripe across them by handle."""
        from repro.sim import DiskSpec, Network, Node, NodeSpec, Simulator

        sim = Simulator()
        net = Network(sim)
        node = Node(
            sim,
            NodeSpec(name="dual", disks=(DiskSpec(), DiskSpec()), io_bus_bw=30e6),
            net,
        )
        client_node = Node(sim, NodeSpec(name="cl"), net)
        daemon = StorageDaemon(sim, node, Pvfs2Config())

        def scenario():
            for handle in (2, 3):
                yield from rpc.call(
                    client_node,
                    daemon.rpc,
                    "write",
                    {"handle": handle, "offset": 0},
                    Payload.synthetic(1_000_000),
                )

        proc = sim.process(scenario())
        sim.run(until=proc)
        sim.run()
        assert node.disks[0].write_bytes == 1_000_000
        assert node.disks[1].write_bytes == 1_000_000


class TestCrashAccounting:
    def test_crash_resets_tokens_and_pending(self, cluster):
        daemon = make_daemon(cluster)
        call(cluster, daemon, "write", {"handle": 1, "offset": 0},
             Payload.synthetic(500_000))
        assert daemon.dirty_backlog > 0 or daemon.dirty_tokens.in_use >= 0
        daemon.crash()
        assert daemon.dirty_backlog == 0
        assert daemon.dirty_tokens.in_use == 0
        # daemon continues to serve (content is size-only by now: the
        # earlier synthetic write degraded the bstream, as designed)
        call(cluster, daemon, "write", {"handle": 1, "offset": 0}, Payload(b"again"))
        assert daemon.bstreams[1].read(0, 5).nbytes == 5

    def test_crash_preserves_persisted_ranges(self, cluster):
        daemon = make_daemon(cluster)
        call(cluster, daemon, "write", {"handle": 1, "offset": 0}, Payload(b"K" * 4096))
        cluster.sim.run()  # fully drained
        call(cluster, daemon, "write", {"handle": 1, "offset": 4096}, Payload(b"L" * 4096))
        daemon.crash()  # second write unflushed
        kept = daemon.bstreams[1].read(0, 8192).data
        assert kept[:4096] == b"K" * 4096
        assert kept[4096:] == b"\x00" * 4096
