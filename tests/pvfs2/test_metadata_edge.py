"""Edge-case tests for the PVFS2 metadata server and journalling."""

import pytest

from repro import rpc
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import Exists, NoEntry, Payload
from repro.vfs.api import InvalidArgument
from repro.vfs.striping import StripPattern

from tests.conftest import build_cluster, drive


@pytest.fixture
def fs(cluster):
    return Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64))


def mds_call(cluster, fs, proc, args):
    def gen():
        return (yield from rpc.call(cluster.clients[0], fs.mds.rpc, proc, args))

    return drive(cluster.sim, gen())


class TestMetadataWire:
    def test_mount_reports_server_count(self, cluster, fs):
        result, _ = mds_call(cluster, fs, "mount", {})
        assert result["nservers"] == 3

    def test_create_with_explicit_varstrip(self, cluster, fs):
        pattern = [(0, 16), (2, 48)]
        result, _ = mds_call(
            cluster,
            fs,
            "create",
            {"path": "/vs", "dist": {"type": "varstrip", "nservers": 3, "pattern": pattern}},
        )
        assert result["dist"]["type"] == "varstrip"
        assert [tuple(p) for p in result["dist"]["pattern"]] == pattern

    @pytest.mark.parametrize(
        "dist",
        [
            {"type": "varstrip", "nservers": 2, "pattern": [(0, 16), (1, 16)]},
            {"type": "blob"},
            {"type": "simple_stripe", "nservers": 3, "stripe_size": 64, "start_server": 9},
        ],
        ids=["varstrip-over-two-of-three-servers", "unknown-type", "start-server-out-of-range"],
    )
    def test_malformed_distribution_rejected_before_any_state(self, cluster, fs, dist):
        """A description no getattr could later place bytes by is refused
        at create: no namespace entry, journal write or datafile."""
        with pytest.raises(InvalidArgument):
            mds_call(cluster, fs, "create", {"path": "/bad", "dist": dist})
        with pytest.raises(NoEntry):
            mds_call(cluster, fs, "lookup", {"path": "/bad"})
        assert fs.mds.files == {} and fs.mds.journal._seq == 0
        assert all(not d.bstreams for d in fs.daemons)
        # The next create (default distribution) is unaffected.
        result, _ = mds_call(cluster, fs, "create", {"path": "/good"})
        assert result["dist"]["start_server"] == 0
        mds_call(cluster, fs, "getattr", {"path": "/good"})

    def test_default_distribution_rotates(self, cluster, fs):
        starts = []
        for i in range(4):
            result, _ = mds_call(cluster, fs, "create", {"path": f"/r{i}"})
            starts.append(result["dist"]["start_server"])
        assert starts == [0, 1, 2, 0]

    def test_lookup_handle_matches_lookup(self, cluster, fs):
        created, _ = mds_call(cluster, fs, "create", {"path": "/h"})
        by_path, _ = mds_call(cluster, fs, "lookup", {"path": "/h"})
        by_handle, _ = mds_call(cluster, fs, "lookup_handle", {"handle": created["handle"]})
        assert by_path["dfiles"] == by_handle["dfiles"]

    def test_remove_then_lookup_fails(self, cluster, fs):
        mds_call(cluster, fs, "create", {"path": "/gone"})
        mds_call(cluster, fs, "remove", {"path": "/gone"})
        with pytest.raises(NoEntry):
            mds_call(cluster, fs, "lookup", {"path": "/gone"})

    def test_duplicate_create_raises(self, cluster, fs):
        mds_call(cluster, fs, "create", {"path": "/dup"})
        with pytest.raises(Exists):
            mds_call(cluster, fs, "create", {"path": "/dup"})


class TestJournalling:
    def test_creates_journal_to_disk(self, cluster, fs):
        disk_writes_before = cluster.storage[0].disks[0].write_bytes
        for i in range(5):
            mds_call(cluster, fs, "create", {"path": f"/j{i}"})
        extra = cluster.storage[0].disks[0].write_bytes - disk_writes_before
        # MDS journal (5 x 4 KB) plus daemon-0 bstream journals (5 x 4 KB)
        assert extra == 10 * fs.cfg.journal_io_bytes

    def test_metadata_sync_off_means_no_journal_io(self, cluster):
        fs = Pvfs2System(
            cluster.sim,
            cluster.storage,
            Pvfs2Config(stripe_size=64, metadata_sync=False),
        )
        mds_call(cluster, fs, "create", {"path": "/nosync"})
        assert all(n.disks[0].write_bytes == 0 for n in cluster.storage)

    def test_journal_writes_are_sequential_in_their_region(self, cluster, fs):
        """Consecutive journal commits do not pay full positioning."""
        mds_call(cluster, fs, "mkdir", {"path": "/a"})
        t0 = cluster.sim.now
        mds_call(cluster, fs, "mkdir", {"path": "/b"})
        t_second = cluster.sim.now - t0
        # second mkdir journals right after the first: no full seek
        spec = cluster.storage[0].disks[0].spec
        assert t_second < spec.positioning + 0.004


class TestTruncateWire:
    def test_truncate_trims_every_bstream(self, cluster, fs):
        client = fs.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/t")
            yield from client.write(f, 0, Payload(bytes(range(250))))
            yield from client.truncate("/t", 100)
            attrs = yield from client.getattr("/t")
            return attrs, f

        attrs, f = drive(cluster.sim, scenario())
        assert attrs.size == 100
        local_total = sum(
            d.bstreams[dfile].size
            for d, dfile in zip(fs.daemons, f.dfiles)
        )
        assert local_total == 100

    def test_truncate_to_zero(self, cluster, fs):
        client = fs.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/z")
            yield from client.write(f, 0, Payload(b"x" * 200))
            yield from client.truncate("/z", 0)
            return (yield from client.getattr("/z"))

        assert drive(cluster.sim, scenario()).size == 0

    def test_truncate_sizes_bstreams_without_walking_the_file(
        self, cluster, fs, monkeypatch
    ):
        """64 MiB at 64-byte stripes is a million strips: the per-server
        sizes must come from the pattern in closed form, not from a walk
        (which took 2 s of host time and a million-element list)."""
        locate = StripPattern.locate
        calls = []

        def counting(self, offset):
            calls.append(offset)
            return locate(self, offset)

        monkeypatch.setattr(StripPattern, "locate", counting)
        client = fs.make_client(cluster.clients[0])
        big, small = 64 * 1024 * 1024, 1000

        def scenario():
            yield from client.mount()
            f = yield from client.create("/big")
            sizes = []
            for size in (big, small):
                yield from client.truncate("/big", size)
                attrs = yield from client.getattr("/big")
                assert attrs.size == size
                sizes.append(
                    [d.bstreams[h].size for d, h in zip(fs.daemons, f.dfiles)]
                )
            return f, sizes

        f, (at_big, at_small) = drive(cluster.sim, scenario())
        assert len(calls) <= 8
        assert sum(at_big) == big and max(at_big) - min(at_big) <= 64
        # On a size small enough to walk: what the walk gives.
        dist = fs.mds.files[f.handle].dist
        walked = [0] * len(fs.daemons)
        for run in dist.runs(0, small):
            walked[run.server] = max(walked[run.server], run.local + run.length)
        assert at_small == walked
