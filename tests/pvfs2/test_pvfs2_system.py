"""End-to-end functional tests of the PVFS2 stack on the simulator."""

import pytest

from repro.pvfs2 import Pvfs2Config, Pvfs2System, extents
from repro.vfs.striping import StripPattern, round_robin
from repro.vfs import Exists, NoEntry, Payload
from repro.vfs.api import FsError

from tests.conftest import build_cluster, drive


def make_fs(cluster, **cfg_kw):
    cfg_kw.setdefault("stripe_size", 64)  # small stripes exercise striping
    cfg = Pvfs2Config(**cfg_kw)
    return Pvfs2System(cluster.sim, cluster.storage, cfg)


@pytest.fixture
def fs(cluster):
    return make_fs(cluster)


@pytest.fixture
def client(cluster, fs):
    c = fs.make_client(cluster.clients[0])
    drive(cluster.sim, c.mount())
    return c


class TestBasicIo:
    def test_create_write_read_roundtrip(self, cluster, client):
        def scenario():
            f = yield from client.create("/file")
            yield from client.write(f, 0, Payload(b"hello pvfs2"))
            data = yield from client.read(f, 0, 100)
            return data

        out = drive(cluster.sim, scenario())
        assert out.data == b"hello pvfs2"

    def test_data_is_striped_across_daemons(self, cluster, fs, client):
        def scenario():
            f = yield from client.create("/striped")
            # 200 bytes over 64-byte stripes on 3 servers
            yield from client.write(f, 0, Payload(bytes(range(200))))

        drive(cluster.sim, scenario())
        sizes = [sum(fd.size for fd in d.bstreams.values()) for d in fs.daemons]
        assert sizes == [64 + 8, 64, 64]  # stripes 0 and 3 land on server 0

    def test_stripe_content_matches_distribution(self, cluster, fs, client):
        data = bytes(range(200))

        def scenario():
            f = yield from client.create("/striped2")
            yield from client.write(f, 0, Payload(data))
            return f

        f = drive(cluster.sim, scenario())
        dist = StripPattern(round_robin(3, 64))
        for run in dist.runs(0, 200):
            daemon = fs.daemons[run.server]
            dfile = f.dfiles[run.server]
            stored = daemon.bstreams[dfile].read(run.local, run.length)
            assert stored.data == data[run.logical : run.logical + run.length]

    def test_read_at_offset_and_past_eof(self, cluster, client):
        def scenario():
            f = yield from client.create("/f")
            yield from client.write(f, 0, Payload(b"0123456789"))
            mid = yield from client.read(f, 4, 3)
            tail = yield from client.read(f, 8, 100)
            beyond = yield from client.read(f, 50, 10)
            return mid, tail, beyond

        mid, tail, beyond = drive(cluster.sim, scenario())
        assert mid.data == b"456"
        assert tail.data == b"89"
        assert beyond.nbytes == 0

    def test_sparse_write_reads_back_zero_filled(self, cluster, client):
        def scenario():
            f = yield from client.create("/sparse")
            yield from client.write(f, 150, Payload(b"XY"))
            return (yield from client.read(f, 0, 152))

        out = drive(cluster.sim, scenario())
        assert out.nbytes == 152
        assert out.data == b"\x00" * 150 + b"XY"

    def test_cross_client_visibility(self, cluster, fs):
        c0 = fs.make_client(cluster.clients[0])
        c1 = fs.make_client(cluster.clients[1])

        def scenario():
            yield from c0.mount()
            yield from c1.mount()
            f0 = yield from c0.create("/shared")
            yield from c0.write(f0, 0, Payload(b"written by c0"))
            f1 = yield from c1.open("/shared")
            return (yield from c1.read(f1, 0, 64))

        out = drive(cluster.sim, scenario())
        assert out.data == b"written by c0"

    def test_synthetic_payload_tracks_size_only(self, cluster, client):
        def scenario():
            f = yield from client.create("/big")
            yield from client.write(f, 0, Payload.synthetic(1_000_000))
            attrs = yield from client.getattr("/big")
            data = yield from client.read(f, 500_000, 1000)
            return attrs, data

        attrs, data = drive(cluster.sim, scenario())
        assert attrs.size == 1_000_000
        assert data.is_synthetic and data.nbytes == 1000

    def test_write_returns_bytes_accepted(self, cluster, client):
        def scenario():
            f = yield from client.create("/n")
            return (yield from client.write(f, 0, Payload(b"abc")))

        assert drive(cluster.sim, scenario()) == 3


class TestPerServerExtents:
    """One bstream extent per storage server per op, in ``flow_unit`` slices."""

    # Flow units that straddle stripe units: slices gather several pieces.
    @pytest.mark.parametrize("stripe, flow_unit", [(64, 100), (4096, 6000)])
    def test_real_bytes_round_trip_against_byte_model(self, cluster, stripe, flow_unit):
        fs = make_fs(
            cluster, stripe_size=stripe, flow_unit=flow_unit, dirty_watermark=1 << 20
        )
        writer = fs.make_client(cluster.clients[0])
        reader = fs.make_client(cluster.clients[1])
        u = stripe
        model = bytearray()

        def pattern(n, salt):
            return bytes((salt + 7 * i) % 251 + 1 for i in range(n))

        # Each write revisits all three servers; the second leaves an
        # interior hole; the third overwrites across a stripe boundary.
        # EOF lands 8 bytes into a stripe, so the last server is short.
        writes = [
            (u // 2 + 3, pattern(7 * u + 5, 1)),
            (20 * u + 1, pattern(5 * u + 7, 2)),
            (5 * u - 1, pattern(2 * u + 2, 3)),
        ]
        reads = [
            (0, 30 * u),  # everything, and past EOF
            (u + 1, 21 * u),  # data | hole | data
            (9 * u, 3 * u),  # inside the hole
            (24 * u, 3 * u),  # full stripe, 8-byte stripe, nothing
            (40 * u, 100),  # beyond EOF
        ]

        def scenario():
            yield from writer.mount()
            yield from reader.mount()
            f = yield from writer.create("/bytes")
            for offset, data in writes:
                yield from writer.write(f, offset, Payload(data))
                if len(model) < offset + len(data):
                    model.extend(bytes(offset + len(data) - len(model)))
                model[offset : offset + len(data)] = data
            g = yield from reader.open("/bytes")
            attrs = yield from reader.getattr("/bytes")
            out = []
            for offset, nbytes in reads:
                out.append((yield from reader.read(g, offset, nbytes)))
            return attrs, out

        attrs, out = drive(cluster.sim, scenario())
        assert attrs.size == len(model) == 25 * u + 8
        for (offset, nbytes), got in zip(reads, out):
            assert got.data == bytes(model[offset : offset + nbytes]), (offset, nbytes)

    def test_request_and_event_budget_is_flat_in_stripe_size(self):
        """Parameter robustness: shrinking the stripe 32 768x must not
        multiply the work of a 1 MB write + read."""
        mb = 1 << 20
        cost = {}
        for stripe in (64, 4096, 64 * 1024, 2 * mb):
            cluster = build_cluster()
            fs = make_fs(cluster, stripe_size=stripe)
            client = fs.make_client(cluster.clients[0])

            def served():
                return sum(d.rpc.calls_served for d in fs.daemons)

            def scenario():
                yield from client.mount()
                f = yield from client.create("/f")
                counts = [served()]
                yield from client.write(f, 0, Payload.synthetic(mb))
                counts.append(served())
                data = yield from client.read(f, 0, mb)
                counts.append(served())
                return data, counts

            before = cluster.sim.stats.events_processed
            data, counts = drive(cluster.sim, scenario())
            cost[stripe] = cluster.sim.stats.events_processed - before
            assert data.nbytes == mb
            extent = max(e.length for e in extents(StripPattern(round_robin(3, stripe)), 0, mb))
            budget = len(fs.daemons) * -(-extent // fs.cfg.flow_unit)
            for op_requests in (counts[1] - counts[0], counts[2] - counts[1]):
                assert 1 <= op_requests <= budget, (stripe, op_requests, budget)
        assert all(c <= 2 * cost[2 * mb] for c in cost.values()), cost


class TestMetadata:
    def test_getattr_size_across_stripes(self, cluster, client):
        def scenario():
            f = yield from client.create("/f")
            yield from client.write(f, 0, Payload(bytes(137)))
            attrs = yield from client.getattr("/f")
            return attrs

        attrs = drive(cluster.sim, scenario())
        assert attrs.size == 137
        assert not attrs.is_dir

    def test_mkdir_readdir(self, cluster, client):
        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/b")
            yield from client.create("/d/a")
            return (yield from client.readdir("/d"))

        assert drive(cluster.sim, scenario()) == ["a", "b"]

    def test_create_existing_fails(self, cluster, client):
        def scenario():
            yield from client.create("/dup")
            try:
                yield from client.create("/dup")
            except Exists:
                return "exists"

        assert drive(cluster.sim, scenario()) == "exists"

    def test_open_missing_fails(self, cluster, client):
        def scenario():
            try:
                yield from client.open("/ghost")
            except NoEntry:
                return "noent"

        assert drive(cluster.sim, scenario()) == "noent"

    def test_remove_frees_bstreams(self, cluster, fs, client):
        def scenario():
            f = yield from client.create("/gone")
            yield from client.write(f, 0, Payload(b"x" * 300))
            yield from client.remove("/gone")

        drive(cluster.sim, scenario())
        assert all(not d.bstreams or all(fd.size == 0 for fd in d.bstreams.values())
                   for d in fs.daemons) or all(len(d.bstreams) == 0 for d in fs.daemons)

    def test_rename(self, cluster, client):
        def scenario():
            f = yield from client.create("/old")
            yield from client.write(f, 0, Payload(b"content"))
            yield from client.rename("/old", "/new")
            g = yield from client.open("/new")
            return (yield from client.read(g, 0, 10))

        assert drive(cluster.sim, scenario()).data == b"content"

    def test_truncate(self, cluster, client):
        def scenario():
            f = yield from client.create("/t")
            yield from client.write(f, 0, Payload(bytes(range(200))))
            yield from client.truncate("/t", 70)
            attrs = yield from client.getattr("/t")
            data = yield from client.read(f, 0, 200)
            return attrs, data

        attrs, data = drive(cluster.sim, scenario())
        assert attrs.size == 70
        assert data.data == bytes(range(70))

    def test_create_allocates_dfile_on_every_daemon(self, cluster, fs, client):
        def scenario():
            return (yield from client.create("/alloc"))

        f = drive(cluster.sim, scenario())
        assert len(f.dfiles) == len(fs.daemons)
        for daemon, dfile in zip(fs.daemons, f.dfiles):
            assert dfile in daemon.bstreams


class TestDurability:
    def test_fsync_drains_dirty_data_to_disk(self, cluster, fs, client):
        def scenario():
            f = yield from client.create("/durable")
            yield from client.write(f, 0, Payload.synthetic(4_000_000))
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        assert all(d.dirty_backlog <= fs.cfg.disk_cache_bytes for d in fs.daemons)
        cluster.sim.run()  # drain the flushers
        disk_bytes = sum(n.disks[0].write_bytes for n in cluster.storage)
        # payload plus a handful of 4 KB metadata journal writes
        assert 4_000_000 <= disk_bytes <= 4_000_000 + 16 * 4096

    def test_write_without_fsync_may_leave_backlog_until_flusher_runs(
        self, cluster, fs, client
    ):
        def scenario():
            f = yield from client.create("/lazy")
            yield from client.write(f, 0, Payload.synthetic(1_000_000))

        drive(cluster.sim, scenario())
        cluster.sim.run()  # drive() stops with the scenario; let the flushers drain
        # The invariant is that data eventually reaches disk unprompted.
        payload_bytes = sum(n.disks[0].write_bytes for n in cluster.storage)
        assert 1_000_000 <= payload_bytes <= 1_000_000 + 16 * 4096

    def test_fsync_time_reflects_disk_speed(self, cluster):
        """A large write + fsync must wait for the platter drain (minus
        the per-daemon write-cache allowance)."""
        # About platter drain, not striping: the fixture's 64-byte stripes
        # would only add ~1.9 M runs of client-side gather to one write.
        fs = make_fs(cluster, stripe_size=2 * 1024 * 1024)
        client = fs.make_client(cluster.clients[0])
        drive(cluster.sim, client.mount())
        total = 120_000_000

        def scenario():
            f = yield from client.create("/timed")
            yield from client.write(f, 0, Payload.synthetic(total))
            yield from client.fsync(f)
            return cluster.sim.now

        t = drive(cluster.sim, scenario())
        must_drain = total - 3 * fs.cfg.disk_cache_bytes
        assert t >= must_drain / (3 * 24e6)


class TestLocalOnlyConduit:
    def test_conduit_rejects_remote_io(self, cluster, fs):
        conduit = fs.make_client(cluster.storage[1], local_only=True)

        def scenario():
            yield from conduit.mount()
            f = yield from conduit.create("/c")  # create is MDS-side, fine
            try:
                # stripe 0 lives on server 0, but conduit is on storage[1]
                yield from conduit.write(f, 0, Payload(b"x"))
            except FsError:
                return "refused"

        assert drive(cluster.sim, scenario()) == "refused"

    @pytest.mark.parametrize("offset, nbytes", [(64, 65), (100, 64 * 4), (0, 64 * 9)])
    def test_conduit_rejects_any_remote_server_before_io(self, cluster, fs, offset, nbytes):
        """Ops that start, end or pass through the local server still
        touch a remote one: refused, with no request sent anywhere."""
        conduit = fs.make_client(cluster.storage[1], local_only=True)

        def scenario():
            yield from conduit.mount()
            f = yield from conduit.create("/c3")
            with pytest.raises(FsError):
                yield from conduit.write(f, offset, Payload(bytes(nbytes)))
            with pytest.raises(FsError):
                yield from conduit.read(f, offset, nbytes)

        drive(cluster.sim, scenario())
        assert all(d.bytes_written == 0 and d.bytes_read == 0 for d in fs.daemons)
        assert all(fd.size == 0 for d in fs.daemons for fd in d.bstreams.values())

    def test_conduit_allows_local_io(self, cluster, fs):
        conduit = fs.make_client(cluster.storage[1], local_only=True)

        def scenario():
            yield from conduit.mount()
            f = yield from conduit.create("/c2")
            # stripe 1 (offset 64..127) lives on server index 1
            yield from conduit.write(f, 64, Payload(b"local!"))
            return (yield from conduit.read(f, 64, 6))

        assert drive(cluster.sim, scenario()).data == b"local!"
