"""Tests for the decentralised-metadata extension."""

import pytest

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.nfs import NfsConfig
from repro.nfs.locks import LockConflict
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.pvfs2.sharding import shard_of
from repro.vfs import Payload
from repro.vfs.api import FsError

from tests.conftest import build_cluster, drive


def make_sharded(cluster, n_meta=2):
    pvfs = Pvfs2System(
        cluster.sim,
        cluster.storage,
        Pvfs2Config(stripe_size=64 * 1024),
        n_meta=n_meta,
    )
    system = PnfsSystem(
        cluster.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
        ARCHITECTURES["direct-pnfs"],
    )
    return pvfs, system


class TestSharding:
    def test_shard_function_stable_and_bounded(self):
        for path in ("/a", "/a/b/c", "/zeta/x"):
            s = shard_of(path, 3)
            assert 0 <= s < 3
            assert s == shard_of(path, 3)

    def test_same_two_components_same_shard(self):
        assert shard_of("/proj/a", 4) == shard_of("/proj/a/deep/er", 4)

    def test_subtrees_of_one_parent_spread(self):
        shards = {shard_of(f"/proj/sub{i}", 4) for i in range(16)}
        assert len(shards) >= 3  # distributed, not pinned to the parent

    def test_root_is_shard_zero(self):
        assert shard_of("/", 5) == 0

    def test_invalid_shard_count(self, cluster):
        with pytest.raises(ValueError):
            Pvfs2System(cluster.sim, cluster.storage, n_meta=0)
        with pytest.raises(ValueError):
            Pvfs2System(cluster.sim, cluster.storage, n_meta=99)


class TestShardedPvfs2:
    def test_subtrees_routed_and_top_dirs_broadcast(self, cluster):
        pvfs, _system = make_sharded(cluster, n_meta=3)
        client = pvfs.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            yield from client.mkdir("/proj")
            for i in range(9):
                yield from client.mkdir(f"/proj/s{i}")
                f = yield from client.create(f"/proj/s{i}/file")
                yield from client.write(f, 0, Payload(b"data"))
                yield from client.close(f)
            top = yield from client.readdir("/")
            children = yield from client.readdir("/proj")
            return top, children

        top, children = drive(cluster.sim, scenario())
        assert top == ["proj"]
        assert children == [f"s{i}" for i in range(9)]
        # the top-level dir exists on every shard (broadcast)...
        assert all(
            "proj" in mds.namespace.root.children for mds in pvfs.metadata_servers
        )
        # ...while its subtrees are spread across shards
        per_shard_files = [len(mds.files) for mds in pvfs.metadata_servers]
        assert sum(per_shard_files) == 9
        assert sum(1 for n in per_shard_files if n) >= 2

    def test_handles_globally_unique(self, cluster):
        pvfs, _system = make_sharded(cluster, n_meta=3)
        client = pvfs.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            yield from client.mkdir("/h")
            handles = []
            for name in ("a", "b", "c", "d", "e"):
                f = yield from client.create(f"/h/{name}")
                handles.append(f.handle)
            return handles

        handles = drive(cluster.sim, scenario())
        assert len(set(handles)) == len(handles)

    def test_cross_shard_rename_rejected(self, cluster):
        pvfs, _system = make_sharded(cluster, n_meta=3)
        client = pvfs.make_client(cluster.clients[0])
        # find two second-level names on different shards
        a, b = None, None
        for cand in "abcdefghij":
            if a is None:
                a = cand
            elif shard_of(f"/top/{cand}", 3) != shard_of(f"/top/{a}", 3):
                b = cand
                break
        assert b is not None

        def scenario():
            yield from client.mount()
            yield from client.mkdir("/top")
            yield from client.create(f"/top/{a}")
            try:
                yield from client.rename(f"/top/{a}", f"/top/{b}")
            except FsError:
                return "rejected"

        assert drive(cluster.sim, scenario()) == "rejected"

    def test_broadcast_dir_lifecycle(self, cluster):
        pvfs, _system = make_sharded(cluster, n_meta=3)
        client = pvfs.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            yield from client.mkdir("/ephemeral")
            yield from client.remove("/ephemeral")
            return (yield from client.readdir("/"))

        assert drive(cluster.sim, scenario()) == []
        assert all(
            not mds.namespace.root.children for mds in pvfs.metadata_servers
        )


class TestShardedDirectPnfs:
    def test_roundtrip_through_sharded_stack(self, cluster):
        _pvfs, system = make_sharded(cluster, n_meta=2)
        client = system.make_client(cluster.clients[0])
        blob = bytes(range(256)) * 500  # 128 KB

        def scenario():
            yield from client.mount()
            yield from client.mkdir("/science")
            f = yield from client.create("/science/data")
            yield from client.write(f, 0, Payload(blob))
            yield from client.fsync(f)
            yield from client.close(f)
            g = yield from client.open("/science/data", write=False)
            return (yield from client.read(g, 0, len(blob)))

        assert drive(cluster.sim, scenario()).data == blob

    def test_byte_range_locks_route_to_the_files_shard(self, cluster):
        """lock / unlock reach the shard that opened the
        file: a second router's conflicting lock is refused until the
        first unlocks (the router had no lock methods at all)."""
        _pvfs, system = make_sharded(cluster, n_meta=2)
        a = system.make_client(cluster.clients[0])
        b = system.make_client(cluster.clients[1])

        def scenario():
            yield from a.mount()
            yield from b.mount()
            yield from a.mkdir("/science")
            fa = yield from a.create("/science/data")
            fb = yield from b.open("/science/data")
            yield from a.lock(fa, 0, 100)
            with pytest.raises(LockConflict):
                yield from b.lock(fb, 50, 60)
            yield from a.unlock(fa, 0, 100)
            return (yield from b.lock(fb, 50, 60))

        assert drive(cluster.sim, scenario()) == (50, 60, "write")

    def test_data_placement_unchanged_by_sharding(self, cluster):
        """Sharding the namespace must not move data: bytes still stripe
        over all daemons per the distribution."""
        pvfs, system = make_sharded(cluster, n_meta=2)
        client = system.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/big")
            yield from client.write(f, 0, Payload.synthetic(384 * 1024))
            yield from client.fsync(f)

        drive(cluster.sim, scenario())
        with_data = [d for d in pvfs.daemons if any(fd.size for fd in d.bstreams.values())]
        assert len(with_data) == len(pvfs.daemons)

    def test_metadata_throughput_scales_with_shards(self, cluster):
        """The extension's point: create throughput grows with n_meta."""
        import copy

        def create_storm(n_meta):
            cl = build_cluster(n_storage=3, n_clients=4)
            pvfs = Pvfs2System(
                cl.sim, cl.storage, Pvfs2Config(stripe_size=64 * 1024), n_meta=n_meta
            )
            system = PnfsSystem(
                cl.sim, pvfs, NfsConfig(rsize=64 * 1024, wsize=64 * 1024),
                ARCHITECTURES["direct-pnfs"],
            )
            clients = [system.make_client(cl.clients[i]) for i in range(4)]

            def one(i):
                yield from clients[i].mount()
                yield from clients[i].mkdir(f"/c{i}")
                for j in range(30):
                    f = yield from clients[i].create(f"/c{i}/f{j}")
                    yield from clients[i].close(f)

            t0 = cl.sim.now
            procs = [cl.sim.process(one(i)) for i in range(4)]
            cl.sim.run(until=cl.sim.all_of(procs))
            return cl.sim.now - t0

        t1 = create_storm(1)
        t3 = create_storm(3)
        assert t3 < t1 * 0.75  # meaningful scaling, not noise


class TestFoldedIntoBaseSystems:
    """Sharding is ``n_meta`` on the base systems: what the base systems
    do for one metadata server, they do for every shard."""

    def test_every_shard_conduit_gets_the_local_only_discount(self, cluster):
        cfg = Pvfs2Config(stripe_size=64 * 1024)
        sharded = Pvfs2System(cluster.sim, cluster.storage, cfg, n_meta=2)
        single = Pvfs2System(cluster.sim, cluster.storage, cfg)
        node = cluster.storage[1]
        discounted = single.make_client(node, local_only=True).cfg.request_setup_client
        assert discounted < cfg.request_setup_client
        conduit = sharded.make_client(node, local_only=True)
        assert [s.cfg.request_setup_client for s in conduit.shards] == [discounted] * 2
        full = sharded.make_client(node)
        assert [s.cfg.request_setup_client for s in full.shards] == (
            [cfg.request_setup_client] * 2
        )

    def test_one_shard_is_the_plain_client(self, cluster):
        from repro.pnfs import PnfsClient
        from repro.pvfs2 import Pvfs2Client

        pvfs, system = make_sharded(cluster, n_meta=1)
        assert type(pvfs.make_client(cluster.clients[0])) is Pvfs2Client
        assert type(system.make_client(cluster.clients[0])) is PnfsClient

    def test_sharded_direct_pnfs_has_the_fault_helpers(self, cluster):
        _pvfs, system = make_sharded(cluster, n_meta=2)
        ds = system.data_server_for(cluster.storage[2])
        system.kill_data_server(cluster.storage[2])
        assert not ds.rpc.up
        system.restart_data_server("s2")
        assert ds.rpc.up

    def test_shard_k_handles_start_at_k_times_2_to_32(self, cluster):
        pvfs, _system = make_sharded(cluster, n_meta=3)
        client = pvfs.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            yield from client.mkdir("/h")
            for i in range(12):
                yield from client.create(f"/h/f{i}")

        drive(cluster.sim, scenario())
        for k, mds in enumerate(pvfs.metadata_servers):
            base = k << 32
            assert mds.namespace.root.handle == base + 1
            assert mds.files, "every shard should own some of the twelve files"
            # /h is broadcast, so it took base + 2 on every shard.
            assert sorted(mds.files) == list(range(base + 3, base + 3 + len(mds.files)))
            dfiles = sorted(d for meta in mds.files.values() for d in meta.dfiles)
            assert dfiles == list(range(base + 1, base + 1 + len(dfiles)))
