"""Property-based end-to-end consistency.

A random sequence of writes/reads/fsyncs/reopens through a full
Direct-pNFS stack must agree byte-for-byte with a plain bytearray
reference model — the page cache, write-back, readahead, striping,
layout translation, and storage daemons all sit between the two.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.configs import ARCHITECTURES
from repro.core import PnfsSystem
from repro.nfs import NfsConfig
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import Payload

from tests.conftest import build_cluster


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, 200_000),
            st.binary(min_size=1, max_size=3000),
        ),
        st.tuples(st.just("read"), st.integers(0, 200_000), st.integers(1, 4000)),
        st.tuples(st.just("fsync"), st.just(0), st.just(b"")),
        st.tuples(st.just("reopen"), st.just(0), st.just(b"")),
    ),
    min_size=1,
    max_size=25,
)


class TestEndToEndConsistency:
    @given(ops=ops_strategy)
    @settings(max_examples=15, deadline=None)
    def test_property_direct_pnfs_matches_reference(self, ops):
        cluster = build_cluster(n_storage=3, n_clients=1)
        pvfs = Pvfs2System(
            cluster.sim, cluster.storage, Pvfs2Config(stripe_size=16 * 1024)
        )
        system = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=32 * 1024, wsize=32 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        client = system.make_client(cluster.clients[0])
        ref = bytearray()

        def apply_ref_write(offset, data):
            end = offset + len(data)
            if len(ref) < end:
                ref.extend(b"\x00" * (end - len(ref)))
            ref[offset:end] = data

        failures = []

        def scenario():
            yield from client.mount()
            f = yield from client.create("/prop")
            for op, a, b in ops:
                if op == "write":
                    yield from client.write(f, a, Payload(b))
                    apply_ref_write(a, b)
                elif op == "read":
                    got = yield from client.read(f, a, b)
                    want = bytes(ref[a : a + b])
                    if got.data != want:
                        failures.append((a, b, got.data, want))
                elif op == "fsync":
                    yield from client.fsync(f)
                else:  # reopen
                    yield from client.close(f)
                    f = yield from client.open("/prop")
            yield from client.close(f)
            g = yield from client.open("/prop")
            final = yield from client.read(g, 0, max(len(ref), 1))
            if final.data != bytes(ref):
                failures.append(("final", len(ref), final.data, bytes(ref)))

        proc = cluster.sim.process(scenario())
        cluster.sim.run(until=proc)
        assert not failures, failures[0][:2]

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 100_000), st.binary(min_size=1, max_size=2000)),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_property_cross_client_read_back(self, writes):
        """Everything one client writes (and closes), another reads."""
        cluster = build_cluster(n_storage=3, n_clients=2)
        pvfs = Pvfs2System(
            cluster.sim, cluster.storage, Pvfs2Config(stripe_size=16 * 1024)
        )
        system = PnfsSystem(
            cluster.sim, pvfs, NfsConfig(rsize=32 * 1024, wsize=32 * 1024),
            ARCHITECTURES["direct-pnfs"],
        )
        writer = system.make_client(cluster.clients[0])
        reader = system.make_client(cluster.clients[1])
        ref = bytearray()

        def scenario():
            yield from writer.mount()
            yield from reader.mount()
            f = yield from writer.create("/x")
            for offset, data in writes:
                yield from writer.write(f, offset, Payload(data))
                end = offset + len(data)
                if len(ref) < end:
                    ref.extend(b"\x00" * (end - len(ref)))
                ref[offset:end] = data
            yield from writer.close(f)
            g = yield from reader.open("/x")
            got = yield from reader.read(g, 0, len(ref))
            return got

        proc = cluster.sim.process(scenario())
        got = cluster.sim.run(until=proc)
        assert got.data == bytes(ref)
