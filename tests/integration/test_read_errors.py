"""Regression: read-side RPC failures reach the reader, never the run.

Two ways a dead server used to take the whole simulation down instead
of failing one ``read``:

* a read spanning several rsize blocks fans out one fetch per block;
  every leg times out, the gather delivered the first failure to the
  reader and then *re-raised the second* out of ``Simulator.run()``;
* a readahead prefetch nobody is waiting on (the application is
  thinking, or reading elsewhere) that exhausts its retries was an
  unobserved failed process.

Linux semantics for both: the demand read gets the error; a failed
readahead is silent — the pages stay invalid and a later read asks for
them again.  The write-side twin is ``test_writeback_errors.py``.
"""

from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.rpc import RpcPolicy, RpcTimeout
from repro.vfs import Payload
from repro.vfs.localfs import LocalClient, LocalFileSystem

from tests.conftest import drive

KB = 1024
RSIZE = 16 * KB
BLOB = bytes(range(256)) * 1024  # 256 KB -> 16 rsize blocks


def make_faulty(cluster, readahead):
    """Reader/server pair with the fault layer on and ``/data`` = BLOB."""
    cfg = NfsConfig(
        rsize=RSIZE,
        wsize=RSIZE,
        readahead=readahead,
        rpc_policy=RpcPolicy(timeout=0.2, max_retries=1),
    )
    sim = cluster.sim
    server = Nfs4Server(
        sim, cluster.storage[0], LocalClient(sim, LocalFileSystem()), cfg
    )
    writer = Nfs4Client(sim, cluster.clients[1], server, cfg)
    reader = Nfs4Client(sim, cluster.clients[0], server, cfg)

    def fill():
        yield from writer.mount()
        yield from reader.mount()
        f = yield from writer.create("/data")
        for pos in range(0, len(BLOB), 4 * RSIZE):  # bounded bursts: see verify skill
            yield from writer.write(f, pos, Payload(BLOB[pos : pos + 4 * RSIZE]))
            yield from writer.fsync(f)
        yield from writer.close(f)
        return (yield from reader.open("/data", write=False))

    return reader, server, drive(sim, fill())


def read_outcome(client, f, offset, nbytes):
    try:
        return (yield from client.read(f, offset, nbytes))
    except RpcTimeout as exc:
        return exc


class TestDemandFanOut:
    def test_every_leg_failing_fails_the_read_not_the_run(self, cluster):
        reader, server, f = make_faulty(cluster, readahead=0)
        sim = cluster.sim
        server.rpc.fail()

        # 64 KB = four block fetches, all of which time out.
        got = drive(sim, read_outcome(reader, f, 0, 4 * RSIZE))
        assert isinstance(got, RpcTimeout)
        sim.run()  # the slower legs fail after the reader moved on

        server.rpc.restore()
        got = drive(sim, read_outcome(reader, f, 0, 4 * RSIZE))
        assert got.data == BLOB[: 4 * RSIZE]


class TestOrphanedReadahead:
    def test_prefetch_failure_is_silent_and_the_bytes_are_re_requested(self, cluster):
        reader, server, f = make_faulty(cluster, readahead=4 * RSIZE)
        sim = cluster.sim

        def scenario():
            # The demand fetch and the window's prefetches go out, then
            # the service dies under all of them.
            killer = sim.timeout(10e-6)
            killer.add_callback(lambda _ev: server.rpc.fail())
            first = yield from read_outcome(reader, f, 0, 8 * KB)
            # The application thinks while the orphaned prefetches run
            # out of retries: nobody is waiting on them.
            yield sim.timeout(5)
            return first

        assert isinstance(drive(sim, scenario()), RpcTimeout)
        # The window (8 KB, 80 KB) went out as five blocks cut from its start.
        assert reader.readahead_errors == 5

        server.rpc.restore()

        def reread():
            out = []
            for pos in range(0, 8 * RSIZE, 8 * KB):
                out.append((yield from reader.read(f, pos, 8 * KB)).data)
            return b"".join(out)

        assert drive(sim, reread()) == BLOB[: 8 * RSIZE]
        assert reader.readahead_errors == 5

    def test_a_reader_waiting_on_the_prefetch_still_gets_the_error(self, cluster):
        reader, server, f = make_faulty(cluster, readahead=4 * RSIZE)
        sim = cluster.sim

        def scenario():
            first = yield from reader.read(f, 0, 8 * KB)
            assert first.data == BLOB[: 8 * KB]
            yield sim.timeout(1)  # the first window lands
            second = yield from reader.read(f, 8 * KB, 8 * KB)
            assert second.data == BLOB[8 * KB : 16 * KB]
            # The next block's read tops the window up and then blocks
            # on a prefetch that is about to die with the server.
            server.rpc.fail()
            return (yield from read_outcome(reader, f, RSIZE, 4 * RSIZE + 8 * KB))

        assert isinstance(drive(sim, scenario()), RpcTimeout)
        sim.run()
        server.rpc.restore()
        got = drive(sim, read_outcome(reader, f, RSIZE, 4 * RSIZE + 8 * KB))
        assert got.data == BLOB[RSIZE : 5 * RSIZE + 8 * KB]
