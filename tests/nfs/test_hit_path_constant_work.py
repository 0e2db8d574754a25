"""A page-cache hit is constant host work — asserted by count, not time.

``profile_calls`` counts every Python and C call the simulator makes
while an application issues 2 000 cached 8 KB operations.  The count
must not depend on how much bookkeeping the open file carries that the
operations do not touch: pending readahead blocks elsewhere in the
file, or dirty runs below the append point.  Before the ``PageCache``
cursors every read subtracted every pending prefetch from a fresh
interval set and walked the pending list twice, and every write walked
every dirty run.  The counts per call are also bounded, so the path
cannot grow back unnoticed.
"""

from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
from repro.vfs import Payload

from tests.conftest import build_cluster, drive, profile_calls
from tests.localfs import LocalClient, LocalFileSystem

KB, MB = 1024, 1024 * 1024
OPS = 2000
BLOCK = 8 * KB
#: Calls per cached 8 KB call, the profiled process's own included.  A
#: write was 28.0135 while the tail-run ``add``s and ``FileData.write``
#: called ``max()`` and every write probed the empty attribute cache; a
#: read was 32.17 while it and ``FileData.read`` clamped with ``min()``.
#: Each was one call more (24.0145 / 29.17) while ``read`` and ``write``
#: returned a separate body generator.
MAX_CALLS_PER_CACHED_WRITE = 24  # measured 23.012
MAX_CALLS_PER_CACHED_READ = 29  # measured 28.1675


def make(**cfg_kw):
    cluster = build_cluster()
    cfg = NfsConfig(**cfg_kw)
    server = Nfs4Server(
        cluster.sim, cluster.storage[0], LocalClient(cluster.sim, LocalFileSystem()), cfg
    )
    client = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
    drive(cluster.sim, client.mount())
    return cluster.sim, client, server


def cached_reads_with_pending_prefetches(readahead: int) -> tuple[int, int]:
    """(pending prefetch blocks, calls made by 2 000 cached reads)."""
    rsize = 256 * KB
    sim, client, server = make(rsize=rsize, wsize=rsize, readahead=readahead)
    cached, far, size = 96 * MB, 100 * MB, 200 * MB

    def populate():
        f = yield from client.create("/big")
        for pos in range(0, cached, 4 * MB):
            yield from client.write(f, pos, Payload.synthetic(4 * MB))
            yield from client.fsync(f)
        yield from client.write(f, size - 1, Payload.synthetic(1))  # sparse tail
        yield from client.fsync(f)
        return f

    f = drive(sim, populate())
    # The service stops answering (no RPC timeout: calls wait forever).
    # A read far beyond the cached region blocks on its demand fetch and
    # leaves a full readahead window of prefetches pending behind it.
    # The handle keeps the stuck read reachable: unreferenced, it and its
    # demand fetch are garbage, and the collection in ``profile_calls``
    # would close them and hand their session slot to a queued prefetch.
    server.rpc.fail()
    far_read = sim.process(client.read(f, far, BLOCK))
    sim.run()
    pending = client.readahead_issued_bytes // rsize

    def stream():  # no assert in here: pytest's rewritten ones make calls
        for i in range(OPS):
            yield from client.read(f, i * BLOCK, BLOCK)

    calls, _ = profile_calls(drive, sim, stream())
    assert client.bytes_read == OPS * BLOCK
    assert client.cache_miss_bytes == BLOCK  # only the far read ever missed
    assert far_read.is_alive
    return pending, calls


def appends_above_dirty_runs(earlier_runs: int) -> int:
    """Calls made by 2 000 appends that complete no wsize block."""
    sim, client, _server = make(rsize=64 * MB, wsize=64 * MB)

    def prepare():
        f = yield from client.create("/log")
        for i in range(earlier_runs):
            yield from client.write(f, i * 64 * KB, Payload.synthetic(BLOCK))
        return f

    f = drive(sim, prepare())
    base = 16 * MB

    def stream():
        for i in range(OPS):
            yield from client.write(f, base + i * BLOCK, Payload.synthetic(BLOCK))

    calls, _ = profile_calls(drive, sim, stream())
    assert len(list(f.pc.dirty)) == earlier_runs + 1
    assert client.bytes_written == 0  # nothing was flushed
    return calls


def test_cached_read_cost_is_independent_of_pending_prefetches():
    few, few_calls = cached_reads_with_pending_prefetches(4 * MB)
    many, many_calls = cached_reads_with_pending_prefetches(64 * MB)
    assert (few, many) == (16, 256)
    assert few_calls == many_calls
    assert few_calls <= MAX_CALLS_PER_CACHED_READ * OPS, few_calls / OPS


def test_append_cost_is_independent_of_earlier_dirty_runs():
    calls = appends_above_dirty_runs(1)
    assert calls == appends_above_dirty_runs(64)
    assert calls <= MAX_CALLS_PER_CACHED_WRITE * OPS, calls / OPS
