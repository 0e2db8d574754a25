"""An uncached PVFS2 request is bounded host work — asserted by count, not time.

``profile_calls`` counts every Python and C call the simulator makes
while one native PVFS2 client issues 2 000 8 KB writes and then 2 000
8 KB reads of the same file (2 MB stripes, so each op is one request to
one storage daemon).  Each op pays for its RPC and the daemon's
handler; what the count pins is the bookkeeping around them: planning
the op into extents and flow units, the request-setup charge,
scattering the read reply back, the daemon's dirty accounting and the
flusher's pick.  The write count includes the flusher draining behind
the writes.
"""

from repro.cluster import make_deployment
from repro.vfs import Payload

from tests.conftest import drive, profile_calls

KB, MB = 1024, 1024 * 1024
OPS = 2000
BLOCK = 8 * KB
#: Calls per uncached 8 KB op, the profiled process's own included.  A
#: write was 367.7 and a read 296.0 while ``Run`` / ``Extent`` were
#: frozen dataclasses, request setup was a generator the op delegated
#: to, a one-piece read slice was re-sliced and sorted by a key
#: function, and the flusher built two candidate lists per pick.  A
#: write was 345.8235 while ``Disk.io`` returned a separate body generator,
#: and a write 338.935 and a read 276.0295 while every join and process
#: firing was a queued call.
MAX_CALLS_PER_PVFS2_WRITE = 332  # measured 331.9335
MAX_CALLS_PER_PVFS2_READ = 270  # measured 269.028


def uncached_write_then_read_calls() -> tuple[int, int]:
    """(calls made by 2 000 writes, calls made by 2 000 reads)."""
    dep = make_deployment("pvfs2", n_clients=1, pvfs_overrides={"stripe_size": 2 * MB})
    sim = dep.testbed.sim
    client = dep.make_client(dep.testbed.client_nodes[0])

    def prepare():
        yield from client.mount()
        return (yield from client.create("/ior"))

    f = drive(sim, prepare())

    def writes():  # no assert in here: pytest's rewritten ones make calls
        for i in range(OPS):
            yield from client.write(f, i * BLOCK, Payload.synthetic(BLOCK))

    def reads():
        for i in range(OPS):
            yield from client.read(f, i * BLOCK, BLOCK)

    write_calls, _ = profile_calls(drive, sim, writes())
    read_calls, _ = profile_calls(drive, sim, reads())
    assert client.bytes_written == client.bytes_read == OPS * BLOCK
    assert sum(d.bytes_written for d in dep.pvfs.daemons) == OPS * BLOCK
    return write_calls, read_calls


def test_an_uncached_8k_write_and_read_stay_under_their_call_ceilings():
    write_calls, read_calls = uncached_write_then_read_calls()
    assert write_calls <= MAX_CALLS_PER_PVFS2_WRITE * OPS, write_calls / OPS
    assert read_calls <= MAX_CALLS_PER_PVFS2_READ * OPS, read_calls / OPS
