"""Extension benchmark: throughput dip and recovery under data-server loss.

Runs an IOR-style parallel sequential read over Direct-pNFS on the
paper's six-server testbed, kills one of the six data-server services
mid-run, and restarts it — measuring the aggregate-throughput dip while
the victim's stripes are proxied through the MDS, and the time to
recover direct-access throughput after the restart.

The quantity of interest is recovery-path behaviour: with client-side
RPC timeouts, session-reply-cache retransmission, and MDS fallback in
place, the run *completes with correct accounting* instead of wedging —
the paper's §5 versatility claim made measurable.
"""

import json
import os
import pathlib

from repro.cluster.configs import make_deployment
from repro.rpc import RpcPolicy
from repro.sim import FaultInjector
from repro.vfs import Payload

SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))
MB = 1024 * 1024
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N_CLIENTS = 4
BLOCK = max(256 * 1024, int(2 * MB * min(SCALE * 2, 1.0)))
PER_CLIENT_BYTES = int(500 * MB * SCALE)


def build(rpc_timeout: float, ds_retry: float):
    dep = make_deployment(
        "direct-pnfs",
        n_clients=N_CLIENTS,
        pvfs_overrides=dict(stripe_size=BLOCK),
        nfs_overrides=dict(
            rsize=BLOCK,
            wsize=BLOCK,
            readahead=0,  # per-block completion stamps stay meaningful
            rpc_policy=RpcPolicy(timeout=rpc_timeout, max_retries=1),
            ds_retry_interval=ds_retry,
        ),
    )
    tb, system = dep.testbed, dep.pnfs
    clients = [system.make_client(tb.client_nodes[i]) for i in range(N_CLIENTS)]
    return tb, system, clients


def run_ior(
    outage: tuple[float, float] | None,
    rpc_timeout: float = 0.2,
    ds_retry: float = 1.0,
):
    """One IOR read run; returns (duration, stamps, clients, injector)."""
    tb, system, clients = build(rpc_timeout, ds_retry)
    sim = tb.sim
    nblocks = max(8, PER_CLIENT_BYTES // BLOCK)

    def prepare(i):
        yield from clients[i].mount()
        f = yield from clients[i].create(f"/ior{i}.dat")
        # Write in bounded bursts: flushing the whole file at once would
        # put every WRITE in flight together and inflate per-RPC latency
        # past any sane retry timeout.
        for b in range(nblocks):
            yield from clients[i].write(f, b * BLOCK, Payload.synthetic(BLOCK))
            if b % 4 == 3:
                yield from clients[i].fsync(f)
        yield from clients[i].close(f)

    for i in range(N_CLIENTS):
        sim.run(until=sim.process(prepare(i)))

    inj = FaultInjector(sim)
    victim = system.data_server_for(tb.storage_nodes[2]).rpc
    t0 = sim.now
    if outage is not None:
        inj.outage(victim, start=t0 + outage[0], duration=outage[1] - outage[0])

    stamps: list[tuple[float, int]] = []

    def reader(i):
        # Read the neighbour's file so nothing is in the page cache.
        f = yield from clients[i].open(f"/ior{(i + 1) % N_CLIENTS}.dat", write=False)
        for b in range(nblocks):
            yield from clients[i].read(f, b * BLOCK, BLOCK)
            stamps.append((sim.now - t0, BLOCK))
        yield from clients[i].close(f)

    procs = [sim.process(reader(i)) for i in range(N_CLIENTS)]
    sim.run(until=sim.all_of(procs))
    return sim.now - t0, stamps, clients, inj


def bucketise(stamps, duration, nbuckets=24):
    width = duration / nbuckets
    buckets = [0.0] * nbuckets
    for t, nbytes in stamps:
        buckets[min(int(t / width), nbuckets - 1)] += nbytes
    return width, [b / width for b in buckets]  # bytes/s per bucket


def test_failover_dip_and_recovery():
    base_dur, _s, _c, _i = run_ior(outage=None)
    # Kill the victim a third of the way through the healthy run
    # length, bring it back at two thirds.  The retry ladder and
    # blacklist window scale with the run so the outage geometry is
    # the same at every REPRO_SCALE: the full ladder
    # (timeout + backoff*timeout ~ 3*rpc_timeout) fits well inside
    # the outage, and the blacklist lapses well before the tail of
    # the run ends.
    fail_at, restore_at = base_dur / 3, 2 * base_dur / 3
    dur, stamps, clients, _inj = run_ior(
        outage=(fail_at, restore_at),
        rpc_timeout=base_dur / 16,
        ds_retry=base_dur / 8,
    )

    steady = N_CLIENTS * PER_CLIENT_BYTES / base_dur
    width, buckets = bucketise(stamps, dur)

    outage_buckets = [
        b for i, b in enumerate(buckets)
        if fail_at <= i * width and (i + 1) * width <= restore_at
    ]
    dip = min(outage_buckets) if outage_buckets else 0.0
    recovery_time = None
    for i, b in enumerate(buckets):
        t = i * width
        if t >= restore_at and b >= 0.7 * steady:
            recovery_time = t - restore_at
            break

    failovers = sum(c.failovers for c in clients)
    recoveries = sum(c.recoveries for c in clients)
    proxied = sum(c.proxied_bytes for c in clients)

    print()
    print(f"healthy run      : {base_dur:6.2f} s  ({steady / 1e6:7.1f} MB/s aggregate)")
    print(f"run with outage  : {dur:6.2f} s  (victim dead {fail_at:.2f}s..{restore_at:.2f}s)")
    print(f"worst outage bucket: {dip / 1e6:7.1f} MB/s")
    print(f"recovery time    : "
          f"{'%.2f s' % recovery_time if recovery_time is not None else 'n/a'}")
    print(f"failovers={failovers} recoveries={recoveries} proxied={proxied / 1e6:.1f} MB")
    print("timeline (MB/s per bucket):")
    print("  " + " ".join(f"{b / 1e6:6.0f}" for b in buckets))

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "failover.json", "w") as fh:
        json.dump(
            {
                "scale": SCALE,
                "steady_MBps": steady / 1e6,
                "dip_MBps": dip / 1e6,
                "recovery_time_s": recovery_time,
                "outage_run_s": dur,
                "healthy_run_s": base_dur,
                "failovers": failovers,
                "recoveries": recoveries,
                "proxied_MB": proxied / 1e6,
            },
            fh,
            indent=2,
        )

    # The run completed with every byte accounted for (no wedge), the
    # outage cost throughput, and throughput came back after restart.
    assert len(stamps) == N_CLIENTS * max(8, PER_CLIENT_BYTES // BLOCK)
    assert failovers >= 1 and recoveries >= 1 and proxied > 0
    assert dur > base_dur
    assert dip < 0.9 * steady
    assert recovery_time is not None
