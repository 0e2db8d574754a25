#!/usr/bin/env python3
"""Failover demo: kill a data server mid-read and watch Direct-pNFS degrade
gracefully, then recover.

Builds the paper's testbed (six storage nodes), writes a striped file,
and reads it back in three phases:

1. **healthy** — every stripe is fetched directly from its data server;
2. **degraded** — one of the six data-server services is failed
   (the parallel-FS daemon under it keeps running): reads aimed at it
   time out, the client returns its layout and proxies those stripes
   through the MDS as plain NFSv4 reads — §5's versatility fallback;
3. **recovered** — the service is restarted and the client's blacklist
   lapses: the next probe succeeds and direct access resumes.

The per-phase throughput prints the dip and the recovery, and the RPC
trace shows the retries and timeouts the fault layer absorbed.

Run:  python examples/failover_demo.py [scale]
      (scale defaults to 0.25; 1.0 uses the paper's 2 MB stripes)
"""

import sys

from repro.cluster.configs import make_deployment
from repro.obs import RpcTrace, SpanCollector
from repro.sim import FaultInjector
from repro.vfs import Payload

N_BLOCKS = 12  # four per phase, striped round-robin over six servers


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    block = max(64 * 1024, int(2 * 1024 * 1024 * scale))

    deployment = make_deployment(
        "direct-pnfs",
        n_clients=2,
        pvfs_overrides=dict(stripe_size=block),
        nfs_overrides=dict(
            rsize=block,
            wsize=block,
            readahead=0,  # keep each phase honest: no prefetch across the kill
            rpc_timeout=0.2,
            rpc_max_retries=1,
            ds_retry_interval=1.0,
        ),
    )
    tb, system = deployment.testbed, deployment.pnfs  # the PnfsSystem has the fault helpers
    sim = tb.sim
    inj = FaultInjector(sim)
    writer = system.make_client(tb.client_nodes[0])
    reader = system.make_client(tb.client_nodes[1])
    victim = tb.storage_nodes[4]  # its stripes fall in every phase

    def prepare():
        yield from writer.mount()
        yield from reader.mount()
        f = yield from writer.create("/ior.dat")
        yield from writer.write(f, 0, Payload.synthetic(N_BLOCKS * block))
        yield from writer.close(f)

    sim.run(until=sim.process(prepare()))
    print(f"wrote {N_BLOCKS * block / 1e6:.1f} MB over "
          f"{len(system.data_servers)} data servers (block {block // 1024} KB)")

    def read_phase(f, lo, hi):
        t0 = sim.now
        for i in range(lo, hi):
            yield from reader.read(f, i * block, block)
        return (hi - lo) * block / (sim.now - t0)

    def run_demo():
        f = yield from reader.open("/ior.dat", write=False)

        healthy = yield from read_phase(f, 0, 4)

        inj.fail_server(system.data_server_for(victim).rpc)
        degraded = yield from read_phase(f, 4, 8)

        inj.restore_server(system.data_server_for(victim).rpc)
        yield sim.timeout(1.2)  # let the client's blacklist lapse
        recovered = yield from read_phase(f, 8, 12)

        yield from reader.close(f)
        return healthy, degraded, recovered

    with SpanCollector(sim) as spans:
        healthy, degraded, recovered = sim.run(until=sim.process(run_demo()))

    print(f"\nthroughput healthy  : {healthy / 1e6:8.1f} MB/s")
    print(f"throughput degraded : {degraded / 1e6:8.1f} MB/s   "
          f"(one server dead; its stripes proxied via the MDS)")
    print(f"throughput recovered: {recovered / 1e6:8.1f} MB/s")

    print(f"\nfailovers={reader.failovers}  recoveries={reader.recoveries}  "
          f"proxied={reader.proxied_bytes / 1e6:.1f} MB")
    print("\ninjected events:")
    for t, what in inj.events:
        print(f"  t={t:7.3f}s  {what}")
    print("\nRPC trace (note the retries and errors the fault layer absorbed):")
    print(RpcTrace.from_spans(spans).summary())

    assert degraded < healthy, "the dead server should cost throughput"
    assert recovered > degraded, "direct access should come back"
    assert reader.failovers >= 1 and reader.recoveries >= 1


if __name__ == "__main__":
    main()
