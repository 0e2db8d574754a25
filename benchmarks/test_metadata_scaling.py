"""Extension benchmark: decentralised metadata (the §6.4.3 future work).

Sweeps the number of metadata shards under an mdtest create/stat/remove
storm over Direct-pNFS, quantifying how far partitioning the namespace
recovers the parallel file system's decentralised-metadata advantage
that NFSv4's central server gives up.
"""

import os

from repro.core import DirectPnfsSystem
from repro.cluster.testbed import Testbed, default_nfs_config, default_pvfs2_config
from repro.pvfs2 import Pvfs2System
from repro.workloads import MdtestWorkload

SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))


def run_storm(n_meta: int, n_clients: int = 8, metadata_sync: bool = True) -> float:
    tb = Testbed(n_clients=n_clients)
    pvfs = Pvfs2System(
        tb.sim,
        tb.storage_nodes,
        default_pvfs2_config(metadata_sync=metadata_sync),
        n_meta=n_meta,
    )
    system = DirectPnfsSystem(tb.sim, pvfs, default_nfs_config())
    # mdtest-style: 8 ranks per client node so the metadata path is
    # actually saturated rather than client-latency-bound.
    workload = MdtestWorkload(nfiles=400, concurrency=8, scale=SCALE)
    clients = [system.make_client(tb.client_nodes[i]) for i in range(n_clients)]

    def prep():
        yield from clients[0].mount()
        yield from workload.prepare(tb.sim, clients[0], n_clients)

    tb.sim.run(until=tb.sim.process(prep()))

    def one(i):
        if i != 0:
            yield from clients[i].mount()
        return (yield from workload.client_proc(tb.sim, clients[i], i, n_clients))

    t0 = tb.sim.now
    procs = [tb.sim.process(one(i)) for i in range(n_clients)]
    tb.sim.run(until=tb.sim.all_of(procs))
    return tb.sim.now - t0


def test_metadata_scaling_with_shards(benchmark):
    """Two regimes, one finding each:

    * with PVFS2's synchronous per-create journalling ON, sharding
      helps (the metadata servers' own journals shard) but the gain is
      capped — every create still journals on EVERY storage daemon's
      disk, a cost that does not shard;
    * with the journal ablated, the metadata-server path is the
      bottleneck and the storm scales near-linearly with the shard
      count — the decentralisation §6.4.3 calls for.
    """
    out = {True: {}, False: {}}

    def once():
        for sync in (True, False):
            for n_meta in (1, 2, 4):
                out[sync][n_meta] = run_storm(n_meta, metadata_sync=sync)

    benchmark.pedantic(once, rounds=1, iterations=1)
    for sync, label in ((True, "journalling ON"), (False, "journalling OFF")):
        print(f"\nmdtest storm over Direct-pNFS ({label}):")
        for n_meta, t in out[sync].items():
            print(
                f"  {n_meta} shard(s): {t:7.2f} s  "
                f"({out[sync][1] / t:.2f}x vs centralised)"
            )
    speedup_sync = out[True][1] / out[True][4]
    speedup_nosync = out[False][1] / out[False][4]
    # Journalled: sharding helps…
    assert out[True][2] < out[True][1]
    # …but the unsharded daemon-side journals cap the gain below the
    # journal-free scaling.
    assert speedup_sync < speedup_nosync
    # Ablated: near-linear scaling with shards.
    assert speedup_nosync >= 2.5
    assert out[False][2] < 0.7 * out[False][1]
