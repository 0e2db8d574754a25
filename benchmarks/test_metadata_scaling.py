"""Extension benchmark: decentralised metadata (the §6.4.3 future work).

Sweeps the number of metadata shards under an mdtest create/stat/remove
storm over Direct-pNFS, quantifying how far partitioning the namespace
recovers the parallel file system's decentralised-metadata advantage
that NFSv4's central server gives up.
"""

import os
from dataclasses import replace

from repro.bench.runner import run_cell
from repro.cluster.configs import ARCHITECTURES
from repro.workloads import MdtestWorkload

SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))


def run_storm(n_meta: int, n_clients: int = 8, metadata_sync: bool = True) -> float:
    # mdtest-style: 8 ranks per client node so the metadata path is
    # actually saturated rather than client-latency-bound.
    return run_cell(
        replace(ARCHITECTURES["direct-pnfs"], n_meta=n_meta),
        MdtestWorkload(nfiles=400, concurrency=8, scale=SCALE),
        n_clients,
        pvfs_overrides={"metadata_sync": metadata_sync},
    ).makespan


def test_metadata_scaling_with_shards():
    """Two regimes, one finding each:

    * with PVFS2's synchronous per-create journalling ON, sharding
      helps (the metadata servers' own journals shard) but the gain is
      capped — every create still journals on EVERY storage daemon's
      disk, a cost that does not shard;
    * with the journal ablated, the metadata-server path is the
      bottleneck and the storm scales near-linearly with the shard
      count — the decentralisation §6.4.3 calls for.
    """
    out = {
        sync: {n_meta: run_storm(n_meta, metadata_sync=sync) for n_meta in (1, 2, 4)}
        for sync in (True, False)
    }
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
