"""Ablations: quantify the design choices DESIGN.md calls out.

Each ablation removes or perturbs one Direct-pNFS mechanism and
measures the consequence the paper attributes to it:

* **accurate layouts** — Direct-pNFS vs a 2-tier system configured with
  the *same* stripe unit as PVFS2 (so only data locality differs, no
  block-size mismatch): the cost of blind layouts alone.
* **block-size mismatch** — 2-tier with matched vs mismatched stripe
  units (§3.4.1).
* **client write-back cache** — 8 KB writes with wsize reduced to the
  application block size (no coalescing) vs the paper's 2 MB wsize.
* **readahead** — 8 KB sequential reads with prefetch disabled.
* **loopback conduit tax** — warm-cache reads with the conduit copy
  cost removed: the Figure 7b crossover disappears.
* **commit through the MDS** — OLTP with COMMIT routed through the
  metadata server instead of the data servers.
* **metadata sync** — Postmark with PVFS2's synchronous metadata
  journalling disabled.
"""

import os
from dataclasses import replace

from repro.bench.runner import run_cell
from repro.cluster.configs import ARCHITECTURES, make_deployment
from repro.workloads import IorWorkload, OltpWorkload, PostmarkWorkload

MB = 1024 * 1024
SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))

#: 2-tier with its synthetic stripe matched to PVFS2's 2 MB.
MATCHED_2TIER = replace(ARCHITECTURES["pnfs-2tier"], layout_stripe=2 * MB)


def test_ablation_accurate_layouts():
    """Blind layouts (2-tier, matched stripes) vs the layout translator.

    With the stripe unit matched, the ONLY difference from Direct-pNFS
    is whether the layout reflects where the bytes actually live.  The
    synthetic provider's per-file rotation could accidentally line up
    with PVFS2's own rotation, so it is offset by one here: every
    stripe lands one data server away from its data — the fully
    indirect case of Figure 3b.
    """
    w = IorWorkload(op="read", block_size=4 * MB, scale=SCALE)
    direct = run_cell("direct-pnfs", w, 8).aggregate_mbps
    w = IorWorkload(op="read", block_size=4 * MB, scale=SCALE)
    blind_dep = make_deployment(MATCHED_2TIER, n_clients=8)
    blind_dep.pnfs.mds.layout_provider._issued = 1  # break alignment
    blind = run_cell(blind_dep, w, 8).aggregate_mbps
    print(
        f"\naccurate layouts: direct {direct:.0f} MB/s vs "
        f"blind-but-matched {blind:.0f} MB/s "
        f"({direct / blind:.2f}x from direct access alone)"
    )
    assert direct > 1.2 * blind


def test_ablation_block_size_mismatch():
    """2-tier with matched vs mismatched stripe units (§3.4.1)."""
    w = IorWorkload(op="write", block_size=4 * MB, scale=SCALE)
    matched = run_cell(MATCHED_2TIER, w, 4).aggregate_mbps
    w = IorWorkload(op="write", block_size=4 * MB, scale=SCALE)
    mismatched = run_cell("pnfs-2tier", w, 4).aggregate_mbps
    print(
        f"\nblock-size mismatch: matched {matched:.0f} MB/s vs "
        f"mismatched {mismatched:.0f} MB/s"
    )
    assert matched >= 0.95 * mismatched


def test_ablation_write_back_cache():
    """8 KB writes with and without the write-back cache (Figure 6d).

    "Without" means synchronous small writes (wsize = the block size
    and durability per block, O_SYNC-style) — asynchronous batching
    would otherwise hide most of the per-RPC cost and understate what
    the cache buys.
    """
    cached = run_cell(
        "direct-pnfs", IorWorkload(op="write", block_size=8192, scale=SCALE), 4
    ).aggregate_mbps
    synchronous = run_cell(
        "direct-pnfs",
        IorWorkload(op="write", block_size=8192, fsync_every=1, scale=SCALE * 0.05),
        4,
        nfs_overrides={"wsize": 8192},
    ).aggregate_mbps
    print(
        f"\nwrite-back coalescing: cached {cached:.0f} MB/s vs "
        f"synchronous 8KB {synchronous:.0f} MB/s"
    )
    assert cached > 2 * synchronous


def test_ablation_readahead():
    """8 KB sequential reads with and without prefetch (Figure 7c's cause)."""
    on = run_cell(
        "direct-pnfs", IorWorkload(op="read", block_size=8192, scale=SCALE), 4
    ).aggregate_mbps
    off = run_cell(
        "direct-pnfs",
        IorWorkload(op="read", block_size=8192, scale=SCALE * 0.2),
        4,
        nfs_overrides={"readahead": 0, "rsize": 8192},
    ).aggregate_mbps
    print(f"\nreadahead: on {on:.0f} MB/s vs off {off:.0f} MB/s")
    assert on > 2 * off


def test_ablation_loopback_tax():
    """The conduit copy cost is what lets PVFS2 win Figure 7b's top end."""
    free = replace(
        ARCHITECTURES["direct-pnfs"], extra_read_per_byte=0.0, extra_write_per_byte=0.0
    )
    out = {}
    for label, arch in (("taxed", "direct-pnfs"), ("free", free)):
        w = IorWorkload(op="read", block_size=4 * MB, shared_file=True, scale=SCALE)
        out[label] = run_cell(arch, w, 8).aggregate_mbps
    print(
        f"\nloopback tax: default {out['taxed']:.0f} MB/s vs "
        f"zero-copy conduit {out['free']:.0f} MB/s"
    )
    assert out["free"] > out["taxed"]


def test_ablation_commit_through_mds():
    """OLTP with COMMIT recentralised at the MDS vs at the data servers."""
    out = {}
    for label, through_mds in (("ds", False), ("mds", True)):
        dep = make_deployment("direct-pnfs", n_clients=4)
        dep.pnfs.mds.layout_provider.commit_through_mds = through_mds
        out[label] = run_cell(dep, OltpWorkload(scale=SCALE * 0.1), 4).aggregate_mbps
    print(
        f"\ncommit path: data servers {out['ds']:.1f} MB/s vs "
        f"through MDS {out['mds']:.1f} MB/s"
    )
    assert out["ds"] >= 0.9 * out["mds"]


def test_ablation_metadata_sync():
    """Postmark with PVFS2's synchronous metadata journalling disabled."""
    out = {}
    for label, sync in (("sync", None), ("nosync", {"metadata_sync": False})):
        r = run_cell(
            "pvfs2",
            PostmarkWorkload(scale=SCALE),
            4,
            pvfs_overrides={"stripe_size": 64 * 1024, **(sync or {})},
        )
        out[label] = r.transactions_per_second
    print(f"\nmetadata sync: on {out['sync']:.1f} tps vs off {out['nosync']:.1f} tps")
    assert out["nosync"] > out["sync"]
