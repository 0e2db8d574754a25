"""The seven workloads, each a fixed list of units.

Every workload is a closed loop: the simulated clients inside a cell
each issue their next call only when the previous one returned, and the
host runs one unit at a time on one core.  Scales were sized on a
2-core box so that one repetition (set-up + measured phase of every
unit) costs about 2.5 s, and a unit at most about 1 s — short enough
for its two bracketing calibrations to see the same machine speed.

``--seed`` reaches every unit twice: as ``Workload(seed=)`` and as the
simulator seed of the deployment (randomised pipe arbitration), and as
the first torture seed.  The default, 20070625, is the simulator's own
default, so a default run is the run ``run_cell`` would have made.
"""

from __future__ import annotations

from perf.phases import KB, MB, TORTURE_ARCHES, CellUnit, TortureUnit

__all__ = ["DEFAULT_SEED", "WHY", "WORKLOADS"]

DEFAULT_SEED = 20070625


def _ior(kind, block, scale, cells, fig):
    return [
        CellUnit(
            unit_id=f"{arch}-{n}c",
            arch=arch,
            n_clients=n,
            kind=kind,
            scale=scale,
            block=block,
            paper_fig=fig,
        )
        for arch, n in cells
    ]


_BULK = [
    ("direct-pnfs", 8), ("pvfs2", 8), ("pnfs-2tier", 4), ("pnfs-3tier", 4), ("nfsv4", 4),
]
_SMALL = [("direct-pnfs", 4), ("pnfs-2tier", 4), ("nfsv4", 4)]


def _stripe_units(scale):
    units = []
    for kind, fig in (("ior-write", "fig6d"), ("ior-read", "fig7c")):
        op = kind.removeprefix("ior-")
        units.append(
            CellUnit(
                unit_id=f"stripe4k-{op}-2c", arch="pvfs2", n_clients=2, kind=kind,
                scale=scale, block=2 * MB, pvfs_stripe=4 * KB,
            )
        )
        units.append(
            CellUnit(
                unit_id=f"block8k-{op}-4c", arch="pvfs2", n_clients=4, kind=kind,
                scale=scale, block=8 * KB, paper_fig=fig,
            )
        )
    return units


def _torture_units(n_units=6):
    """Every other program shape by file bytes (18 of 36), small to
    large, dealt round-robin: each unit gets a small, a medium and a
    large one."""
    shapes = sorted(
        (
            (chunk, nc, slots, mult)
            for chunk in (8, 16, 32)
            for nc in (2, 3)
            for slots in (2, 3)
            for mult in (1, 2, 3)
        ),
        key=lambda s: (s[0] * s[1] * (s[2] + 2 * s[3]), s),
    )[::2]
    slots = [(shape, TORTURE_ARCHES[i % len(TORTURE_ARCHES)]) for i, shape in enumerate(shapes)]
    return [
        TortureUnit(unit_id=f"programs-{j}", index=j, slots=tuple(slots[j::n_units]))
        for j in range(n_units)
    ]


WORKLOADS: dict[str, list] = {
    "bulk_write": _ior("ior-write", 2 * MB, 0.2, _BULK, "fig6a"),
    "bulk_read": _ior("ior-read", 2 * MB, 0.15, _BULK, "fig7a"),
    "small_write": _ior("ior-write", 8 * KB, 0.2, _SMALL, "fig6d"),
    "small_read": _ior("ior-read", 8 * KB, 0.12, _SMALL, "fig7c"),
    "pvfs2_small_stripe": _stripe_units(0.02),
    "meta_storm": [
        CellUnit(unit_id=f"{arch}-4c", arch=arch, n_clients=4, kind="mdtest", scale=1.0)
        for arch in ("direct-pnfs", "nfsv4", "pvfs2", "direct-pnfs-sharded")
    ],
    "torture_batch": _torture_units(),
}

WHY = {
    "bulk_write": "2 MB IOR writes on all five architectures: disk-bound in sim time, "
    "host time in the event kernel, resources and chunked network flows",
    "bulk_read": "the same five cells reading from a warm server cache: NIC/CPU-bound, "
    "twice the events of writes; moves against bulk_write when reads pay for writes",
    "small_write": "8 KB IOR writes through NFS clients: the page cache coalesces thousands "
    "of calls into ~100 RPCs, so the NFS client cache is the work",
    "small_read": "8 KB IOR reads through NFS clients: readahead and cache-hit path; "
    "the read beside small_write",
    "pvfs2_small_stripe": "cacheless native PVFS2 at 4 KB stripes and 8 KB blocks: one request "
    "per stripe unit, RPC and daemon handlers dominate; where list-I/O would show",
    "meta_storm": "mdtest create/stat/readdir/remove, no data bytes: per-RPC cost and "
    "namespace code only; bulk workloads must not move with it",
    "torture_batch": "seeded fault-injected programs checked on five architectures: the "
    "checker and real-byte payload paths; every episode must be clean",
}
