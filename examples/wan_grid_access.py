#!/usr/bin/env python3
"""GridNFS-style WAN access (the paper's motivating scenario, §1).

The GridNFS project wants scalable, transparent data access for Grid
computations — clients that may sit across a WAN from the storage
cluster.  Because Direct-pNFS speaks plain NFSv4.1, the same client
works at any latency; this example measures how aggregate throughput
degrades as the one-way latency grows from LAN (80 µs) to
cross-country WAN (30 ms), and how the NFSv4.1 client's deep
readahead/write-back pipelines hide much of it.

Run:  python examples/wan_grid_access.py  [scale]
"""

import sys

from repro.bench.runner import run_cell
from repro.cluster.configs import make_deployment
from repro.cluster.testbed import Testbed
from repro.workloads import IorWorkload

MB = 1024 * 1024


def measure(latency: float, op: str, scale: float) -> float:
    # The one thing a table name cannot say: a testbed with WAN latency.
    deployment = make_deployment("direct-pnfs", testbed=Testbed(n_clients=4, latency=latency))
    workload = IorWorkload(op=op, block_size=4 * MB, scale=scale)
    return run_cell(deployment, workload, 4).aggregate_mbps


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    scenarios = [
        ("LAN (80 us)", 80e-6),
        ("metro (1 ms)", 1e-3),
        ("regional (10 ms)", 10e-3),
        ("cross-country (30 ms)", 30e-3),
    ]
    print(f"Direct-pNFS over increasing latency (4 clients, scale={scale})")
    print(f"{'link':>22} {'write MB/s':>12} {'read MB/s':>12}")
    for name, latency in scenarios:
        w = measure(latency, "write", scale)
        r = measure(latency, "read", scale)
        print(f"{name:>22} {w:>12.1f} {r:>12.1f}")
    print(
        "\nThe write-back cache and readahead windows keep the pipes full"
        "\nuntil the bandwidth-delay product outgrows them — transparent"
        "\nWAN access from the same unmodified client."
    )


if __name__ == "__main__":
    main()
