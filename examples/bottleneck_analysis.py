#!/usr/bin/env python3
"""Bottleneck and RPC analysis of one experiment cell.

Reproduces the paper's §6.2.1 discussion *with instruments attached*:
run an IOR cell on a chosen architecture, then print

* the metrics report: per-node utilisation (CPU / NIC / disk), the
  dominant resource and the bottleneck verdict, then the counters, and
* the RPC mix: per-procedure call counts, latencies, and bytes moved.

Run:  python examples/bottleneck_analysis.py [arch] [read|write] [scale]
      e.g. python examples/bottleneck_analysis.py direct-pnfs write 0.1
"""

import sys

from repro.bench.report import format_metrics
from repro.bench.runner import Cell
from repro.obs import RpcTrace, SpanCollector, measure_with_metrics
from repro.workloads import IorWorkload

MB = 1024 * 1024


def main() -> None:
    arch = sys.argv[1] if len(sys.argv) > 1 else "direct-pnfs"
    op = sys.argv[2] if len(sys.argv) > 2 else "write"
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 0.1

    workload = IorWorkload(op=op, block_size=4 * MB, scale=scale)
    cell = Cell(arch, workload, n_clients=8)
    cell.setup()
    with SpanCollector(cell.sim) as spans:
        result, section = measure_with_metrics(cell)

    print(f"{arch} / IOR {op} @ 8 clients (scale {scale})")
    print(f"aggregate: {result.aggregate_mbps:.1f} MB/s over {result.makespan:.2f} s\n")

    print(format_metrics(result, section))

    print("\nRPC mix over the measured window:")
    print(RpcTrace.from_spans(spans).summary())

    rows = section["utilisation"]
    dominant = {r["dominant"] for r in rows if r["node"].startswith("server")}
    print(
        f"\nDominant server resource(s): {sorted(dominant)} — the paper's "
        f"§6.2.1 expectation is 'disk' for large writes and 'cpu' for "
        f"warm-cache reads."
    )


if __name__ == "__main__":
    main()
