#!/usr/bin/env python3
"""Pluggable aggregation drivers (paper §4.3).

Direct-pNFS supports parallel file systems whose placement is richer
than round-robin via optional, pluggable aggregation drivers.  This
example:

1. creates a file with a *variable-stripe* (varstrip) distribution —
   small strips on one server for metadata-ish regions, big strips on
   the others — and shows the layout translator forwarding the pattern
   to the client's varstrip aggregation driver;
2. adds a brand-new aggregation scheme as one row of the client's
   ``AGGREGATIONS`` table and maps a range with it, demonstrating the
   extension seam.

Run:  python examples/custom_aggregation.py
"""

from repro.cluster.configs import make_deployment
from repro.core.aggregation import AGGREGATIONS, aggregation_for
from repro.vfs import Payload
from repro.vfs.striping import StripPattern

KB = 1024


def main() -> None:
    deployment = make_deployment("direct-pnfs", n_clients=1)
    tb = deployment.testbed
    sim = tb.sim
    client = deployment.make_client(tb.client_nodes[0])
    mds_backend = deployment.pvfs.mds  # PVFS2 metadata server

    # -- 1. a varstrip-distributed file ---------------------------------
    pattern = [(0, 16 * KB), (1, 256 * KB), (2, 256 * KB)]

    def varstrip_demo():
        yield from client.mount()
        # Ask the PVFS2 MDS for a file with an explicit varstrip layout
        # (an application would do this via a PVFS2 hint at create time).
        from repro import rpc

        yield from rpc.call(
            tb.client_nodes[0],
            mds_backend.rpc,
            "create",
            {"path": "/varstrip.dat", "dist": {"type": "varstrip", "nservers": 6, "pattern": pattern}},
        )
        f = yield from client.open("/varstrip.dat")
        print("layout for the varstrip file:")
        print(f"  aggregation: {f.state['layout'].aggregation}")
        blob = bytes(range(256)) * (3 * KB)  # 768 KB: several full cycles
        yield from client.write(f, 0, Payload(blob))
        yield from client.fsync(f)
        back = yield from client.read(f, 0, len(blob))
        assert back.data == blob, "roundtrip through varstrip placement"
        yield from client.close(f)
        print("  768 KB written and verified through the varstrip driver")

    proc = sim.process(varstrip_demo())
    sim.run(until=proc)

    placed = [
        sum(fd.size for fd in daemon.bstreams.values())
        for daemon in deployment.pvfs.daemons
    ]
    print(f"  bytes per storage node: {placed}")
    print("  (server 0 carries only the small 16 KB strips)")

    # -- 2. a custom aggregation: one new row ---------------------------
    def even_odd(desc):
        """Toy scheme: even stripes on slots 0..2, odd stripes on 3..5.

        A row turns the layout's description into the client's
        ``map(offset, nbytes, for_write) -> [Run]``; this scheme is a
        strip pattern, so its map is the pattern's ``runs``.
        """
        runs = StripPattern([(slot, desc["stripe_unit"]) for slot in (0, 3, 1, 4, 2, 5)]).runs
        return lambda offset, nbytes, for_write=False: runs(offset, nbytes)

    AGGREGATIONS["even_odd"] = even_odd
    print("\nadded aggregation row 'even_odd'")
    runs = aggregation_for({"type": "even_odd", "stripe_unit": 64 * KB})(0, 6 * 64 * KB)
    placement = [run.server for run in runs]
    print(f"  placement of six stripes: {placement}")
    assert placement == [0, 3, 1, 4, 2, 5]
    print("  (a parallel FS using this scheme would add the matching")
    print("   row to repro.core.layout_translator.TRANSLATIONS)")

if __name__ == "__main__":
    main()
