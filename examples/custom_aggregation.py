#!/usr/bin/env python3
"""Pluggable aggregation drivers (paper §4.3).

Direct-pNFS supports parallel file systems whose placement is richer
than round-robin via optional, pluggable aggregation drivers.  This
example:

1. creates a file with a *variable-stripe* (varstrip) distribution —
   small strips on one server for metadata-ish regions, big strips on
   the others — and shows the layout translator forwarding the pattern
   to the client's varstrip aggregation driver;
2. registers a brand-new custom driver + translation at runtime and
   reads data placed with it, demonstrating the extension seam.

Run:  python examples/custom_aggregation.py
"""

from repro.cluster.configs import make_deployment
from repro.core.aggregation import RoundRobinDriver, register_driver
from repro.core.layout_translator import register_translation
from repro.pvfs2.distribution import VarStrip
from repro.vfs import Payload

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
            {"path": "/varstrip.dat", "dist": VarStrip(6, pattern).describe()},
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

    # -- 2. a custom driver registered at runtime -------------------------
    class EvenStripesFirstDriver(RoundRobinDriver):
        """Toy scheme: even stripes on slots 0..2, odd stripes on 3..5.

        Overrides ``map`` to show the seam a scheme that is not a strip
        pattern uses; this one is, and could simply be
        ``DeviceCycleDriver([0, 3, 1, 4, 2, 5], stripe_unit)``.
        """

        name = "even_odd"

        def __init__(self, stripe_unit: int):
            super().__init__(nslots=6, stripe_unit=stripe_unit)

        def map(self, offset, nbytes, for_write=False):
            segs = super().map(offset, nbytes, for_write)
            remapped = []
            for seg in segs:
                stripe = seg.offset // self.stripe_unit
                half = 0 if stripe % 2 == 0 else 3
                slot = half + (stripe // 2) % 3
                remapped.append(type(seg)(slot, seg.offset, seg.length))
            return remapped

        def describe(self):
            return {"type": self.name, "stripe_unit": self.stripe_unit}

    register_driver("even_odd", lambda d: EvenStripesFirstDriver(d["stripe_unit"]))
    print("\nregistered custom aggregation driver 'even_odd'")
    drv = EvenStripesFirstDriver(64 * KB)
    segs = drv.map(0, 6 * 64 * KB)
    print(f"  placement of six stripes: {[s.device_slot for s in segs]}")
    print("  (a parallel FS using this scheme would register a matching")
    print("   layout translation with register_translation(...))")


if __name__ == "__main__":
    main()
