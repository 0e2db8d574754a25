#!/usr/bin/env python3
"""Quickstart: build a Direct-pNFS deployment and do file I/O.

Builds the paper's testbed (six PVFS2 storage nodes, one doubling as
metadata manager), layers Direct-pNFS on top, mounts an unmodified
NFSv4.1 client, and performs ordinary file operations.  Along the way
it prints the pNFS file-based layout the layout translator produced —
the exact knowledge of data placement that lets the client reach
storage nodes directly.

Run:  python examples/quickstart.py
"""

from repro.cluster.configs import make_deployment
from repro.vfs import Payload


def main() -> None:
    deployment = make_deployment("direct-pnfs", n_clients=2)
    tb = deployment.testbed
    sim = tb.sim
    client = deployment.make_client(tb.client_nodes[0])

    def app():
        yield from client.mount()
        print(f"mounted {deployment.label}; devices: "
              f"{[ds.name for ds in client.devices]}")

        yield from client.mkdir("/demo")
        f = yield from client.create("/demo/hello.dat")

        layout = f.state["layout"]
        print("\nlayout from the layout translator:")
        print(f"  aggregation : {layout.aggregation}")
        print(f"  device slots: {layout.device_slots}")
        print(f"  policy      : {layout.policy}")

        message = b"Direct-pNFS: direct, parallel access via stock NFSv4.1\n"
        yield from client.write(f, 0, Payload(message * 100))
        yield from client.fsync(f)  # durable on the storage nodes' disks
        yield from client.close(f)

        g = yield from client.open("/demo/hello.dat")
        data = yield from client.read(g, 0, len(message))
        print(f"\nread back: {data.data!r}")
        attrs = yield from client.getattr("/demo/hello.dat")
        print(f"file size: {attrs.size} bytes "
              f"(striped over {len(deployment.pvfs.daemons)} storage nodes)")
        yield from client.close(g)

        names = yield from client.readdir("/demo")
        print(f"directory listing of /demo: {names}")

    proc = sim.process(app())
    sim.run(until=proc)
    print(f"\nsimulated time elapsed: {sim.now * 1e3:.2f} ms")
    per_node = [
        sum(fd.size for fd in daemon.bstreams.values())
        for daemon in deployment.pvfs.daemons
    ]
    print(f"bytes per storage node: {per_node}")


if __name__ == "__main__":
    main()
