"""Direct-pNFS (HPDC 2007) — a full reproduction.

Top-level convenience imports for the most common entry points; the
subpackages hold the substance:

* :mod:`repro.core` — Direct-pNFS itself (layout translator,
  aggregation drivers, the pNFS system builder);
* :mod:`repro.nfs`, :mod:`repro.pnfs`, :mod:`repro.pvfs2` — the
  protocol substrates;
* :mod:`repro.sim` — the discrete-event cluster simulator;
* :mod:`repro.vfs` — the generic file-system interface and data types;
* :mod:`repro.workloads` — the paper's benchmarks;
* :mod:`repro.cluster` — the testbed, the table of architectures and
  ``make_deployment``, the one way to build any of them;
* :mod:`repro.bench` — experiment runner and figure harness.

Quick start::

    from repro import make_deployment, Payload

    deployment = make_deployment("direct-pnfs", n_clients=1)
    tb = deployment.testbed
    client = deployment.make_client(tb.client_nodes[0])

    def app():
        yield from client.mount()
        f = yield from client.create("/hello")
        yield from client.write(f, 0, Payload(b"world"))
        yield from client.close(f)

    tb.sim.run(until=tb.sim.process(app()))
"""

from repro.cluster.configs import ARCHITECTURES, make_deployment
from repro.cluster.testbed import Testbed
from repro.pvfs2.system import Pvfs2System
from repro.sim.engine import Simulator
from repro.vfs.api import FileSystemClient, Payload

__version__ = "1.0.0"

__all__ = [
    "ARCHITECTURES",
    "FileSystemClient",
    "Payload",
    "Pvfs2System",
    "Simulator",
    "Testbed",
    "make_deployment",
    "__version__",
]
