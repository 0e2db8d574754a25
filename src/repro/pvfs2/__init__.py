"""PVFS2-like user-level parallel file system (the exported substrate).

The paper's prototype exports PVFS2 1.5.1; this package reimplements the
pieces its evaluation depends on:

* striping distributions (:mod:`repro.pvfs2.distribution`) — one table
  row each for round-robin ``simple_stripe`` and ``varstrip`` patterns,
* storage daemons (:mod:`repro.pvfs2.storage`) with in-memory bstreams,
  a bounded dirty buffer drained by a write-behind flusher, and a fixed
  kernel↔user transfer-buffer pool,
* a metadata server (:mod:`repro.pvfs2.metadata`) that creates datafiles
  on every storage server and computes file sizes by querying them,
* a cacheless client (:mod:`repro.pvfs2.client`) with substantial
  per-request overhead and limited request parallelisation — the traits
  behind every PVFS2 curve in the paper's figures,
* a deployment helper (:mod:`repro.pvfs2.system`).
"""

from repro.pvfs2.config import Pvfs2Config
from repro.pvfs2.distribution import DISTRIBUTIONS, Extent, extents
from repro.pvfs2.metadata import FileMeta, MetadataServer
from repro.pvfs2.storage import StorageDaemon
from repro.pvfs2.client import Pvfs2Client
from repro.pvfs2.system import Pvfs2System

__all__ = [
    "DISTRIBUTIONS",
    "Extent",
    "FileMeta",
    "MetadataServer",
    "Pvfs2Client",
    "Pvfs2Config",
    "Pvfs2System",
    "StorageDaemon",
    "extents",
]
