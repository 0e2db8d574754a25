"""The layout translator (paper §4.2) — heart of Direct-pNFS.

Converts the exported parallel file system's own data distribution into
a pNFS file-based layout so that clients learn the *exact* location of
every byte.  Per the paper, the translator is independent of the
underlying parallel FS: it never interprets FS-specific layout blobs.
The parallel FS hands over only (aggregation type, parameters) — here,
the ``{"type": ...}`` description a PVFS2 file carries — and the
translator (with the pNFS server supplying filehandles) assembles the
layout.  :data:`TRANSLATIONS` has one row per aggregation type, so a
new parallel FS needs only a row mapping its placement onto an
aggregation description (:data:`repro.core.aggregation.AGGREGATIONS`).
"""

from __future__ import annotations

from typing import Callable

from repro.pnfs.layout import FileLayout
from repro.pnfs.providers import LayoutProvider
from repro.vfs.api import FileSystemClient

__all__ = ["TRANSLATIONS", "LayoutTranslator", "translate_aggregation"]

#: distribution type -> fn(distribution description) -> aggregation description.
#: PVFS2's stock distributions: simple_stripe is exactly NFSv4.1
#: round-robin; varstrip needs the optional aggregation driver.
TRANSLATIONS: dict[str, Callable[[dict], dict]] = {
    "simple_stripe": lambda d: {
        "type": "round_robin",
        "nslots": d["nservers"],
        "stripe_unit": d["stripe_size"],
        "first_slot": d.get("start_server", 0),
    },
    "varstrip": lambda d: {"type": "varstrip", "pattern": [tuple(p) for p in d["pattern"]]},
}


def translate_aggregation(dist_desc: dict) -> dict:
    """Map a distribution description to an aggregation description."""
    try:
        row = TRANSLATIONS[dist_desc.get("type")]
    except KeyError:
        raise ValueError(
            f"no layout translation for aggregation type {dist_desc.get('type')!r}"
        ) from None
    return row(dist_desc)


class LayoutTranslator(LayoutProvider):
    """Layout provider for Direct-pNFS metadata servers.

    ``meta_backend`` is the parallel-FS client colocated with the MDS
    (its metadata lookups are loopback — §4.1's elimination of remote
    parallel FS metadata requests).  Device slot ``i`` is the data
    server colocated with parallel-FS storage server ``i``: data
    servers are built in daemon order.
    """

    def __init__(self, meta_backend: FileSystemClient):
        self.meta_backend = meta_backend

    def get_layout(self, fh, path: str):
        # One loopback metadata lookup: aggregation type + parameters.
        f = yield from self.meta_backend.open_by_handle(fh)
        dist_desc = f.dist
        aggregation = translate_aggregation(dist_desc)
        # Every distribution describes how many servers it spans; the
        # devices a pattern happens to name may be fewer.
        nservers = dist_desc["nservers"]
        # The pNFS server specifies the filehandles (§4.2): the backend
        # object handle is valid at every data server.
        return FileLayout(
            device_slots=list(range(nservers)),
            fhs=[fh] * nservers,
            aggregation=aggregation,
        )
