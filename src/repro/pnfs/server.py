"""pNFS metadata server: NFSv4.1 control path plus layout operations.

Extends :class:`~repro.nfs.server.Nfs4Server` with the four layout
operations the prototype uses (§5) and the callback path:

* ``GETDEVLIST`` — device (data-server) access information, fetched
  once at mount time;
* ``LAYOUTGET`` — a file's layout, issued after open, valid for the
  file's lifetime;
* ``LAYOUTCOMMIT`` — post-I/O metadata update (file size, mtime);
* ``LAYOUTRETURN`` — voluntary return;
* ``CB_LAYOUTRECALL`` — server-initiated recall, sent over the
  client's backchannel when a conflicting operation (e.g. truncate)
  invalidates issued layouts.
"""

from __future__ import annotations

from typing import Optional

from repro import rpc
from repro.nfs.config import NfsConfig
from repro.nfs.server import Nfs4Server
from repro.pnfs.layout import FileLayout
from repro.pnfs.providers import LayoutProvider
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.vfs.api import FileSystemClient

__all__ = ["PnfsMetadataServer"]


class PnfsMetadataServer(Nfs4Server):
    """Metadata server for any file-layout pNFS deployment."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        backend: FileSystemClient,
        cfg: NfsConfig,
        data_servers: list[Nfs4Server],
        layout_provider: LayoutProvider,
        name: str = "",
    ):
        super().__init__(sim, node, backend, cfg, name=name or f"{node.name}.pnfs-mds")
        if not data_servers:
            raise ValueError("pNFS needs at least one data server")
        self.data_servers = data_servers
        self.layout_provider = layout_provider
        #: issued layouts: fh -> list of (layout, callback RpcServer|None)
        self._issued: dict[object, list[tuple[FileLayout, Optional[rpc.RpcServer]]]] = {}
        self.layouts_granted = 0
        self.layouts_recalled = 0
        for proc, handler in [
            ("getdevlist", self._h_getdevlist),
            ("layoutget", self._h_layoutget),
            ("layoutcommit", self._h_layoutcommit),
            ("layoutreturn", self._h_layoutreturn),
        ]:
            self.rpc.register(proc, handler)

    # -- layout operations ----------------------------------------------------
    def _h_getdevlist(self, args, payload):
        # Device access information: in the simulation the "address" is
        # the data server endpoint object itself.
        return {"devices": list(self.data_servers)}, None
        yield  # pragma: no cover

    def _h_layoutget(self, args, payload):
        fh = args["fh"]
        layout = yield from self.layout_provider.get_layout(fh, args.get("path", ""))
        layout.stateid = self.sim.next_id("layout-stateid")
        self._issued.setdefault(fh, []).append((layout, args.get("callback")))
        self.layouts_granted += 1
        return {"layout": layout}, None

    def _h_layoutcommit(self, args, payload):
        """Record post-I/O metadata: possible file-size extension (§5)."""
        yield from self.backend.size_hint(args["fh"], args.get("size"))
        return None, None

    def _h_layoutreturn(self, args, payload):
        fh, stateid = args["fh"], args.get("stateid")
        grants = self._issued.get(fh, [])
        self._issued[fh] = [
            (lo, cb) for (lo, cb) in grants if stateid is not None and lo.stateid != stateid
        ]
        return None, None
        yield  # pragma: no cover

    # -- recall ---------------------------------------------------------------
    def recall_layouts(self, fh):
        """Generator: CB_LAYOUTRECALL every issued layout for ``fh``."""
        grants = self._issued.pop(fh, [])
        recalls = []
        for layout, callback in grants:
            if callback is None:
                continue
            recalls.append(
                self._cb_call(
                    callback, "cb_layoutrecall", {"fh": fh, "stateid": layout.stateid}
                )
            )
            self.layouts_recalled += 1
        yield self.sim.spawn(*recalls)

    # -- conflicting metadata ops trigger recalls ------------------------------
    def _h_truncate(self, args, payload):
        # Truncate invalidates issued layouts.  Clients send path-based
        # truncates: resolve the path to its filehandle(s) through the
        # open-file table (layouts are only issued against handles this
        # server has opened) and recall every grant.  Recalls run
        # detached from this handler (see the base class's
        # truncate-recall note): the grants leave ``_issued`` the moment
        # the recall process starts, and a holder that cannot be reached
        # is simply revoked.
        for fh, f in list(self._open_files.items()):
            if f.path == args["path"] and fh in self._issued:
                self.sim.process(
                    self.recall_layouts(fh), name=f"{self.name}.layout-recall"
                )
        return (yield from super()._h_truncate(args, payload))
