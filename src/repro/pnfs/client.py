"""pNFS client: NFSv4.1 client + file layout driver + I/O driver.

Subclasses :class:`~repro.nfs.client.Nfs4Client`, keeping the whole
page-cache/readahead/write-back machinery, and reroutes the wire I/O
through layouts:

* ``mount`` adds GETDEVLIST;
* ``open``/``create`` add LAYOUTGET (layouts govern the whole file and
  are cached for the life of the open, §3.4/§5);
* READ/WRITE go directly to the data servers selected by the layout's
  aggregation driver;
* fsync/close COMMIT at every touched data server (or through the MDS
  when the layout says so) and then LAYOUTCOMMIT the new file size to
  the metadata server;
* a backchannel service answers CB_LAYOUTRECALL by dropping the cached
  layout (re-fetched lazily on the next I/O).

This class *is* the "unmodified NFSv4.1 client" of the paper: the same
code serves Direct-pNFS and the 2-/3-tier architectures — only the
layout contents differ.
"""

from __future__ import annotations

from repro.core.aggregation import aggregation_for
from repro.nfs.client import Nfs4Client, NfsOpen
from repro.nfs.config import NfsConfig
from repro.nfs.server import Nfs4Server
from repro.pnfs.server import PnfsMetadataServer
from repro.rpc import RpcTimeout
from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.vfs.api import Payload

__all__ = ["PnfsClient"]


class PnfsClient(Nfs4Client):
    """Stock NFSv4.1 client with the file-based layout driver."""

    label = "pnfs"

    def __init__(self, sim: Simulator, node: Node, mds: PnfsMetadataServer, cfg: NfsConfig):
        super().__init__(sim, node, mds, cfg)
        self.mds = mds
        self.devices: list[Nfs4Server] = []
        # Layout recalls share the base client's backchannel (one
        # session backchannel carries all callback programs).
        self._cb.register("cb_layoutrecall", self._h_cb_layoutrecall)
        #: Failover state (paper §5 "versatility"): data servers whose
        #: direct path timed out, mapped to the sim time at which the
        #: client will probe them again.  While a server is listed, its
        #: stripes are proxied through the MDS as plain NFSv4 I/O.
        #: Only meaningful when ``cfg.rpc_policy`` enables the fault
        #: layer — without timeouts a dead server hangs the call.
        self._ds_blacklist: dict[Nfs4Server, float] = {}
        #: Times a healthy data server was newly failed over from.
        self.failovers = 0
        #: Times a blacklisted data server was probed and found healthy.
        self.recoveries = 0
        #: Payload bytes that took the MDS-proxy path instead of the
        #: direct path (failover traffic, visible in benchmarks).
        self.proxied_bytes = 0

    # -- mount / layout management ------------------------------------------
    def mount(self):
        result = yield from super().mount()
        dres, _ = yield from self._call("getdevlist", {})
        self.devices = dres["devices"]
        return result

    def _post_open(self, f: NfsOpen):
        yield from self._layoutget(f)

    def _layoutget(self, f: NfsOpen):
        """Give ``f`` its file's layout: LAYOUTGET unless the inode still
        holds one (layouts outlive opens, so a reopen skips it)."""
        layout = f.inode.layout
        if layout is None:
            result, _ = yield from self._call(
                "layoutget",
                {"fh": f.handle, "path": f.path, "callback": self._cb},
            )
            layout = f.inode.layout = result["layout"]
        f.layout = layout
        f.agg = aggregation_for(layout.aggregation)
        if f.layoutcommitted_size is None:
            f.layoutcommitted_size = f.pc.size
        return layout

    def _ensure_layout(self, f: NfsOpen):
        if f.layout is None:
            yield from self._layoutget(f)

    def _h_cb_layoutrecall(self, args, payload):
        """Backchannel: drop the recalled layout; re-fetch lazily."""
        inode = self._inodes.get(args["fh"])
        if inode is not None:
            inode.layout = None
            for f in inode.opens:
                f.layout = f.agg = None
        return None, None
        yield  # pragma: no cover

    def layout_return(self, f: NfsOpen):
        """Voluntarily return the file's layout (LAYOUTRETURN)."""
        layout = f.layout
        if layout is None:
            return
        yield from self._call(
            "layoutreturn", {"fh": f.handle, "stateid": layout.stateid}
        )
        f.inode.layout = f.layout = f.agg = None

    def install(self, path: str, nbytes: int):
        """Install the bytes, then bind the data servers the file's
        layout sends ``[0, nbytes)`` to — as a wire write's first I/O at
        each would have.  ``path`` must have been opened here (layout)."""
        fh = super().install(path, nbytes)
        layout = self._inodes[fh].layout
        runs = aggregation_for(layout.aggregation)(0, nbytes)
        for slot in sorted({run.server for run in runs}):
            self._ds_for(layout, slot).bind(layout.fhs[slot])
        return fh

    # -- data path -------------------------------------------------------------
    def _ds_for(self, layout, slot: int) -> Nfs4Server:
        return self.devices[layout.device_slots[slot]]

    # -- failover (paper §5: fall back to NFSv4 I/O through the MDS) --------
    def _ds_down(self, ds: Nfs4Server) -> bool:
        """True while ``ds`` is blacklisted.  An expired entry returns
        False so the next I/O probes the direct path again."""
        until = self._ds_blacklist.get(ds)
        return until is not None and self.sim.now < until

    def _note_ds_ok(self, ds: Nfs4Server) -> None:
        """A direct call to a (formerly blacklisted) server succeeded:
        direct access is recovered."""
        if ds in self._ds_blacklist:
            del self._ds_blacklist[ds]
            self.recoveries += 1

    def _note_ds_failure(self, f: NfsOpen, ds: Nfs4Server):
        """A direct call to ``ds`` timed out: blacklist it and return
        the layout so the MDS knows we are falling back (LAYOUTRETURN,
        §5).  Subsequent I/O to its stripes is proxied until a probe
        after ``cfg.ds_retry_interval`` finds it healthy."""
        newly = not self._ds_down(ds)
        self._ds_blacklist[ds] = self.sim.now + self.cfg.ds_retry_interval
        if newly:
            self.failovers += 1
            try:
                yield from self.layout_return(f)
            except RpcTimeout:
                # The MDS is unreachable too; nothing left to fail over
                # to — the layout will be recalled when state recovers.
                pass

    def _direct(self, f: NfsOpen, layout, slot: int, proc: str, args: dict, payload=None):
        """``proc`` straight at the data server of stripe ``slot``: the
        reply, or None when the caller must go through the MDS — the
        server is blacklisted, or the call timed out and failed it over."""
        ds = self._ds_for(layout, slot)
        if self._ds_down(ds):
            return None
        try:
            reply = yield from self._call(proc, args, payload=payload, server=ds)
        except RpcTimeout:
            yield from self._note_ds_failure(f, ds)
            return None
        self._note_ds_ok(ds)
        return reply

    def _io_read(self, f: NfsOpen, offset: int, nbytes: int):
        yield from self._ensure_layout(f)
        layout = f.layout
        runs = f.agg(offset, nbytes)

        def run_read(run):
            args = {"fh": layout.fhs[run.server], "offset": run.logical, "nbytes": run.length}
            reply = yield from self._direct(f, layout, run.server, "read", args)
            if reply is not None:
                return reply[1]
            _res, data = yield from Nfs4Client._io_read(self, f, run.logical, run.length)
            self.proxied_bytes += data.nbytes
            return data

        datas = yield self.sim.spawn(*(run_read(run) for run in runs))
        out = Payload.assemble([(run.length, data) for run, data in zip(runs, datas)])
        return {"count": out.nbytes, "eof": out.nbytes < nbytes}, out

    def _io_write(self, f: NfsOpen, offset: int, payload: Payload):
        yield from self._ensure_layout(f)
        layout = f.layout
        runs = f.agg(offset, payload.nbytes)

        def run_write(run):
            sub = payload.slice(run.logical - offset, run.length)
            args = {"fh": layout.fhs[run.server], "offset": run.logical}
            if (yield from self._direct(f, layout, run.server, "write", args, sub)) is not None:
                f.commit_slots.add(run.server)
                return
            yield from Nfs4Client._io_write(self, f, run.logical, sub)
            self.proxied_bytes += sub.nbytes
            # Proxied data is only durable via a COMMIT at the MDS.
            f.mds_dirty = True

        yield self.sim.spawn(*(run_write(run) for run in runs))
        return {"count": payload.nbytes}, None

    def _io_commit(self, f: NfsOpen):
        yield from self._ensure_layout(f)
        layout = f.layout
        mds_dirty, f.mds_dirty = f.mds_dirty, False

        def seg_commit(slot):
            # Data written through a failed-over server reached the
            # shared backend; a COMMIT at the MDS makes it durable there.
            return (yield from self._direct(f, layout, slot, "commit", {"fh": layout.fhs[slot]})) is None

        need_mds = yield self.sim.spawn(
            *(seg_commit(slot) for slot in sorted(f.commit_slots))
        )
        if mds_dirty or any(need_mds):
            yield from Nfs4Client._io_commit(self, f)
        f.commit_slots.clear()
        # Inform the MDS of metadata changes — only when the file size
        # may actually have moved (Linux sends LAYOUTCOMMIT only for
        # size/mtime changes beyond the MDS's knowledge).
        pc = f.pc
        if pc.size > f.layoutcommitted_size:
            yield from self._call("layoutcommit", {"fh": f.handle, "size": pc.size})
            f.layoutcommitted_size = pc.size
