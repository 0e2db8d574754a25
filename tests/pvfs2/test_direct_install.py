"""The direct writer leaves what a wire write plus a drain leaves.

``Pvfs2Client.install`` lays a file's bytes into the storage daemons'
bstreams with no simulated time, and every front forwards to it (a
pNFS front also binds the data servers a write would have reached);
read workloads set up their data sets with it.  Each test builds the
same file twice — once written over the wire by an admin client,
fsynced and left to drain, once created over the wire and installed —
and compares the metadata entry, every daemon's bstream sizes and
persisted ranges, the dirty backlog, the NFS servers' bound
filehandles, and what a fresh client sees.
"""

import pytest

from repro.cluster.configs import ARCHITECTURES, make_deployment
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.vfs import NoEntry, Payload

from tests.conftest import build_cluster, drive

MB = 1024 * 1024

#: Uneven sizes: every server gets bytes, the last stripe is partial.
FILES = {"/d/a": 13 * MB + 12_345, "/d/b": 5 * MB + 777}


def settle(sim, daemons):
    """Run until every daemon's write-behind backlog is on the platter."""

    def wait():
        while any(d.dirty_backlog for d in daemons):
            yield sim.timeout(0.25)

    drive(sim, wait())


def footprint(pvfs, paths):
    """Everything the two set-ups must agree on, server side."""
    entries = []
    for path in paths:
        for k, mds in enumerate(pvfs.metadata_servers):
            try:
                entry = mds.namespace.resolve(path)
            except NoEntry:
                continue
            meta = mds.files[entry.handle]
            entries.append((path, k, list(meta.dfiles), dict(meta.dist_desc)))
    daemons = [
        (
            {h: fd.size for h, fd in d.bstreams.items()},
            {h: list(ivs) for h, ivs in d._persisted.items()},
            d.dirty_backlog,
        )
        for d in pvfs.daemons
    ]
    return entries, daemons


def client_view(sim, client, paths):
    """(getattr size, read-back length) per path, from a fresh client."""

    def look():
        yield from client.mount()
        out = []
        for path in paths:
            attrs = yield from client.getattr(path)
            f = yield from client.open(path, write=False)
            data = yield from client.read(f, 0, attrs.size + MB)
            yield from client.close(f)
            out.append((attrs.size, data.nbytes))
        return out

    return drive(sim, look())


def set_up(arch, direct):
    dep = make_deployment(arch, n_clients=2)
    sim = dep.testbed.sim
    admin = dep.make_client(dep.testbed.client_nodes[0])

    def prep():
        yield from admin.mount()
        yield from admin.mkdir("/d")
        for path, nbytes in FILES.items():
            f = yield from admin.create(path)
            if not direct:
                pos = 0
                while pos < nbytes:
                    n = min(8 * MB, nbytes - pos)
                    yield from admin.write(f, pos, Payload.synthetic(n))
                    pos += n
                yield from admin.fsync(f)
            yield from admin.close(f)
            if direct:
                admin.install(path, nbytes)

    drive(sim, prep())
    settle(sim, dep.pvfs.daemons)
    # Filehandles each NFS server has bound to its backend: pNFS data
    # servers bind lazily, at a file's first I/O through them.
    bound = [sorted(s._open_files) for s in dep.servers if hasattr(s, "_open_files")]
    fresh = dep.make_client(dep.testbed.client_nodes[1])
    return (*footprint(dep.pvfs, FILES), bound), client_view(sim, fresh, FILES), sim.now


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_install_equals_wire_write_then_drain(arch):
    wire, wire_view, wire_end = set_up(arch, direct=False)
    direct, direct_view, direct_end = set_up(arch, direct=True)
    assert direct == wire
    assert direct_view == wire_view == [(n, n) for n in FILES.values()]
    entries, daemons, bound = direct
    assert len(entries) == len(FILES)  # one MDS entry per file
    if arch.startswith(("pnfs", "direct-pnfs")):
        assert any(bound), "data servers bound"
    assert all(backlog == 0 for _sizes, _persisted, backlog in daemons)
    assert direct_end < wire_end  # no simulated time spent on the bytes


def test_rotated_start_server_is_covered():
    (entries, _daemons, _bound), _view, _end = set_up("pvfs2", direct=True)
    assert [dist["start_server"] for _p, _k, _dfiles, dist in entries] == [0, 1]


def test_install_through_varstrip():
    """A variable-strip file: uneven strips, one server skipped twice."""
    pattern = [(0, 16 * 1024), (2, 48 * 1024), (0, 8 * 1024), (1, 4 * 1024)]
    nbytes = 1 * MB + 4_321
    results = []
    for direct in (False, True):
        cluster = build_cluster()
        sim = cluster.sim
        fs = Pvfs2System(sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024))
        client = fs.make_client(cluster.clients[0])

        def prep(client=client, fs=fs, direct=direct):
            yield from client.mount()
            yield from client._mds_call(
                "create", {"path": "/vs", "dist": {"type": "varstrip", "nservers": 3, "pattern": pattern}}
            )
            if direct:
                client.install("/vs", nbytes)
                return
            f = yield from client.open("/vs")
            yield from client.write(f, 0, Payload.synthetic(nbytes))
            yield from client.fsync(f)

        drive(sim, prep())
        settle(sim, fs.daemons)
        fresh = fs.make_client(cluster.clients[1])
        results.append((footprint(fs, ["/vs"]), client_view(sim, fresh, ["/vs"])))
    assert results[1] == results[0]
    (entries, _daemons), view = results[1]
    assert entries[0][3]["type"] == "varstrip"
    assert view == [(nbytes, nbytes)]
