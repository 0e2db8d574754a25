"""Tests for the in-memory reference file system."""

import pytest

from repro.sim import Simulator
from repro.vfs import IsDirectory, NoEntry, Payload

from tests.conftest import drive
from tests.localfs import LocalClient, LocalFileSystem


@pytest.fixture
def fs():
    sim = Simulator()
    shared = LocalFileSystem()
    return sim, shared, LocalClient(sim, shared)


class TestLocalFs:
    def test_roundtrip(self, fs):
        sim, _shared, client = fs

        def scenario():
            yield from client.mount()
            f = yield from client.create("/a")
            yield from client.write(f, 0, Payload(b"xyz"))
            return (yield from client.read(f, 0, 10))

        assert drive(sim, scenario()).data == b"xyz"

    def test_two_clients_share_state(self, fs):
        sim, shared, c0 = fs
        c1 = LocalClient(sim, shared)

        def scenario():
            f = yield from c0.create("/s")
            yield from c0.write(f, 0, Payload(b"shared"))
            g = yield from c1.open("/s")
            return (yield from c1.read(g, 0, 6))

        assert drive(sim, scenario()).data == b"shared"

    def test_open_by_handle(self, fs):
        sim, _shared, client = fs

        def scenario():
            f = yield from client.create("/h")
            yield from client.write(f, 0, Payload(b"by-handle"))
            g = yield from client.open_by_handle(f.handle)
            return g.path, (yield from client.read(g, 0, 9))

        path, data = drive(sim, scenario())
        assert path == "/h"
        assert data.data == b"by-handle"

    def test_getattr_and_size_hint(self, fs):
        sim, shared, client = fs

        def scenario():
            f = yield from client.create("/g")
            yield from client.write(f, 0, Payload(b"12345"))
            a1 = yield from client.getattr("/g")
            yield from client.size_hint(f.handle, 100)
            a2 = yield from client.getattr("/g")
            return f, a1, a2

        f, a1, a2 = drive(sim, scenario())
        assert a1.size == 5
        # content remains authoritative for getattr…
        assert a2.size == 5
        # …but the hint recorded the (possibly larger) size metadata.
        assert shared.namespace.by_handle(f.handle).attrs.size == 100

    def test_dir_operations(self, fs):
        sim, _shared, client = fs

        def scenario():
            yield from client.mkdir("/d")
            yield from client.create("/d/f")
            names = yield from client.readdir("/d")
            yield from client.rename("/d/f", "/d/g")
            names2 = yield from client.readdir("/d")
            yield from client.remove("/d/g")
            names3 = yield from client.readdir("/d")
            return names, names2, names3

        assert drive(sim, scenario()) == (["f"], ["g"], [])

    def test_open_dir_rejected(self, fs):
        sim, _shared, client = fs

        def scenario():
            yield from client.mkdir("/d")
            try:
                yield from client.open("/d")
            except IsDirectory:
                return "isdir"

        assert drive(sim, scenario()) == "isdir"

    def test_truncate_and_setattr(self, fs):
        sim, _shared, client = fs

        def scenario():
            f = yield from client.create("/t")
            yield from client.write(f, 0, Payload(b"123456"))
            yield from client.truncate("/t", 2)
            attrs = yield from client.setattr("/t", mode=0o600)
            data = yield from client.read(f, 0, 10)
            return attrs, data

        attrs, data = drive(sim, scenario())
        assert attrs.mode == 0o600
        assert data.data == b"12"

    def test_op_delay_advances_clock(self):
        sim = Simulator()
        client = LocalClient(sim, LocalFileSystem(), op_delay=0.5)

        def scenario():
            yield from client.mount()
            yield from client.create("/x")
            return sim.now

        assert drive(sim, scenario()) == pytest.approx(1.0)

    def test_missing_path_raises(self, fs):
        sim, _shared, client = fs

        def scenario():
            try:
                yield from client.open("/ghost")
            except NoEntry:
                return "noent"

        assert drive(sim, scenario()) == "noent"
