"""Access-control tests: credentials and mode bits."""

import pytest

from repro.vfs import AccessDenied, FileAttributes, Payload
from repro.vfs.security import EXECUTE, READ, WRITE, Credential, check_access


def attrs(mode=0o644, owner="alice"):
    return FileAttributes(mode=mode, owner=owner)


class TestModeBits:
    def test_owner_class_applies_to_owner(self):
        check_access(attrs(0o600), Credential("alice"), READ | WRITE)

    def test_other_class_applies_to_strangers(self):
        check_access(attrs(0o604), Credential("bob"), READ)
        with pytest.raises(AccessDenied):
            check_access(attrs(0o604), Credential("bob"), WRITE)

    def test_owner_restricted_by_owner_class(self):
        with pytest.raises(AccessDenied):
            check_access(attrs(0o400), Credential("alice"), WRITE)

    def test_root_bypasses_everything(self):
        check_access(attrs(0o000), Credential("root"), READ | WRITE | EXECUTE)

    def test_invalid_want_rejected(self):
        with pytest.raises(ValueError):
            check_access(attrs(), Credential("alice"), 0)
        with pytest.raises(ValueError):
            check_access(attrs(), Credential("alice"), 8)


class TestNfsIntegration:
    def test_open_denied_for_unauthorised_user(self, cluster):
        from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
        from tests.localfs import LocalClient, LocalFileSystem
        from tests.conftest import drive

        cfg = NfsConfig()
        backing = LocalFileSystem()
        server = Nfs4Server(
            cluster.sim, cluster.storage[0], LocalClient(cluster.sim, backing), cfg
        )
        owner = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
        stranger = Nfs4Client(
            cluster.sim,
            cluster.clients[1],
            server,
            cfg,
            cred=Credential("mallory"),
        )

        def scenario():
            yield from owner.mount()
            yield from stranger.mount()
            f = yield from owner.create("/secret")
            yield from owner.write(f, 0, Payload(b"classified"))
            yield from owner.close(f)
            yield from owner.setattr("/secret", mode=0o600)
            try:
                yield from stranger.open("/secret")
            except AccessDenied:
                return "denied"

        assert drive(cluster.sim, scenario()) == "denied"

    def test_read_only_open_needs_read_permission_only(self, cluster):
        """A stranger may open a world-readable 0o644 file for reading
        (the server used to demand write permission of every OPEN) and
        is still refused a writable open."""
        from repro.nfs import Nfs4Client, Nfs4Server, NfsConfig
        from tests.localfs import LocalClient, LocalFileSystem
        from tests.conftest import drive

        cfg = NfsConfig()
        server = Nfs4Server(
            cluster.sim,
            cluster.storage[0],
            LocalClient(cluster.sim, LocalFileSystem()),
            cfg,
        )
        owner = Nfs4Client(cluster.sim, cluster.clients[0], server, cfg)
        stranger = Nfs4Client(
            cluster.sim, cluster.clients[1], server, cfg, cred=Credential("mallory")
        )

        def scenario():
            yield from owner.mount()
            yield from stranger.mount()
            f = yield from owner.create("/pub")
            yield from owner.write(f, 0, Payload(b"notice"))
            yield from owner.close(f)
            yield from owner.setattr("/pub", mode=0o644)
            g = yield from stranger.open("/pub", write=False)
            data = yield from stranger.read(g, 0, 6)
            with pytest.raises(AccessDenied):
                yield from stranger.open("/pub", write=True)
            return data.data

        assert drive(cluster.sim, scenario()) == b"notice"
