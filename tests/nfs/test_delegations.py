"""NFSv4 read delegations: grant, local opens, recall, leases."""

import pytest

from repro.vfs import Payload

from tests.conftest import build_nfs, drive


@pytest.fixture
def nfs(cluster):
    return build_nfs(cluster, rsize=64 * 1024, wsize=64 * 1024)


def make_file(sim, client, path, payload=b"data!"):
    def scenario():
        f = yield from client.create(path)
        yield from client.write(f, 0, Payload(payload))
        yield from client.close(f)

    drive(sim, scenario())


class TestGrant:
    def test_read_only_open_gets_delegation(self, cluster, nfs):
        c0, _c1, server = nfs
        make_file(cluster.sim, c0, "/f")

        def scenario():
            f = yield from c0.open("/f", write=False)
            yield from c0.close(f)

        drive(cluster.sim, scenario())
        assert server.delegations_granted == 1
        assert "/f" in c0._delegations

    def test_write_open_gets_none(self, cluster, nfs):
        c0, _c1, server = nfs
        make_file(cluster.sim, c0, "/g")

        def scenario():
            f = yield from c0.open("/g", write=True)
            yield from c0.close(f)

        drive(cluster.sim, scenario())
        assert server.delegations_granted == 0

    def test_no_grant_while_writer_active(self, cluster, nfs):
        c0, c1, server = nfs
        make_file(cluster.sim, c0, "/h")

        def scenario():
            w = yield from c0.open("/h", write=True)  # writer holds it open
            r = yield from c1.open("/h", write=False)
            yield from c1.close(r)
            yield from c0.close(w)

        drive(cluster.sim, scenario())
        assert "/h" not in c1._delegations


class TestLocalOpens:
    def test_reopen_under_delegation_is_rpc_free(self, cluster, nfs):
        c0, _c1, server = nfs
        make_file(cluster.sim, c0, "/f")

        def scenario():
            f = yield from c0.open("/f", write=False)
            yield from c0.read(f, 0, 5)
            yield from c0.close(f)
            before = server.rpc.calls_served
            for _ in range(10):
                g = yield from c0.open("/f", write=False)
                data = yield from c0.read(g, 0, 5)
                assert data.data == b"data!"
                yield from c0.close(g)
            return server.rpc.calls_served - before

        assert drive(cluster.sim, scenario()) == 0

    def test_own_write_open_drops_delegation(self, cluster, nfs):
        c0, _c1, _server = nfs
        make_file(cluster.sim, c0, "/f")

        def scenario():
            f = yield from c0.open("/f", write=False)
            yield from c0.close(f)
            assert "/f" in c0._delegations
            g = yield from c0.open("/f", write=True)
            yield from c0.write(g, 0, Payload(b"NEW!!"))
            yield from c0.close(g)
            return "/f" in c0._delegations

        assert drive(cluster.sim, scenario()) is False


class TestRecall:
    def test_writer_recalls_other_clients_delegation(self, cluster, nfs):
        c0, c1, server = nfs
        make_file(cluster.sim, c0, "/f")

        def scenario():
            r = yield from c1.open("/f", write=False)
            yield from c1.close(r)
            assert "/f" in c1._delegations
            w = yield from c0.open("/f", write=True)
            yield from c0.write(w, 0, Payload(b"newer"))
            yield from c0.close(w)
            # delegation was recalled over the backchannel
            assert "/f" not in c1._delegations
            # and a fresh read sees the new data
            g = yield from c1.open("/f", write=False)
            return (yield from c1.read(g, 0, 5))

        assert drive(cluster.sim, scenario()).data == b"newer"
        assert server.delegations_recalled == 1

    def test_remove_drops_local_delegation(self, cluster, nfs):
        c0, _c1, _server = nfs
        make_file(cluster.sim, c0, "/gone")

        def scenario():
            f = yield from c0.open("/gone", write=False)
            yield from c0.close(f)
            yield from c0.remove("/gone")
            return "/gone" in c0._delegations

        assert drive(cluster.sim, scenario()) is False


class TestLeases:
    def test_expiry_discards_client_state(self, cluster, nfs):
        c0, _c1, server = nfs
        make_file(cluster.sim, c0, "/l")

        def scenario():
            f = yield from c0.open("/l", write=False)
            yield from c0.close(f)
            # Silence beyond the lease time…
            yield cluster.sim.timeout(server.cfg.lease_time + 1)
            assert server.lease_expired(c0._cb)
            dropped = server.expire_client(c0._cb)
            return dropped

        assert drive(cluster.sim, scenario()) == 1

    def test_renew_keeps_lease_alive(self, cluster, nfs):
        c0, _c1, server = nfs
        make_file(cluster.sim, c0, "/r")

        def scenario():
            f = yield from c0.open("/r", write=False)
            yield from c0.close(f)
            yield cluster.sim.timeout(server.cfg.lease_time / 2)
            from repro import rpc

            yield from rpc.call(
                c0.node, server.rpc, "renew", {"callback": c0._cb}
            )
            yield cluster.sim.timeout(server.cfg.lease_time / 2 + 1)
            return server.lease_expired(c0._cb)

        assert drive(cluster.sim, scenario()) is False
