"""Tests for the generic RPC layer."""

import pytest

from repro import rpc
from repro.vfs.api import FsError, NoEntry, Payload

from tests.conftest import build_cluster, drive


def make_server(cluster, threads=2, **cost_kw):
    costs = rpc.RpcCosts(**cost_kw)
    server = rpc.RpcServer(
        cluster.sim, cluster.storage[0], "svc", costs, threads=threads
    )
    return server


class TestBasics:
    def test_request_response_roundtrip(self, cluster):
        server = make_server(cluster)

        def echo(args, payload):
            return {"got": args["x"]}, payload
            yield  # pragma: no cover

        server.register("echo", echo)

        def scenario():
            result, reply = yield from rpc.call(
                cluster.clients[0], server, "echo", {"x": 5}, payload=Payload(b"abc")
            )
            return result, reply

        result, reply = drive(cluster.sim, scenario())
        assert result == {"got": 5}
        assert reply.data == b"abc"
        assert server.calls_served == 1

    def test_unknown_procedure_fails_fast(self, cluster):
        server = make_server(cluster)
        with pytest.raises(KeyError):
            # generator creation runs the handler lookup eagerly
            drive(cluster.sim, rpc.call(cluster.clients[0], server, "nope", {}))

    def test_duplicate_registration_rejected(self, cluster):
        server = make_server(cluster)
        server.register("p", lambda a, b: iter(()))
        with pytest.raises(ValueError):
            server.register("p", lambda a, b: iter(()))

    def test_fs_error_propagates_to_caller(self, cluster):
        server = make_server(cluster)

        def failing(args, payload):
            raise NoEntry("/missing")
            yield  # pragma: no cover

        server.register("fail", failing)

        def scenario():
            try:
                yield from rpc.call(cluster.clients[0], server, "fail", {})
            except NoEntry:
                return "caught"

        assert drive(cluster.sim, scenario()) == "caught"

    def test_error_reply_still_counts_and_frees_thread(self, cluster):
        server = make_server(cluster, threads=1)

        def failing(args, payload):
            raise FsError("nope")
            yield  # pragma: no cover

        def ok(args, payload):
            return "fine", None
            yield  # pragma: no cover

        server.register("fail", failing)
        server.register("ok", ok)

        def scenario():
            try:
                yield from rpc.call(cluster.clients[0], server, "fail", {})
            except FsError:
                pass
            result, _ = yield from rpc.call(cluster.clients[0], server, "ok", {})
            return result

        assert drive(cluster.sim, scenario()) == "fine"
        assert server.threads.in_use == 0


class TestTiming:
    def test_large_reply_paced_by_wire(self, cluster):
        """A 10 MB read reply takes at least the wire time."""
        server = make_server(cluster)

        def big(args, payload):
            return None, Payload.synthetic(10_000_000)
            yield  # pragma: no cover

        server.register("big", big)

        def scenario():
            t0 = cluster.sim.now
            yield from rpc.call(cluster.clients[0], server, "big", {})
            return cluster.sim.now - t0

        elapsed = drive(cluster.sim, scenario())
        assert elapsed >= 10_000_000 / 117e6

    def test_copy_costs_overlap_the_wire(self, cluster):
        """Per-byte CPU below wire pace must not add to transfer time."""
        cheap = make_server(
            cluster, server_per_byte_in=1e-9, server_per_byte_out=1e-9, client_per_byte=1e-9
        )

        def big(args, payload):
            return None, Payload.synthetic(10_000_000)
            yield  # pragma: no cover

        cheap.register("big", big)

        def scenario():
            t0 = cluster.sim.now
            yield from rpc.call(cluster.clients[0], cheap, "big", {})
            return cluster.sim.now - t0

        elapsed = drive(cluster.sim, scenario())
        wire = 10_000_000 / 117e6
        assert elapsed < wire * 1.4  # overlapped, not wire + copies

    def test_thread_pool_serialises_excess_calls(self, cluster):
        server = make_server(cluster, threads=1)

        def slow(args, payload):
            yield cluster.sim.timeout(1.0)
            return None, None

        server.register("slow", slow)
        ends = []

        def one():
            yield from rpc.call(cluster.clients[0], server, "slow", {})
            ends.append(cluster.sim.now)

        cluster.sim.process(one())
        cluster.sim.process(one())
        cluster.sim.run()
        assert ends[1] - ends[0] >= 1.0

    def test_asymmetric_per_byte_costs(self, cluster):
        """Server CPU per byte is per direction: a write and a read of
        the same size charge the server's cores differently."""
        n = 1_000_000
        server = make_server(cluster, server_per_byte_in=50e-9, server_per_byte_out=5e-9)

        def put(args, payload):
            return None, None
            yield  # pragma: no cover

        def get(args, payload):
            return None, Payload.synthetic(n)
            yield  # pragma: no cover

        server.register("put", put)
        server.register("get", get)
        cpu = server.node.cpu

        def server_busy(proc, payload=None):
            before = cpu.busy_time
            drive(cluster.sim, rpc.call(cluster.clients[0], server, proc, payload=payload))
            return cpu.busy_time - before

        write = server_busy("put", Payload.synthetic(n))
        read = server_busy("get")
        assert write - read == pytest.approx((50e-9 - 5e-9) * n / cpu.spec.speed)


class TestHandlerCrash:
    """Regression: a handler raising a non-FsError must not escape the
    reply path — the server converts it into a traced error reply, so
    ``calls_served`` and the tracer stay consistent."""

    def make_buggy_server(self, cluster):
        server = make_server(cluster)

        def boom(args, payload):
            raise ValueError("handler bug")
            yield  # pragma: no cover

        server.register("boom", boom)
        return server

    def test_converted_to_server_error_reply(self, cluster):
        server = self.make_buggy_server(cluster)

        def scenario():
            try:
                yield from rpc.call(cluster.clients[0], server, "boom", {})
            except rpc.RpcServerError as exc:
                return exc

        exc = drive(cluster.sim, scenario())
        assert isinstance(exc, rpc.RpcServerError)
        assert isinstance(exc, FsError)  # callers treat it like a status
        assert isinstance(exc.__cause__, ValueError)
        # The exchange completed: accounting did not drift.
        assert server.calls_served == 1
        assert server.errors == 1

    def test_crash_reply_is_traced(self, cluster):
        from repro.obs import RpcTrace, SpanCollector

        server = self.make_buggy_server(cluster)

        def scenario():
            try:
                yield from rpc.call(cluster.clients[0], server, "boom", {})
            except rpc.RpcServerError:
                pass

        with SpanCollector(cluster.sim) as spans:
            drive(cluster.sim, scenario())
        records = RpcTrace.from_spans(spans).records
        assert len(records) == 1
        assert records[0].error
