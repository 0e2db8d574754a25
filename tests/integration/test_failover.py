"""Fault-path integration tests: retry, exactly-once, MDS failover.

These exercise the recovery claims of the paper's "versatile" story
(§5): RPC timeouts with exponential backoff, NFSv4.1 session reply-cache
retransmission (exactly-once WRITE), and the Direct-pNFS client falling
back to proxied I/O through the MDS when a data server dies — then
recovering direct access when it returns.
"""

import pytest

from repro import rpc
from repro.core import DirectPnfsSystem
from repro.nfs import NfsConfig
from repro.nfs.sessions import Session
from repro.obs import RpcTrace, SpanCollector
from repro.pvfs2 import Pvfs2Config, Pvfs2System
from repro.sim import FaultInjector, SimulationError
from repro.vfs import Payload

from tests.conftest import build_cluster, drive


def make_echo_server(cluster, handler_delay=0.0):
    server = rpc.RpcServer(
        cluster.sim, cluster.storage[0], "svc", rpc.RpcCosts(), threads=4
    )

    calls = []

    def echo(args, payload):
        calls.append(cluster.sim.now)
        if handler_delay:
            yield cluster.sim.timeout(handler_delay)
        return {"ok": True}, payload

    server.register("echo", echo)
    return server, calls


class TestRetry:
    def test_retry_until_success(self, cluster):
        """Attempts at t=0 and t=0.4 are swallowed by the dead server;
        the t=1.2 attempt (after the 1.0s restore) succeeds."""
        server, calls = make_echo_server(cluster)
        inj = FaultInjector(cluster.sim)
        inj.fail_server(server)
        inj.at(1.0, lambda: inj.restore_server(server))
        policy = rpc.RpcPolicy(timeout=0.4, max_retries=5, backoff=2.0)

        def scenario():
            result, _ = yield from rpc.call(
                cluster.clients[0], server, "echo", {"x": 1}, policy=policy
            )
            return result, cluster.sim.now

        with SpanCollector(cluster.sim) as spans:
            result, done_at = drive(cluster.sim, scenario())
        tracer = RpcTrace.from_spans(spans)
        assert result == {"ok": True}
        assert 1.2 < done_at < 1.3
        assert len(calls) == 1  # only the surviving attempt executed
        assert tracer.records[-1].retries == 2
        assert not tracer.records[-1].timeout
        assert server.calls_served == 1

    def test_retry_budget_exhaustion_raises_rpctimeout(self, cluster):
        server, calls = make_echo_server(cluster)
        server.fail()
        policy = rpc.RpcPolicy(timeout=0.2, max_retries=2, backoff=2.0)

        def scenario():
            try:
                yield from rpc.call(
                    cluster.clients[0], server, "echo", {}, policy=policy
                )
            except rpc.RpcTimeout as exc:
                return exc, cluster.sim.now

        with SpanCollector(cluster.sim) as spans:
            exc, gave_up_at = drive(cluster.sim, scenario())
        tracer = RpcTrace.from_spans(spans)
        assert isinstance(exc, rpc.RpcTimeout)
        assert not isinstance(exc, rpc.FsError)  # a timeout is not a reply
        assert exc.attempts == 3
        assert exc.server == "svc" and exc.proc == "echo"
        # 0.2 + 0.4 + 0.8 of backoff before giving up.
        assert gave_up_at == pytest.approx(1.4, abs=0.05)
        assert calls == []
        record = tracer.records[-1]
        assert record.timeout and record.error and record.retries == 2
        assert tracer.server_counters()["svc"]["timeouts"] == 1

    def test_timeouts_release_server_threads(self, cluster):
        """Interrupted attempts must not leak worker threads: after a
        timeout storm the pool is fully free again."""
        server, _calls = make_echo_server(cluster, handler_delay=5.0)
        policy = rpc.RpcPolicy(timeout=0.1, max_retries=1, backoff=1.0)

        def one():
            try:
                yield from rpc.call(
                    cluster.clients[0], server, "echo", {}, policy=policy
                )
            except rpc.RpcTimeout:
                pass

        procs = [cluster.sim.process(one()) for _ in range(6)]
        cluster.sim.run(until=cluster.sim.all_of(procs))
        assert server.threads.in_use == 0
        assert server.threads.queue_len == 0


class TestExactlyOnce:
    def test_write_executes_once_under_retransmission(self, cluster):
        """The server executes the WRITE, dies before the reply leaves,
        and comes back: the retransmission must be answered from the
        session reply cache, not re-executed."""
        sim = cluster.sim
        server, calls = make_echo_server(cluster, handler_delay=0.1)
        session = Session(sim, slots=8)
        inj = FaultInjector(sim)
        inj.at(0.05, lambda: inj.fail_server(server))  # mid-handler
        inj.at(0.30, lambda: inj.restore_server(server))
        policy = rpc.RpcPolicy(timeout=0.5, max_retries=3, backoff=2.0)

        def scenario():
            seq = session.next_seq()
            result, _ = yield from rpc.call(
                cluster.clients[0],
                server,
                "echo",
                {"op": "write"},
                payload=Payload(b"D" * 1000),
                policy=policy,
                session=session,
                seq=seq,
            )
            return result, seq

        result, seq = drive(sim, scenario())
        assert result == {"ok": True}
        assert len(calls) == 1  # executed exactly once
        assert server.calls_replayed == 1  # retransmission hit the cache
        assert session.replays == 1
        # The client got its reply, so the cache entry was retired.
        assert session.cached_reply(seq) is None


def _build_direct(cluster, **nfs_overrides):
    pvfs = Pvfs2System(
        cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024)
    )
    cfg = NfsConfig(rsize=64 * 1024, wsize=64 * 1024, **nfs_overrides)
    return DirectPnfsSystem(cluster.sim, pvfs, cfg)


BLOB = bytes(range(256)) * 1024  # 256 KB -> 4 stripes over 3 servers


class TestMdsFailover:
    def test_fallback_then_recovery(self):
        cluster = build_cluster(n_storage=3, n_clients=2)
        sim = cluster.sim
        system = _build_direct(
            cluster, rpc_policy=rpc.RpcPolicy(timeout=0.25, max_retries=1), ds_retry_interval=1.0
        )
        writer = system.make_client(cluster.clients[0])
        reader = system.make_client(cluster.clients[1])

        def setup():
            yield from writer.mount()
            yield from reader.mount()
            f = yield from writer.create("/data")
            yield from writer.write(f, 0, Payload(BLOB))
            yield from writer.close(f)

        drive(sim, setup())

        # Kill the NFS data-server service on s1; the parallel-FS
        # daemon below it keeps running, so the MDS can still reach
        # every byte (the paper's fallback scenario).
        system.kill_data_server("s1")
        victim = system.data_server_for("s1")

        def failover_read():
            g = yield from reader.open("/data", write=False)
            data = yield from reader.read(g, 0, len(BLOB))
            yield from reader.close(g)
            return data

        data = drive(sim, failover_read())
        assert data.data == BLOB  # bytes intact through the proxy path
        assert reader.failovers >= 1
        assert reader.proxied_bytes > 0
        assert reader._ds_blacklist  # victim blacklisted

        # Restart the service and let the blacklist lapse: the next
        # direct probe succeeds and direct access resumes.
        system.restart_data_server("s1")
        served_before = victim.rpc.calls_served

        def recovery_write():
            yield sim.timeout(1.5)  # past ds_retry_interval
            f2 = yield from reader.create("/data2")
            yield from reader.write(f2, 0, Payload(BLOB))
            yield from reader.close(f2)

        drive(sim, recovery_write())
        assert reader.recoveries >= 1
        assert not reader._ds_blacklist
        assert victim.rpc.calls_served > served_before  # direct again

        def verify():
            g = yield from writer.open("/data2", write=False)
            data = yield from writer.read(g, 0, len(BLOB))
            yield from writer.close(g)
            return data

        assert drive(sim, verify()).data == BLOB

    def test_proxied_write_is_durable_via_mds_commit(self):
        cluster = build_cluster(n_storage=3, n_clients=2)
        sim = cluster.sim
        system = _build_direct(
            cluster, rpc_policy=rpc.RpcPolicy(timeout=0.25, max_retries=1), ds_retry_interval=5.0
        )
        writer = system.make_client(cluster.clients[0])
        reader = system.make_client(cluster.clients[1])

        def setup():
            yield from writer.mount()
            yield from reader.mount()

        drive(sim, setup())
        system.kill_data_server("s2")

        def faulty_write():
            f = yield from writer.create("/w")
            yield from writer.write(f, 0, Payload(BLOB))
            yield from writer.close(f)  # fsync: commits via MDS for proxied data

        drive(sim, faulty_write())
        assert writer.failovers >= 1 and writer.proxied_bytes > 0

        def readback():
            g = yield from reader.open("/w", write=False)
            data = yield from reader.read(g, 0, len(BLOB))
            yield from reader.close(g)
            return data

        # s2 is still dead: the reader fails over too, and every byte —
        # including stripes written through the MDS proxy — reads back.
        assert drive(sim, readback()).data == BLOB

    def test_without_fault_layer_the_same_scenario_hangs(self):
        """The control experiment: with timeouts disabled (the
        pre-fault-layer default) a dead data server wedges the read
        forever — the simulation runs out of events with the reader
        still blocked."""
        cluster = build_cluster(n_storage=3, n_clients=2)
        sim = cluster.sim
        system = _build_direct(cluster)  # rpc_policy=None: no fault layer
        writer = system.make_client(cluster.clients[0])
        reader = system.make_client(cluster.clients[1])

        def setup():
            yield from writer.mount()
            yield from reader.mount()
            f = yield from writer.create("/data")
            yield from writer.write(f, 0, Payload(BLOB))
            yield from writer.close(f)

        drive(sim, setup())
        system.kill_data_server("s1")

        def stuck_read():
            g = yield from reader.open("/data", write=False)
            return (yield from reader.read(g, 0, len(BLOB)))

        with pytest.raises(SimulationError, match="ran out of events"):
            drive(sim, stuck_read())
        assert reader.failovers == 0  # nothing ever failed over
