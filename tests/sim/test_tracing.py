"""RPC trace tests: ``RpcTrace`` as a reducer over ``rpc`` spans."""

import pytest

from repro import rpc
from repro.obs import RpcRecord, RpcTrace, SpanCollector, spans as obs_spans
from repro.sim.stats import nearest_rank
from repro.vfs.api import NoEntry, Payload

from tests.conftest import build_cluster, drive


def make_record(latency: float, **kw) -> RpcRecord:
    fields = dict(
        start=0.0,
        end=latency,
        client="c0",
        server="svc",
        proc="echo",
        req_bytes=0,
        reply_bytes=0,
        error=False,
    )
    fields.update(kw)
    return RpcRecord(**fields)


def make_server(cluster):
    server = rpc.RpcServer(
        cluster.sim, cluster.storage[0], "svc", rpc.RpcCosts(), threads=4
    )

    def echo(args, payload):
        return args, payload
        yield  # pragma: no cover

    def fail(args, payload):
        raise NoEntry("x")
        yield  # pragma: no cover

    server.register("echo", echo)
    server.register("fail", fail)
    return server


class TestTracer:
    def test_records_calls(self, cluster):
        server = make_server(cluster)

        def scenario():
            yield from rpc.call(
                cluster.clients[0], server, "echo", {"a": 1}, payload=Payload(b"xy")
            )
            yield from rpc.call(cluster.clients[0], server, "echo", {"a": 2})

        with SpanCollector(cluster.sim) as spans:
            drive(cluster.sim, scenario())
        tracer = RpcTrace.from_spans(spans)
        assert len(tracer.records) == 2
        first = tracer.records[0]
        assert first.proc == "echo"
        assert first.client == "c0"
        assert first.server == "svc"
        assert first.req_bytes == 2
        assert first.reply_bytes == 2
        assert first.latency > 0
        assert not first.error

    def test_errors_flagged_and_raised(self, cluster):
        server = make_server(cluster)

        def scenario():
            try:
                yield from rpc.call(cluster.clients[0], server, "fail", {})
            except NoEntry:
                return "raised"

        with SpanCollector(cluster.sim) as spans:
            assert drive(cluster.sim, scenario()) == "raised"
        assert RpcTrace.from_spans(spans).records[0].error

    def test_not_installed_means_no_overhead(self, cluster):
        server = make_server(cluster)

        def scenario():
            yield from rpc.call(cluster.clients[0], server, "echo", {})

        drive(cluster.sim, scenario())
        assert obs_spans.ACTIVE is None

    def test_nested_installation_rejected(self, cluster):
        with SpanCollector(cluster.sim):
            with pytest.raises(RuntimeError):
                SpanCollector(cluster.sim).__enter__()

    def test_aggregations_and_summary(self, cluster):
        server = make_server(cluster)

        def scenario():
            for i in range(5):
                yield from rpc.call(
                    cluster.clients[0], server, "echo", {}, payload=Payload(b"z" * 100)
                )

        with SpanCollector(cluster.sim) as spans:
            drive(cluster.sim, scenario())
        tracer = RpcTrace.from_spans(spans)
        assert set(tracer.by_proc()) == {"echo"}
        assert {r.server for r in tracer.records} == {"svc"}
        assert sum(r.req_bytes + r.reply_bytes for r in tracer.records) == 5 * 200
        text = tracer.summary()
        assert "echo" in text and "5" in text

    def test_p95_uses_nearest_rank(self):
        """Regression: p95 must be the nearest-rank quantile, not the
        clamped index ``int(0.95 * n)`` (which returns the max for any
        n <= 20)."""
        # n = 1: the only sample is every quantile.
        assert nearest_rank([7.0], 0.95) == 7.0
        # n = 20: ceil(0.95 * 20) = 19 -> the 19th value, NOT the max.
        lat20 = [float(i) for i in range(1, 21)]
        assert nearest_rank(lat20, 0.95) == 19.0
        # n = 100: ceil(95) = 95 -> the 95th value (index 94).
        lat100 = [float(i) for i in range(1, 101)]
        assert nearest_rank(lat100, 0.95) == 95.0
        with pytest.raises(ValueError):
            nearest_rank([], 0.95)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)

    def test_summary_p95_column_nearest_rank(self):
        """The summary's p95 column for 20 x 1..20 ms must read 19.00,
        not 20.00 (the pre-fix clamp-to-max)."""
        tracer = RpcTrace(make_record(i / 1000.0) for i in range(1, 21))
        row = tracer.summary().splitlines()[1].split()
        # columns: proc calls mean p95 MB errors retries
        assert row[0] == "echo"
        assert row[3] == "19.00"

    def test_summary_errors_column_counts_timeouts(self):
        tracer = RpcTrace([
            make_record(0.001),
            make_record(0.002, error=True),
            make_record(0.003, error=True, timeout=True, retries=3),
        ])
        row = tracer.summary().splitlines()[1].split()
        assert row[1] == "3"  # calls
        assert row[5] == "2"  # errors: one error reply + one timeout
        assert row[6] == "3"  # retries

    def test_traces_full_stack_run(self, cluster):
        """Tracer sees the composed Direct-pNFS protocol mix."""
        from repro.cluster.configs import ARCHITECTURES
        from repro.core import PnfsSystem
        from repro.nfs import NfsConfig
        from repro.pvfs2 import Pvfs2Config, Pvfs2System
        from repro.vfs import Payload as P

        pvfs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config(stripe_size=64 * 1024))
        cfg = NfsConfig(rsize=64 * 1024, wsize=64 * 1024)
        system = PnfsSystem(cluster.sim, pvfs, cfg, ARCHITECTURES["direct-pnfs"])
        client = system.make_client(cluster.clients[0])

        def scenario():
            yield from client.mount()
            f = yield from client.create("/t")
            yield from client.write(f, 0, P.synthetic(256 * 1024))
            yield from client.close(f)

        with SpanCollector(cluster.sim) as spans:
            drive(cluster.sim, scenario())
        procs = set(RpcTrace.from_spans(spans).by_proc())
        # control, layout, data, and storage protocols all visible
        assert {"mount", "getdevlist", "layoutget", "open", "write", "commit"} <= procs
        assert any(p in procs for p in ("flush", "create_bstream"))
