"""Span collector semantics, Chrome trace-event export and span pins."""

import hashlib
import json

import pytest

from repro import rpc
from repro.bench.runner import Cell
from repro.nfs.client import Nfs4Client
from repro.obs import RpcTrace, SpanCollector, spans as obs_spans
from repro.pvfs2.storage import StorageDaemon
from repro.sim import Disk, FaultInjector, Simulator
from repro.sim.engine import _Driver
from repro.vfs.api import NoEntry, Payload
from repro.workloads import IorWorkload

MB = 1024 * 1024

#: Every attribute a collector wraps while it is installed.
WRAPPED = [
    (Nfs4Client, "read"),
    (Nfs4Client, "write"),
    (Nfs4Client, "fsync"),
    (rpc, "_attempt"),
    (rpc, "_retrying"),
    (Disk, "io"),
    (StorageDaemon, "_flush_extent"),
]


class TestCollectorInstall:
    def test_install_and_uninstall(self):
        sim = Simulator()
        assert obs_spans.ACTIVE is None
        with SpanCollector(sim) as col:
            assert obs_spans.ACTIVE is col
        assert obs_spans.ACTIVE is None

    def test_second_install_rejected(self):
        sim = Simulator()
        with SpanCollector(sim):
            with pytest.raises(RuntimeError):
                SpanCollector(sim).__enter__()
        assert obs_spans.ACTIVE is None

    def test_uninstalled_by_default(self):
        # The pay-for-what-you-use contract: no collector unless one is
        # explicitly installed.
        assert obs_spans.ACTIVE is None

    def test_exit_restores_every_wrapped_attribute(self):
        originals = [vars(owner)[name] for owner, name in WRAPPED]
        sim = Simulator()
        with SpanCollector(sim):
            assert all(
                vars(owner)[name] is not original
                for (owner, name), original in zip(WRAPPED, originals)
            )
        assert [vars(owner)[name] for owner, name in WRAPPED] == originals
        with pytest.raises(ZeroDivisionError):
            with SpanCollector(sim):
                1 / 0
        assert [vars(owner)[name] for owner, name in WRAPPED] == originals
        assert obs_spans.ACTIVE is None


class TestRecording:
    def test_begin_end_times_and_args(self):
        sim = Simulator()
        with SpanCollector(sim) as col:

            def work():
                span = col.begin("read", "client-op", "c0", nbytes=4096)
                yield sim.timeout(1.5)
                col.end(span, ok=True)

            sim.run(until=sim.process(work()))
        (span,) = col.spans
        assert (span.start, span.end) == (0.0, 1.5)
        assert span.args == {"nbytes": 4096, "ok": True}

    def test_concurrent_spans_get_distinct_lanes(self):
        sim = Simulator()
        with SpanCollector(sim) as col:

            def work(d):
                span = col.begin("io", "disk", "s0")
                yield sim.timeout(d)
                col.end(span)

            procs = [sim.process(work(1.0)), sim.process(work(2.0))]
            sim.run(until=sim.all_of(procs))
        lanes = {s.lane for s in col.spans}
        assert len(lanes) == 2  # one lane per concurrent process

    def test_spawn_legs_get_lanes_of_their_own(self):
        """A leg is not a process, but spans it begins — in its first
        segment, inside the spawner's stack, or after a wait — must not
        pile onto the spawner's lane or onto each other's."""
        sim = Simulator()
        with SpanCollector(sim) as col:

            def leg(d):
                first = col.begin("rpc", "rpc", "c0")
                yield sim.timeout(d)
                col.end(first)
                second = col.begin("rpc", "rpc", "c0")
                yield sim.timeout(d)
                col.end(second)

            def parent():
                whole = col.begin("read", "client-op", "c0")
                yield sim.spawn(leg(1.0), leg(1.5))
                tail = col.begin("copy", "client-op", "c0")
                col.end(tail)
                col.end(whole)

            sim.run(until=sim.process(parent()))
        whole, a1, b1, a2, b2, tail = sorted(col.spans, key=lambda s: (s.start, s.lane))
        assert len({whole.lane, a1.lane, b1.lane}) == 3
        assert (a2.lane, b2.lane) == (a1.lane, b1.lane)  # a leg keeps its lane
        assert tail.lane == whole.lane  # the spawner got its own back

    def test_a_lane_is_held_while_a_span_is_open_and_then_given_back(self):
        """A track has no more lanes than it had workers with a span open
        at once: a worker's last closing span frees its lane, a worker
        with no span open takes the lowest free lane, and nested spans
        share their worker's lane."""
        sim = Simulator()
        with SpanCollector(sim) as col:

            def work(spans):
                for name, at, d in spans:
                    yield sim.timeout(at - sim.now)
                    span = col.begin(name, "disk", "s0")
                    if name == "outer":
                        col.end(col.begin("inner", "disk", "s0"))
                    yield sim.timeout(d)
                    col.end(span)

            sim.process(work([("a", 0.0, 1.0)]))
            sim.process(work([("b", 0.5, 1.0), ("b-again", 2.0, 1.0)]))
            sim.process(work([("c", 2.5, 1.0)]))
            sim.process(work([("outer", 4.0, 1.0)]))
            sim.run()
        lanes = {s.name: s.lane for s in col.spans}
        # b-again takes the lowest free lane, not the one b had; so does c.
        assert lanes == {"a": 0, "b": 1, "b-again": 0, "c": 1, "outer": 0, "inner": 0}

    def test_by_category(self):
        sim = Simulator()
        with SpanCollector(sim) as col:
            col.end(col.begin("a", "rpc", "n"))
            col.end(col.begin("b", "rpc", "n"))
            col.end(col.begin("c", "disk", "n"))
        cats = {c: len(s) for c, s in col.by_category().items()}
        assert cats == {"rpc": 2, "disk": 1}


class TestChromeTrace:
    def make(self):
        sim = Simulator()
        with SpanCollector(sim) as col:

            def work():
                span = col.begin("read", "client-op", "c0", path="/f")
                yield sim.timeout(0.002)
                col.end(span)
                col.begin("orphan", "rpc", "s0")  # never ended

            sim.run(until=sim.process(work()))
        return col

    def test_event_wellformedness(self, tmp_path):
        col = self.make()
        path = tmp_path / "run.trace.json"
        col.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) + len(complete) == len(events)
        # One process_name record per track, pids match the X events.
        assert {m["args"]["name"] for m in meta} == {"c0", "s0"}
        assert {e["pid"] for e in complete} <= {m["pid"] for m in meta}
        for e in complete:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_microsecond_scaling(self):
        col = self.make()
        read = next(
            e for e in col.chrome_trace()["traceEvents"] if e.get("name") == "read"
        )
        assert read["dur"] == pytest.approx(2000.0)  # 0.002 s -> 2000 us

    def test_unfinished_span_marked_not_dropped(self):
        col = self.make()
        orphan = next(
            e for e in col.chrome_trace()["traceEvents"] if e.get("name") == "orphan"
        )
        assert orphan["dur"] == 0
        assert orphan["args"]["unfinished"] is True

    def test_nonserialisable_args_stringified(self, tmp_path):
        sim = Simulator()
        with SpanCollector(sim) as col:
            col.end(col.begin("x", "rpc", "n", obj=object()))
        path = tmp_path / "t.json"
        col.write_chrome_trace(path)
        json.loads(path.read_text())  # must not raise


def faulted_rpc_run(cluster):
    """An error reply, a call answered on its third send and a call that
    gives up, under a collector: ``(collector, client node, marks)``."""
    sim = cluster.sim
    server = rpc.RpcServer(sim, cluster.storage[0], "svc", rpc.RpcCosts())

    def echo(args, payload):
        return args, payload
        yield  # pragma: no cover

    def fail(args, payload):
        raise NoEntry("x")
        yield  # pragma: no cover

    server.register("echo", echo)
    server.register("fail", fail)
    inj = FaultInjector(sim)
    node = cluster.clients[0]
    marks = {}

    def scenario():
        with pytest.raises(NoEntry):
            yield from rpc.call(node, server, "fail", {})
        # Down until +1.0 s: the sends at +0 and +0.4 are swallowed,
        # the one at +1.2 is answered.
        inj.fail_server(server)
        inj.at(sim.now + 1.0, lambda: inj.restore_server(server))
        yield from rpc.call(
            node, server, "echo", {}, payload=Payload(b"abc"),
            policy=rpc.RpcPolicy(timeout=0.4, max_retries=5, backoff=2.0),
        )
        inj.fail_server(server)
        marks["gave_up_from"] = sim.now
        with pytest.raises(rpc.RpcTimeout):
            yield from rpc.call(
                node, server, "echo", {}, payload=Payload(b"abcde"),
                policy=rpc.RpcPolicy(timeout=0.2, max_retries=2, backoff=2.0),
            )
        marks["gave_up_at"] = sim.now

    with SpanCollector(sim) as col:
        sim.run(until=sim.process(scenario()))
    return col, node, marks


class TestRpcTraceReduction:
    def test_faulted_run_reduces_to_one_record_per_exchange(self, cluster):
        """Error reply, retransmitted-then-delivered and give-up each
        become one record; attempts abandoned by the retry timer become
        none (their spans stay in the trace as truncated bars)."""
        col, node, marks = faulted_rpc_run(cluster)
        rpc_spans = col.by_category()["rpc"]
        trace = RpcTrace.from_spans(col)
        errored, delivered, gave_up = trace.records

        assert (errored.proc, errored.error, errored.timeout, errored.retries) == (
            "fail", True, False, 0)
        assert (delivered.error, delivered.timeout, delivered.retries) == (False, False, 2)
        assert (delivered.req_bytes, delivered.reply_bytes) == (3, 3)
        assert (gave_up.error, gave_up.timeout, gave_up.retries) == (True, True, 2)
        assert (gave_up.req_bytes, gave_up.reply_bytes) == (5, 0)
        assert (gave_up.start, gave_up.end) == (marks["gave_up_from"], marks["gave_up_at"])
        assert {r.client for r in trace.records} == {node.name}
        assert {r.server for r in trace.records} == {"svc"}

        # 1 + 3 + 3 attempt spans and the give-up span; the five
        # abandoned attempts closed not-ok and reduced to nothing.
        assert len(rpc_spans) == 8
        abandoned = [s for s in rpc_spans if "req_bytes" not in s.args]
        assert len(abandoned) == 5
        assert all(s.end is not None and s.args["ok"] is False for s in abandoned)
        assert sum(r.retries for r in trace.records) == 4


def span_digest(col: SpanCollector, lanes: bool = False) -> str:
    """sha256 of ``col``'s Chrome trace: name, category, track, start,
    duration, args and order, and each event's lane only if ``lanes``.

    Lanes are keyed by the running process or leg itself, so they are the
    simulation's; the lane-free pins date from when they were keyed by
    its ``id()`` and followed the allocator.
    """
    events = [
        e if lanes else {k: v for k, v in e.items() if k != "tid"}
        for e in col.chrome_trace()["traceEvents"]
    ]
    return hashlib.sha256(json.dumps(events, default=str).encode()).hexdigest()


def direct_pnfs_ior_write():
    """A collector over the measured phase of ``repro trace direct-pnfs
    ior-write --clients 2 --scale 0.02`` (the verb's own collector also
    stays installed through the drain after it)."""
    workload = IorWorkload(op="write", block_size=4 * MB, shared_file=False, scale=0.02)
    cell = Cell("direct-pnfs", workload, n_clients=2)
    cell.setup()
    with SpanCollector(cell.sim) as col:
        cell.measure()
    return col


class TestSpanPins:
    """The spans a collector records, pinned from the tree in which each
    layer read the collector slot itself: moving the tracing out of the
    request path left every span as it was."""

    def test_direct_pnfs_ior_write(self):
        col = direct_pnfs_ior_write()
        assert len(col.spans) == 408
        assert span_digest(col) == DIRECT_PNFS_IOR_WRITE

    def test_lanes_are_the_simulations_not_the_allocators(self):
        """The same cell with its lanes pinned, run twice in one
        interpreter: the second run meets a heap where thousands of
        objects were allocated and every other one freed, so it is
        handed other addresses than the first run was, and its lanes
        must not move."""
        first = span_digest(direct_pnfs_ior_write(), lanes=True)
        churn = [[n] * (n % 16) for n in range(6000)]
        del churn[::2]
        second = span_digest(direct_pnfs_ior_write(), lanes=True)
        del churn
        assert first == second == DIRECT_PNFS_IOR_WRITE_LANES

    def test_after_a_traced_cell_only_open_spans_hold_drivers(self):
        """The collector keeps a process or spawn leg (and, through it, its
        generator) alive only while it has a span open: after the cell,
        the drivers its attributes reach are those of the storage flushes
        still running, not every driver that ever opened a span."""
        col = direct_pnfs_ior_write()
        still_open = {id(s._holder[1]) for s in col.spans if s.end is None}
        assert still_open
        drivers = []

        def walk(obj):
            if isinstance(obj, _Driver):
                drivers.append(obj)
            elif isinstance(obj, dict):
                for item in obj.items():
                    walk(item)
            elif isinstance(obj, (list, tuple, set)):
                for item in obj:
                    walk(item)
            elif isinstance(obj, obs_spans.Span):
                walk(vars(obj))

        walk({name: value for name, value in vars(col).items() if name != "sim"})
        assert {id(d) for d in drivers} == still_open

    def test_faulted_rpc_scenario(self, cluster):
        col, _node, _marks = faulted_rpc_run(cluster)
        assert span_digest(col) == FAULTED_RPC


#: The measured phase of ``repro trace direct-pnfs ior-write --clients 2
#: --scale 0.02``.
DIRECT_PNFS_IOR_WRITE = "3413ee6d8f017f5a5b918bc42c79170eba4deb808f2d2c69b9ccebe6b5dd0ae9"
#: The same trace with its lanes; a driver with no span open on a track
#: takes the lowest free lane there.
DIRECT_PNFS_IOR_WRITE_LANES = "51e2d03462ac6456ae9cbe82abebea95109ee5c818c5d8dbe58a9c778e7d9358"
#: :func:`faulted_rpc_run`'s ten spans.
FAULTED_RPC = "f45245af7fdd60b4b2cafe2c247678de26d63d0eb3dfd6848a146afd6e8f2714"
