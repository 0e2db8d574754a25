"""Looking must not change what is looked at."""

import cProfile

import pytest

from repro import rpc
from repro.nfs.client import Nfs4Client
from repro.sim.disk import Disk
from repro.sim.network import Network

from perf import phases
from perf.phases import CellUnit
from perf.trace import Tracer, self_times, write_chrome_trace
from perf.workloads import DEFAULT_SEED, WORKLOADS

CELLS = [
    CellUnit(unit_id="w", arch="direct-pnfs", n_clients=2, kind="ior-write", scale=0.01),
    CellUnit(unit_id="r", arch="pnfs-2tier", n_clients=2, kind="ior-read", scale=0.01),
]
TORTURE = WORKLOADS["torture_batch"][0]


def _plain(unit, shrink=1.0):
    return unit.measure(unit.setup(DEFAULT_SEED, shrink)).physics()


def _traced(unit, shrink=1.0):
    tracer = Tracer()
    tracer.unit = unit.unit_id
    state = unit.setup(DEFAULT_SEED, shrink)
    with tracer.installed():
        result = unit.measure(state)
    return result.physics(), tracer.spans


@pytest.mark.parametrize("unit", CELLS, ids=lambda u: u.unit_id)
def test_cell_physics_survive_tracing_and_profiling(unit):
    plain = _plain(unit)
    traced, spans = _traced(unit)
    assert traced == plain
    assert spans
    profile = cProfile.Profile()
    state = unit.setup(DEFAULT_SEED)
    profile.enable()
    try:
        profiled = unit.measure(state).physics()
    finally:
        profile.disable()
    assert profiled == plain


def test_torture_trace_hash_survives_tracing():
    plain = _plain(TORTURE, shrink=10.0)
    traced, spans = _traced(TORTURE, shrink=10.0)
    assert plain[-1] and traced == plain  # physics() ends with the trace hashes
    assert any(s.kind == "episode" for s in spans)


def _entry_points():
    return (
        rpc.call, rpc.RpcServer.handler, Network.transfer, Disk.io,
        Nfs4Client.read, Nfs4Client.write, phases.run_episode,
    )


def test_wrappers_are_removed_even_when_the_unit_raises():
    before = _entry_points()
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer().installed():
            assert _entry_points() != before
            raise RuntimeError("boom")
    assert _entry_points() == before


def test_spans_carry_the_record_and_nest(tmp_path):
    _, spans = _traced(CELLS[0])
    layers = {s.layer for s in spans}
    assert {"nfs", "rpc", "pvfs2", "sim.network", "sim.disk"} <= layers
    for index, span in enumerate(spans):
        assert span.end >= span.start and span.unit == "w"
        assert span.parent < index
    rpcs = [s for s in spans if s.kind == "rpc" and s.parent >= 0]
    assert rpcs and all(spans[s.parent].start <= s.start for s in rpcs)
    assert any(spans[s.parent].kind == "op" for s in rpcs)
    total = {}
    for span in spans:
        total[span.layer] = total.get(span.layer, 0.0) + span.end - span.start
    for layer, own in self_times(spans).items():
        assert -1e-9 <= own <= total[layer] + 1e-9
    path = tmp_path / "spans.json"
    write_chrome_trace(spans, path)
    import json

    events = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
    assert len(events) == len(spans)
    assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(events[0])
    assert {"id", "parent", "unit"} <= set(events[0]["args"])
