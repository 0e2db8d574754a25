"""Events-per-RPC gate: the kernel must stay cheap per protocol op.

The two-lane scheduler exists to cut what one RPC costs the event
kernel: before it, the pinned cell below (Direct-pNFS, 8-client IOR
separate-file writes) pushed ~243 events — all heap — per served RPC,
most of them zero-delay bookkeeping (process kicks, free-resource
grants, leg joins).  With the fast lane and lightweight spawn the heap
sees ~59 events per RPC and the rest ride a deque; with network legs as
callback flows and event-free grants on free cores and worker threads
the deque carried ~129 instead of ~160; with FIFO grants that never
cost an event of their own (a free one is pre-fired, a queued one is
the waiter's service event) and fan-out legs started in the spawner's
stack it carries ~53 — fewer than the heap; with the wire's grants and
completions run in place wherever nothing else is due in their instant
it carries ~49 (the pinned cell is contended: most of its grants are
hand-offs of a busy pipe or made beside other work, and keep the hop —
the uncontended cell below is where that rule shows).

This gate pins that down so it cannot silently regress:

* heap events per RPC must stay below ``HEAP_EVENTS_PER_RPC_MAX`` and
  within ``HEAP_EVENTS_PER_RPC`` +/- 1 — every heap event is a physical
  delay, so removing relay hops must not move the figure at all,
* total events per RPC must stay below ``EVENTS_PER_RPC_MAX``,
* physical delays must be at least half of all scheduled events (what
  is left on the deque is pipe arbitration, message completions,
  process kicks and joins) — and at least three quarters on the
  uncontended cell (one mdtest client), where a message mostly meets
  idle pipes and costs its three physical delays,
* simulated physics must match the checked-in throughput (the kernel
  is a scheduler, not a model: it must never change results).

The measurement lands in ``benchmarks/results/BENCH_engine.json`` —
the engine-cost trajectory artifact CI uploads next to
``BENCH_parallel.json``.
"""

import json
import pathlib

import pytest

from repro.bench.runner import run_cell
from repro.workloads import IorWorkload

MB = 1024 * 1024
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Pinned cell: the acceptance-criteria config (direct-pnfs/ior-write
#: @ 8 clients), RPC-dense (2 MB blocks -> many WRITEs + layout traffic)
#: so per-RPC kernel overhead, not byte-moving, dominates the bill.
ARCH = "direct-pnfs"
N_CLIENTS = 8
BLOCK = 2 * MB
SCALE = 0.2

#: Ceilings with headroom over the measured values (~59 heap / ~108
#: total per RPC): loose enough for config drift in other layers, tight
#: enough that losing the fast lane, or re-growing a grant event per
#: queued CPU charge (~30 more per RPC, scripts/event_census.py), trips
#: them immediately.
HEAP_EVENTS_PER_RPC_MAX = 90.0
EVENTS_PER_RPC_MAX = 115.0

#: The uncontended cell (``scripts/event_census.py direct-pnfs mdtest
#: --clients 1``): 58.1 events per RPC measured, 80 % of them physical
#: delays; with every pipe grant and wire completion a queued call it
#: was 78.7 and 59 %.
LONE_CLIENT_EVENTS_PER_RPC_MAX = 62.0
LONE_CLIENT_PHYSICAL_SHARE_MIN = 0.75

#: Generator resumes (``_Driver._resume`` entries) per RPC: 65.5
#: measured.  A task per overlapped CPU charge or transfer leg again
#: would be ~29 more.
DRIVER_RESUMES_PER_RPC_MAX = 70.0

#: Heap events per RPC with a Process per chunk and a grant event per
#: free core (59.4): the physical delays.  Only zero-delay relay hops
#: have been removed since, so the figure must not have moved.
HEAP_EVENTS_PER_RPC = 59.4

#: Simulated aggregate throughput of the pinned cell (deterministic for
#: a fixed config; scheduler changes must not move it at all).
EXPECTED_MBPS = 112.73
MAX_DRIFT = 0.05


def test_events_per_rpc_stays_below_ceiling():
    res = run_cell(
        ARCH,
        IorWorkload(op="write", block_size=BLOCK, shared_file=False, scale=SCALE),
        N_CLIENTS,
        keep_deployment=True,
    )
    engine = res.engine
    rpcs = sum(s.rpc.calls_served for s in res.deployment.servers)
    assert rpcs > 0
    heap_per_rpc = engine["heap_events"] / rpcs
    events_per_rpc = engine["events_processed"] / rpcs

    report = {
        "config": {
            "arch": ARCH,
            "workload": f"ior-write-{BLOCK // MB}MB-separate",
            "n_clients": N_CLIENTS,
            "scale": SCALE,
        },
        "rpcs": rpcs,
        "events_per_rpc": events_per_rpc,
        "heap_events_per_rpc": heap_per_rpc,
        "ceilings": {
            "heap_events_per_rpc": HEAP_EVENTS_PER_RPC_MAX,
            "events_per_rpc": EVENTS_PER_RPC_MAX,
        },
        "aggregate_mbps": res.aggregate_mbps,
        "engine": dict(engine),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_engine.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print()
    print(
        f"  {rpcs} RPCs, {events_per_rpc:.1f} events/RPC ({heap_per_rpc:.1f} heap)"
    )

    # The physics is untouched by kernel scheduling changes.
    assert res.aggregate_mbps == pytest.approx(EXPECTED_MBPS, rel=MAX_DRIFT)
    # The structural claim: at least every other event is a physical delay.
    assert engine["heap_events"] >= 0.5 * engine["events_scheduled"]
    assert engine["events_processed"] == pytest.approx(
        engine["events_scheduled"], abs=64
    )
    # The gate.
    assert heap_per_rpc == pytest.approx(HEAP_EVENTS_PER_RPC, abs=1.0)
    assert heap_per_rpc < HEAP_EVENTS_PER_RPC_MAX, (
        f"{heap_per_rpc:.1f} heap events per RPC "
        f"(ceiling {HEAP_EVENTS_PER_RPC_MAX})"
    )
    assert events_per_rpc < EVENTS_PER_RPC_MAX, (
        f"{events_per_rpc:.1f} events per RPC (ceiling {EVENTS_PER_RPC_MAX})"
    )


def test_uncontended_cell_is_mostly_physical_delays():
    from repro.workloads import MdtestWorkload

    res = run_cell(ARCH, MdtestWorkload(scale=SCALE), 1, keep_deployment=True)
    engine = res.engine
    rpcs = sum(s.rpc.calls_served for s in res.deployment.servers)
    events_per_rpc = engine["events_processed"] / rpcs
    physical = engine["heap_events"] / engine["events_scheduled"]
    print(f"\n  {rpcs} RPCs, {events_per_rpc:.1f} events/RPC, {100 * physical:.0f} % physical")
    assert events_per_rpc < LONE_CLIENT_EVENTS_PER_RPC_MAX
    assert physical >= LONE_CLIENT_PHYSICAL_SHARE_MIN


def test_driver_resumes_per_rpc_stay_below_ceiling(monkeypatch):
    """Events are one bill, generator resumes the other: a wait that is
    an event (a CPU charge, a wire transfer, a ``spawn`` leg over
    either) resumes nobody but its waiter.  With each of those a
    generator under its own task the pinned cell took 94.4 resumes per
    RPC; as events it takes 65.5, whatever the events."""
    from repro.sim import engine

    resumes = 0
    resume = engine._Driver._resume

    def counted(self, event):
        nonlocal resumes
        resumes += 1
        resume(self, event)

    monkeypatch.setattr(engine._Driver, "_resume", counted)
    res = run_cell(
        ARCH,
        IorWorkload(op="write", block_size=BLOCK, shared_file=False, scale=SCALE),
        N_CLIENTS,
        keep_deployment=True,
    )
    rpcs = sum(s.rpc.calls_served for s in res.deployment.servers)
    print(f"\n  {rpcs} RPCs, {resumes / rpcs:.1f} driver resumes/RPC")
    assert res.aggregate_mbps == pytest.approx(EXPECTED_MBPS, rel=MAX_DRIFT)
    assert resumes / rpcs < DRIVER_RESUMES_PER_RPC_MAX, (
        f"{resumes / rpcs:.1f} driver resumes per RPC (ceiling {DRIVER_RESUMES_PER_RPC_MAX})"
    )


def test_engine_stats_flow_into_run_result():
    """The lane counters are observable per run: ``RunResult.engine``
    carries them (and therefore every benchmark JSON that embeds it),
    and ``repro.obs`` exports them as gauges."""
    from repro.obs import MetricsRegistry, observe_engine

    res = run_cell(
        ARCH,
        IorWorkload(op="write", block_size=BLOCK, shared_file=False, scale=0.02),
        2,
        keep_deployment=True,
    )
    for key in ("fast_lane_events", "heap_events", "events_scheduled"):
        assert key in res.engine
    assert (
        res.engine["fast_lane_events"] + res.engine["heap_events"]
        == res.engine["events_scheduled"]
    )

    reg = MetricsRegistry()
    observe_engine(reg, res.deployment.testbed.sim)
    snap = reg.sample_numeric()
    assert snap["engine.fast_lane_events"] == res.engine["fast_lane_events"]
    assert snap["engine.heap_events"] == res.engine["heap_events"]
