"""Events-per-RPC gate: the kernel must stay cheap per protocol op.

Before any of the work below, the pinned cell (Direct-pNFS, 8-client
IOR separate-file writes) queued ~243 events per served RPC, most of
them zero-delay bookkeeping (process kicks, free-resource grants, leg
joins).  Lightweight spawn, network legs as callback flows, FIFO grants
that never cost an event of their own (a free one is pre-fired, a
queued one is the waiter's service event), fan-out legs started in the
spawner's stack and the wire's grants and completions run in place
wherever nothing else is due in their instant took it to ~108, of
which ~59 are physical delays (the pinned cell is contended: most of
its grants are hand-offs of a busy pipe or made beside other work, and
keep the hop — the uncontended cell below is where that rule shows).

This gate pins that down so it cannot silently regress:

* physical delays (calls queued with a positive delay, counted by
  wrapping ``Simulator._enqueue`` from outside, as
  ``scripts/event_census.py`` does) per RPC must stay within
  ``PHYSICAL_DELAYS_PER_RPC`` +/- 1 — removing relay hops must not
  move the figure at all,
* total events per RPC must stay below ``EVENTS_PER_RPC_MAX``,
* physical delays must be at least half of all scheduled events (the
  rest is pipe arbitration, message completions, process kicks and
  joins) — and at least three quarters on the uncontended cell (one
  mdtest client), where a message mostly meets idle pipes and costs
  its three physical delays,
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
from repro.cluster.configs import make_deployment
from repro.sim.engine import Simulator
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

#: Ceiling with headroom over the measured value (~108 per RPC): loose
#: enough for config drift in other layers, tight enough that
#: re-growing a grant event per queued CPU charge (~30 more per RPC,
#: scripts/event_census.py) trips it immediately.
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

#: Physical delays per RPC with a Process per chunk and a grant event
#: per free core (59.4; 59.2 measured since).  Only zero-delay relay
#: hops have been removed since, so the figure must not have moved.
PHYSICAL_DELAYS_PER_RPC = 59.4

#: Simulated aggregate throughput of the pinned cell (deterministic for
#: a fixed config; scheduler changes must not move it at all).
EXPECTED_MBPS = 112.73
MAX_DRIFT = 0.05


def count_physical_delays(monkeypatch) -> list:
    """Wrap ``Simulator._enqueue`` for the rest of the test; the one
    element of the returned list counts the calls queued with a
    positive delay."""
    delays = [0]
    enqueue = Simulator._enqueue

    def counted(self, fn, arg, delay, urgent=False):
        delays[0] += delay > 0
        enqueue(self, fn, arg, delay, urgent)

    monkeypatch.setattr(Simulator, "_enqueue", counted)
    return delays


def test_events_per_rpc_stays_below_ceiling(monkeypatch):
    delays = count_physical_delays(monkeypatch)
    dep = make_deployment(ARCH, n_clients=N_CLIENTS)
    res = run_cell(
        dep,
        IorWorkload(op="write", block_size=BLOCK, shared_file=False, scale=SCALE),
        N_CLIENTS,
    )
    engine = res.engine
    rpcs = sum(s.rpc.calls_served for s in dep.servers)
    assert rpcs > 0
    physical_per_rpc = delays[0] / rpcs
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
        "physical_delays_per_rpc": physical_per_rpc,
        "ceilings": {"events_per_rpc": EVENTS_PER_RPC_MAX},
        "aggregate_mbps": res.aggregate_mbps,
        "engine": dict(engine),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_engine.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print()
    print(
        f"  {rpcs} RPCs, {events_per_rpc:.1f} events/RPC ({physical_per_rpc:.1f} physical)"
    )

    # The physics is untouched by kernel scheduling changes.
    assert res.aggregate_mbps == pytest.approx(EXPECTED_MBPS, rel=MAX_DRIFT)
    # The structural claim: at least every other event is a physical delay.
    assert delays[0] >= 0.5 * engine["events_scheduled"]
    assert engine["events_processed"] == pytest.approx(
        engine["events_scheduled"], abs=64
    )
    # The gate.
    assert physical_per_rpc == pytest.approx(PHYSICAL_DELAYS_PER_RPC, abs=1.0)
    assert events_per_rpc < EVENTS_PER_RPC_MAX, (
        f"{events_per_rpc:.1f} events per RPC (ceiling {EVENTS_PER_RPC_MAX})"
    )


def test_uncontended_cell_is_mostly_physical_delays(monkeypatch):
    from repro.workloads import MdtestWorkload

    delays = count_physical_delays(monkeypatch)
    dep = make_deployment(ARCH, n_clients=1)
    res = run_cell(dep, MdtestWorkload(scale=SCALE), 1)
    engine = res.engine
    rpcs = sum(s.rpc.calls_served for s in dep.servers)
    events_per_rpc = engine["events_processed"] / rpcs
    physical = delays[0] / engine["events_scheduled"]
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
    dep = make_deployment(ARCH, n_clients=N_CLIENTS)
    res = run_cell(
        dep,
        IorWorkload(op="write", block_size=BLOCK, shared_file=False, scale=SCALE),
        N_CLIENTS,
    )
    rpcs = sum(s.rpc.calls_served for s in dep.servers)
    print(f"\n  {rpcs} RPCs, {resumes / rpcs:.1f} driver resumes/RPC")
    assert res.aggregate_mbps == pytest.approx(EXPECTED_MBPS, rel=MAX_DRIFT)
    assert resumes / rpcs < DRIVER_RESUMES_PER_RPC_MAX, (
        f"{resumes / rpcs:.1f} driver resumes per RPC (ceiling {DRIVER_RESUMES_PER_RPC_MAX})"
    )


def test_engine_stats_flow_into_run_result():
    """The kernel counters are observable per run: ``RunResult.engine``
    carries them (and therefore every benchmark JSON that embeds it),
    and ``repro.obs`` exports them as gauges."""
    from repro.obs import MetricsRegistry, observe_engine

    dep = make_deployment(ARCH, n_clients=2)
    res = run_cell(
        dep,
        IorWorkload(op="write", block_size=BLOCK, shared_file=False, scale=0.02),
        2,
    )
    assert res.engine["events_scheduled"] >= res.engine["events_processed"] > 0
    assert res.engine["peak_heap"] > 0

    reg = MetricsRegistry()
    observe_engine(reg, dep.testbed.sim)
    snap = reg.sample_numeric()
    for key in ("events_scheduled", "events_processed", "peak_heap"):
        assert snap[f"engine.{key}"] == res.engine[key]
