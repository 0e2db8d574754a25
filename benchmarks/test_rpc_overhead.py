"""Events-per-RPC gate: the kernel must stay cheap per protocol op.

Before any of the work below, the pinned cell (Direct-pNFS, 8-client
IOR separate-file writes) queued ~243 events per served RPC, most of
them zero-delay bookkeeping (process kicks, free-resource grants, leg
joins).  Lightweight spawn, network legs as callback flows, FIFO grants
that never cost an event of their own (a free one is pre-fired, a
queued one is the waiter's service event), fan-out legs started in the
spawner's stack and the wire's grants, hand-offs and completions run
in place wherever nothing else is due in their instant took it to ~96,
and the completions of joins, first-ofs and processes made as their
entry's last act joining that rule to ~89, of which ~59 are physical
delays (the pinned cell is contended: a
grant or hand-off made beside other work due in its instant keeps the
hop, since there the hop decides the arbitration order; the
uncontended cell below is where the rule shows most).

This gate pins that down so it cannot silently regress.  Each cell runs
once, recorded by ``scripts/event_census.py`` (which wraps
``Simulator._enqueue`` and ``_Driver._resume`` from outside):

* physical delays (calls queued with a positive delay) per RPC must
  stay within ``PHYSICAL_DELAYS_PER_RPC`` +/- 1 — removing relay hops
  must not move the figure at all,
* total events per RPC must stay below ``EVENTS_PER_RPC_MAX``, and
  generator resumes per RPC below ``DRIVER_RESUMES_PER_RPC_MAX``,
* physical delays must be at least half of all scheduled events (the
  rest is pipe arbitration, message completions, process kicks and
  joins) — and at least three quarters on the uncontended cell (one
  mdtest client), where a message mostly meets idle pipes and costs
  its three physical delays,
* no cell schedules a relay: a grant of a free FIFO resource, a spawn
  start kick, or a lone tail call, pipe hand-off or completion
  (``relays()`` in the census) — also
  on native PVFS2's 8 KB write path, which neither direct-pnfs cell runs,
* simulated physics must match the checked-in throughput (the kernel
  is a scheduler, not a model: it must never change results).

The measurement lands in ``benchmarks/results/BENCH_engine.json`` —
the engine-cost trajectory artifact CI uploads next to
``BENCH_parallel.json``.  Its ``engine.wall_seconds`` is the recorded
run's, the census's classification included: not a host-time figure.
"""

import json
import pathlib

import pytest

from repro.bench.runner import run_cell
from repro.cluster.configs import make_deployment
from repro.workloads import IorWorkload
from tests.conftest import load_script

MB = 1024 * 1024
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
event_census = load_script("event_census")

#: Pinned cell: the acceptance-criteria config (direct-pnfs/ior-write
#: @ 8 clients), RPC-dense (2 MB blocks -> many WRITEs + layout traffic)
#: so per-RPC kernel overhead, not byte-moving, dominates the bill.
#: ``pinned`` is the census's name for its workload.
ARCH = "direct-pnfs"
N_CLIENTS = 8
BLOCK = 2 * MB
SCALE = 0.2

#: Ceiling with headroom over the measured value (88.7 per RPC; 95.5
#: while every join, first-of and process firing was a queued call,
#: 107.8 while every pipe hand-off was too): loose enough for config
#: drift in other layers, tight enough that re-growing a grant event
#: per queued CPU charge (~30 more per RPC, scripts/event_census.py),
#: the hand-off hop (~12 more) or the queued completions (~7 more)
#: trips it immediately.
EVENTS_PER_RPC_MAX = 92.0

#: The uncontended cell (``scripts/event_census.py direct-pnfs mdtest
#: --clients 1``): 54.4 events per RPC measured, 86 % of them physical
#: delays (55.2 and 84 % while every completion was a queued call, 58.1
#: and 80 % while every pipe hand-off hopped); with every pipe grant,
#: hand-off and wire completion a queued call it was 78.7 and 59 %.
LONE_CLIENT_EVENTS_PER_RPC_MAX = 55.0
LONE_CLIENT_PHYSICAL_SHARE_MIN = 0.75

#: Generator resumes (``_Driver._resume`` entries) per RPC: 65.5
#: measured.  Events are one bill, resumes the other: a wait that is an
#: event (a CPU charge, a wire transfer, a ``spawn`` leg over either)
#: resumes nobody but its waiter.  With each of those a generator under
#: its own task the pinned cell took 94.4; a task per overlapped CPU
#: charge or transfer leg again would be ~29 more.
DRIVER_RESUMES_PER_RPC_MAX = 70.0

#: Physical delays per RPC with a Process per chunk and a grant event
#: per free core (59.4; 59.2 measured since).  Only zero-delay relay
#: hops have been removed since, so the figure must not have moved.
PHYSICAL_DELAYS_PER_RPC = 59.4

#: Simulated aggregate throughput of the pinned cell (deterministic for
#: a fixed config; scheduler changes must not move it at all).
EXPECTED_MBPS = 112.73
MAX_DRIFT = 0.05


def test_pinned_cell_events_and_resumes_per_rpc_stay_below_their_ceilings():
    rec, rpcs, res = event_census.census(ARCH, "pinned", N_CLIENTS, SCALE, seed=None)
    engine = res.engine
    assert rpcs > 0
    delays = rec.count("delay")
    physical_per_rpc = delays / rpcs
    events_per_rpc = engine["events_processed"] / rpcs
    resumes_per_rpc = rec.resumes / rpcs

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
        f"  {rpcs} RPCs, {events_per_rpc:.1f} events/RPC ({physical_per_rpc:.1f} physical), "
        f"{resumes_per_rpc:.1f} driver resumes/RPC"
    )

    # The physics is untouched by kernel scheduling changes.
    assert res.aggregate_mbps == pytest.approx(EXPECTED_MBPS, rel=MAX_DRIFT)
    # The structural claim: at least every other event is a physical delay.
    assert delays >= 0.5 * engine["events_scheduled"]
    assert engine["events_processed"] == pytest.approx(
        engine["events_scheduled"], abs=64
    )
    assert not event_census.relays(rec.classes)
    # The gate.
    assert physical_per_rpc == pytest.approx(PHYSICAL_DELAYS_PER_RPC, abs=1.0)
    assert events_per_rpc < EVENTS_PER_RPC_MAX, (
        f"{events_per_rpc:.1f} events per RPC (ceiling {EVENTS_PER_RPC_MAX})"
    )
    assert resumes_per_rpc < DRIVER_RESUMES_PER_RPC_MAX, (
        f"{resumes_per_rpc:.1f} driver resumes per RPC (ceiling {DRIVER_RESUMES_PER_RPC_MAX})"
    )


def test_uncontended_cell_is_mostly_physical_delays():
    rec, rpcs, res = event_census.census(ARCH, "mdtest", 1, SCALE, seed=None)
    engine = res.engine
    events_per_rpc = engine["events_processed"] / rpcs
    physical = rec.count("delay") / engine["events_scheduled"]
    print(f"\n  {rpcs} RPCs, {events_per_rpc:.1f} events/RPC, {100 * physical:.0f} % physical")
    assert not event_census.relays(rec.classes)
    assert events_per_rpc < LONE_CLIENT_EVENTS_PER_RPC_MAX
    assert physical >= LONE_CLIENT_PHYSICAL_SHARE_MIN


def test_native_pvfs2_small_writes_schedule_no_relay():
    """The cacheless PVFS2 client's 8 KB path: per-request setup, one
    daemon RPC per flow unit, write-behind wakes."""
    rec, rpcs, _res = event_census.census("pvfs2", "ior-write-8k", 4, 0.05, seed=None)
    assert rpcs > 0
    assert not event_census.relays(rec.classes)


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
