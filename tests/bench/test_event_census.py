"""scripts/event_census.py still reads the kernel it wraps.

The census patches ``Simulator._enqueue`` and ``_Driver._resume`` from
outside, so a change of either signature, or a push onto the queue that
goes round ``_enqueue``, breaks it without any product test noticing.
This runs it on tiny cells.
"""

from collections import Counter

import pytest

from tests.conftest import load_script

CELL = ["direct-pnfs", "pinned", "--clients", "2", "--scale", "0.02"]


def test_census_names_events_and_calls_and_accounts_for_every_one(capsys):
    script = load_script("event_census")
    rec, rpcs, _res = script.census("direct-pnfs", "pinned", clients=2, scale=0.02, seed=None)
    classes = rec.classes
    assert rpcs > 0
    kinds = Counter()
    for (what, _delay, _call, _site), n in classes.items():
        kinds[what] += n
    # Events by their type, bare calls by what is called.
    assert kinds["grant"] and kinds["Join"] and kinds["Process._resume"]
    # Multi-chunk data flows and one-chunk messages (headers, replies).
    assert kinds["_WireFlow._tx_served"] == kinds["_WireFlow._rx_served"] > 0
    assert kinds["_Message._tx_served"] == kinds["_Message._rx_served"] > 0
    assert ("_WireFlow._next_chunk", "delay", "call_later", "sim/network.py:__init__") in classes
    assert ("_Message._send", "delay", "call_later", "sim/network.py:__init__") in classes
    # A service time is its own queued call, scheduled by ``serve`` when a
    # unit is free and by the service ending before it when queued.
    assert ("Resource._end_service", "delay", "serve[Resource]", "sim/cpu.py:consume") in classes
    assert ("Resource._end_service", "delay", "release[Resource]", "(event loop)") in classes
    assert kinds["Resource._end_service"] > kinds["grant"]
    assert not script.relays(classes)
    assert script.main(CELL + ["--check"]) == 0
    # The per-RPC table's header line totals what the kernel counted.
    assert f"{sum(classes.values())} events, {rpcs} front-end RPCs" in capsys.readouterr().out


def test_the_recording_accounts_for_every_scheduled_call_and_counts_resumes():
    """Every call the cell's simulator counted as scheduled went through
    the wrapped ``_enqueue``, deployment construction included."""
    script = load_script("event_census")
    rec, _rpcs, res = script.census("direct-pnfs", "pinned", clients=2, scale=0.02, seed=None)
    assert sum(rec.classes.values()) == res.engine["events_scheduled"]
    assert rec.resumes > 0
    # Queued resumes keep their name: the census reads ``_resume``, not the wrapper.
    assert any(cls[0] == "Process._resume" for cls in rec.classes)


def test_the_kernels_hot_sites_meet_one_event_class_and_process(capsys):
    """Timers, grants, the start sentinel and the fan-ins are plain
    events: every queued firing is an ``Event`` or a ``Process``, and
    every event a generator is resumed with is an ``Event`` — handed to
    a ``Process`` or a spawn leg (docs/architecture.md, "One event
    class").  This cell's processes all end alone in their instants:
    each fires in place, and none is queued."""
    script = load_script("event_census")
    rec, _rpcs, _res = script.census("direct-pnfs", "pinned", 2, 0.02, None)
    assert rec.fired["Event"] and set(rec.fired) <= {"Event", "Process"}
    assert {event for _driver, event in rec.drives} == {"Event"}
    assert {driver for driver, _event in rec.drives} == {"Process", "_Task"}
    assert sum(rec.drives.values()) == rec.resumes
    fired, resumed = rec.class_mix()
    assert fired.startswith(f"fired by class ({sum(rec.fired.values())}): Event ")
    assert resumed.startswith(f"resumes by driver<-event ({rec.resumes}): ")
    assert "Process<-Event" in resumed and "_Task<-Event" in resumed


def test_a_cell_queues_no_lone_completion_and_a_kernel_that_always_hops_does(monkeypatch):
    """A join, first-of or process firing queued from the last callback
    of a firing, or from a process's start entry, with nothing else due
    is ``lone``: it should have fired in place.  The pinned cell has
    none; on a kernel that queues every completion as it parks it
    queues about seven such firings per front-end RPC (6.8), the
    entries the rule saves."""
    script = load_script("event_census")
    rec, rpcs, _res = script.census("direct-pnfs", "pinned", 8, 0.2, None)
    assert not script.relays(rec.classes)

    from repro.sim.engine import Simulator
    from tests.sim.test_scheduler_equivalence import AlwaysHopSimulator

    # The reference kernel's switch, on every simulator the cell builds.
    monkeypatch.setattr(Simulator, "_tail", vars(AlwaysHopSimulator)["_tail"], raising=False)
    hopping, hop_rpcs, _res = script.census("direct-pnfs", "pinned", 8, 0.2, None)
    assert hop_rpcs == rpcs
    relays = script.relays(hopping.classes)
    lone = Counter(
        {cls: n for cls, n in relays.items() if cls[0] in ("Join", "AnyOf", "Process")}
    )
    assert {cls[0] for cls in lone} == {"Join", "Process"}
    assert all(cls[1] == "lone" for cls in lone)
    # Ended legs' joins, event legs' joins and write-back processes.
    assert {cls[2] for cls in lone} == {"end", "_leg_fired"}
    assert 6.5 < sum(lone.values()) / rpcs < 7.5


@pytest.mark.parametrize(
    "argv", [["--clients", "0"], ["--clients", "99"], ["--scale", "0"], ["--scale", "x"]]
)
def test_a_bad_client_count_or_scale_exits_2_with_one_error_line(argv, capsys):
    script = load_script("event_census")
    with pytest.raises(SystemExit) as exc:
        script.main(["direct-pnfs", "pinned", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(argv[1]) in errors[0] and "Traceback" not in err


def test_check_refuses_a_free_fifo_grant_and_a_spawn_kick():
    script = load_script("event_census")
    relay = {
        ("_Grant", "zero", "acquire[Resource]", "sim/cpu.py:consume"): 3,
        ("_Task._resume", "zero", "spawn", "rpc.py:call"): 2,
        # A tail call queued with nothing else due: it should have run in place.
        ("Pipe._start", "lone", "serve[Pipe]", "sim/network.py:_next_chunk"): 4,
        ("Event", "lone", "succeed", "sim/network.py:_finish"): 1,
    }
    fine = {
        ("Resource._end_service", "delay", "serve[Resource]", "sim/cpu.py:consume"): 5,
        ("Process._resume", "zero", "process", "nfs/client.py:_spawn_writeback"): 7,
        # Granted beside other work due in the instant: the hop decides.
        ("Pipe._start", "zero", "serve[Pipe]", "sim/network.py:_next_chunk"): 1,
        ("Pipe._start", "zero", "release[Pipe]", "sim/network.py:_tx_served"): 2,
    }
    assert script.relays(Counter({**relay, **fine})) == Counter(relay)


def test_an_uncontended_cell_queues_no_lone_tail_call_and_a_wire_that_always_hops_does(
    monkeypatch,
):
    script = load_script("event_census")
    cell = dict(clients=1, scale=0.02, seed=None)
    rec, rpcs, _res = script.census("direct-pnfs", "mdtest", **cell)
    classes = rec.classes
    assert rpcs > 0 and not script.relays(classes)
    # Most messages of one client meet idle pipes: few grants are queued at all.
    grants = sum(n for cls, n in classes.items() if cls[0] == "Pipe._start")
    served = sum(n for cls, n in classes.items() if cls[0].endswith("_served"))
    assert 0 < grants < served / 2

    # The wire before the tail rule: the grant of an idle pipe always hops.
    from repro.sim.network import Pipe

    def serve(self, duration, fn, arg=None):
        if self.in_use:
            self._waiters.append((duration, fn, arg))
        else:
            self.in_use = 1
            self.sim._enqueue(self._start, (duration, fn, arg), 0.0)

    monkeypatch.setattr(Pipe, "serve", serve)
    hopping, _rpcs, _res = script.census("direct-pnfs", "mdtest", **cell)
    lone = script.relays(hopping.classes)
    # Both grants of a one-chunk message: the tx pipe's at the end of the
    # latency, the rx pipe's at the end of tx service.
    assert {(cls[0], cls[3]) for cls in lone} == {
        ("Pipe._start", "sim/network.py:_send"),
        ("Pipe._start", "sim/network.py:_tx_served"),
    }
    assert all(cls[1] == "lone" and cls[2] == "serve[Pipe]" for cls in lone)


def test_a_contended_cell_queues_no_lone_hand_off_and_a_release_that_always_hops_does(
    monkeypatch,
):
    script = load_script("event_census")
    rec, _rpcs, _res = script.census("direct-pnfs", "pinned", 2, 0.02, None)
    # Hand-offs still hop beside other work due in their instant.
    assert any(cls[:3] == ("Pipe._start", "zero", "release[Pipe]") for cls in rec.classes)
    assert not script.relays(rec.classes)

    # The hand-off before it ran in place: always a queued hop.
    from repro.sim.network import Pipe

    def release(self):
        waiters = self._waiters
        if not waiters:
            self.in_use = 0
            return
        n = len(waiters)
        job = waiters.pop(int(self.sim.rng.integers(0, n)) if n > 1 else 0)
        self.sim._enqueue(self._start, job, 0.0)

    monkeypatch.setattr(Pipe, "release", release)
    hopping, _rpcs, _res = script.census("direct-pnfs", "pinned", 2, 0.02, None)
    lone = script.relays(hopping.classes)
    assert lone
    assert all(cls[:3] == ("Pipe._start", "lone", "release[Pipe]") for cls in lone)
    assert {cls[3] for cls in lone} <= {
        "sim/network.py:_tx_served", "sim/network.py:_rx_served",
    }
