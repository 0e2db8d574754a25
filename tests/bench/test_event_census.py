"""scripts/event_census.py still reads the kernel it wraps.

The census patches ``Simulator._enqueue`` from outside, so a change of
that signature breaks it without any product test noticing — the CI
``--check`` step is the first to find out.  This runs it on a tiny cell.
"""

from collections import Counter

from tests.conftest import load_script

CELL = ["direct-pnfs", "pinned", "--clients", "2", "--scale", "0.02"]


def test_census_names_events_and_calls_and_accounts_for_every_one(capsys):
    script = load_script("event_census")
    classes, rpcs = script.census("direct-pnfs", "pinned", clients=2, scale=0.02, seed=None)
    assert rpcs > 0
    kinds = Counter()
    for (what, _delay, _call, _site), n in classes.items():
        kinds[what] += n
    # Events by their type, bare calls by what is called.
    assert kinds["_Grant"] and kinds["Join"] and kinds["Process._resume"]
    assert kinds["_WireFlow._tx_served"] == kinds["_WireFlow._rx_served"] > 0
    assert ("_WireFlow._next_chunk", "delay", "call_later", "sim/network.py:__init__") in classes
    # A service time is its own queued call, scheduled by ``serve`` when a
    # unit is free and by the service ending before it when queued.
    assert ("Resource._end_service", "delay", "serve[Resource]", "sim/cpu.py:consume") in classes
    assert ("Resource._end_service", "delay", "release[Resource]", "(event loop)") in classes
    assert kinds["Resource._end_service"] > kinds["_Grant"]
    assert not script.relays(classes)
    assert script.main(CELL + ["--check"]) == 0
    # The per-RPC table's header line totals what the kernel counted.
    assert f"{sum(classes.values())} events, {rpcs} front-end RPCs" in capsys.readouterr().out


def test_check_refuses_a_free_fifo_grant_and_a_spawn_kick():
    script = load_script("event_census")
    relay = {
        ("_Grant", "zero", "acquire[Resource]", "sim/cpu.py:consume"): 3,
        ("_Task._resume", "zero", "spawn", "rpc.py:call"): 2,
    }
    fine = {
        ("Resource._end_service", "delay", "serve[Resource]", "sim/cpu.py:consume"): 5,
        ("Process._resume", "zero", "process", "nfs/client.py:_spawn_writeback"): 7,
        ("_WireFlow._tx_granted", "zero", "acquire[Pipe]", "sim/network.py:_next_chunk"): 1,
    }
    assert script.relays(Counter({**relay, **fine})) == Counter(relay)
