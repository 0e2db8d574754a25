"""Differential test: a one-chunk ``_Message`` against the ``_WireFlow`` it forks from.

``Network.transfer`` sends a message whose wire size (payload plus
``PER_MESSAGE_BYTES``) fits one chunk as a :class:`_Message` — three
states, no window — and everything else as a :class:`_WireFlow`.  The
fork claims to move nothing.  These scenarios make the claim empirical:
1–3 senders into one sink, each with 1–3 messages that may overlap,
wire sizes from a bare frame to exactly one chunk,
zero or positive latency, a NIC's ``extra_latency`` and ``drop_prob``,
and a NIC that dies — before the send, during tx service or during rx
service — and perhaps comes back.  Each runs twice: as the product
sends it, and with every one-chunk message built as a ``_WireFlow``
instead.  Finish times, queue entries, the random stream, and every
drop, completion and byte counter must agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Network, Simulator
from repro.sim import network as network_mod

CHUNK = network_mod.CHUNK_BYTES
FRAME = network_mod.PER_MESSAGE_BYTES
#: Bytes per second: a chunk takes a millisecond on either pipe.
BW = CHUNK * 1e3


@st.composite
def scenarios(draw):
    n_senders = draw(st.integers(1, 3))
    sends = [
        [
            (
                # When the message is sent: a sender's messages overlap.
                draw(st.sampled_from([0.0, 0.0, 2e-4, 1e-3, 2.5e-3])),
                # The wire size runs from a bare frame to exactly one chunk.
                draw(st.integers(0, CHUNK - FRAME)),
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        for _ in range(n_senders)
    ]
    fault = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.just("down"),
                st.integers(0, n_senders),
                # Before the send, inside a tx or an rx service, or later.
                st.sampled_from([1e-5, 4e-5, 1.5e-4, 5e-4, 1.2e-3, 1.8e-3, 3.1e-3]),
                st.sampled_from([None, 3e-4, 1e-3, 2e-3]),
            ),
            st.tuples(st.just("drop"), st.integers(0, n_senders), st.sampled_from([0.3, 0.7])),
        )
    )
    return {
        "latency": draw(st.sampled_from([0.0, 6e-5])),
        "extra": draw(st.sampled_from([None, (0, 3e-5), (1, 1e-4)])),
        "sends": sends,
        "fault": fault,
    }


def run(scenario: dict, reference: bool, monkeypatch) -> dict:
    """One run; with ``reference`` every message is a ``_WireFlow``."""
    with monkeypatch.context() as mp:
        if reference:
            mp.setattr(network_mod, "_Message", network_mod._WireFlow)
        else:
            # Every message here fits one chunk: no flow may be built.
            mp.setattr(network_mod, "_WireFlow", None)
        sim = Simulator(seed=11)
        net = Network(sim, latency=scenario["latency"])
        nics = [net.add_nic(f"n{i}", BW) for i in range(len(scenario["sends"]) + 1)]
        if scenario["extra"] is not None:
            which, extra = scenario["extra"]
            nics[which].extra_latency = extra
        fault = scenario["fault"]
        if fault is not None and fault[0] == "drop":
            nics[fault[1]].drop_prob = fault[2]
        elif fault is not None:
            _, which, at, back_after = fault

            def die(_):
                nics[which].down = True
                if back_after is not None:
                    sim.call_later(back_after, revive)

            def revive(_):
                nics[which].down = False

            sim.call_later(at, die)

        finished: dict = {}

        def send(i, j, start, nbytes):
            if start:
                yield sim.timeout(start)
            yield net.transfer(f"n{i}", "n0", nbytes)
            finished[i, j] = sim.now

        for i, sends in enumerate(scenario["sends"], start=1):
            for j, (start, nbytes) in enumerate(sends):
                sim.process(send(i, j, start, nbytes))
        sim.run()
        for nic in nics:
            assert nic.tx.in_use == nic.rx.in_use == 0
            assert nic.tx._waiters == nic.rx._waiters == []
        return {
            "finished": finished,
            "entries": sim.stats.events_processed,
            "scheduled": sim.stats.events_scheduled,
            "rng": sim.rng.bit_generator.state["state"],
            "flows": (net.flows_completed, net.flows_chunked),
            "nics": [(n.tx_bytes, n.rx_bytes, n.flows_dropped) for n in nics],
        }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenarios())
def test_a_one_chunk_message_is_a_one_chunk_flow(scenario):
    with pytest.MonkeyPatch.context() as mp:
        message = run(scenario, False, mp)
        flow = run(scenario, True, mp)
    assert message == flow


def test_the_cases_the_fork_must_keep_by_hand():
    """Both boundary sizes, contention, and a message lost at each of
    its three NIC checks — each also run against the reference."""
    lost_at = set()

    def watch(name):
        method = getattr(network_mod._Message, name)

        def watched(self, arg, *rest):
            before = self.snic.flows_dropped
            method(self, arg, *rest)
            if self.snic.flows_dropped > before:
                lost_at.add(name)

        return watched

    base = {"latency": 6e-5, "extra": None, "fault": None}
    lone = [[(0.0, CHUNK - FRAME)]]
    cases = {
        # The sink down at the send; dying in tx service; in rx service.
        "send": dict(base, sends=lone, fault=("down", 0, 1e-5, None)),
        "tx": dict(base, sends=lone, fault=("down", 0, 5e-4, None)),
        "rx": dict(base, sends=lone, fault=("down", 0, 1.5e-3, None)),
        # The sender dies in tx service and is back in rx service: still
        # lost, and counted once.
        "revived": dict(base, sends=lone, fault=("down", 1, 5e-4, 1e-3)),
        # A bare frame and exactly one chunk of wire, three senders in
        # one instant, one of them with three messages at once.
        "edges": dict(
            base, sends=[[(0.0, 0)], [(0.0, CHUNK - FRAME)], [(0.0, CHUNK // 2)] * 3]
        ),
    }
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_send", "_tx_served", "_rx_served"):
            mp.setattr(network_mod._Message, name, watch(name))
        for case, scenario in cases.items():
            results[case] = run(scenario, False, mp)
            assert results[case] == run(scenario, True, mp), case
    assert lost_at == {"_send", "_tx_served", "_rx_served"}
    for case in ("send", "tx", "rx", "revived"):
        assert results[case]["finished"] == {} and results[case]["flows"] == (0, 0)
    assert results["revived"]["nics"][1][2] == 1
    assert len(results["edges"]["finished"]) == 5 and results["edges"]["flows"] == (5, 5)
