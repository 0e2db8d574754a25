"""Differential test: the tail rule against always hopping.

The tail rule (a zero-delay call from the tail of a queue entry — a
pipe grant, a wire completion, the end of a process or spawn leg, a
join's or first-of's firing — or a pipe's ``release()`` hand-off of a
positive service, runs in place when ``Simulator.nothing_else_due``)
claims to move no order.
These tests make the claim empirical: randomized event programs —
timeouts, zero-delay storms, conditions, interrupts, contention for a
FIFO resource (held, and served for a time) and a callback-served
random-arbitration pipe (asked for mid-entry and from the tail of one),
lightweight spawns over generator and event legs, process joins, a
first-of over a process and a timer (an RPC attempt under its retry
timer), events with two waiters, bare ``call_later`` chains, wire
transfers over a zero- or positive-latency network, NIC outages that
cut flows mid-flight — run on ``Simulator`` and on
``AlwaysHopSimulator``, which never lets the rule apply, so every pipe
grant and hand-off (``Pipe._start``), wire completion and completion
of a process or fan-in is a queued call.
Both must produce the same firing log: identical (time, label, value)
triples in identical order; only the number of queue entries may move.

Because the log records *processing* order, not just outcomes, any
reordering of same-instant events fails the comparison even when final
state agrees.
"""

from __future__ import annotations

import random

import pytest

from collections import deque

from repro.sim.engine import Event, Interrupt, Simulator
from repro.sim.network import Network, Pipe
from repro.sim.resources import Resource


class AlwaysHopSimulator(Simulator):
    """The wire before the tail rule: every relay a queued call."""

    def nothing_else_due(self):
        return False


class Store:
    """Bounded FIFO item queue: bare events handed between processes
    (``put``/``get`` succeed each other's events directly), a wake-up
    pattern no product primitive has — kept here for the programs."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self._items = deque()
        self._getters = deque()
        self._putters = deque()

    def put(self, item):
        ev = Event(self.sim)
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(item)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self):
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters and len(self._items) < self.capacity:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed(item)
        elif self._putters:
            put_ev, item = self._putters.popleft()
            put_ev.succeed(item)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev


def _run_program(kernel: type[Simulator], seed: int) -> list:
    """Build and run one randomized program; return its firing log."""
    sim = kernel(seed=12345)
    rnd = random.Random(seed)
    log: list = []

    fifo = Resource(sim, capacity=rnd.randint(1, 3), name="fifo")
    rand = Pipe(sim, name="rand")
    store = Store(sim, capacity=4)
    # Ten chunks a second; some programs' flows start with a zero
    # latency, in a call due at the instant of the transfer.
    net = Network(sim, latency=rnd.choice([0.0, 0.01]), chunk_bytes=1000)
    for name in "abc":
        net.add_nic(name, 1e4)
    procs: list = []

    def hold_pipe(wid: int, s: int):
        """Hold ``rand`` the way a wire flow does — by callbacks, so an
        interrupted worker leaves the hold running, not leaked — and
        return the event fired at the release."""
        released = Event(sim)

        def served(_):
            rand.release()
            log.append((sim.now, "rand-rel", wid, s))
            released.succeed()

        log.append((sim.now, "rand-ask", wid, s))
        rand.serve(rnd_delays[wid][s], served)
        return released

    def hold_pipe_from_tail(wid: int, s: int):
        """The same hold, asked for as the last act of a queue entry:
        granted in place when nothing else is due in that instant."""
        released = Event(sim)

        def ask(_):
            log.append((sim.now, "tail-ask", wid, s))
            rand.serve(rnd_delays[wid][s], served, None, True)

        def served(_):
            rand.release()
            log.append((sim.now, "tail-rel", wid, s))
            released.succeed()

        sim.call_later(rnd_delays[wid][(s + 1) % len(rnd_delays[wid])], ask)
        return released

    def call_chain(wid: int, s: int):
        """A re-arming call, positive and zero delays alternating, whose
        last lap fires the returned event."""
        fired = Event(sim)

        def lap(left):
            log.append((sim.now, "lap", wid, s, left))
            if left:
                sim.call_later(rnd_delays[wid][s] * (left % 2), lambda _: lap(left - 1))
            else:
                fired.succeed((wid, s))

        sim.call_later(rnd_delays[wid][s], lambda _: lap(3))
        return fired

    def ticker(wid: int, s: int):
        def tick(left):
            log.append((sim.now, "tick", wid, s, left))
            if left:
                sim.call_later(rnd_delays[wid][s], lambda _: tick(left - 1))

        return tick

    def set_down(nic, down):
        nic.down = down
        log.append((sim.now, "nic-down" if down else "nic-up", nic.name))

    def child(wid: int, s: int, delay: float):
        """A process a worker joins, or races against a timer."""
        try:
            yield sim.timeout(delay)
            log.append((sim.now, "child", wid, s))
        except Interrupt as intr:
            log.append((sim.now, "child-cut", wid, s, str(intr.cause)))
        return wid, s

    def worker(wid: int, steps: int):
        try:
            yield from _worker_body(wid, steps)
        except Interrupt as intr:
            # A poke can land on any waiting step; where it lands is
            # part of the firing order under test.
            log.append((sim.now, "killed", wid, str(intr.cause)))
        return wid

    def _worker_body(wid: int, steps: int):
        for s in range(steps):
            action = rnd_actions[wid][s]
            if action == "timeout":
                delay = rnd_delays[wid][s]
                yield sim.timeout(delay)
                log.append((sim.now, "timeout", wid, s))
            elif action == "zero-storm":
                # Same-instant storm: several zero-delay timeouts racing.
                yield sim.all_of([sim.timeout(0.0) for _ in range(4)])
                log.append((sim.now, "storm", wid, s))
            elif action == "fifo-res":
                got = yield fifo.acquire()
                log.append((sim.now, "fifo-acq", wid, s, got))
                yield sim.timeout(rnd_delays[wid][s])
                fifo.release()
                log.append((sim.now, "fifo-rel", wid, s))
            elif action == "serve":
                # A service time: interleaves with fifo-res waiters in
                # the same queue, and a poke withdraws or cuts it short.
                got = yield fifo.serve(rnd_delays[wid][s])
                log.append((sim.now, "served", wid, s, got, fifo.busy_time))
            elif action == "rand-res":
                yield hold_pipe(wid, s)
            elif action == "tail-grant":
                yield hold_pipe_from_tail(wid, s)
            elif action == "wire":
                # One byte to eleven chunks; a poke detaches the waiter
                # and the flow runs on, holding its pipes.
                src = "abc"[wid % 3]
                dst = "abc"[(wid + 1 + s % 2) % 3]
                nbytes = int(rnd_delays[wid][s] * 10_000) + 1
                yield net.transfer(src, dst, nbytes)
                log.append((sim.now, "wire", wid, s, nbytes, net.flows_completed))
            elif action == "nic-outage":
                # A NIC dies for a while and comes back: flows through it
                # are lost at their next ask for the wire or at the
                # completion, and their granted chunks drain the pipes.
                nic = net.nics["abc"[(wid + s) % 3]]
                sim.call_later(rnd_delays[wid][s], lambda _, nic=nic: set_down(nic, True))
                sim.call_later(rnd_delays[wid][s] + 0.05, lambda _, nic=nic: set_down(nic, False))
            elif action == "call-chain":
                got = yield call_chain(wid, s)
                log.append((sim.now, "chain-done", wid, s, got))
            elif action == "call-detached":
                # Nobody waits for these: they race whatever comes next.
                tick = ticker(wid, s)
                sim.call_later(0.0, lambda _, tick=tick: tick(2))
                sim.call_later(rnd_delays[wid][s], lambda _, tick=tick: tick(0))
            elif action == "store":
                yield store.put((wid, s))
                item = yield store.get()
                log.append((sim.now, "store", wid, s, item))
            elif action == "any-of":
                idx, val = yield sim.any_of(
                    [sim.timeout(rnd_delays[wid][s]), sim.timeout(0.5)]
                )
                log.append((sim.now, "any-of", wid, s, idx))
            elif action == "spawn":
                def leg(tag):
                    yield sim.timeout(rnd_delays[wid][s] / (tag + 1))
                    log.append((sim.now, "leg", wid, s, tag))
                # Generator legs and an event leg, joined as one.
                values = yield sim.spawn(leg(0), fifo.serve(rnd_delays[wid][s]), leg(1))
                log.append((sim.now, "spawn-join", wid, s, values))
            elif action == "join-proc":
                got = yield sim.process(child(wid, s, rnd_delays[wid][s]))
                log.append((sim.now, "proc-joined", wid, s, got))
            elif action == "retry":
                # The RPC retry shape: an attempt raced against a timer,
                # and cut when the timer wins.
                attempt = sim.process(child(wid, s, rnd_delays[wid][s]))
                timer = sim.timeout(rnd_delays[wid][(s + 1) % len(rnd_delays[wid])])
                idx, _value = yield sim.any_of([attempt, timer])
                log.append((sim.now, "retry", wid, s, idx, attempt.is_alive))
                if attempt.is_alive:
                    attempt.interrupt("retry timer")
            elif action == "two-waiters":
                # One event, a fan-in and two or three processes waiting
                # on it, some lingering after the wake: a waiter's end or
                # a fan-in's firing is its entry's last act only when no
                # other wake is still to come.
                gate = sim.timeout(rnd_delays[wid][s])

                def woken(tag):
                    yield gate
                    log.append((sim.now, "woke", wid, s, tag))
                    if (wid + s + tag) % 2:
                        yield sim.timeout(rnd_delays[wid][s])
                    return tag

                waiters = [sim.process(woken(tag)) for tag in range(2 + s % 2)]
                if (wid + s) % 3:
                    yield (sim.all_of if (wid + s) % 3 == 1 else sim.any_of)([gate])
                    log.append((sim.now, "gate", wid, s))
                for proc in waiters[1:] + waiters[:1]:
                    log.append((sim.now, "joined", wid, s, (yield proc)))
            elif action == "interruptible":
                try:
                    yield sim.timeout(5.0)
                    log.append((sim.now, "survived", wid, s))
                except Interrupt as intr:
                    log.append((sim.now, "interrupted", wid, s, str(intr.cause)))

    def interrupter():
        # Fire mid-run and interrupt every still-alive worker waiting on
        # something — exercises urgent calls racing same-instant ones.
        yield sim.timeout(1.5)
        for p in procs:
            if p.is_alive:
                p.interrupt(f"poke:{p.name}")
                log.append((sim.now, "poked", p.name))

    n_workers = rnd.randint(3, 6)
    actions = [
        "timeout", "zero-storm", "fifo-res", "serve", "rand-res",
        "store", "any-of", "spawn", "interruptible", "call-chain", "call-detached",
        "tail-grant", "wire", "nic-outage", "join-proc", "retry", "two-waiters",
    ]
    rnd_actions = [
        [rnd.choice(actions) for _ in range(rnd.randint(3, 8))]
        for _ in range(n_workers)
    ]
    rnd_delays = [
        [rnd.choice([0.0, 0.0, 0.01, 0.1, 0.25, 1.0]) for _ in range(len(a))]
        for a in rnd_actions
    ]
    for wid in range(n_workers):
        procs.append(sim.process(worker(wid, len(rnd_actions[wid])), name=f"w{wid}"))
    sim.process(interrupter(), name="interrupter")

    def joiner():
        for p in list(procs):
            try:
                value = yield p
                log.append((sim.now, "joined", p.name, value))
            except Interrupt:  # pragma: no cover - joiner never interrupted
                pass
        return "done"

    sim.process(joiner(), name="joiner")
    sim.run()
    assert rand.in_use == 0 and rand._waiters == []
    for name in "abc":
        for pipe in (net.nics[name].tx, net.nics[name].rx):
            assert pipe.in_use == 0 and pipe._waiters == [], pipe.name
    log.append((sim.now, "rng", sim.rng.bit_generator.state["state"]["state"]))
    return [(round(t, 12),) + tuple(rest) for t, *rest in log], sim.stats.events_processed


@pytest.mark.parametrize("seed", range(500))
def test_tail_relays_in_place_match_always_hopping(seed):
    hop_log, hop_entries = _run_program(AlwaysHopSimulator, seed=seed)
    log, entries = _run_program(Simulator, seed=seed)
    assert log == hop_log
    assert entries <= hop_entries


def test_the_programs_do_run_relays_in_place():
    saved = [
        _run_program(AlwaysHopSimulator, seed)[1] - _run_program(Simulator, seed)[1]
        for seed in range(20)
    ]
    assert all(n >= 0 for n in saved) and sum(n > 0 for n in saved) >= 15, saved


