"""Cluster network model: NICs, a non-blocking switch, chunked flows.

Every node owns a :class:`Nic` with independent transmit and receive
pipes (full-duplex Ethernet; a direction is a :class:`Pipe`).  A
transfer is carved into fixed-size chunks; each chunk holds the sender's
tx pipe, is buffered at the switch, then holds the receiver's rx pipe,
with a small per-flow window keeping tx/rx pipelined.  That is faithful
at packet-interleaving granularity — concurrent flows through one pipe
share it by seeded-random chunk interleaving, which is what reproduces
bandwidth sharing among concurrent clients — at a cost of two queued
calls per chunk (a service time on each pipe) plus a grant hop wherever
a grant or hand-off is made while something else is due in the same
instant.

A transfer is one :class:`_WireFlow` driven by the calls it schedules:
it holds the pipes itself, and :meth:`Network.transfer` returns its one
event, ``done``.  A message whose wire size (payload plus
``per_message_bytes``) fits one chunk — every header, metadata call and
small I/O — is a :class:`_Message` instead: the same queue entries,
checks and counters in three states, without the leg objects and
window a multi-chunk flow needs to pipeline.  Each pipe grant and its
service time are one :meth:`Pipe.serve` call.

Invariants:

* an uncontended flow achieves the full link bandwidth (no
  store-and-forward halving beyond the one-chunk tail),
* concurrent flows through one pipe share it fairly,
* byte counters are payload-only (framing costs wire time but never
  lands in ``tx_bytes``/``rx_bytes``; loopback is tallied separately),
* a flow touching a dead NIC never completes: it is dropped at transfer
  start, or lost mid-flight the next time it would ask for the wire
  (see :class:`_WireFlow`).

The switch is modelled as non-blocking (a 16-port gigabit switch has a
backplane far exceeding the sum of its ports), so contention arises
only at NICs — matching the paper's testbed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.engine import Event, SimulationError, Simulator, _fire

__all__ = ["Pipe", "Nic", "Network"]

#: Default chunk size used to discretise flows (bytes).  Chosen close to
#: a jumbo-frame TCP window slice: small enough for fair interleaving,
#: large enough to keep the event count manageable.
DEFAULT_CHUNK = 256 * 1024

#: Per-flow switch-buffer window, in chunks: how far a flow's tx legs
#: may run ahead of its rx legs.
FLOW_WINDOW = 3


class Pipe:
    """One direction of a NIC: one holder, the next one drawn at random.

    ``release()`` hands the pipe to a uniformly random waiter, not the
    oldest: packet interleaving is not per-flow round-robin at
    millisecond scale, and the randomness (``sim.rng``, so a seed fixes
    it) is what lets co-scheduled identical clients drift apart instead
    of convoying in deterministic lockstep.  The pipe is callback-served
    — ``serve(duration, fn, arg)`` has ``fn(arg)`` called ``duration``
    seconds after the pipe became the caller's, still holding it (``fn``
    releases it); no process can park on it.

    The grant of an idle pipe is a queued call, :meth:`_start`, whenever
    the hop decides something: it puts the new holder behind what the
    instant has already scheduled, and that order decides who is queued
    when the next release draws — inlining it unconditionally measured
    as a fairness change (PR 14).  It decides nothing when
    :meth:`Simulator.nothing_else_due` — the queued grant would be the
    next thing the loop runs — and nothing after it in the running
    entry can land beside the service's end:

    * ``serve`` from the ``tail`` of the entry (nothing follows the call
      that the grant could overtake) schedules the service time in place;
    * ``release()`` handing the pipe to a waiter whose service has a
      positive duration does too.  The releaser runs on, but its
      zero-delay calls are due before that end, and the contract of a
      holder's callback — after ``release()``, it schedules positive
      delays only through pipe grants and wire completions — keeps
      everything else behind it, as behind the hop.  A zero-duration
      service would end in this instant, ahead of the releaser's
      zero-delay calls: it hops.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        #: 1 while the pipe is held, else 0.
        self.in_use = 0
        #: ``(duration, fn, arg)`` of the queued requests, in arrival order.
        self._waiters: list[tuple] = []

    def serve(self, duration: float, fn, arg=None, tail: bool = False) -> None:
        """Hold the pipe for ``duration``, then call ``fn(arg)`` holding it.

        The service starts a hop from now at the earliest — unless
        ``tail`` (the caller's word that it does nothing after this call
        that the grant could overtake) and nothing else is due this
        instant: then now.
        """
        if self.in_use:
            self._waiters.append((duration, fn, arg))
            return
        self.in_use = 1
        sim = self.sim
        if tail and sim.nothing_else_due():
            sim._enqueue(fn, arg, duration)
        else:
            sim._enqueue(self._start, (duration, fn, arg), 0.0)

    def _start(self, job: tuple) -> None:
        """The grant hop: the holder's service time begins."""
        duration, fn, arg = job
        self.sim._enqueue(fn, arg, duration)

    def release(self) -> None:
        """Hand the pipe to a random waiter, or leave it idle.

        The waiter's service starts a hop from now — or now, when it
        lasts a positive time and nothing else is due this instant.
        """
        if not self.in_use:
            raise SimulationError(f"release() of idle pipe {self.name or 'pipe'}")
        waiters = self._waiters
        if not waiters:
            self.in_use = 0
            return
        n = len(waiters)
        # A lone waiter needs no draw: ``integers(0, 1)`` consumes no
        # generator state (pinned in tests/sim/test_resources.py).
        sim = self.sim
        duration, fn, arg = job = waiters.pop(int(sim.rng.integers(0, n)) if n > 1 else 0)
        if duration > 0 and sim.nothing_else_due():
            # The hop would be the loop's next entry, and the end it
            # schedules lands after this instant: schedule it here.
            sim._enqueue(fn, arg, duration)
        else:
            sim._enqueue(self._start, job, 0.0)


class Nic:
    """A full-duplex network interface with independent tx/rx pipes."""

    def __init__(self, sim: Simulator, name: str, bandwidth: float):
        """``bandwidth`` is in bytes/second, applied to each direction."""
        if bandwidth <= 0:
            raise ValueError("NIC bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.tx = Pipe(sim, f"{name}.tx")
        self.rx = Pipe(sim, f"{name}.rx")
        #: Payload bytes sent/received over the wire.  Framing overhead
        #: (``Network.per_message_bytes``) is charged for *time* on the
        #: pipes but excluded here, so these counters compare directly
        #: against application-level byte counts.  Loopback transfers
        #: never touch the wire and are tallied in ``loopback_bytes``.
        self.tx_bytes = 0
        self.rx_bytes = 0
        #: Payload bytes moved through loopback (src == dst) transfers.
        self.loopback_bytes = 0
        #: Fault-injection state (see :mod:`repro.sim.faults`).  A down
        #: NIC loses every flow touching it; ``drop_prob`` loses a
        #: random fraction; ``extra_latency`` is added to the one-way
        #: latency of flows through this NIC.  Lost flows never
        #: complete — only sender-side timeouts (the RPC retry layer)
        #: notice them, exactly as on a real network.
        self.down = False
        self.drop_prob = 0.0
        self.extra_latency = 0.0
        #: Flows this NIC sent that were lost: dropped at the start of a
        #: transfer (down NIC or drop coin) or cut mid-flight by a NIC
        #: death.  Each lost flow counts once, at the sender.
        self.flows_dropped = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name} {self.bandwidth/1e6:.0f} MB/s>"


class Network:
    """Registry of NICs plus the transfer primitive.

    ``latency`` is the one-way message latency (propagation + switch +
    interrupt handling), charged once per transfer.  ``per_message_bytes``
    models framing/RPC header overhead added to every transfer.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 60e-6,
        chunk_bytes: int = DEFAULT_CHUNK,
        per_message_bytes: int = 120,
    ):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self.sim = sim
        self.latency = latency
        self.chunk_bytes = chunk_bytes
        self.per_message_bytes = per_message_bytes
        #: The registered NICs by node name.
        self.nics: dict[str, Nic] = {}
        self.flows_completed = 0
        #: Completed wire transfers (``flows_completed`` minus loopback).
        self.flows_chunked = 0

    def add_nic(self, name: str, bandwidth: float) -> Nic:
        """Register a NIC for node ``name`` (bytes/second per direction)."""
        if name in self.nics:
            raise ValueError(f"duplicate NIC for node {name!r}")
        nic = Nic(self.sim, name, bandwidth)
        self.nics[name] = nic
        return nic

    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns the event that fires (value ``None``) when the last byte
        has been received.  Loopback transfers (src == dst) skip the
        wire entirely; the memory-copy cost of loopback is charged by
        the caller as CPU time, which is how the Direct-pNFS
        prototype's loopback conduit is modelled.

        The caller only *waits*: the bytes are moved by a
        :class:`_Message` (one chunk) or a :class:`_WireFlow` that holds
        the pipes itself, so interrupting the waiter (an RPC retry
        timer) detaches it and the flow runs on — an in-flight transfer
        keeps the wire busy regardless.

        Every completed transfer counts one ``flows_completed``;
        ``nbytes`` of *payload* lands in the NIC's
        ``tx_bytes``/``rx_bytes`` for wire transfers and in
        ``loopback_bytes`` for loopback ones.  The
        ``per_message_bytes`` framing overhead occupies pipe time (it
        slows the wire) but is deliberately excluded from all byte
        counters, so they stay comparable with application-level
        accounting.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst:
            lnic = self.nics.get(src)
            if lnic is not None:
                lnic.loopback_bytes += nbytes
            self.flows_completed += 1
            # Delivered in this instant, but through an event like any
            # other message: the receiver joins its server's queues
            # behind work already scheduled, not ahead of it.
            return Event(self.sim).succeed()
        nics = self.nics
        try:
            snic = nics[src]
            dnic = nics[dst]
        except KeyError as missing:
            raise KeyError(f"no NIC registered for node {missing.args[0]!r}") from None
        # The sender's drop coin first, the receiver's only if that one
        # missed.
        if (
            snic.down
            or dnic.down
            or (snic.drop_prob > 0.0 and float(self.sim.rng.random()) < snic.drop_prob)
            or (dnic.drop_prob > 0.0 and float(self.sim.rng.random()) < dnic.drop_prob)
        ):
            # The flow vanishes on the wire: its completion never
            # fires, and no error surfaces here — a waiting process
            # hangs until an RPC timeout (repro.rpc) interrupts it.
            snic.flows_dropped += 1
            return Event(self.sim)
        if 0 < nbytes + self.per_message_bytes <= self.chunk_bytes:
            return _Message(self, snic, dnic, nbytes).done
        return _WireFlow(self, snic, dnic, nbytes).done


class _WireFlow:
    """One multi-chunk wire transfer as a callback state machine.

    Every hop is a call the flow schedules on itself (``call_later`` or
    a pipe's ``serve``) and ``done`` is the only event — there is no
    process, so nothing is spent on start kicks, completion relays or
    joins.
    Each queue entry is a physical delay or a pipe arbitration point:

    * the one-way **latency**;
    * per chunk, the **tx service** time and the **rx service** time —
      store-and-forward through the switch, with the pipes decoupled so
      a busy receiver never freezes the sender's NIC for other flows;
    * per chunk, the sender's **tx grant** and the receiver's **rx
      grant** (:meth:`Pipe._start`), and once the **completion**
      (``done``, fired with the counters already settled) — each of
      the three only when it is made, or handed on by a ``release()``,
      while something else is due in the same instant.

    The three zero-delay relays are made from the tail of a queue entry
    — ``_next_chunk`` is one or ends one, ``_finish`` ends
    ``_next_chunk``, and the rx grant in ``_tx_served`` does nothing but
    one heap push the rest of the entry neither reads nor can overtake
    — so when :meth:`Simulator.nothing_else_due` they are what the loop
    would run next, and run in place (see :class:`Pipe`); so does a
    hand-off, whose service time is positive.  A lone flow of k chunks
    therefore costs ``2k + 1`` queue entries, its three kinds of
    physical delay — a short last chunk that catches up with the one
    ahead of it on the rx pipe waits, and is handed the pipe in place.
    A flow beside anything else due in the instant of a grant or
    hand-off pays the hop — up to ``4k + 2`` — because there the hop
    decides which same-instant requests are queued when a release
    draws, which is fairness, not plumbing.  A zero latency is an entry
    like any other: the flow starts in a queued call of its own.

    ``FLOW_WINDOW`` bounds switch buffering per flow and keeps tx/rx
    pipelined so an uncontended flow still sees the full link
    bandwidth: after starting an rx leg, the oldest of more than
    ``FLOW_WINDOW`` tracked legs is popped and, if it is still in
    service, the tx pipe is not requested again until it finishes.

    A NIC that dies mid-flight loses the flow: the next time the flow
    would ask for the tx pipe, or complete, with either of its NICs
    down, it stops instead — ``done`` never fires, no bytes are counted
    and the sender's ``flows_dropped`` goes up by one.  Chunks already
    granted a pipe finish their service and release it, so the pipes
    drain and the survivors re-share them.

    A message that fits one chunk is a :class:`_Message` instead; this
    class stays its reference (``tests/sim/test_message_differential.py``
    drives both through the same scenarios).
    """

    __slots__ = (
        "net", "snic", "dnic", "nbytes", "done", "remaining",
        "legs", "live", "blocked_on", "lost",
    )

    def __init__(self, net: Network, snic: Nic, dnic: Nic, nbytes: int):
        self.net = net
        self.snic = snic
        self.dnic = dnic
        #: Payload bytes, counted on both NICs when the flow completes.
        self.nbytes = nbytes
        self.done = Event(net.sim)
        self.remaining = nbytes + net.per_message_bytes
        #: The newest ``FLOW_WINDOW`` rx legs, oldest first.
        self.legs: deque[_RxLeg] = deque()
        #: Rx legs queued or in service (legs outside the window are done).
        self.live = 0
        #: The popped rx leg the next tx request waits for, if any.
        self.blocked_on: Optional[_RxLeg] = None
        #: Cut by a NIC death: no further chunk is sent, ``done`` stays unfired.
        self.lost = False
        net.sim.call_later(net.latency + snic.extra_latency + dnic.extra_latency, self._next_chunk)

    def _next_chunk(self, _=None) -> None:
        """Ask for the tx pipe, or settle the flow once nothing is left.

        A queue entry of its own or the last act of one: a tail.
        """
        if self.lost:
            return
        if self.snic.down or self.dnic.down:
            self.lost = True
            self.snic.flows_dropped += 1
        elif self.remaining > 0:
            # Sized now: ``remaining`` only moves when this request's
            # service ends.
            net = self.net
            chunk = net.chunk_bytes if self.remaining > net.chunk_bytes else self.remaining
            self.snic.tx.serve(chunk / self.snic.bandwidth, self._tx_served, chunk, True)
        elif not self.live:
            self._finish()

    def _tx_served(self, chunk: int) -> None:
        self.snic.tx.release()
        self.remaining -= chunk
        leg = _RxLeg()
        self.live += 1
        legs = self.legs
        legs.append(leg)
        # As good as a tail: all the grant does is one heap push.
        self.dnic.rx.serve(chunk / self.dnic.bandwidth, self._rx_served, leg, True)
        if len(legs) > FLOW_WINDOW:
            oldest = legs.popleft()
            if oldest.alive:
                self.blocked_on = oldest
                return
        self._next_chunk()

    def _rx_served(self, leg: "_RxLeg") -> None:
        self.dnic.rx.release()
        leg.alive = False
        self.live -= 1
        if self.blocked_on is leg:
            self.blocked_on = None
            self._next_chunk()
        elif self.remaining <= 0 and not self.live:
            self._next_chunk()

    def _finish(self) -> None:
        net = self.net
        net.flows_chunked += 1
        self.snic.tx_bytes += self.nbytes
        self.dnic.rx_bytes += self.nbytes
        net.flows_completed += 1
        done = self.done
        if net.sim.nothing_else_due():
            # The firing would be the loop's next entry: fire here.
            _fire(done)
        else:
            done.succeed()


class _RxLeg:
    """One chunk buffered at the switch, then serialised into the rx pipe."""

    __slots__ = ("alive",)

    def __init__(self):
        self.alive = True


class _Message:
    """A transfer that fits one chunk: :class:`_WireFlow`'s rules with
    none of its windowing.

    Three states, each a queue entry of one physical delay — the
    one-way **latency**, the **tx service** and the **rx service** —
    plus, as for a flow, a pipe's grant hop wherever one decides
    something (:class:`Pipe`) and a ``done`` fired in place when
    :meth:`Simulator.nothing_else_due`.  No leg object, window or live
    count: one chunk has nothing to pipeline.  The NIC checks are the
    flow's three — at send, after tx service (the rx service already
    requested still runs, and releases its pipe) and at rx service —
    and so are the counters, so every event, draw and count matches a
    one-chunk :class:`_WireFlow` exactly.
    """

    __slots__ = ("net", "snic", "dnic", "nbytes", "done", "lost")

    def __init__(self, net: Network, snic: Nic, dnic: Nic, nbytes: int):
        self.net = net
        self.snic = snic
        self.dnic = dnic
        #: Payload bytes, counted on both NICs when the message arrives.
        self.nbytes = nbytes
        self.done = Event(net.sim)
        #: Cut by a NIC death after tx service: ``done`` stays unfired.
        self.lost = False
        net.sim.call_later(net.latency + snic.extra_latency + dnic.extra_latency, self._send)

    def _send(self, _) -> None:
        """Ask for the tx pipe: the latency's queue entry, a tail."""
        snic = self.snic
        if snic.down or self.dnic.down:
            snic.flows_dropped += 1
        else:
            wire = self.nbytes + self.net.per_message_bytes
            snic.tx.serve(wire / snic.bandwidth, self._tx_served, wire, True)

    def _tx_served(self, wire: int) -> None:
        snic = self.snic
        dnic = self.dnic
        snic.tx.release()
        dnic.rx.serve(wire / dnic.bandwidth, self._rx_served, None, True)
        if snic.down or dnic.down:
            self.lost = True
            snic.flows_dropped += 1

    def _rx_served(self, _) -> None:
        snic = self.snic
        dnic = self.dnic
        dnic.rx.release()
        if self.lost:
            return
        if snic.down or dnic.down:
            snic.flows_dropped += 1
            return
        net = self.net
        net.flows_chunked += 1
        snic.tx_bytes += self.nbytes
        dnic.rx_bytes += self.nbytes
        net.flows_completed += 1
        if net.sim.nothing_else_due():
            # The firing would be the loop's next entry: fire here.
            _fire(self.done)
        else:
            self.done.succeed()
