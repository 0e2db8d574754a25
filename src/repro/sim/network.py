"""Cluster network model: NICs, a non-blocking switch, and two flow models.

Every node owns a :class:`Nic` with independent transmit and receive
pipes (full-duplex Ethernet).  Two interchangeable models move bytes:

**Chunked** (the reference oracle).  A transfer is carved into
fixed-size chunks; each chunk holds the sender's tx pipe, is buffered
at the switch, then holds the receiver's rx pipe, with a small per-flow
window keeping tx/rx pipelined.  Faithful at packet-interleaving
granularity, but a 1 GB transfer costs ~4,000 chunks x 4 events (a
grant and a service time on each pipe) — the event loop, not model
fidelity, bounds how large a cluster can be simulated.

**Fluid** (the fast path).  A transfer registers with a max-min
fair-share rate solver (:class:`FluidSolver`) over the tx/rx NIC pipes
and waits on a *single* completion event.  Per-flow rates are
recomputed only when the set of active flows changes (arrival,
departure, NIC fault) — the standard fluid/analytic bandwidth-sharing
technique for exactly this scaling problem.  A store-and-forward tail
(the last chunk's rx leg, which cannot overlap the tx stream) is
charged additively so sub-chunk messages keep the chunked model's
2x store-and-forward cost.

``model`` selects between them: ``"chunked"`` (default — bit-identical
to the pre-fluid schedule) or ``"fluid"`` (wire transfers longer than
two chunks are rate-based; shorter ones — per-RPC headers, single flow
units — keep chunked fidelity).

When the two regimes share a pipe they are *coupled* so neither
double-books the wire: chunked transfers of at least one chunk claim a
phantom share in the water-filling while fluid flows are active, and
chunk service times stretch by the solver's fluid allocation on the
pipe (see :class:`FluidSolver`).

Either way a transfer is one :class:`_WireFlow` driven by event
callbacks: it holds the pipes itself, and :meth:`Network.transfer` is
only the generator that waits for it.

Both models preserve the same invariants:

* an uncontended flow achieves the full link bandwidth (no
  store-and-forward halving beyond the one-chunk tail),
* concurrent flows through one pipe share it fairly — chunked by FIFO /
  seeded-random chunk interleaving, fluid by max-min fair rates,
* byte counters are payload-only (framing costs wire time but never
  lands in ``tx_bytes``/``rx_bytes``; loopback is tallied separately),
* simultaneous completions resolve in FIFO (registration) order.

The switch is modelled as non-blocking (a 16-port gigabit switch has a
backplane far exceeding the sum of its ports), so contention arises
only at NICs — matching the paper's testbed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.resources import Resource

__all__ = ["Nic", "Network", "Flow", "FluidSolver"]

#: Default chunk size used to discretise flows (bytes).  Chosen close to
#: a jumbo-frame TCP window slice: small enough for fair interleaving,
#: large enough to keep the event count manageable.
DEFAULT_CHUNK = 256 * 1024

#: Per-flow switch-buffer window, in chunks: how far a flow's tx legs
#: may run ahead of its rx legs.
FLOW_WINDOW = 3

#: A fluid flow with fewer remaining bytes than this is drained
#: (absolute float-residue guard; half a byte of wire time is far below
#: any tolerance in the experiments).
_DRAINED = 0.5


class Nic:
    """A full-duplex network interface with independent tx/rx pipes."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth: float,
        network: Optional["Network"] = None,
    ):
        """``bandwidth`` is in bytes/second, applied to each direction."""
        if bandwidth <= 0:
            raise ValueError("NIC bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.tx = Resource(sim, 1, name=f"{name}.tx", policy="random")
        self.rx = Resource(sim, 1, name=f"{name}.rx", policy="random")
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
        self._down = False
        self.drop_prob = 0.0
        self.extra_latency = 0.0
        #: Flows lost at the start of a transfer (down NIC or drop coin).
        self.flows_dropped = 0
        #: In-flight *fluid* flows stranded when a NIC went down
        #: (counted at the sender, like ``flows_dropped``).  Chunked
        #: flows have no mid-flight strand: their pipe holds are already
        #: committed chunk by chunk.
        self.flows_stranded = 0
        self._network = network

    def counters(self) -> dict:
        """Snapshot of this NIC's cumulative counters (observability)."""
        return {
            "tx_bytes": self.tx_bytes,
            "rx_bytes": self.rx_bytes,
            "loopback_bytes": self.loopback_bytes,
            "flows_dropped": self.flows_dropped,
            "flows_stranded": self.flows_stranded,
        }

    @property
    def down(self) -> bool:
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        value = bool(value)
        newly_down = value and not self._down
        self._down = value
        if newly_down and self._network is not None:
            # Strand in-flight fluid flows: a dead NIC carries nothing.
            self._network._nic_went_down(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name} {self.bandwidth/1e6:.0f} MB/s>"


class Flow:
    """Bookkeeping record for one transfer (returned for inspection)."""

    __slots__ = ("src", "dst", "nbytes", "start", "end")

    def __init__(self, src: str, dst: str, nbytes: int, start: float):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.start = start
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError("flow still in progress")
        return self.end - self.start


class _FluidFlow:
    """Solver-side state for one rate-based transfer.

    ``done is None`` marks a *phantom*: a chunked transfer registered
    with the solver purely as a bandwidth competitor (infinite backlog,
    never completes through the solver), so fluid rates account for
    chunked load sharing the same pipes.
    """

    __slots__ = ("src", "dst", "remaining", "rate", "done", "_stamp", "_rx_fixed")

    def __init__(self, src: Nic, dst: Nic, nbytes: float, done: Optional[Event]):
        self.src = src
        self.dst = dst
        self.remaining = nbytes
        self.rate = 0.0
        self.done = done
        self._stamp = 0  # recompute round in which the rate was fixed
        self._rx_fixed = False  # bottlenecked by the rx pipe (vs tx)


class FluidSolver:
    """Max-min fair-share bandwidth allocation over NIC tx/rx pipes.

    Rates are recomputed (classic water-filling) only when the active
    flow set changes: arrival, departure/abandon, or a NIC going down —
    and at most once per sim *instant*: mutations mark the solver dirty
    and a zero-delay tick does one recompute for the whole batch, so a
    client issuing fifty async write-backs in one instant costs one
    water-filling pass, not fifty.  Between recomputes every flow drains
    linearly, so one generation-stamped timer for the earliest
    completion replaces the chunked model's per-chunk event storm.
    Stale timers (superseded by a later recompute) fire as no-ops — the
    heap needs no cancellation support.

    Per-pipe flow membership is maintained incrementally on
    add/discard, keeping one recompute at O(flows + pipes²) with small
    constants instead of rebuilding the pipe graph from scratch.

    Ties complete in registration (FIFO) order: the flow dict preserves
    insertion order and simultaneous completions are released in it.

    **Cross-model coupling.**  When fluid and chunked flows share a
    pipe, neither model may pretend it owns the wire.  Chunked
    transfers of at least one chunk register a *phantom* flow
    (``add_phantom``) while any real fluid flow is active, so
    water-filling reserves them a fair share; symmetrically, the
    chunked leg reads ``tx_rate``/``rx_rate`` — link bandwidth minus
    the solver's fluid allocation on that pipe, floored at a fair
    share — for its chunk service times.  Pure-fluid and pure-chunked
    workloads never pay for this: no phantoms are registered and the
    rate helpers short-circuit to full bandwidth.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: dict[_FluidFlow, None] = {}  # insertion-ordered set
        # Persistent pipe membership: nic -> insertion-ordered flow set.
        self._tx: dict[Nic, dict[_FluidFlow, None]] = {}
        self._rx: dict[Nic, dict[_FluidFlow, None]] = {}
        self._clock = 0.0  # sim time of the last drain integration
        self._gen = 0  # invalidates superseded completion timers
        self._tick_armed = False
        self._tick_timer: Optional[Timeout] = None
        #: Rate recomputations performed (solver cost telemetry).
        self.recomputes = 0
        #: Real (non-phantom) fluid flows currently registered.
        self.fluid_count = 0
        # Fluid (non-phantom) bandwidth allocated per pipe, refreshed at
        # each recompute; read by the chunked leg for coupling.
        self.alloc_tx: dict[Nic, float] = {}
        self.alloc_rx: dict[Nic, float] = {}

    def __len__(self) -> int:
        return len(self._flows)

    # -- flow lifecycle -----------------------------------------------------
    def add(self, src: Nic, dst: Nic, nbytes: float) -> _FluidFlow:
        """Register a flow; its ``done`` event fires when it drains."""
        flow = _FluidFlow(src, dst, nbytes, Event(self.sim))
        self.fluid_count += 1
        self._insert(flow)
        return flow

    def add_phantom(self, src: Nic, dst: Nic) -> _FluidFlow:
        """Register a chunked transfer as a pure bandwidth competitor.

        The phantom claims a max-min fair share in every recompute
        (reducing what real fluid flows on the same pipes get) but has
        infinite backlog and no completion event — the chunked leg
        still moves its own bytes chunk by chunk, at the coupled
        ``tx_rate``/``rx_rate``.  Withdraw with :meth:`discard`.
        """
        flow = _FluidFlow(src, dst, float("inf"), None)
        self._insert(flow)
        return flow

    def _insert(self, flow: _FluidFlow) -> None:
        self._integrate()
        self._flows[flow] = None
        self._tx.setdefault(flow.src, {})[flow] = None
        self._rx.setdefault(flow.dst, {})[flow] = None
        self._mark_dirty()

    def discard(self, flow: _FluidFlow) -> None:
        """Withdraw a flow (abandoned transfer); completed flows no-op."""
        if flow in self._flows:
            self._integrate()
            self._remove(flow)
            self._mark_dirty()

    def strand_nic(self, nic: Nic) -> None:
        """A NIC died: every in-flight flow touching it is lost.

        The victims' completion events never fire — like a chunked flow
        dropped on the wire, only a sender-side timeout (the RPC retry
        layer) notices.  Survivors immediately re-share the freed
        bandwidth.
        """
        # Phantoms are exempt: the chunked transfer behind one keeps its
        # committed chunk-by-chunk schedule when a NIC dies (chunked
        # flows are only dropped at transfer start), so it must keep
        # claiming wire share here too.
        victims = [f for f in self._tx.get(nic, ()) if f.done is not None] + [
            f
            for f in self._rx.get(nic, ())
            if f.done is not None and f.src is not nic
        ]
        if not victims:
            return
        self._integrate()
        for flow in victims:
            self._remove(flow)
            flow.src.flows_stranded += 1
        self._mark_dirty()

    # -- internals ----------------------------------------------------------
    def _remove(self, flow: _FluidFlow) -> None:
        del self._flows[flow]
        if flow.done is not None:
            self.fluid_count -= 1
        for nic, members in ((flow.src, self._tx), (flow.dst, self._rx)):
            d = members[nic]
            del d[flow]
            if not d:
                del members[nic]

    def _integrate(self) -> None:
        """Drain every flow at its current rate up to ``sim.now``."""
        dt = self.sim.now - self._clock
        if dt > 0.0:
            for flow in self._flows:
                remaining = flow.remaining - flow.rate * dt
                flow.remaining = remaining if remaining > 0.0 else 0.0
        self._clock = self.sim.now

    def _mark_dirty(self) -> None:
        """Invalidate the completion timer; recompute on a 0-delay tick.

        The generation bump makes any armed completion timer a no-op;
        the zero-delay tick coalesces every same-instant mutation into
        one recompute.  Correct because no simulated time can pass
        between the mutation and the tick.
        """
        self._gen += 1
        if not self._tick_armed:
            self._tick_armed = True
            # One reusable tick timer: it is guaranteed processed by the
            # time the armed flag clears, so re-arming it in place beats
            # allocating a Timeout per flow-set mutation.
            timer = self._tick_timer
            if timer is None:
                self._tick_timer = timer = Timeout(self.sim, 0.0)
            else:
                timer.reset(0.0)
            timer.add_callback(self._tick)

    def _tick(self, _ev: Event) -> None:
        self._tick_armed = False
        if self.fluid_count == 0:
            # Only phantoms (or nothing) left: no rates to solve, no
            # completion to time — but the cached fluid allocation must
            # drop to zero so chunked legs see the wire as free again.
            if self.alloc_tx or self.alloc_rx:
                self.alloc_tx = {}
                self.alloc_rx = {}
            return
        self._recompute()
        dt = min(
            f.remaining / f.rate for f in self._flows if f.done is not None
        )
        gen = self._gen
        timer = Timeout(self.sim, dt if dt > 0.0 else 0.0)
        timer.add_callback(lambda _e: self._fire(gen))

    def _recompute(self) -> None:
        """Water-filling: fix the bottleneck pipe's fair share, repeat.

        Pipe states are ``[capacity_left, n_unfixed]``; each round picks
        the pipe with the smallest fair share, fixes its unfixed flows
        at that share, and charges each fixed flow against its other
        pipe.  Every flow is fixed exactly once (round-stamped), so one
        pass costs O(flows) plus O(pipes) per round.
        """
        self.recomputes += 1
        stamp = self.recomputes
        tx_state = {nic: [nic.bandwidth, len(d)] for nic, d in self._tx.items()}
        rx_state = {nic: [nic.bandwidth, len(d)] for nic, d in self._rx.items()}
        while True:
            share = float("inf")
            best = None
            for members, state in ((self._tx, tx_state), (self._rx, rx_state)):
                for nic, st in state.items():
                    if st[1] > 0 and st[0] / st[1] < share:
                        share = st[0] / st[1]
                        best = (members, state, nic)
            if best is None:
                break
            members, state, nic = best
            other_state = rx_state if state is tx_state else tx_state
            rx_fixed = state is rx_state
            for flow in members[nic]:
                if flow._stamp == stamp:
                    continue
                flow._stamp = stamp
                flow.rate = share
                flow._rx_fixed = rx_fixed
                other = other_state[flow.src if rx_fixed else flow.dst]
                other[0] -= share
                other[1] -= 1
            state[nic][1] = 0
        self._refresh_alloc()

    def _refresh_alloc(self) -> None:
        """Cache the per-pipe *fluid* (non-phantom) allocation.

        Phantom shares are excluded on purpose: they are the wire time
        the chunked side is entitled to, and the chunked pipes already
        serialise their own transfers against each other.
        """
        alloc_tx: dict[Nic, float] = {}
        alloc_rx: dict[Nic, float] = {}
        for flow in self._flows:
            if flow.done is None:
                continue
            alloc_tx[flow.src] = alloc_tx.get(flow.src, 0.0) + flow.rate
            alloc_rx[flow.dst] = alloc_rx.get(flow.dst, 0.0) + flow.rate
        self.alloc_tx = alloc_tx
        self.alloc_rx = alloc_rx

    def tx_rate(self, nic: Nic) -> float:
        """Chunk service rate on ``nic``'s tx pipe under fluid load.

        Link bandwidth minus the fluid allocation, floored at a max-min
        fair share (an unregistered chunked transfer — one too small to
        carry a phantom — must still make progress on a fluid-saturated
        pipe, exactly as its packets would interleave on a real wire).
        """
        if not self._flows:
            return nic.bandwidth
        avail = nic.bandwidth - self.alloc_tx.get(nic, 0.0)
        floor = nic.bandwidth / (1 + len(self._tx.get(nic, ())))
        return avail if avail > floor else floor

    def rx_rate(self, nic: Nic) -> float:
        """Chunk service rate on ``nic``'s rx pipe (see :meth:`tx_rate`)."""
        if not self._flows:
            return nic.bandwidth
        avail = nic.bandwidth - self.alloc_rx.get(nic, 0.0)
        floor = nic.bandwidth / (1 + len(self._rx.get(nic, ())))
        return avail if avail > floor else floor

    def tail_rate(self, nic: Nic) -> float:
        """Drain rate for a completed flow's store-and-forward tail.

        A store-and-forward pipe is not processor-sharing at chunk
        granularity: a chunk is always *served* at full bandwidth, and
        contention shows up as queueing behind other flows' chunks.
        The tail chunk therefore queues only behind survivors that are
        **rx-bottlenecked** on this pipe (they burst chunks into it as
        fast as it drains); tx-paced survivors — flows whose rate was
        fixed by a shared sender pipe — serialise upstream and leave
        the rx pipe idle between their chunks.  One chunk time per
        rx-bottlenecked survivor plus the tail's own service matches
        the chunked model's last-chunk arbitration wait.
        """
        members = self._rx.get(nic)
        if not members:
            return nic.bandwidth
        queue = sum(1 for f in members if f._rx_fixed)
        return nic.bandwidth / (1 + queue)

    def _fire(self, gen: int) -> None:
        if gen != self._gen or not self._flows:
            return  # superseded by a later arrival/departure/fault
        self._integrate()
        done = [f for f in self._flows if f.remaining <= _DRAINED]
        if not done:
            # Float residue left the leading flow a hair short of zero;
            # rates are unchanged since this timer was armed (the
            # generation matched), so that flow is complete by now.
            # (Phantoms carry infinite backlog and never qualify.)
            done = [
                min(
                    (f for f in self._flows if f.done is not None),
                    key=lambda f: f.remaining,
                )
            ]
        for flow in done:
            self._remove(flow)
        for flow in done:  # FIFO: dict preserves registration order
            flow.done.succeed()
        self._mark_dirty()


class Network:
    """Registry of NICs plus the transfer primitive.

    ``latency`` is the one-way message latency (propagation + switch +
    interrupt handling), charged once per transfer.  ``per_message_bytes``
    models framing/RPC header overhead added to every transfer.
    ``model`` picks the flow model — ``"chunked"`` | ``"fluid"`` (see
    the module docstring).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 60e-6,
        chunk_bytes: int = DEFAULT_CHUNK,
        per_message_bytes: int = 120,
        model: str = "chunked",
    ):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if model not in ("chunked", "fluid"):
            raise ValueError(f"unknown network model {model!r}")
        self.sim = sim
        self.latency = latency
        self.chunk_bytes = chunk_bytes
        self.per_message_bytes = per_message_bytes
        self.model = model
        self._nics: dict[str, Nic] = {}
        self._fluid = FluidSolver(sim)
        #: Cached bound method: the per-flow drop check sits on the hot
        #: path of every transfer and attribute-chasing ``sim.rng.random``
        #: each time is measurable at millions of flows.
        self._rng_random = sim.rng.random
        self.flows_completed = 0
        #: Completed wire transfers by model (loopback counts in neither).
        self.flows_chunked = 0
        self.flows_fluid = 0

    def add_nic(self, name: str, bandwidth: float) -> Nic:
        """Register a NIC for node ``name`` (bytes/second per direction)."""
        if name in self._nics:
            raise ValueError(f"duplicate NIC for node {name!r}")
        nic = Nic(self.sim, name, bandwidth, network=self)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> Nic:
        """Look up the NIC registered for ``name``."""
        try:
            return self._nics[name]
        except KeyError:
            raise KeyError(f"no NIC registered for node {name!r}") from None

    @property
    def fluid_flows_active(self) -> int:
        """Real fluid flows currently registered with the rate solver
        (phantom competitors from coupled chunked transfers excluded)."""
        return self._fluid.fluid_count

    @property
    def fluid_recomputes(self) -> int:
        """Rate recomputations the solver has performed."""
        return self._fluid.recomputes

    def _nic_went_down(self, nic: Nic) -> None:
        """Fault hook (``nic.down = True``): strand in-flight fluid flows."""
        self._fluid.strand_nic(nic)

    def transfer(self, src: str, dst: str, nbytes: int):
        """Process generator moving ``nbytes`` from ``src`` to ``dst``.

        Yields until the last byte has been received.  Loopback
        transfers (src == dst) skip the wire entirely; the memory-copy
        cost of loopback is charged by the caller as CPU time, which is
        how the Direct-pNFS prototype's loopback conduit is modelled.

        The generator only *waits*: the bytes are moved by a
        :class:`_WireFlow` that holds the pipes itself, so interrupting
        the waiter (an RPC retry timer) detaches it and the flow runs
        on — an in-flight transfer keeps the wire busy regardless.

        Byte accounting is uniform across models: every completed
        transfer counts one ``flows_completed``; ``nbytes`` of *payload*
        lands in the NIC's ``tx_bytes``/``rx_bytes`` for wire transfers
        and in ``loopback_bytes`` for loopback ones.  The
        ``per_message_bytes`` framing overhead occupies pipe time (it
        slows the wire) but is deliberately excluded from all byte
        counters, so they stay comparable with application-level
        accounting.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        flow = Flow(src, dst, nbytes, self.sim.now)
        if src == dst:
            lnic = self._nics.get(src)
            if lnic is not None:
                lnic.loopback_bytes += nbytes
            flow.end = self.sim.now
            self.flows_completed += 1
            # Delivered in this instant, but through an event like any
            # other message: the receiver joins its server's queues
            # behind work already scheduled, not ahead of it.
            done = Event(self.sim).succeed()
        else:
            snic = self.nic(src)
            dnic = self.nic(dst)
            dropped = snic._down or dnic._down
            for nic in (snic, dnic):
                if not dropped and nic.drop_prob > 0.0:
                    dropped = float(self._rng_random()) < nic.drop_prob
            if dropped:
                # The flow vanishes on the wire: its completion never
                # fires, and no error surfaces here — a waiting process
                # hangs until an RPC timeout (repro.rpc) interrupts it.
                snic.flows_dropped += 1
                done = Event(self.sim)
            else:
                done = _WireFlow(self, snic, dnic, flow).done
        yield done
        if flow.end is None:
            raise AssertionError("a dropped flow must never complete")
        return flow


class _WireFlow:
    """One wire transfer as a callback state machine.

    Every event the flow schedules is a physical delay or a pipe
    arbitration point — there is no process, so nothing is spent on
    start kicks, completion relays or joins:

    * the one-way **latency** ``Timeout``;
    * per chunk, the sender's **tx grant** (``tx.acquire()``), the **tx
      service** ``Timeout``, the receiver's **rx grant** and the **rx
      service** ``Timeout`` — store-and-forward through the switch,
      with the pipes decoupled so a busy receiver never freezes the
      sender's NIC for other flows;
    * one **completion** event (``done``), fired with the counters
      already settled.

    A lone k-chunk flow therefore costs ``4k + 2`` events.  The grants
    stay events even on an idle pipe: the hop decides which same-instant
    requests are eligible in a random arbitration round, which is
    fairness, not plumbing.

    ``FLOW_WINDOW`` bounds switch buffering per flow and keeps tx/rx
    pipelined so an uncontended flow still sees the full link
    bandwidth: after starting an rx leg, the oldest of more than
    ``FLOW_WINDOW`` tracked legs is popped and, if it is still in
    service, the tx pipe is not requested again until it finishes.

    Chunk service times are coupled to the fluid solver: a chunk
    serialises at the pipe's bandwidth minus the current fluid
    allocation (full bandwidth when no fluid flow is active), and a
    chunked transfer of at least one chunk registers a phantom
    competitor with the solver while real fluid flows share its pipes,
    so neither model double-books the wire.  The phantom check is per
    chunk, so a fluid flow arriving mid-transfer is seen within one
    chunk time; tiny header/reply messages skip registration (their
    wire share is noise, their solver churn is not) and rely on the
    fair-share floor in ``tx_rate``/``rx_rate``.

    Under ``model="fluid"`` a flow longer than two chunks takes the
    other branch instead: one solver registration, its drain event,
    then the store-and-forward tail ``Timeout``.  The solver only pays
    off when a flow spans many chunks; a flow of one or two chunks
    lives mostly in store-and-forward fill/drain, where chunk-level
    detail *is* the physics (and the rate model visibly diverges under
    heavy fan-out), while the event savings are nil — so such flows
    (every per-RPC header/reply, and single flow units that exceed one
    chunk only by their framing bytes) stay chunked in both models.
    """

    __slots__ = (
        "net", "snic", "dnic", "record", "done", "wire_bytes", "remaining",
        "phantom", "legs", "live", "blocked_on",
    )

    def __init__(self, net: Network, snic: Nic, dnic: Nic, record: Flow):
        self.net = net
        self.snic = snic
        self.dnic = dnic
        self.record = record
        self.done = Event(net.sim)
        self.wire_bytes = self.remaining = record.nbytes + net.per_message_bytes
        self.phantom: Optional[_FluidFlow] = None
        #: The newest ``FLOW_WINDOW`` rx legs, oldest first.
        self.legs: deque[_RxLeg] = deque()
        #: Rx legs queued or in service (legs outside the window are done).
        self.live = 0
        #: The popped rx leg the next tx request waits for, if any.
        self.blocked_on: Optional[_RxLeg] = None
        latency = net.latency + snic.extra_latency + dnic.extra_latency
        if latency > 0:
            Timeout(net.sim, latency).add_callback(self._arrived)
        else:
            self._arrived(None)

    def _arrived(self, _ev) -> None:
        net = self.net
        if net.model == "fluid" and self.wire_bytes > 2 * net.chunk_bytes:
            fluid = net._fluid.add(self.snic, self.dnic, float(self.wire_bytes))
            # Never fires if a NIC dies mid-drain: the flow is stranded.
            fluid.done.add_callback(self._drained)
        else:
            self._next_chunk()

    # -- chunked branch -------------------------------------------------------
    def _next_chunk(self) -> None:
        if self.remaining <= 0:
            if not self.live:
                self._finish(fluid=False)
            return
        solver = self.net._fluid
        if (
            solver.fluid_count
            and self.phantom is None
            and self.wire_bytes >= self.net.chunk_bytes
        ):
            self.phantom = solver.add_phantom(self.snic, self.dnic)
        self.snic.tx.acquire().add_callback(self._tx_granted)

    def _tx_granted(self, _ev) -> None:
        net = self.net
        chunk = min(self.remaining, net.chunk_bytes)
        Timeout(net.sim, chunk / net._fluid.tx_rate(self.snic)).add_callback(self._tx_served)

    def _tx_served(self, _ev) -> None:
        self.snic.tx.release()
        chunk = min(self.remaining, self.net.chunk_bytes)
        self.remaining -= chunk
        leg = _RxLeg(self, chunk)
        self.live += 1
        legs = self.legs
        legs.append(leg)
        self.dnic.rx.acquire().add_callback(leg.granted)
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
            self._finish(fluid=False)

    # -- fluid branch ---------------------------------------------------------
    def _drained(self, _ev) -> None:
        # Store-and-forward tail: the last chunk's rx leg cannot overlap
        # the tx stream, so sub-chunk messages cost two wire crossings
        # exactly as under the chunked model; for large flows the tail
        # is one chunk time — noise.  Charged at ``tail_rate``: full
        # bandwidth on an idle or tx-paced pipe, one extra chunk time
        # per rx-bottlenecked survivor still bursting into it — the
        # arbitration wait the chunked model's last chunk would see.
        net = self.net
        tail = min(self.wire_bytes, net.chunk_bytes) / net._fluid.tail_rate(self.dnic)
        Timeout(net.sim, tail).add_callback(self._tail_served)

    def _tail_served(self, _ev) -> None:
        self._finish(fluid=True)

    # -- completion -----------------------------------------------------------
    def _finish(self, fluid: bool) -> None:
        net = self.net
        if self.phantom is not None:
            net._fluid.discard(self.phantom)
        if fluid:
            net.flows_fluid += 1
        else:
            net.flows_chunked += 1
        record = self.record
        self.snic.tx_bytes += record.nbytes
        self.dnic.rx_bytes += record.nbytes
        record.end = net.sim.now
        net.flows_completed += 1
        self.done.succeed(record)


class _RxLeg:
    """One chunk buffered at the switch, then serialised into the rx pipe."""

    __slots__ = ("flow", "nbytes", "alive")

    def __init__(self, flow: _WireFlow, nbytes: int):
        self.flow = flow
        self.nbytes = nbytes
        self.alive = True

    def granted(self, _ev) -> None:
        flow = self.flow
        net = flow.net
        Timeout(net.sim, self.nbytes / net._fluid.rx_rate(flow.dnic)).add_callback(self.served)

    def served(self, _ev) -> None:
        self.flow._rx_served(self)
