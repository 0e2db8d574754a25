"""Generic request/response RPC over the simulated network.

Both protocol families in the reproduction — the PVFS2 storage protocol
(BMI-style) and NFSv4.1 (ONC RPC) — are built on this layer.  A call
charges, in order:

1. client CPU: per-call marshalling + per-byte copy of the request
   payload,
2. the wire: request bytes from client node to server node,
3. a server worker thread (FIFO; the paper's servers run 8), holding it
   while charging server CPU (per-call + per-byte in), running the
   handler (which may perform disk I/O or nested RPCs), and charging
   per-byte CPU for the reply,
4. the wire: reply bytes back to the client,
5. client CPU: per-byte copy of the reply payload.

Handlers are simulation generators ``handler(args, payload)`` returning
``(result, reply_payload)`` where ``reply_payload`` is a
:class:`~repro.vfs.api.Payload` or ``None``.  Raising an
:class:`~repro.vfs.api.FsError` inside a handler propagates the error
to the caller of :func:`call` (transported in the reply, charged at
header size), mirroring NFS status codes.  A handler raising anything
*else* is a server bug: the server converts it into a traced
:class:`RpcServerError` reply so accounting (``calls_served``, trace
records, thread release) stays consistent.

Failure handling
----------------
Without a :class:`RpcPolicy`, a call behaves exactly as described above
and blocks forever if the server is down or the network eats a message
— the pre-fault-layer behaviour, preserved so calibrated benchmarks are
bit-identical.  With a policy, each attempt runs under a client-side
timer: on expiry the attempt is interrupted (resources are released via
the normal unwind path), the timer backs off exponentially, and the
request is retransmitted up to ``max_retries`` times before the call
raises :class:`RpcTimeout` — deliberately *not* an ``FsError``, since
no reply (not even an error reply) was ever received.

Retransmission is made exactly-once for non-idempotent operations by
the NFSv4.1 session reply cache: pass ``session``/``seq`` (see
:class:`repro.nfs.sessions.Session`) and a retried request whose
original execution already completed server-side replays the cached
reply instead of re-running the handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Event, Interrupt, SimulationError, Simulator
from repro.sim.node import Node
from repro.sim.resources import Resource
from repro.vfs.api import FsError, Payload

__all__ = [
    "RpcCosts",
    "RpcPolicy",
    "RpcServer",
    "RpcServerError",
    "RpcTimeout",
    "call",
]

#: Bytes of header/marshalling attributed to every request and reply.
HEADER_BYTES = 160


class RpcTimeout(Exception):
    """A call exhausted its retry budget without receiving a reply.

    Distinct from :class:`~repro.vfs.api.FsError` on purpose: an
    ``FsError`` is a *reply* (the server answered with a status code);
    a timeout means the server may or may not have executed the request
    — the caller must treat the outcome as unknown.
    """

    def __init__(self, message: str, server: str = "", proc: str = "", attempts: int = 0):
        super().__init__(message)
        self.server = server
        self.proc = proc
        self.attempts = attempts


class RpcServerError(FsError):
    """Reply carrying an unexpected (non-``FsError``) handler failure.

    The server-side equivalent of NFS4ERR_SERVERFAULT: the handler
    crashed, the server logged it and sent an error reply instead of
    silently dropping the exchange.
    """


@dataclass(frozen=True)
class RpcPolicy:
    """Client-side timeout/retry behaviour for one call (or one stack).

    ``timeout`` is the first attempt's patience; each retransmission
    multiplies it by ``backoff`` up to ``max_timeout`` (classic RPC RTO
    doubling).  ``max_retries`` bounds retransmissions *after* the
    first attempt, so a call makes at most ``1 + max_retries`` attempts
    before raising :class:`RpcTimeout`.
    """

    timeout: float = 1.0
    max_retries: int = 5
    backoff: float = 2.0
    max_timeout: float = 30.0

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_timeout < self.timeout:
            raise ValueError("max_timeout must be >= timeout")

    def timeout_for(self, attempt: int) -> float:
        """Timer for attempt number ``attempt`` (0-based)."""
        return min(self.timeout * self.backoff**attempt, self.max_timeout)


@dataclass(frozen=True)
class RpcCosts:
    """CPU cost model for one protocol stack (reference-speed seconds).

    ``*_per_call`` covers marshalling, context switches and interrupt
    handling; ``*_per_byte*`` covers data copies (user↔kernel↔NIC).  The
    server's per-byte cost is per direction: ``_in`` per request-payload
    byte (write path), ``_out`` per reply-payload byte (read path), so a
    data server whose write and read pipelines differ is two numbers.
    The calibrated values are the ``NfsConfig`` / ``Pvfs2Config``
    defaults.
    """

    client_per_call: float = 20e-6
    client_per_byte: float = 4e-9
    server_per_call: float = 25e-6
    server_per_byte_in: float = 4e-9
    server_per_byte_out: float = 4e-9


class RpcServer:
    """A named service with a FIFO worker-thread pool on a node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        name: str,
        costs: RpcCosts,
        threads: int = 8,
    ):
        self.sim = sim
        self.node = node
        self.name = name
        self.costs = costs
        self.threads = Resource(sim, threads, name=f"{name}.threads")
        self._handlers: dict[str, Callable] = {}
        self.calls_served = 0
        #: Error replies sent (FsError statuses + converted handler bugs).
        self.errors = 0
        #: Replies served from a session reply cache without re-running
        #: the handler (exactly-once retransmission hits).
        self.calls_replayed = 0
        #: Retransmissions aimed at this service (counted client-side
        #: when a retry timer fires, so lost requests are included).
        self.retransmissions = 0
        #: Calls that exhausted their retry budget against this service
        #: and raised :class:`RpcTimeout` at the client.
        self.client_timeouts = 0
        #: Service liveness.  A down server silently swallows requests
        #: and replies — the fail-stop model; messages in flight to it
        #: are lost, and only a client-side timer notices.
        self.up = True

    def fail(self) -> None:
        """Take the service down (fail-stop).  In-flight exchanges are
        lost at their next checkpoint; new requests disappear."""
        self.up = False

    def restore(self) -> None:
        """Bring the service back.  Requests lost while down stay lost
        (clients must retransmit); session reply caches survive."""
        self.up = True

    def register(self, proc: str, handler: Callable) -> None:
        """Register generator ``handler(args, payload)`` for ``proc``."""
        if proc in self._handlers:
            raise ValueError(f"{self.name}: duplicate handler for {proc!r}")
        self._handlers[proc] = handler

    def handler(self, proc: str) -> Callable:
        try:
            return self._handlers[proc]
        except KeyError:
            raise KeyError(f"{self.name}: no handler for procedure {proc!r}") from None


def _lost(sim: Simulator):
    """An event that never fires: a message swallowed by a dead server.

    A process parked on it waits forever — unless a retry timer
    interrupts it (the fault layer) or the simulation simply runs out
    of events (the documented hang without one).
    """
    return Event(sim)


def _attempt(
    client_node: Node,
    server: RpcServer,
    proc: str,
    handler: Callable,
    args: object,
    payload: Optional[Payload],
    args_bytes: int,
    session,
    seq: Optional[int],
    retries: int,
):
    """One request/reply exchange: the handler's value, or its error reply raised.

    Under a policy each attempt is a process that :func:`_retrying`
    interrupts if its timer fires first.  ``retries`` numbers the attempt
    (0 = first send) for a :class:`~repro.obs.SpanCollector`, which wraps
    this function from outside while it is installed.
    """
    sim = client_node.sim
    costs = server.costs
    req_payload_bytes = payload.nbytes if payload is not None else 0
    req_bytes = HEADER_BYTES + args_bytes + req_payload_bytes

    # 1. Client-side marshalling, then copy-out OVERLAPPED with the
    #    request transfer: real stacks stream while copying, so wall
    #    time is max(copy, wire), with the CPU held for the copy part.
    #    A CPU charge and a transfer are events: a lone transfer is
    #    waited on inline, overlapped ones are joined by ``spawn``.
    #    The transfers are delegated to (``yield from``), not
    #    yielded, so a tracer may wrap ``Network.transfer`` in a
    #    generator from outside.  Nothing interrupts a leg
    #    individually: a retry timer interrupts the *attempt*, which
    #    only detaches it from the wait — the network flow holds its
    #    own pipes and keeps the wire busy regardless.
    yield client_node.compute(costs.client_per_call)
    request = client_node.network.transfer(client_node.name, server.node.name, req_bytes)
    if req_payload_bytes:
        yield sim.spawn(
            request, client_node.compute(costs.client_per_byte * req_payload_bytes)
        )
    else:
        yield from request
    if not server.up:
        yield _lost(sim)  # request arrived at a dead server

    # 2. Server processing under a worker thread (claimed in place
    #    when one is free and nobody queues for it).
    if not server.threads.try_acquire():
        yield server.threads.acquire()
    error: Optional[FsError] = None
    result = None
    reply_payload: Optional[Payload] = None
    try:
        if not server.up:
            yield _lost(sim)  # server died while the request queued
        yield server.node.compute(
            costs.server_per_call + costs.server_per_byte_in * req_payload_bytes
        )
        cached = session.cached_reply(seq) if session is not None and seq is not None else None
        if cached is not None:
            # NFSv4.1 slot-table retransmission hit: replay the reply
            # recorded by the original execution — exactly-once.
            result, reply_payload, error = cached
            server.calls_replayed += 1
        else:
            try:
                result, reply_payload = yield from handler(args, payload)
            except FsError as exc:
                error = exc
            except (Interrupt, SimulationError):
                raise
            except Exception as exc:
                # Server bug: do not let it escape the reply path — the
                # exchange completes as a traced server-error reply.
                error = RpcServerError(
                    f"{server.name}.{proc}: unhandled handler exception: {exc!r}"
                )
                error.__cause__ = exc
            if session is not None and seq is not None:
                session.cache_reply(seq, result, reply_payload, error)
        # 3. Reply: server copy-out, wire, and client copy-in all
        #    overlap (chunk-pipelined), while the thread stays busy.
        if not server.up:
            yield _lost(sim)  # server died before the reply left
        reply_payload_bytes = reply_payload.nbytes if reply_payload is not None else 0
        reply_bytes = HEADER_BYTES + reply_payload_bytes
        reply = client_node.network.transfer(
            server.node.name, client_node.name, reply_bytes
        )
        if reply_payload_bytes:
            yield sim.spawn(
                reply,
                server.node.compute(costs.server_per_byte_out * reply_payload_bytes),
                client_node.compute(costs.client_per_byte * reply_payload_bytes),
            )
        else:
            yield from reply
        server.calls_served += 1
        if error is not None:
            server.errors += 1
    finally:
        server.threads.release()

    if error is not None:
        raise error
    return result, reply_payload


def call(
    client_node: Node,
    server: RpcServer,
    proc: str,
    args: object = None,
    payload: Optional[Payload] = None,
    args_bytes: int = 64,
    policy: Optional[RpcPolicy] = None,
    session=None,
    seq: Optional[int] = None,
):
    """Return the process generator of one RPC (``yield from`` it).

    ``payload`` rides in the request (writes); the handler's reply
    payload rides in the response (reads).  The generator's value is
    ``(result, reply_payload)`` exactly as produced by the handler.

    ``policy`` enables client-side timeouts with exponential backoff
    and retransmission (see :class:`RpcPolicy`); without it the call
    waits forever, exactly as before the fault layer existed — it *is*
    the one attempt, with no frame of its own around it.
    ``session``/``seq`` engage the NFSv4.1 reply cache so retransmitted
    non-idempotent operations execute exactly once.
    """
    handler = server.handler(proc)  # fail fast on bad procedure
    if policy is None:
        exchange = _attempt(
            client_node, server, proc, handler, args, payload,
            args_bytes, session, seq, retries=0,
        )
    else:
        exchange = _retrying(
            client_node, server, proc, handler, args, payload,
            args_bytes, policy, session, seq,
        )
    if session is not None and seq is not None:
        return _retiring(exchange, session, seq)
    return exchange


def _retiring(exchange, session, seq: int):
    """Run ``exchange`` and give its session slot back, however it ends."""
    try:
        return (yield from exchange)
    finally:
        session.retire(seq)


def _retrying(
    client_node: Node,
    server: RpcServer,
    proc: str,
    handler: Callable,
    args: object,
    payload: Optional[Payload],
    args_bytes: int,
    policy: RpcPolicy,
    session,
    seq: Optional[int],
):
    """Attempts under a retry timer until one is answered or the budget runs out."""
    sim = client_node.sim
    attempt_no = 0
    timer = None
    while True:
        attempt = sim.process(
            _attempt(
                client_node, server, proc, handler, args, payload,
                args_bytes, session, seq, retries=attempt_no,
            ),
            name=f"rpc:{proc}@{server.name}",
        )
        # Reuse one Timeout across retries: we only loop back here
        # after the timer fired, so it is processed and re-armable.
        # Saves an allocation per retransmission on lossy paths.
        if timer is None:
            timer = sim.timeout(policy.timeout_for(attempt_no))
        else:
            timer = timer.reset(policy.timeout_for(attempt_no))
        # An FsError surfacing here is an error *reply*: the exchange
        # completed, so it propagates to the caller untouched.
        idx, value = yield sim.any_of([attempt, timer])
        if idx == 0:
            return value
        # Timer fired first.  A photo finish (attempt completed in
        # the same instant) still counts as delivered.
        if not attempt.is_alive:
            attempt.defuse()
            if attempt.ok:
                return attempt.value
            raise attempt.value
        # The attempt is genuinely stuck: abandon it.  The interrupt
        # unwinds its generator stack, releasing worker threads and
        # resource grants via their finallys; a message already on
        # the wire is not the attempt's to release and runs on.
        attempt.defuse()
        attempt.interrupt("rpc timeout")
        attempt_no += 1
        if attempt_no > policy.max_retries:
            server.client_timeouts += 1
            raise RpcTimeout(
                f"{proc} to {server.name}: no reply after {attempt_no} attempts",
                server=server.name,
                proc=proc,
                attempts=attempt_no,
            )
        server.retransmissions += 1
