"""NFSv4.1 sessions, slot tables, and the reply cache.

A session's slot table bounds the number of outstanding requests a
client may have at a server — the NFSv4.1 flow-control mechanism that
replaces NFSv4's unbounded async RPC.  Every client RPC (including
write-back and readahead traffic) holds a slot for its duration.

The slot table's second job (RFC 5661 §2.10.6) is **exactly-once
semantics**: each request carries a per-session sequence id, and the
server caches the reply it sent for each sequence id until the client
retires it.  A retransmitted request whose original execution already
completed is answered from the cache instead of re-running the
operation — the mechanism that makes retrying non-idempotent ops
(WRITE, LAYOUTCOMMIT) safe.  This object models both halves: the
client-side slot table and the server-side reply cache for this
client↔server pairing (:func:`repro.rpc.call` consults it via the
``session``/``seq`` arguments).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["Session"]


class Session:
    """One client↔server NFSv4.1 session (no checker state: the torture
    runner counts executions by wrapping :meth:`cached_reply`)."""

    def __init__(self, sim: Simulator, slots: int, name: str = ""):
        # Session ids come from the simulation's own id stream, so a
        # replayed run hands out identical ids no matter how many other
        # simulations ran earlier in this process.
        self.sessionid = sim.next_id("session")
        #: The slot table: a client holds one unit per outstanding request.
        self.slots = Resource(sim, slots, name=name or f"session{self.sessionid}")
        self._seq = itertools.count(1)
        #: Server-side reply cache: seq -> (result, reply_payload, error).
        self._replay: dict[int, tuple] = {}

    # -- reply cache -------------------------------------------------------
    def next_seq(self) -> int:
        """Allocate a sequence id for one logical request (all of its
        retransmissions carry the same id)."""
        return next(self._seq)

    def cache_reply(
        self, seq: int, result: Any, payload: Any, error: Optional[Exception]
    ) -> None:
        """Record the reply sent for ``seq`` (error replies included —
        RFC 5661 caches those too)."""
        self._replay[seq] = (result, payload, error)

    def cached_reply(self, seq: int) -> Optional[tuple]:
        """The cached reply for ``seq``, or ``None`` if this is the
        first execution the server sees.  A hit means the request is a
        retransmission of an already-executed operation."""
        return self._replay.get(seq)

    def retire(self, seq: int) -> None:
        """The client received the reply for ``seq``: the server may
        drop its cache entry (slot-reuse advances the cache window)."""
        self._replay.pop(seq, None)
