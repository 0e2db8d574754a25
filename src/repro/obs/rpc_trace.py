"""RPC-level view of a span trace: which calls went where, how long.

A :class:`~repro.obs.spans.SpanCollector` records one ``rpc`` span per
attempt of :func:`repro.rpc.call` (and one per call that exhausts its
retry budget).  :class:`RpcTrace` reduces a
:class:`~repro.obs.spans.SpanCollector` to one :class:`RpcRecord` per
*exchange* and aggregates them by procedure — enough to
answer "why is this workload slow" without reading event logs::

    with SpanCollector(sim) as spans:
        sim.run(until=proc)
    print(RpcTrace.from_spans(spans).summary())

A span becomes a record when the exchange ran to its reply (success or
error status) or when it is the final give-up of a timed-out call.  An
attempt abandoned by a retry timer carries no payload sizes and yields
no record: the retransmission that follows it accounts for the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.spans import SpanCollector
from repro.sim.stats import nearest_rank

__all__ = ["RpcRecord", "RpcTrace"]


@dataclass(frozen=True)
class RpcRecord:
    """One completed RPC exchange (or a final, given-up timeout)."""

    start: float
    end: float
    client: str
    server: str
    proc: str
    req_bytes: int
    reply_bytes: int
    error: bool
    #: Retransmissions that preceded this exchange (0 = first try).
    retries: int = 0
    #: True when the call exhausted its retry budget and raised
    #: :class:`~repro.rpc.RpcTimeout`; no reply was received.
    timeout: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class RpcTrace:
    """A list of :class:`RpcRecord` plus the standard aggregations."""

    def __init__(self, records: Iterable[RpcRecord] = ()):
        self.records: list[RpcRecord] = list(records)

    @classmethod
    def from_spans(cls, collector: SpanCollector) -> "RpcTrace":
        """Reduce ``collector``'s ``rpc`` spans to records, in span order."""
        return cls(
            RpcRecord(
                start=s.start,
                end=s.end,
                client=s.track,
                server=s.args["server"],
                proc=s.name.removeprefix("rpc:"),
                req_bytes=s.args["req_bytes"],
                reply_bytes=s.args["reply_bytes"],
                error=s.args["error"],
                retries=s.args["attempt"],
                timeout=s.args.get("timeout", False),
            )
            for s in collector.spans
            if s.cat == "rpc" and "req_bytes" in s.args
        )

    # -- analysis -------------------------------------------------------------
    def by_proc(self) -> dict[str, list[RpcRecord]]:
        out: dict[str, list[RpcRecord]] = {}
        for r in self.records:
            out.setdefault(r.proc, []).append(r)
        return out

    def summary(self) -> str:
        """Per-procedure table: count, latency, volume, failure counts.

        The ``errors`` column counts every call that did not return a
        successful reply — error replies *and* timed-out calls.
        """
        lines = [
            f"{'procedure':>16} {'calls':>7} {'mean ms':>9} {'p95 ms':>9} "
            f"{'MB moved':>9} {'errors':>7} {'retries':>8}"
        ]
        for proc, records in sorted(self.by_proc().items()):
            lat = sorted(r.latency for r in records)
            mean = sum(lat) / len(lat)
            p95 = nearest_rank(lat, 0.95)
            volume = sum(r.req_bytes + r.reply_bytes for r in records) / 1e6
            errors = sum(1 for r in records if r.error or r.timeout)
            retries = sum(r.retries for r in records)
            lines.append(
                f"{proc:>16} {len(records):>7} {mean * 1e3:>9.2f} "
                f"{p95 * 1e3:>9.2f} {volume:>9.1f} {errors:>7} {retries:>8}"
            )
        return "\n".join(lines)
