"""Observability: metrics registry, sim-time sampler, span tracing.

The diagnostic substrate behind the paper's per-component arguments
(§6.2.1 attributes each regime to disks, NICs, or CPUs):

* :class:`MetricsRegistry` + :class:`Sampler` — named gauges over
  every component's counters, sampled into time series
  (:mod:`repro.obs.metrics`, wired by :mod:`repro.obs.attach`);
* :class:`SpanCollector` — span tracing from client op through RPC
  attempt, server handler, and disk request, exported as Chrome
  trace-event JSON for Perfetto (:mod:`repro.obs.spans`);
* :class:`RpcTrace` — the same spans reduced to one record per RPC
  exchange, with a per-procedure latency, volume and failure table
  (:mod:`repro.obs.rpc_trace`);
* :func:`measure_with_metrics` and ``with SpanCollector(cell.sim):``
  wrap a set-up :class:`~repro.bench.runner.Cell`'s ``measure()`` from
  outside, as the ``repro metrics`` / ``repro trace`` CLI verbs do.

Everything is pay-for-what-you-use: the product imports nothing from
this package.  A collector wraps the traced entry points only while it
is installed, and without a registry attached a counter is a plain
integer increment.
"""

from repro.obs.attach import (
    bottleneck,
    measure_with_metrics,
    node_utilisation,
    observe_client,
    observe_deployment,
    observe_engine,
    observe_network,
    observe_node,
    observe_protocol_events,
    observe_rpc_server,
    observe_storage_daemon,
)
from repro.obs.metrics import Gauge, MetricsRegistry, Sampler
from repro.obs.rpc_trace import RpcRecord, RpcTrace
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "Gauge",
    "MetricsRegistry",
    "RpcRecord",
    "RpcTrace",
    "Sampler",
    "Span",
    "SpanCollector",
    "bottleneck",
    "measure_with_metrics",
    "node_utilisation",
    "observe_client",
    "observe_deployment",
    "observe_engine",
    "observe_network",
    "observe_node",
    "observe_protocol_events",
    "observe_rpc_server",
    "observe_storage_daemon",
]
