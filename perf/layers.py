"""Layer attribution: who a module belongs to, and the three sources of
per-layer numbers — the profiler, the spans, the program's own counters.

Layers are this repository's modules.  Event share per layer ("who
schedules the ~220 events of an RPC") is not here: an event does not
say who scheduled it, and finding out needs a tag set inside the kernel.
"""

from __future__ import annotations

import pstats
import statistics

from repro.bench.paper_data import PAPER
from repro.obs import MetricsRegistry, observe_deployment, observe_rpc_server
from repro.sim.stats import nearest_rank

__all__ = [
    "HOST_LAYERS",
    "host_shares",
    "layer_of_file",
    "layer_of_module",
    "per_layer_metrics",
    "read_counters",
]

#: Layers that get a ``<layer>.host_share_pct``.
HOST_LAYERS = (
    "sim.engine", "sim.resources", "sim.cpu", "sim.network", "sim.disk",
    "rpc", "nfs", "pnfs", "core", "pvfs2", "vfs", "check",
)

_SIM_MODULES = {"engine", "resources", "cpu", "network", "disk"}
_PACKAGES = {"nfs", "pnfs", "core", "pvfs2", "vfs", "workloads", "check", "obs"}


def layer_of_module(module: str) -> str:
    """``repro.nfs.client`` → ``nfs``; anything unlisted → ``other``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "sim":
        return f"sim.{parts[2]}" if len(parts) > 2 and parts[2] in _SIM_MODULES else "other"
    if parts[1] == "rpc":
        return "rpc"
    if parts[1] == "tracing":
        return "obs"
    return parts[1] if parts[1] in _PACKAGES else "other"


def layer_of_file(path: str) -> str:
    """Layer of a source file as the profiler names it."""
    path = path.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0 or not path.endswith(".py"):
        return "other"
    return layer_of_module(path[at + 1 : -3].replace("/", "."))


def host_shares(profile) -> dict[str, float]:
    """Percent of profiled self time per layer.

    ``tottime`` is rolled up by the file a function lives in.  The
    profile is taken with ``builtins=False``, so time inside built-ins
    (``heappush``, ``deque`` methods) is already part of the calling
    function's own time.  cProfile charges its own per-call cost to the
    callee, which over-weights layers made of many small functions:
    read the shares as a ranking.
    """
    by_layer: dict[str, float] = {}
    for (path, _line, _name), (_cc, _nc, tottime, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        layer = layer_of_file(path)
        by_layer[layer] = by_layer.get(layer, 0.0) + tottime
    total = sum(by_layer.values())
    return {layer: 100.0 * t / total for layer, t in by_layer.items()} if total > 0 else {}


def read_counters(dep, clients) -> dict[str, float]:
    """Every gauge ``repro.obs`` knows for this deployment, by name."""
    reg = MetricsRegistry()
    observe_deployment(reg, dep, clients=[c for c in clients if hasattr(c, "bytes_read")])
    # Behind an NFS front end the PVFS2 metadata servers are in nobody's
    # ``servers`` list.
    pvfs = dep.pvfs
    for mds in getattr(pvfs, "metadata_servers", None) or [pvfs.mds]:
        if f"{mds.rpc.name}.rpc.calls_served" not in reg.names():
            observe_rpc_server(reg, mds.rpc)
    return reg.sample_numeric()


def _total(counters: dict, *suffixes: str, contains: str = "") -> float:
    return sum(
        v for k, v in counters.items() if k.endswith(suffixes) and contains in k
    )


def _peak(counters: dict, suffix: str) -> float:
    return max((v for k, v in counters.items() if k.endswith(suffix)), default=0.0)


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _per(count: float, by: float) -> float:
    return count / by if by else 0.0


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile, or 0.0 with fewer than ten samples beyond it."""
    if len(ordered) * (1.0 - q) < 10:
        return 0.0
    return nearest_rank(ordered, q)


def per_layer_metrics(base, profiled, traced, shares, spans, self_s, delta, peak) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``, as (value, unit).

    ``base``/``profiled``/``traced`` are the three repetitions' totals
    (see ``perf/bench.py``); ``delta`` holds counter increases over the
    measured phases and ``peak`` their values at the end.  A metric a
    workload has nothing to say about reads 0.
    """
    mb = base.bytes_moved / 1e6
    events = _total(delta, "engine.events_processed")
    calls = _total(delta, ".rpc.calls_served")
    hit = _total(delta, ".cache_hit_bytes")
    miss = _total(delta, ".cache_miss_bytes")
    latencies = sorted(
        (s.end - s.start) * 1e3 for s in spans
        if s.kind == "op" and (s.parent < 0 or spans[s.parent].kind == "episode")
    )
    nfs_writes = sum(
        1 for s in spans
        if s.kind == "handler" and s.name == "handle:write" and s.layer in ("nfs", "pnfs", "core")
    )
    write_mb = mb if base.writes else 0.0
    m: dict[str, tuple[float, str]] = {}
    for layer in HOST_LAYERS:
        m[f"{layer}.host_share_pct"] = (shares.get(layer, 0.0), "%")
    m.update({
        "sim.engine.events_processed": (events, "count"),
        "sim.engine.heap_events": (_total(delta, "engine.heap_events"), "count"),
        "sim.engine.fast_lane_events": (_total(delta, "engine.fast_lane_events"), "count"),
        "sim.engine.peak_heap": (_peak(peak, "engine.peak_heap"), "count"),
        "sim.engine.events_per_host_s": (_per(events, base.wall_norm), "1/s"),
        "sim.engine.events_per_app_op": (_per(events, base.ops), "count"),
        "sim.cpu.sim_busy_s": (_total(delta, ".cpu.busy_seconds"), "sim_s"),
        "sim.network.transfers": (_total(delta, "net.flows_completed"), "count"),
        "sim.network.bytes": (_total(delta, ".nic.tx_bytes"), "bytes"),
        "sim.network.flows_chunked": (_total(delta, "net.flows_chunked"), "count"),
        "sim.network.flows_fluid": (_total(delta, "net.flows_fluid"), "count"),
        "sim.network.fluid_recomputes": (_total(delta, "net.fluid_recomputes"), "count"),
        "sim.network.sim_self_s": (self_s.get("sim.network", 0.0), "sim_s"),
        "sim.disk.requests": (_total(delta, ".requests", contains=".disk"), "count"),
        "sim.disk.bytes": (
            _total(delta, ".read_bytes", ".write_bytes", contains=".disk"), "bytes",
        ),
        "sim.disk.sim_busy_s": (_total(delta, ".busy_seconds", contains=".disk"), "sim_s"),
        "rpc.calls": (calls, "count"),
        "rpc.retransmissions": (_total(delta, ".rpc.retransmissions"), "count"),
        "rpc.errors": (_total(delta, ".rpc.errors"), "count"),
        "rpc.events_per_call": (_per(events, calls), "count"),
        "rpc.calls_per_mb": (_per(calls, mb), "1/MB"),
        "rpc.sim_self_s": (self_s.get("rpc", 0.0), "sim_s"),
        "rpc.threads_high_water": (_peak(peak, ".rpc.threads_high_water"), "count"),
        "nfs.client_ops": (
            sum(1 for s in spans if s.kind == "op" and s.layer in ("nfs", "pnfs")), "count",
        ),
        "nfs.cache_hit_pct": (_pct(hit, hit + miss), "%"),
        "nfs.readahead_used_pct": (
            _pct(_total(delta, ".readahead_used_bytes"), _total(delta, ".readahead_issued_bytes")),
            "%",
        ),
        "nfs.writeback_rpcs_per_mb": (_per(nfs_writes, write_mb), "1/MB"),
        "nfs.sim_self_s": (self_s.get("nfs", 0.0), "sim_s"),
        "pnfs.layout_rpcs": (
            sum(1 for s in spans if s.kind == "rpc" and s.name == "rpc:layoutget"), "count",
        ),
        "pvfs2.daemon_requests": (_total(delta, ".pvfs2d.rpc.calls_served"), "count"),
        "pvfs2.requests_per_mb": (_per(_total(delta, ".pvfs2d.rpc.calls_served"), mb), "1/MB"),
        "pvfs2.flow_buffers_high_water": (_peak(peak, ".flow_buffers_high_water"), "count"),
        "pvfs2.sim_self_s": (self_s.get("pvfs2", 0.0), "sim_s"),
        "workloads.app_ops": (float(base.ops), "count"),
        "workloads.sim_op_p50_ms": (_percentile(latencies, 0.50), "sim_ms"),
        "workloads.sim_op_p99_ms": (_percentile(latencies, 0.99), "sim_ms"),
        "bench.wall_raw_s": (base.wall_raw, "s"),
        "bench.noisy_units": (float(base.noisy_units), "count"),
        "bench.calib_ms_median": (statistics.median(base.calib_series) * 1e3, "ms"),
        "bench.paper_err_pct": (paper_error_pct(base.units), "%"),
        "obs.trace_overhead_pct": (_pct(traced.wall_norm - base.wall_norm, base.wall_norm), "%"),
        "obs.profile_overhead_pct": (
            _pct(profiled.wall_norm - base.wall_norm, base.wall_norm), "%",
        ),
    })
    for key in ("episodes", "ops", "reads_checked", "bytes_checked", "violations", "wedged"):
        m[f"check.{key}"] = (float(base.check.get(key, 0)), "count")
    return m


def paper_error_pct(units) -> float:
    """Mean |simulated − paper| / paper over the cells the paper plots.

    At reduced scale and read off figures: a shape-level reference, the
    accuracy figure to quote beside a simulated speed-up, not a target.
    """
    errors = []
    for spec, result in units:
        fig = getattr(spec, "paper_fig", "")  # torture units plot nothing
        if fig:
            ref = PAPER[fig][spec.arch][spec.n_clients]
            errors.append(abs(result.mbps - ref) / ref)
    return 100.0 * statistics.fmean(errors) if errors else 0.0
