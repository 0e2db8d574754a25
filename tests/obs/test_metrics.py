"""Metrics registry and sampler semantics."""

import pytest

from repro.cluster.configs import make_deployment
from repro.obs import MetricsRegistry, Sampler, observe_deployment
from repro.sim import Simulator


class TestRegistry:
    def test_gauge_reads_live_value(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.gauge("n.depth", lambda: box["v"])
        assert reg.collect()["n.depth"] == 1
        box["v"] = 7
        assert reg.collect()["n.depth"] == 7

    def test_duplicate_gauge_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("g", lambda: 0)
        with pytest.raises(ValueError):
            reg.gauge("g", lambda: 1)

    def test_collect_sorted_and_names(self):
        reg = MetricsRegistry()
        for name in ("b", "a", "c"):
            reg.gauge(name, lambda: 0)
        assert reg.names() == ["a", "b", "c"]
        assert list(reg.collect()) == ["a", "b", "c"]
        # The sampler's view keeps registration order.
        assert list(reg.sample_numeric()) == ["b", "a", "c"]


def _run_sampled(interval=0.5, horizon=2.0):
    """One deterministic run: a process bumps a count every 0.3 s."""
    sim = Simulator()
    reg = MetricsRegistry()
    work = 0
    reg.gauge("work", lambda: work)

    def worker():
        nonlocal work
        while sim.now < horizon:
            yield sim.timeout(0.3)
            work += 1

    proc = sim.process(worker())
    sampler = Sampler(sim, reg, interval=interval).start()
    sim.run(until=proc)
    sampler.stop()
    return sampler


class TestSampler:
    def test_samples_at_interval_with_t0_and_final(self):
        sampler = _run_sampled()
        times = [t for t, _ in sampler.samples]
        # t0, then every 0.5s, then the final stop() sample at 2.1.
        assert times[0] == 0.0
        assert times[:-1] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        assert times[-1] == pytest.approx(2.1)

    def test_series_is_monotonic_counter_trace(self):
        sampler = _run_sampled()
        vals = sampler.as_dict()["series"]["work"]
        assert vals == sorted(vals)
        assert vals[-1] == 7  # 0.3s ticks until 2.0: 2.1/0.3

    def test_deterministic_across_runs(self):
        a, b = _run_sampled(), _run_sampled()
        assert a.samples == b.samples

    def test_as_dict_shape(self):
        d = _run_sampled().as_dict()
        assert d["interval"] == 0.5
        assert len(d["t"]) == len(d["series"]["work"])

    def test_single_use(self):
        sim = Simulator()
        sampler = Sampler(sim, MetricsRegistry(), interval=1.0)
        sampler.start()
        sampler.stop()
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_stop_disarms_tick(self):
        """After stop(), pending ticks are no-ops and nothing accrues."""
        sim = Simulator()
        sampler = Sampler(sim, MetricsRegistry(), interval=0.5).start()
        proc = sim.process(iter(sim.timeout(0.7) for _ in range(1)))
        sim.run(until=proc)
        sampler.stop()
        n = len(sampler.samples)
        sim.run(until=sim.process(iter(sim.timeout(3.0) for _ in range(1))))
        assert len(sampler.samples) == n

    def test_final_sample_reflects_the_state_at_stop(self):
        """Work queued behind a tick at the stop instant is in the last
        sample: the final reading replaces the tick's, not the other way."""
        sim = Simulator()
        reg = MetricsRegistry()
        work = 0
        reg.gauge("work", lambda: work)
        sampler = Sampler(sim, reg, interval=0.25).start()

        def worker():
            nonlocal work
            yield sim.timeout(0.25)
            yield sim.timeout(0.25)  # armed after the tick's re-arm
            work += 1

        sim.run(until=sim.process(worker()))
        sampler.stop()
        assert sim.now == 0.5
        d = sampler.as_dict()
        assert d["t"] == [0.0, 0.25, 0.5]
        assert d["series"]["work"] == [0, 0, 1]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Sampler(Simulator(), MetricsRegistry(), interval=0.0)


@pytest.mark.parametrize("arch", ["direct-pnfs", "nfsv4", "pvfs2", "direct-pnfs-sharded"])
def test_observe_deployment_sees_the_pvfs2_services_behind_an_nfs_front(arch):
    """``dep.servers`` is the NFS tier on every row but ``pvfs2``; the
    PVFS2 daemons and metadata servers behind it — the create/journal
    path — are observed all the same, and each service exactly once
    (a second registration of a name raises)."""
    dep = make_deployment(arch, n_clients=1)
    reg = MetricsRegistry()
    observe_deployment(reg, dep)
    names = set(reg.names())
    services = dep.servers + dep.pvfs.daemons + dep.pvfs.metadata_servers
    assert len(dep.pvfs.metadata_servers) == (2 if arch.endswith("sharded") else 1)
    for service in services:
        assert f"{service.rpc.name}.rpc.calls_served" in names
    assert "server0.pvfs2-mds.rpc.calls_served" in names


@pytest.mark.parametrize("arch", ["nfsv4", "direct-pnfs", "pvfs2"])
def test_observe_deployment_registers_the_nfs_tiers_protocol_events(arch):
    """Every NFS server counts delegations and lock conflicts, and a
    pNFS MDS layouts too; a PVFS2 service counts none of them."""
    dep = make_deployment(arch, n_clients=1)
    reg = MetricsRegistry()
    observe_deployment(reg, dep)
    names = set(reg.names())
    nfs_tier = [] if arch == "pvfs2" else dep.servers
    for server in nfs_tier:
        for event in ("delegations_granted", "delegations_recalled", "lock_conflicts"):
            assert f"{server.name}.{event}" in names
    assert len([n for n in names if n.endswith(".lock_conflicts")]) == len(nfs_tier)
    assert len([n for n in names if n.endswith(".layouts_recalled")]) == (
        1 if arch == "direct-pnfs" else 0
    )
