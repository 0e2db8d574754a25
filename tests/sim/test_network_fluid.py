"""Chunked-vs-fluid network model equivalence and fault interaction.

The fluid model is a fast path, not a different physics: for the
canonical contention patterns (1:1, N:1 incast, 1:N fan-out, staggered
arrivals) its completion times must agree with the chunked reference
oracle within a small tolerance, byte counters must be identical, and
both models must expose faults the same way (a dead NIC strands the
flow; only an RPC timeout notices).
"""

import pytest

from repro import rpc
from repro.sim import FaultInjector, Network, Simulator
from repro.vfs import Payload

from tests.conftest import build_cluster, drive

MB = 1024 * 1024
GIGE = 117e6

#: Relative tolerance for completion-time agreement.  The models differ
#: only in chunk-boundary rounding and window fill/drain, both bounded
#: by a few chunk times (a chunk is ~2.2 ms at gigabit rates).
TOL = 0.02


def make_net(model, n_nics=10, bw=GIGE, seed=1234):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=60e-6, model=model)
    for i in range(n_nics):
        net.add_nic(f"n{i}", bw)
    return sim, net


def run_pattern(model, flows, seed=1234):
    """Run ``flows`` = [(start, src, dst, nbytes)]; return completion times."""
    sim, net = make_net(model, seed=seed)
    done = {}

    def one(start, src, dst, nbytes, key):
        if start > 0:
            yield sim.timeout(start)
        yield from net.transfer(src, dst, nbytes)
        done[key] = sim.now

    for i, (start, src, dst, nbytes) in enumerate(flows):
        sim.process(one(start, src, dst, nbytes, i))
    sim.run()
    assert len(done) == len(flows)
    return done, net


class TestEquivalence:
    def test_one_to_one(self):
        flows = [(0.0, "n0", "n1", 100 * MB)]
        chunked, _ = run_pattern("chunked", flows)
        fluid, _ = run_pattern("fluid", flows)
        assert fluid[0] == pytest.approx(chunked[0], rel=TOL)

    def test_incast(self):
        flows = [(0.0, f"n{i + 1}", "n0", 20 * MB) for i in range(8)]
        chunked, _ = run_pattern("chunked", flows)
        fluid, _ = run_pattern("fluid", flows)
        assert max(fluid.values()) == pytest.approx(max(chunked.values()), rel=TOL)

    def test_fan_out(self):
        flows = [(0.0, "n0", f"n{i + 1}", 20 * MB) for i in range(8)]
        chunked, _ = run_pattern("chunked", flows)
        fluid, _ = run_pattern("fluid", flows)
        assert max(fluid.values()) == pytest.approx(max(chunked.values()), rel=TOL)

    def test_staggered_arrivals(self):
        # A long flow joined mid-way by two latecomers sharing its rx
        # pipe: rates must shift at each arrival/departure.
        flows = [
            (0.0, "n1", "n0", 60 * MB),
            (0.2, "n2", "n0", 20 * MB),
            (0.3, "n3", "n0", 20 * MB),
        ]
        chunked, _ = run_pattern("chunked", flows)
        fluid, _ = run_pattern("fluid", flows)
        for k in chunked:
            assert fluid[k] == pytest.approx(chunked[k], rel=TOL)

    def test_small_transfer_exact(self):
        # Sub-chunk: the fluid store-and-forward tail must reproduce
        # the chunked 2x serialization exactly, not just within TOL.
        flows = [(0.0, "n0", "n1", 8 * 1024)]
        chunked, _ = run_pattern("chunked", flows)
        fluid, _ = run_pattern("fluid", flows)
        assert fluid[0] == pytest.approx(chunked[0], rel=1e-9)

    def test_byte_counters_identical(self):
        flows = [
            (0.0, "n1", "n0", 10 * MB),
            (0.1, "n0", "n2", 5 * MB),
            (0.0, "n3", "n3", 3 * MB),  # loopback
        ]
        _, cnet = run_pattern("chunked", flows)
        _, fnet = run_pattern("fluid", flows)
        for name in ("n0", "n1", "n2", "n3"):
            cn, fn = cnet.nic(name), fnet.nic(name)
            assert (cn.tx_bytes, cn.rx_bytes, cn.loopback_bytes) == (
                fn.tx_bytes,
                fn.rx_bytes,
                fn.loopback_bytes,
            )
        # Payload-only invariant: framing never lands in the counters.
        assert cnet.nic("n1").tx_bytes == 10 * MB
        assert fnet.nic("n3").loopback_bytes == 3 * MB

    def test_fluid_determinism_across_runs(self):
        flows = [(0.01 * i, f"n{i + 1}", "n0", 15 * MB) for i in range(6)]
        a, _ = run_pattern("fluid", flows, seed=7)
        b, _ = run_pattern("fluid", flows, seed=7)
        assert a == b

    def test_seed_insensitivity_of_fluid_times(self):
        # The fluid schedule involves no random arbitration at all:
        # different seeds give bit-identical completion times.
        flows = [(0.0, f"n{i + 1}", "n0", 15 * MB) for i in range(4)]
        a, _ = run_pattern("fluid", flows, seed=1)
        b, _ = run_pattern("fluid", flows, seed=2)
        assert a == b


class TestModelKnob:
    def test_unknown_model_rejected(self):
        sim = Simulator()
        for model in ("quantum", "auto"):
            with pytest.raises(ValueError):
                Network(sim, model=model)

    def test_fluid_routes_by_wire_size(self):
        sim, net = make_net("fluid")

        def xfers():
            yield from net.transfer("n0", "n1", 8 * 1024)  # <= 2 chunks
            yield from net.transfer("n0", "n1", 8 * MB)  # above

        drive(sim, xfers())
        assert net.flows_chunked == 1
        assert net.flows_fluid == 1

    def test_chunked_never_uses_solver(self):
        flows = [(0.0, "n1", "n0", 30 * MB)]
        _, net = run_pattern("chunked", flows)
        assert net.flows_fluid == 0
        assert net.fluid_recomputes == 0

    def test_fluid_recompute_count_is_flow_bounded(self):
        # The whole point: recomputes scale with flow arrivals and
        # departures (2 per flow + completion batches), not with bytes.
        flows = [(0.0, f"n{i + 1}", "n0", 50 * MB) for i in range(8)]
        _, net = run_pattern("fluid", flows)
        assert net.flows_fluid == 8
        assert net.fluid_recomputes <= 4 * 8


class TestFluidFaults:
    def test_nic_down_strands_in_flight_fluid_flow(self):
        sim, net = make_net("fluid")
        outcome = []

        def xfer():
            yield from net.transfer("n1", "n0", 50 * MB)
            outcome.append("completed")

        def killer():
            yield sim.timeout(0.1)  # mid-flow (takes ~0.45 s)
            net.nic("n0").down = True

        sim.process(xfer())
        sim.process(killer())
        sim.run()
        assert outcome == []
        assert net.nic("n1").flows_stranded == 1
        assert net.fluid_flows_active == 0
        assert net.nic("n0").rx_bytes == 0  # counters only on completion

    def test_survivors_reclaim_bandwidth_after_strand(self):
        # Two incast flows; one sender dies mid-way.  The survivor must
        # finish faster than full-contention would predict.
        sim, net = make_net("fluid")
        done = {}

        def xfer(src, key):
            yield from net.transfer(src, "n0", 40 * MB)
            done[key] = sim.now

        def killer():
            yield sim.timeout(0.2)
            net.nic("n2").down = True

        sim.process(xfer("n1", "a"))
        sim.process(xfer("n2", "b"))
        sim.process(killer())
        sim.run()
        assert "b" not in done
        # Shared until 0.2 s (~11 MB moved at half rate), alone after:
        # 0.2 + ~29 MB / full-bw ~= 0.46 s, vs ~0.72 s if the dead
        # sender had kept contending.
        assert done["a"] == pytest.approx(0.46, abs=0.02)

    @pytest.mark.parametrize("model", ["chunked", "fluid"])
    def test_nic_death_mid_rpc_raises_timeout(self, model):
        """Kill the server NIC mid-transfer: the RPC retry layer must
        surface RpcTimeout identically under both flow models."""
        cluster = build_cluster(net_model=model)
        sim = cluster.sim
        server = rpc.RpcServer(
            sim, cluster.storage[0], "svc", rpc.RpcCosts(), threads=2
        )

        def sink(args, payload):
            return {"ok": True}, None
            yield  # pragma: no cover

        server.register("put", sink)
        inj = FaultInjector(sim)
        # A 50 MB payload takes ~0.45 s on the wire; cut it at 0.1 s.
        inj.at(0.1, lambda: inj.nic_down(cluster.storage[0].nic))
        policy = rpc.RpcPolicy(timeout=0.3, max_retries=1, backoff=1.0)

        def scenario():
            try:
                yield from rpc.call(
                    cluster.clients[0],
                    server,
                    "put",
                    {},
                    payload=Payload.synthetic(50 * MB),
                    policy=policy,
                )
            except rpc.RpcTimeout as exc:
                return exc, sim.now

        exc, gave_up = drive(sim, scenario())
        assert isinstance(exc, rpc.RpcTimeout)
        assert exc.attempts == 2
        # 0.3 s first patience + 0.3 s retry patience.
        assert gave_up == pytest.approx(0.6, abs=0.05)
        if model == "fluid":
            assert cluster.clients[0].nic.flows_stranded == 1
        # The retransmission found the NIC already down at flow start.
        assert cluster.clients[0].nic.flows_dropped >= 1
