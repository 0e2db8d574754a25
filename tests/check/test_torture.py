"""End-to-end torture episodes: smoke, determinism, pinned regressions.

The pinned seeds are bugs the harness flushed out; each one stays here
so the failure mode can never quietly return:

* **seed 146** — concurrent same-range write-backs: a block re-dirtied
  while under write-back was flushed again immediately, and the server
  could apply the two WRITEs in either order, resurrecting stale data.
  Fixed by deferring bytes that overlap ``flushing`` (Linux
  PageWriteback semantics).
* **seed 65** — dirty pages died with the fd: a close during an outage
  failed its flush, re-dirtied the ranges (errseq), then dropped them
  with the abandoned OpenFile; the post-reopen fsync reported clean.
  Fixed by retaining dirty ranges in the inode cache across close.
* **seed 28 + nfsv4 + buggy write-back** — checker-power demo: with the
  errseq re-dirty/latch fix reverted, the durability oracle reports the
  silent loss within the CI seed budget.
* **seed 14 + direct-pnfs + empty reply cache** — checker-power demo for
  exactly-once: a retransmitted request is executed again.
"""

from dataclasses import replace

import pytest

from repro.check.program import SHARED, Op, Program, generate
from repro.check.runner import run_episode, sweep
from repro.check.shrink import shrink_list
from repro.cluster.configs import ARCHITECTURES, make_deployment
from repro.core.system import PnfsSystem
from repro.nfs.client import Nfs4Client
from repro.sim.faults import FaultInjector
from tests.check import mutants

ALL_ARCHES = ["direct-pnfs", "pvfs2", "pnfs-2tier", "pnfs-3tier", "nfsv4"]


class TestEpisodes:
    def test_smoke_all_arches(self):
        program = generate(3)
        for arch in ALL_ARCHES:
            res = run_episode(program, arch)
            assert not res.violations, (arch, res.violations)
            assert not res.wedged
            assert res.stats["reads_checked"] > 0

    def test_replay_is_byte_identical(self):
        program = generate(11)
        a = run_episode(program, "direct-pnfs")
        b = run_episode(program, "direct-pnfs")
        assert a.trace_hash == b.trace_hash
        assert a.violations == b.violations

    def test_different_arches_diverge(self):
        program = generate(11)
        a = run_episode(program, "direct-pnfs")
        b = run_episode(program, "nfsv4")
        assert a.trace_hash != b.trace_hash

    def test_sweep_reports_clean_seeds(self):
        results = sweep(["direct-pnfs"], seeds=2, start_seed=3)
        assert len(results) == 2
        assert not any(r.violations for r in results)

    def test_fault_caps_follow_the_front_not_the_name(self, monkeypatch):
        """A native-PVFS2 row under another name has no retry layer
        either: seed 24's outage is skipped, only its NIC delay plays."""
        copy = replace(ARCHITECTURES["pvfs2"], label="pvfs2-copy")
        monkeypatch.setitem(ARCHITECTURES, "pvfs2-copy", copy)
        program = generate(24)
        assert {f.kind for f in program.faults} == {"nic_delay", "outage"}
        log = []
        record = FaultInjector._log

        def logging(inj, what):
            log.append(what)
            record(inj, what)

        monkeypatch.setattr(FaultInjector, "_log", logging)
        res = run_episode(program, "pvfs2-copy")
        assert res.violations == []
        assert log and all("nic delay" in what for what in log)


class TestPostQuiesceOracles:
    def test_slot_leak_inside_a_shard_router_is_reported(self, monkeypatch):
        """The leak / exactly-once / readahead oracles descend into a
        router's per-shard clients, where the sessions live."""
        make_client = PnfsSystem.make_client

        def leaky(self, node):
            cl = make_client(self, node)
            shard = cl.shards[1]
            shard._session_for(shard.server).slots.acquire()  # never returned
            return cl

        with monkeypatch.context() as mp:
            mp.setattr(PnfsSystem, "make_client", leaky)
            res = run_episode(generate(3), "direct-pnfs-sharded")
        assert any(v.startswith("leak: client0 session to") for v in res.violations)
        assert not run_episode(generate(3), "direct-pnfs-sharded").violations


class TestPinnedRegressions:
    @pytest.mark.parametrize("arch", ["direct-pnfs", "pnfs-2tier", "nfsv4"])
    def test_seed_146_writeback_reorder(self, arch):
        # Overlapping writes to one private file; the re-dirtied block
        # must not race its own in-flight write-back.
        res = run_episode(generate(146), arch)
        assert res.violations == []

    @pytest.mark.parametrize("arch", ["direct-pnfs", "nfsv4"])
    def test_seed_65_dirty_survives_close(self, arch):
        # write → reopen during a long outage (close's flush fails) →
        # post-heal fsync must re-flush the re-dirtied ranges.
        res = run_episode(generate(65), arch)
        assert res.violations == []

    def test_seed_161_dirty_survives_close_shared(self):
        res = run_episode(generate(161), "nfsv4")
        assert res.violations == []

    def test_seed_28_buggy_writeback_is_caught(self, monkeypatch):
        # Checker power: revert the errseq re-dirty/latch behaviour and
        # the durability oracle must report the silent loss.  nfsv4 has
        # no DS failover, so a long blackout really does kill the
        # write-backs.
        with monkeypatch.context() as mp:
            mutants.apply(mp, "writeback")
            res = run_episode(generate(28), "nfsv4")
        assert res.violations
        assert any("silent-loss" in v for v in res.violations)
        # ... and the fixed client sails through the same episode.
        assert not run_episode(generate(28), "nfsv4").violations

    def test_seed_14_empty_reply_cache_is_caught(self, monkeypatch):
        # Checker power: with no reply cache, a retransmission after a
        # lost reply runs the request again on the server.
        with monkeypatch.context() as mp:
            mutants.apply(mp, "replycache")
            res = run_episode(generate(14), "direct-pnfs")
        assert any(v.startswith("exactly-once:") for v in res.violations)
        assert not run_episode(generate(14), "direct-pnfs").violations

    @pytest.mark.parametrize("arch", ["nfsv4", "direct-pnfs"])
    def test_a_5ms_overlap_of_two_write_locks_is_caught(self, arch, monkeypatch):
        # Checker power at grant grain: two clients hold overlapping
        # write locks on the shared file for 5 ms, far shorter than any
        # polling period a monitor could afford.
        track = [
            Op("sleep", delay=0.001),
            Op("lock", SHARED, 0, 64),
            Op("sleep", delay=0.005),
            Op("unlock", SHARED, 0, 64),
        ]
        program = Program(
            seed=0, n_clients=2, chunk=8 * 1024, shared_size=16 * 1024,
            private_size=8 * 1024, ops=[track, track],
        )
        assert not run_episode(program, arch).violations
        with monkeypatch.context() as mp:
            mutants.apply(mp, "lock")
            res = run_episode(program, arch)
        assert any(v.startswith("lock-safety:") for v in res.violations)

    @pytest.mark.xfail(
        strict=True,
        reason="no program shape takes contended locks: generate() draws every "
        "lock range with own_range(), inside the client's own slots of the "
        "shared file or its private file, so no two owners ever lock "
        "overlapping bytes and the lock-safety oracle cannot fire",
    )
    def test_blind_lock_table_is_caught(self, monkeypatch):
        # Checker power: a lock table that grants every LOCK must make
        # the lock-safety oracle report coexisting conflicting grants,
        # in plain or metadata programs.
        mutants.apply(monkeypatch, "lock")
        violations = [
            v
            for seed in range(10)
            for metadata in (False, True)
            for v in run_episode(generate(seed, metadata_ops=metadata), "nfsv4").violations
        ]
        assert any("lock-safety" in v for v in violations)


class TestShrinker:
    def test_shrink_list_minimises(self):
        # Failure needs both 3 and 7 present: ddmin must find exactly
        # that pair.
        out = shrink_list(list(range(10)), lambda ks: {3, 7} <= set(ks))
        assert sorted(out) == [3, 7]

    def test_shrink_list_rejects_passing_input(self):
        with pytest.raises(ValueError):
            shrink_list([1, 2], lambda ks: False)

    def test_shrink_seed_65_drops_most_ops(self, monkeypatch):
        from repro.check.shrink import shrink_program

        mutants.apply(monkeypatch, "writeback")
        program = generate(65)
        small, runs = shrink_program(program, "nfsv4")
        assert runs > 1
        # Not asserting an exact program — just that ddmin made real
        # progress and the result still fails for the same reason.
        assert small.op_count < program.op_count
        res = run_episode(small, "nfsv4")
        assert res.violations


CLIENT_MUTANTS = sorted(n for n, (cls, _m, _b) in mutants.MUTANTS.items() if cls is Nfs4Client)


class TestMutantReach:
    @pytest.mark.parametrize("name", CLIENT_MUTANTS)
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_every_nfs_family_client_runs_the_mutant(self, arch, name, monkeypatch):
        """The class patch reaches every NFS-family client a deployment
        builds, each shard behind a router included; the native PVFS2
        client stays stock."""
        _cls, method, body = mutants.MUTANTS[name]
        mutants.apply(monkeypatch, name)
        nfs_family = arch != "pvfs2"
        dep = make_deployment(arch, n_clients=2)
        for node in dep.testbed.client_nodes:
            cl = dep.make_client(node)
            parts = getattr(cl, "shards", [cl])
            assert len(parts) == ARCHITECTURES[arch].n_meta
            for part in parts:
                assert isinstance(part, Nfs4Client) == nfs_family
                bound = getattr(part, method, None)
                assert (getattr(bound, "__func__", None) is body) == nfs_family
