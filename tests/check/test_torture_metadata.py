"""Metadata/namespace torture coverage: generation, episodes, oracles.

Pinned regressions for the metadata bug swarm:

* **seed 0 + nfsv4 + buggy truncate** — checker-power gate: with the
  truncate fix reverted to its attr-cache-only form, the durability
  oracle reports *truncate-resurrection* (cached pages past the cut
  written back / served again) within the CI seed budget.
* **seed 32 + pnfs-3tier** — exactly-once under truncate: the MDS
  used to block its truncate handler on backchannel layout recalls;
  under a NIC fault the handler outlived the client's RPC patience
  and the retransmission re-executed it.  Recalls now run detached.
"""

import pytest

from repro.check.program import Program, generate, ns_path, scratch_path
from repro.check.runner import run_episode, sweep
from tests.check import mutants

ALL_ARCHES = ["direct-pnfs", "pvfs2", "pnfs-2tier", "pnfs-3tier", "nfsv4"]

_META_KINDS = {"truncate", "recreate", "rename", "mkdir", "readdir", "getattr"}


class TestGeneration:
    def test_metadata_ops_appear(self):
        kinds = set()
        for seed in range(12):
            prog = generate(seed, metadata_ops=True)
            assert prog.metadata
            kinds |= {op.kind for t in prog.ops for op in t}
        assert _META_KINDS <= kinds

    def test_default_stream_is_untouched(self):
        """``metadata_ops`` must not perturb the default rng stream:
        the pinned data-path seeds depend on byte-identical programs."""
        a, b = generate(146), generate(146)
        assert a.to_json() == b.to_json()
        assert not a.metadata
        assert not any(
            op.kind in _META_KINDS for t in a.ops for op in t
        )

    def test_json_roundtrip_with_dest(self):
        prog = generate(5, metadata_ops=True)
        back = Program.from_json(prog.to_json())
        assert back.to_json() == prog.to_json()
        assert back.metadata
        renames = [op for t in back.ops for op in t if op.kind == "rename"]
        for op in renames:
            assert op.dest  # dest survives the round trip

    def test_old_json_without_metadata_field_loads(self):
        import json

        raw = json.loads(generate(5).to_json())
        del raw["metadata"]
        for track in raw["ops"]:
            for op in track:
                del op["dest"]
        prog = Program.from_json(json.dumps(raw))
        assert prog.metadata is False

    def test_namespace_slots_single_owner(self):
        for seed in (0, 9, 23):
            prog = generate(seed, metadata_ops=True)
            slots = [prog.ns_slot_of(c) for c in range(prog.n_clients)]
            assert sorted(slots) == list(range(prog.n_clients))
            for c in range(prog.n_clients):
                assert prog.owner_of(scratch_path(c), 0) == c
                assert prog.owner_of(ns_path(prog.ns_slot_of(c)), 0) == c


class TestEpisodes:
    def test_metadata_smoke_all_arches(self):
        program = generate(0, metadata_ops=True)
        for arch in ALL_ARCHES:
            res = run_episode(program, arch)
            assert not res.violations, (arch, res.violations)
            assert not res.wedged

    def test_metadata_replay_is_byte_identical(self):
        program = generate(7, metadata_ops=True)
        a = run_episode(program, "direct-pnfs")
        b = run_episode(program, "direct-pnfs")
        assert a.trace_hash == b.trace_hash
        assert a.violations == b.violations

    def test_metadata_sweep_clean(self):
        results = sweep(["nfsv4"], seeds=3, metadata=True)
        assert len(results) == 3
        assert not any(r.violations for r in results), [
            (r.seed, r.violations) for r in results if r.violations
        ]


class TestPinnedRegressions:
    def test_seed_0_buggy_truncate_is_caught(self, monkeypatch):
        # Checker power: revert the truncate fix to its pre-fix
        # attr-cache-only form and the durability oracle must label the
        # failure as truncate-resurrection.
        with monkeypatch.context() as mp:
            mutants.apply(mp, "truncate")
            res = run_episode(generate(0, metadata_ops=True), "nfsv4")
        assert res.violations
        assert any("truncate-resurrection" in v for v in res.violations)
        # ... and the fixed client sails through the same episode.
        assert not run_episode(generate(0, metadata_ops=True), "nfsv4").violations

    def test_seed_32_truncate_recall_exactly_once(self):
        # The MDS truncate handler must not block on layout recalls:
        # blocked past the client's RPC patience, its retransmission
        # re-executed the handler (reply cache can only suppress
        # *completed* executions).
        res = run_episode(generate(32, metadata_ops=True), "pnfs-3tier")
        assert res.violations == []


class TestShrinker:
    def test_shrink_handles_metadata_kinds(self, monkeypatch):
        from repro.check.shrink import shrink_program

        mutants.apply(monkeypatch, "truncate")
        program = generate(0, metadata_ops=True)
        small, runs = shrink_program(program, "nfsv4")
        assert runs > 1
        assert small.op_count < program.op_count
        res = run_episode(small, "nfsv4")
        assert res.violations
        # The minimised program still carries the essential metadata op.
        kinds = {op.kind for t in small.ops for op in t}
        assert "truncate" in kinds
