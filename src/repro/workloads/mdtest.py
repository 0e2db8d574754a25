"""mdtest-style metadata micro-benchmark.

§6.4.3 closes with the observation that metadata management — simple
for standalone file systems, complex for parallel ones — deserves
study: NFSv4 recentralises the decentralised parallel-FS metadata
protocol.  This workload isolates exactly that axis: per client, a
private directory tree is created, stat'ed, listed, and removed, with
no data I/O at all.  Reported per-phase op rates make the
NFS-extra-hop vs native-metadata trade directly visible (it is the
uncompress/configure half of the SSH-build result in isolation).
"""

from __future__ import annotations

from repro.vfs.api import FileSystemClient
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["MdtestWorkload"]


class MdtestWorkload(Workload):
    """create / stat / readdir / remove sweeps over empty files."""

    name = "mdtest"

    def __init__(
        self,
        nfiles: int = 400,
        ndirs: int = 10,
        stat_passes: int = 2,
        concurrency: int = 1,
        scale: float = 1.0,
        seed: int = 20070625,
    ):
        super().__init__(scale=scale, seed=seed)
        self.nfiles = max(20, int(nfiles * scale))
        self.ndirs = ndirs
        self.stat_passes = stat_passes
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        #: mdtest-style ranks per client node: metadata ops issued by
        #: ``concurrency`` parallel processes sharing the client mount.
        self.concurrency = concurrency

    def prepare(self, sim, admin: FileSystemClient, n_clients: int):
        yield from admin.mkdir("/mdtest")

    def client_proc(self, sim, fsc: FileSystemClient, client_idx: int, n_clients: int):
        base = f"/mdtest/c{client_idx}"
        yield from fsc.mkdir(base)
        phases: dict[str, float] = {}
        ranks = self.concurrency
        per_rank = max(1, self.nfiles // ranks)
        per_dir = max(1, per_rank // self.ndirs)
        rank_paths: list[list[str]] = [[] for _ in range(ranks)]

        def fan_out(maker):
            return sim.spawn(*(maker(r) for r in range(ranks)))

        t0 = sim.now

        def create_rank(r):
            yield from fsc.mkdir(f"{base}/r{r}")
            for d in range(self.ndirs):
                yield from fsc.mkdir(f"{base}/r{r}/d{d}")
                for i in range(per_dir):
                    path = f"{base}/r{r}/d{d}/f{i}"
                    f = yield from fsc.create(path)
                    yield from fsc.close(f)
                    rank_paths[r].append(path)

        yield fan_out(create_rank)
        phases["create"] = sim.now - t0

        t0 = sim.now

        def stat_rank(r):
            for _ in range(self.stat_passes):
                for path in rank_paths[r]:
                    yield from fsc.getattr(path)

        yield fan_out(stat_rank)
        phases["stat"] = sim.now - t0

        t0 = sim.now

        def readdir_rank(r):
            for d in range(self.ndirs):
                yield from fsc.readdir(f"{base}/r{r}/d{d}")

        yield fan_out(readdir_rank)
        phases["readdir"] = sim.now - t0

        t0 = sim.now

        def remove_rank(r):
            for path in rank_paths[r]:
                yield from fsc.remove(path)
            for d in range(self.ndirs):
                yield from fsc.remove(f"{base}/r{r}/d{d}")
            yield from fsc.remove(f"{base}/r{r}")

        yield fan_out(remove_rank)
        yield from fsc.remove(base)
        phases["remove"] = sim.now - t0
        paths = [p for rp in rank_paths for p in rp]

        nops = len(paths)
        rates = {
            "create": nops / phases["create"] if phases["create"] else float("inf"),
            "stat": nops * self.stat_passes / phases["stat"] if phases["stat"] else float("inf"),
            "remove": nops / phases["remove"] if phases["remove"] else float("inf"),
        }
        return WorkloadResult(
            bytes_moved=0,
            transactions=nops,
            extra={"phases": phases, "rates": rates},
        )
