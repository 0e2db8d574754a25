"""SSH-build style benchmark (paper §6.4.3).

Following the SSH build benchmark of Seltzer et al., the paper built a
workload that uncompresses, configures, and builds OpenSSH and reports
per-phase behaviour: Direct-pNFS *reduces* compilation time (small
read/write dominated) but *increases* uncompress and configure time
(file creation and attribute updates, which NFS recentralises on its
metadata server).

This workload reproduces the op mix of the three phases as a synthetic
trace with per-phase timings returned in ``extra``:

* **uncompress** — create many small source files;
* **configure** — small probe files created/removed, lots of getattr
  and attribute updates, small reads;
* **build** — read each source (some repeatedly — header files), write
  object files, then link: read all objects, write one large binary.
"""

from __future__ import annotations

from repro.vfs.api import FileSystemClient, Payload
from repro.workloads.base import Workload, WorkloadResult

__all__ = ["SshBuildWorkload"]

KB = 1024


class SshBuildWorkload(Workload):
    """Uncompress / configure / build phase mix."""

    name = "sshbuild"

    def __init__(self, nsources: int = 400, scale: float = 1.0, seed: int = 20070625):
        super().__init__(scale=scale, seed=seed)
        self.nsources = max(20, int(nsources * scale))

    def prepare(self, sim, admin: FileSystemClient, n_clients: int):
        yield from admin.mkdir("/build")
        for c in range(n_clients):
            yield from admin.mkdir(f"/build/c{c}")

    def client_proc(self, sim, fsc: FileSystemClient, client_idx: int, n_clients: int):
        rng = self.rng(client_idx)
        base = f"/build/c{client_idx}"
        moved = 0
        phases = {}

        # -- uncompress: extract the source tree --------------------------
        t0 = sim.now
        yield from fsc.mkdir(f"{base}/src")
        sources = []
        for i in range(self.nsources):
            path = f"{base}/src/s{i}.c"
            size = int(rng.integers(2 * KB, 40 * KB))
            f = yield from fsc.create(path)
            yield from fsc.write(f, 0, Payload.synthetic(size))
            yield from fsc.close(f)
            sources.append((path, size))
            moved += size
        phases["uncompress"] = sim.now - t0

        # -- configure: probes, stats, attribute updates --------------------
        t0 = sim.now
        nprobes = self.nsources // 2
        for i in range(nprobes):
            probe = f"{base}/conftest{i}.c"
            f = yield from fsc.create(probe)
            yield from fsc.write(f, 0, Payload.synthetic(int(rng.integers(256, 2048))))
            yield from fsc.close(f)
            yield from fsc.getattr(probe)
            yield from fsc.setattr(probe, 0o755)
            yield from fsc.remove(probe)
        for path, _size in sources[: self.nsources // 4]:
            yield from fsc.getattr(path)
        phases["configure"] = sim.now - t0

        # -- build: compile + link -------------------------------------------
        t0 = sim.now
        yield from fsc.mkdir(f"{base}/obj")
        headers = sources[: max(1, self.nsources // 10)]
        objects = []
        for i, (path, size) in enumerate(sources):
            f = yield from fsc.open(path, write=False)
            pos = 0
            while pos < size:  # compilers read in small chunks
                chunk = yield from fsc.read(f, pos, 8 * KB)
                pos += max(1, chunk.nbytes)
            yield from fsc.close(f)
            # every compile re-reads a few headers (cache-friendly)
            for hpath, hsize in headers[:3]:
                hf = yield from fsc.open(hpath, write=False)
                yield from fsc.read(hf, 0, min(hsize, 8 * KB))
                yield from fsc.close(hf)
            opath = f"{base}/obj/o{i}.o"
            osize = int(size * 1.5)
            of = yield from fsc.create(opath)
            yield from fsc.write(of, 0, Payload.synthetic(osize))
            yield from fsc.close(of)
            objects.append((opath, osize))
            moved += size + osize
        # link: read all objects, emit the binary
        total_obj = 0
        for opath, osize in objects:
            of = yield from fsc.open(opath, write=False)
            yield from fsc.read(of, 0, osize)
            yield from fsc.close(of)
            total_obj += osize
        binf = yield from fsc.create(f"{base}/sshd")
        yield from fsc.write(binf, 0, Payload.synthetic(total_obj))
        yield from fsc.fsync(binf)
        yield from fsc.close(binf)
        moved += 2 * total_obj
        phases["build"] = sim.now - t0

        return WorkloadResult(
            bytes_moved=moved,
            transactions=self.nsources,
            extra={"phases": phases},
        )
