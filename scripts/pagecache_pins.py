#!/usr/bin/env python3
"""Check or re-record the NFS client page-cache golden counters.

The torture trace pins (``scripts/trace_pins.py``) run a 16 KB rsize and
operations of at most 32 KB; the figures run 2 MB rsize/wsize and a
12 MB readahead window.  ``tests/nfs/pagecache_pins.json`` covers those
window sizes: seeded op mixes (sequential / strided / random reads and
writes, rewrites of a block under write-back, mid-stream ``truncate``,
close + reopen, two opens of one path, two concurrent streams), each
run at the figure configuration and at the torture sizes, on plain
NFSv4 and on Direct-pNFS.  Per program the pin is the simulated end
time, the events processed, the RPCs served, the client's page-cache
counters and a SHA-256 over every byte any read returned::

    python scripts/pagecache_pins.py --check     # exit 1 on any difference
    python scripts/pagecache_pins.py --update    # re-record (one reviewed commit)

A change to the page cache's bookkeeping must replay all of them
bit-identically; tier-1 runs the whole table
(``tests/nfs/test_pagecache_pins.py``).  The programs use only the
public ``FileSystemClient`` calls, so the same file records a parent
commit and checks a change.  The check / re-record loop is
``scripts/trace_pins.py``'s.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import trace_pins  # noqa: E402
from repro.cluster.configs import make_deployment  # noqa: E402
from repro.vfs import Payload  # noqa: E402

PINS = ROOT / "tests" / "nfs" / "pagecache_pins.json"
KB, MB = 1024, 1024 * 1024
PATH = "/pc"

#: name -> (nfs overrides, pvfs overrides, small application block, seeds).
#: ``fig`` is the testbed default every figure cell runs; its programs
#: move ~20 MB of real bytes each, so it gets one seed per mix.
CONFIGS = {
    "fig": ({}, {}, 8 * KB, [1]),
    "torture": (
        dict(rsize=16 * KB, wsize=16 * KB, readahead=32 * KB),
        dict(stripe_size=32 * KB),
        1 * KB,
        [1, 2],
    ),
}
ARCHES = ["nfsv4", "direct-pnfs"]


def blob(tag, nbytes: int) -> bytes:
    return random.Random(f"pc-{tag}").randbytes(nbytes)


# -- op mixes ---------------------------------------------------------------
# A mix returns (initial file size, threads); a thread is a list of ops run
# by one application process of the client under test:
#   ("open", slot, write) ("close", slot) ("fsync", slot)
#   ("read", slot, offset, nbytes) ("write", slot, offset, nbytes)
#   ("truncate", size) ("think", seconds)


def _seq(slot, kind, start, end, block):
    return [(kind, slot, pos, min(block, end - pos)) for pos in range(start, end, block)]


def mix_seq_read(rng, unit, small):
    size = unit * rng.randint(9, 12) + rng.randrange(unit)
    block = small * rng.choice([1, 1, 4])
    ops = [("open", 0, False)] + _seq(0, "read", 0, size, block) + [("close", 0)]
    return size, [ops]


def mix_seq_read_think(rng, unit, small):
    """Thinking lets the window land (pure hits); one backwards seek
    breaks the stream and a re-read of the tail resumes it."""
    size = unit * 10
    ops = [("open", 0, False)]
    for i, op in enumerate(_seq(0, "read", 0, size // 2, small * 8)):
        ops.append(op)
        if i % 16 == 15:
            ops.append(("think", 0.05))
    back = rng.randrange(unit, size // 4)
    ops += _seq(0, "read", back, back + unit, small)
    ops += _seq(0, "read", size // 2, size + unit, small * 8)  # runs past EOF
    ops.append(("close", 0))
    return size, [ops]


def mix_strided_read(rng, unit, small):
    size = unit * 8
    stride = small * rng.choice([3, 16, 64])
    reads = [("read", 0, pos, small) for pos in range(0, size, stride)]
    return size, [[("open", 0, False)] + reads + reads[::2] + [("close", 0)]]


def mix_random_read(rng, unit, small):
    size = unit * 6 + rng.randrange(unit)
    ops = [("open", 0, False)]
    for _ in range(80):
        n = rng.choice([small, small * 3, unit // 2, unit * 2])
        ops.append(("read", 0, rng.randrange(size), n))
    ops.append(("close", 0))
    return size, [ops]


def mix_seq_write(rng, unit, small):
    size = unit * rng.randint(3, 5) + rng.randrange(unit)
    block = small * rng.choice([1, 1, 4])
    writes = _seq(0, "write", 0, size, block)
    half = len(writes) // 2
    ops = [("open", 0, True)] + writes[:half] + [("fsync", 0)] + writes[half:] + [("close", 0)]
    ops += [("open", 0, False)] + _seq(0, "read", 0, size, small * 8) + [("close", 0)]
    return 0, [ops]


def mix_random_write(rng, unit, small):
    size = unit * 5
    ops = [("open", 0, True)]
    for i in range(80):
        n = rng.choice([small, small * 5, unit // 2, unit + small])
        ops.append(("write", 0, rng.randrange(size), n))
        if i % 40 == 39:
            ops.append(("fsync", 0))
    ops += _seq(0, "read", 0, size + unit, unit // 4) + [("close", 0)]
    return size, [ops]


def mix_strided_write(rng, unit, small):
    size = unit * 4
    stride = small * rng.choice([2, 5, 32])
    ops = [("open", 0, True)]
    ops += [("write", 0, pos, small) for pos in range(0, size, stride)]
    # fill the holes back to front: every write lands before an existing run
    ops += [("write", 0, pos, stride) for pos in range(size - stride, -1, -4 * stride)]
    ops += [("fsync", 0)] + _seq(0, "read", 0, size, unit // 2) + [("close", 0)]
    return 0, [ops]


def mix_rewrite_flushing(rng, unit, small):
    """Full blocks kick asynchronous write-backs; rewrites that overlap a
    block still on the wire must be deferred, not raced."""
    ops = [("open", 0, True)]
    for blk in range(4):
        base = blk * unit
        ops.append(("write", 0, base, unit))
        for _ in range(3):
            off = base + rng.randrange(unit - small)
            ops.append(("write", 0, off, small * rng.choice([1, 2])))
        ops.append(("write", 0, base, unit))  # the whole block again, still on the wire
        ops.append(("write", 0, base + unit // 2, unit))  # straddles the next block
        if blk == 1:
            ops.append(("think", 0.2))
    ops += [("fsync", 0)] + _seq(0, "read", 0, 5 * unit, unit // 2) + [("close", 0)]
    return 0, [ops]


def mix_truncate_mid(rng, unit, small):
    size = unit * 8
    cut = unit * rng.randint(3, 5) + rng.randrange(unit)
    ops = [("open", 0, True)]
    ops += _seq(0, "read", 0, unit * 2, small * 4)  # window now reaches past the cut
    ops.append(("truncate", cut))
    ops += _seq(0, "read", unit * 2, size, small * 4)  # reads past the new EOF return short
    ops += _seq(0, "write", cut + small, cut + unit + small, small * 2)  # leaves a hole
    ops.append(("truncate", cut + unit // 2))
    ops += [("fsync", 0)] + _seq(0, "read", 0, size, unit // 2) + [("close", 0)]
    return size, [ops]


def mix_reopen(rng, unit, small):
    size = unit * 6
    ops = [("open", 0, True)] + _seq(0, "read", 0, unit * 3, small * 4)
    ops += _seq(0, "write", unit, unit * 2 + small, small) + [("close", 0)]
    ops += [("open", 0, True)] + _seq(0, "read", 0, size, small * 8)
    ops += _seq(0, "write", size, size + unit // 2, small * 2) + [("close", 0)]
    ops += [("open", 0, False)] + _seq(0, "read", unit * 5, size + unit, small * 8)
    ops.append(("close", 0))
    return size, [ops]


def mix_two_opens(rng, unit, small):
    """Two opens of one path on one client: each has its own pages, and
    ``truncate`` must reach both."""
    size = unit * 6
    ops = [("open", 0, True), ("open", 1, False)]
    for i in range(24):
        pos = i * small * 8
        ops.append(("read", 1, pos, small * 8))
        ops.append(("write", 0, pos + unit * 3, small * 4))
    ops.append(("fsync", 0))
    ops.append(("truncate", unit * 4 + rng.randrange(unit)))
    ops += _seq(1, "read", unit * 3, size, small * 8)
    ops += _seq(0, "read", 0, size, unit // 2)
    ops += [("close", 1), ("close", 0)]
    return size, [ops]


def mix_two_streams(rng, unit, small):
    """Two application processes on one client, one open each."""
    size = unit * 10
    a = [("open", 0, False)] + _seq(0, "read", 0, size // 2, small * 2) + [("close", 0)]
    b = [("open", 1, False), ("think", 0.01)]
    b += _seq(1, "read", size // 2 - unit, size, small * 4) + [("close", 1)]
    return size, [a, b]


def mix_soup(rng, unit, small):
    size = unit * 5
    ops = [("open", 0, True), ("open", 1, True)]
    pos = [0, 0]
    for _ in range(160):
        slot = rng.randrange(2)
        roll = rng.random()
        n = rng.choice([small, small, small * 4, unit // 2, unit + small])
        if roll < 0.45:  # continue this slot's stream
            ops.append(("read" if slot else "write", slot, pos[slot], n))
            pos[slot] += n
        elif roll < 0.65:
            ops.append(("read", slot, rng.randrange(size), n))
        elif roll < 0.85:
            ops.append(("write", slot, rng.randrange(size), n))
        elif roll < 0.90:
            ops.append(("fsync", slot))
        elif roll < 0.94:
            ops.append(("truncate", rng.randrange(unit, size)))
        elif roll < 0.97:
            ops.append(("think", rng.choice([0.001, 0.05])))
        else:
            ops += [("close", slot), ("open", slot, True)]
            pos[slot] = 0
    ops += [("close", 0), ("close", 1)]
    return size, [ops]


MIXES = {
    name.removeprefix("mix_"): fn
    for name, fn in sorted(globals().items())
    if name.startswith("mix_")
}


def keys() -> list[str]:
    """One program per (config, mix, seed); architectures alternate."""
    out = []
    for config, (_nfs, _pvfs, _small, seeds) in CONFIGS.items():
        for i, mix in enumerate(MIXES):
            for seed in seeds:
                out.append(f"{config}:{ARCHES[(i + seed) % 2]}:{mix}:{seed}")
    return out


# -- running one program ----------------------------------------------------
def run_pin(key: str) -> dict:
    config, arch, mix, seed = key.split(":")
    nfs, pvfs, small, _seeds = CONFIGS[config]
    dep = make_deployment(
        arch, n_clients=2, nfs_overrides=dict(nfs), pvfs_overrides=dict(pvfs), seed=int(seed)
    )
    sim = dep.testbed.sim
    client, other = (dep.make_client(n) for n in dep.testbed.client_nodes)
    unit = client.cfg.rsize
    size, threads = MIXES[mix](random.Random(f"{mix}-{seed}"), unit, small)
    digest = hashlib.sha256()

    def prepare():
        yield from client.mount()
        yield from other.mount()
        f = yield from other.create(PATH)
        for pos in range(0, size, unit):
            n = min(unit, size - pos)
            yield from other.write(f, pos, Payload(blob(f"init-{pos}", n)))
        yield from other.close(f)

    def thread(tid, ops):
        slots = {}
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "open":
                slots[op[1]] = yield from client.open(PATH, write=op[2])
            elif kind == "close":
                yield from client.close(slots.pop(op[1]))
            elif kind == "fsync":
                yield from client.fsync(slots[op[1]])
            elif kind == "read":
                data = yield from client.read(slots[op[1]], op[2], op[3])
                digest.update(f"{tid}.{i}:{data.nbytes}:".encode())
                digest.update(data.data)
            elif kind == "write":
                payload = Payload(blob(f"{key}-{tid}-{i}", op[3]))
                yield from client.write(slots[op[1]], op[2], payload)
            elif kind == "truncate":
                yield from client.truncate(PATH, op[1])
            elif kind == "think":
                yield sim.timeout(op[1])
            else:  # pragma: no cover - a typo in a mix
                raise ValueError(op)

    def verify():
        # A cold client reads the file back: what reached the server.
        attrs = yield from other.getattr(PATH)
        f = yield from other.open(PATH, write=False)
        data = yield from other.read(f, 0, attrs.size + unit)
        yield from other.close(f)
        digest.update(f"final:{data.nbytes}:".encode())
        digest.update(data.data)

    def main():
        yield from prepare()
        yield sim.all_of([sim.process(thread(t, ops)) for t, ops in enumerate(threads)])
        yield sim.timeout(1.0)  # let orphaned prefetches land
        yield from verify()

    sim.run(until=sim.process(main()))
    services = [s.rpc for s in dep.servers] + [d.rpc for d in dep.pvfs.daemons]
    return {
        "now": sim.now,
        "events": sim.stats.events_processed,
        "rpc_calls": sum(r.calls_served for r in {id(r): r for r in services}.values()),
        "cache_hit_bytes": client.cache_hit_bytes,
        "cache_miss_bytes": client.cache_miss_bytes,
        "readahead_issued_bytes": client.readahead_issued_bytes,
        "readahead_used_bytes": client.readahead_used_bytes,
        "bytes_read": client.bytes_read,
        "bytes_written": client.bytes_written,
        "sha256": digest.hexdigest(),
    }


def mismatches(selected: list[str]) -> list[str]:
    """One line per selected program whose replay differs from its pin."""
    return trace_pins.mismatches(selected, PINS, run_pin)


def main(argv=None) -> int:
    return trace_pins.main(argv, PINS, keys, run_pin, "programs", __doc__)


if __name__ == "__main__":
    sys.exit(main())
