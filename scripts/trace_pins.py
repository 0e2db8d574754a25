#!/usr/bin/env python3
"""Check or re-record the pinned torture trace hashes.

ROADMAP calls trace hashes "the contract": a refactor must replay every
pinned episode bit-identically.  ``tests/check/trace_pins.json`` records,
per ``mode:seed:arch`` episode, the trace hash, the violation count and
the wedged flag::

    python scripts/trace_pins.py --check     # exit 1 on any difference
    python scripts/trace_pins.py --update    # re-record (one reviewed commit)

The table is seeds 0-24 plus the seeds earlier PRs pinned by hand (28 is
the writeback mutant's seed) x the five paper architectures and
``direct-pnfs-sharded`` x plain and ``--metadata`` programs: 360
episodes, about twelve seconds.  Tier-1 checks
a subset (``tests/check/test_trace_pins.py``); CI's ``torture-smoke``
job checks all of it.

``mismatches`` and ``main`` take the pin file, the table and the
replay as arguments, so every pin script shares one check / re-record
loop (``scripts/pagecache_pins.py`` passes its own).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.check import generate, run_episode  # noqa: E402

PINS = ROOT / "tests" / "check" / "trace_pins.json"
SEEDS = [*range(25), 28, 32, 65, 146, 161]
ARCHES = [
    "direct-pnfs", "nfsv4", "pnfs-2tier", "pnfs-3tier", "pvfs2", "direct-pnfs-sharded",
]
MODES = ["plain", "metadata"]


def keys() -> list[str]:
    return [f"{mode}:{seed}:{arch}" for mode in MODES for seed in SEEDS for arch in ARCHES]


def run_pin(key: str) -> dict:
    """Replay the episode ``key`` names and return its pin record."""
    mode, seed, arch = key.split(":")
    program = generate(int(seed), metadata_ops=mode == "metadata")
    result = run_episode(program, arch)
    return {
        "hash": result.trace_hash,
        "violations": len(result.violations),
        "wedged": result.wedged,
    }


def mismatches(selected: list[str], pin_file=PINS, run=run_pin) -> list[str]:
    """One line per selected key whose replay differs from its pin."""
    pins = json.loads(pin_file.read_text())
    out = []
    for key in selected:
        got = run(key)
        if got != pins.get(key):
            out.append(f"{key}: pinned {pins.get(key)}, got {got}")
    return out


def main(argv=None, pin_file=PINS, table=keys, run=run_pin, noun="episodes",
         description=__doc__) -> int:
    parser = argparse.ArgumentParser(description=description.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="replay and compare")
    action.add_argument("--update", action="store_true", help="replay and re-record")
    args = parser.parse_args(argv)
    selected = table()
    if args.update:
        pins = {key: run(key) for key in selected}
        pin_file.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(pins)} {noun} in {pin_file.relative_to(ROOT)}")
        return 0
    bad = mismatches(selected, pin_file, run)
    for line in bad:
        print(line)
    print(f"{len(selected) - len(bad)}/{len(selected)} pinned {noun} identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
