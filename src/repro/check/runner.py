"""Execute one torture episode and check every invariant.

An *episode* is ``(program, architecture)``: the program's clients run
concurrently against a fresh seeded deployment while the program's
fault schedule plays out, then faults heal, the cluster settles, and a
fresh verifier client reads every file back for the durability oracle.
The whole episode is a deterministic function of the program (and the
program of its seed), so :func:`run_episode` also returns a sha256
trace hash — byte-identical across replays of the same seed, the
property the shrinker and CI artifacts rely on.

Invariants checked (ISSUE: torture-harness checkers):

* data integrity / errseq — :mod:`repro.check.model` oracles;
* exactly-once — no session sequence id executes twice server-side
  (reply-cache misses counted by wrapping ``Session.cached_reply``);
* lock safety — every grant is checked against the locks held beside
  it (each server's ``LockManager.lock`` wrapped on the instance);
* liveness — the episode and the final verification each finish within
  a generous sim-time deadline (RPC timeouts bound every stall);
* conservation / leaks — post-heal: no session slot or server worker
  thread still held, readahead never consumes more than it issued, and
  the network never delivers more bytes than were sent.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from repro import rpc
from repro.check.model import Model
from repro.check.program import Program
from repro.cluster.configs import ARCHITECTURES, make_deployment
from repro.nfs.sessions import Session
from repro.sim.faults import FaultInjector
from repro.vfs.api import FsError, Payload

__all__ = [
    "EpisodeResult",
    "run_episode",
    "sweep",
    "TORTURE_NFS",
    "TORTURE_PVFS",
]

KB = 1024

#: Aggressive-but-sane protocol knobs for torture runs: small transfers
#: (more interleavings per byte), short RPC timeouts (faults surface
#: within the episode).
TORTURE_NFS = dict(
    rsize=16 * KB,
    wsize=16 * KB,
    readahead=32 * KB,
    ac_timeo=0.05,
    rpc_policy=rpc.RpcPolicy(timeout=0.25, max_retries=3, backoff=2.0, max_timeout=2.0),
    ds_retry_interval=0.5,
)
TORTURE_PVFS = dict(stripe_size=32 * KB)

_EPISODE_DEADLINE = 120.0  # sim seconds
_VERIFY_DEADLINE = 60.0
_SETTLE = 8.0


@dataclass
class EpisodeResult:
    seed: int
    arch: str
    violations: list[str] = field(default_factory=list)
    trace_hash: str = ""
    wedged: bool = False
    op_count: int = 0
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _caps(arch: str) -> set:
    """Fault kinds ``arch`` can absorb without wedging by design.  The
    native PVFS2 client front has no RPC retry layer at all — a lost
    flow hangs it forever — so it only gets added-latency faults."""
    if ARCHITECTURES[arch].front == "pvfs2":
        return {"nic_delay"}
    return {"outage", "blackout", "nic_drop", "nic_delay"}


def run_episode(
    program: Program,
    arch: str,
    deadline: float = _EPISODE_DEADLINE,
) -> EpisodeResult:
    """Run ``program`` against ``arch``; returns violations + trace hash."""
    # The exactly-once oracle's input, counted from outside the product:
    # a reply-cache miss means the server is about to execute ``seq``.
    # Sequence ids are never reused, so retiring one needs no wrapper.
    executions: Counter = Counter()
    cached_reply = Session.cached_reply

    def counting(session, seq):
        reply = cached_reply(session, seq)
        if reply is None:
            executions[session, seq] += 1
        return reply

    Session.cached_reply = counting
    try:
        return _episode(program, arch, deadline, executions)
    finally:
        Session.cached_reply = cached_reply


def _episode(program: Program, arch: str, deadline: float, executions: Counter) -> EpisodeResult:
    result = EpisodeResult(seed=program.seed, arch=arch, op_count=program.op_count)
    dep = make_deployment(
        arch,
        n_clients=program.n_clients + 1,  # +1 node for the fresh verifier
        seed=program.seed,
        nfs_overrides=dict(TORTURE_NFS),
        pvfs_overrides=dict(TORTURE_PVFS),
    )
    sim = dep.testbed.sim
    model = Model(program)
    trace: list[tuple] = []
    violations = result.violations

    clients = [
        dep.make_client(node)
        for node in dep.testbed.client_nodes[: program.n_clients]
    ]

    # -- lock safety, checked at each grant ----------------------------
    # A conflicting pair can only come into being at a grant, so a check
    # of each new range against the others held on its file is exact.
    lock_reports: set[str] = set()

    def watch_grants(srv, locks):
        grant = locks.lock

        def lock(fh, owner, start, end, kind):
            granted = grant(fh, owner, start, end, kind)
            lock_reports.update(
                f"lock-safety: {srv.name} fh={fh} conflicting grants "
                f"{a.kind}[{a.start},{a.end}) and {kind}[{start},{end}) coexist"
                for a in locks.held(fh)
                if a.owner != owner and a.overlaps(start, end) and "write" in (a.kind, kind)
            )
            return granted

        locks.lock = lock

    for srv in dep.servers:
        locks = getattr(srv, "locks", None)
        if locks is not None:
            watch_grants(srv, locks)

    # -- setup: mount + create every file before faults start ----------
    def setup():
        for cl in clients:
            yield from cl.mount()
        cl = clients[0]
        for path in program.files:
            f = yield from cl.create(path)
            yield from cl.close(f)

    sim.run(until=sim.process(setup(), name="torture-setup"))
    t0 = sim.now

    # -- fault schedule ------------------------------------------------
    inj = FaultInjector(sim)
    caps = _caps(arch)
    for spec in program.faults:
        if spec.kind not in caps:
            trace.append(("fault-skipped", spec.kind, arch))
            continue
        start = t0 + spec.start
        if spec.kind == "outage":
            srv = dep.servers[spec.target % len(dep.servers)]
            inj.outage(srv.rpc, start, spec.duration)
        elif spec.kind == "blackout":
            for srv in dep.servers:
                inj.outage(srv.rpc, start, spec.duration)
        elif spec.kind == "nic_drop":
            nic = dep.testbed.client_nodes[spec.target % program.n_clients].nic
            inj.flaky_nic(nic, spec.param, start, spec.duration)
        elif spec.kind == "nic_delay":
            nic = dep.testbed.client_nodes[spec.target % program.n_clients].nic
            inj.at(start, lambda nic=nic, p=spec.param: inj.nic_delay(nic, p))
            inj.at(
                start + spec.duration,
                lambda nic=nic: inj.nic_delay(nic, 0.0),
            )

    # -- workers -------------------------------------------------------
    def worker(c: int, cl, track):
        files: dict[str, object] = {}

        def ensure_open(path):
            if path not in files:
                files[path] = yield from cl.open(path, write=True)
            return files[path]

        for op in track:
            t = round(sim.now - t0, 9)
            try:
                if op.kind == "sleep":
                    yield sim.timeout(op.delay)
                    outcome = "ok"
                elif op.kind == "write":
                    f = yield from ensure_open(op.file)
                    idx = model.on_write_start(
                        c, op.file, op.offset, op.offset + op.length, op.tag
                    )
                    yield from cl.write(
                        f, op.offset, Payload(bytes([op.tag]) * op.length)
                    )
                    model.on_write_ack(op.file, idx)
                    outcome = f"ok:{op.length}"
                elif op.kind == "read":
                    f = yield from ensure_open(op.file)
                    got = yield from cl.read(f, op.offset, op.length)
                    violations.extend(
                        model.check_read(
                            c, op.file, op.offset, got.data, got.nbytes
                        )
                    )
                    outcome = f"ok:{got.nbytes}"
                elif op.kind == "fsync":
                    if op.file in files:
                        yield from cl.fsync(files[op.file])
                        model.on_durable(c, op.file)
                    outcome = "ok"
                elif op.kind == "reopen":
                    if op.file in files:
                        yield from cl.close(files.pop(op.file))
                        model.on_durable(c, op.file)
                    files[op.file] = yield from cl.open(op.file, write=True)
                    outcome = "ok"
                elif op.kind == "lock":
                    if not hasattr(cl, "lock"):
                        outcome = "skip"
                    else:
                        f = yield from ensure_open(op.file)
                        yield from cl.lock(
                            f, op.offset, op.offset + op.length, op.lock_kind
                        )
                        outcome = "ok"
                elif op.kind == "unlock":
                    if not hasattr(cl, "lock") or op.file not in files:
                        outcome = "skip"
                    else:
                        yield from cl.unlock(
                            files[op.file], op.offset, op.offset + op.length
                        )
                        outcome = "ok"
                elif op.kind == "truncate":
                    # ``length`` holds the new size.  The model hooks
                    # are error-aware (an unacked truncate may have
                    # landed), so handle failures here rather than in
                    # the generic except below.
                    idx = model.on_trunc_start(c, op.file, op.length)
                    try:
                        yield from cl.truncate(op.file, op.length)
                    except (FsError, rpc.RpcTimeout) as exc:
                        model.on_trunc_error(c, op.file)
                        outcome = f"err:{type(exc).__name__}"
                    else:
                        model.on_trunc_ack(op.file, idx, op.length)
                        outcome = f"ok:{op.length}"
                elif op.kind == "recreate":
                    try:
                        if op.file in files:
                            yield from cl.close(files.pop(op.file))
                            model.on_durable(c, op.file)
                        yield from cl.remove(op.file)
                        model.on_remove_ack(c, op.file)
                        f = yield from cl.create(op.file)
                        model.on_recreate_ack(c, op.file)
                        files[op.file] = f
                        outcome = "ok"
                    except (FsError, rpc.RpcTimeout) as exc:
                        model.on_ns_error(c, op.file, op.kind)
                        outcome = f"err:{type(exc).__name__}"
                elif op.kind == "rename":
                    try:
                        if op.file in files:
                            yield from cl.close(files.pop(op.file))
                            model.on_durable(c, op.file)
                        yield from cl.rename(op.file, op.dest)
                        model.on_rename_ack(c, op.file, op.dest)
                        outcome = "ok"
                    except (FsError, rpc.RpcTimeout) as exc:
                        model.on_rename_error(c, op.file, op.dest)
                        outcome = f"err:{type(exc).__name__}"
                elif op.kind == "mkdir":
                    try:
                        yield from cl.mkdir(op.file)
                        model.on_mkdir_ack(c, op.file)
                        outcome = "ok"
                    except (FsError, rpc.RpcTimeout) as exc:
                        model.on_mkdir_error(c, op.file)
                        outcome = f"err:{type(exc).__name__}"
                elif op.kind == "readdir":
                    names = yield from cl.readdir(op.file)
                    violations.extend(
                        model.check_readdir(c, op.file, names)
                    )
                    outcome = f"ok:{len(names)}"
                elif op.kind == "getattr":
                    attrs = yield from cl.getattr(op.file)
                    violations.extend(
                        model.check_getattr(c, op.file, attrs)
                    )
                    outcome = (
                        f"ok:{int(attrs.size)}"
                        if attrs is not None
                        else "ok"
                    )
                else:  # pragma: no cover - generator never emits others
                    outcome = "skip"
            except (FsError, rpc.RpcTimeout) as exc:
                # Trace the *class*, never the message: messages can
                # embed object reprs (memory addresses) and would
                # break trace-hash determinism.
                outcome = f"err:{type(exc).__name__}"
                model.on_error(c, op.file, op.kind)
            trace.append((t, c, op.kind, op.file, outcome))
        for path, f in list(files.items()):
            try:
                yield from cl.close(f)
                model.on_durable(c, path)
                trace.append((round(sim.now - t0, 9), c, "close", path, "ok"))
            except (FsError, rpc.RpcTimeout) as exc:
                model.on_error(c, path, "close")
                trace.append(
                    (
                        round(sim.now - t0, 9),
                        c,
                        "close",
                        path,
                        f"err:{type(exc).__name__}",
                    )
                )

    procs = [
        sim.process(worker(c, cl, track), name=f"torture-c{c}")
        for c, (cl, track) in enumerate(zip(clients, program.ops))
    ]
    done = sim.all_of(procs)

    sim.run(until=sim.any_of([done, sim.timeout(deadline)]))
    if not done.triggered:
        result.wedged = True
        stuck = [p.name for p in procs if not p.triggered]
        violations.append(
            f"liveness: episode exceeded {deadline}s sim deadline; "
            f"stuck: {', '.join(stuck)}"
        )
    violations.extend(sorted(lock_reports))

    # -- heal + settle -------------------------------------------------
    sim.run(until=sim.now + _SETTLE)

    # -- final verification (skip if wedged: cluster state is moot) ----
    if not result.wedged:
        verifier = dep.make_client(dep.testbed.client_nodes[program.n_clients])

        def verify():
            yield from verifier.mount()
            # The model's namespace, not ``program.files``: renames
            # move files, removes kill them, and paths whose
            # namespace history is ambiguous cannot be verified.
            for path in model.final_paths():
                f = yield from verifier.open(path, write=False)
                got = yield from verifier.read(
                    f, 0, model.files[path].size
                )
                violations.extend(
                    model.check_final(path, got.data, got.nbytes)
                )
                yield from verifier.close(f)
                attrs = yield from verifier.getattr(path)
                violations.extend(
                    model.check_final_getattr(path, attrs)
                )
            for dpath in sorted(model.dirs):
                try:
                    names = yield from verifier.readdir(dpath)
                except (FsError, rpc.RpcTimeout):
                    continue  # dir's very existence is uncertain
                violations.extend(
                    model.check_readdir(-1, dpath, names)
                )

        vproc = sim.process(verify(), name="torture-verify")
        sim.run(until=sim.any_of([vproc, sim.timeout(_VERIFY_DEADLINE)]))
        if not vproc.triggered:
            result.wedged = True
            violations.append(
                f"liveness: final verification exceeded "
                f"{_VERIFY_DEADLINE}s sim deadline"
            )

        # -- leaks + conservation (only meaningful post-quiesce) ------
        # A shard router keeps no sessions or cache counters of its
        # own: its per-shard NFS clients do.
        all_clients = [
            (c, part)
            for c, cl in enumerate(clients + [verifier])
            for part in getattr(cl, "shards", [cl])
        ]
        reexecuted: Counter = Counter()
        for (sess, _seq), n in executions.items():
            reexecuted[sess] += n - 1
        for c, cl in all_clients:
            for srv, sess in getattr(cl, "_sessions", {}).items():
                if sess.slots.in_use:
                    violations.append(
                        f"leak: client{c} session to {srv.name} still "
                        f"holds {sess.slots.in_use} slots after quiesce"
                    )
                if reexecuted[sess]:
                    violations.append(
                        f"exactly-once: client{c} session to {srv.name} "
                        f"re-executed {reexecuted[sess]} "
                        f"retransmitted requests (reply cache failed)"
                    )
            issued = getattr(cl, "readahead_issued_bytes", 0)
            used = getattr(cl, "readahead_used_bytes", 0)
            if used > issued:
                violations.append(
                    f"conservation: client{c} readahead used {used} > "
                    f"issued {issued}"
                )
        for srv in dep.servers:
            if srv.rpc.threads.in_use:
                violations.append(
                    f"leak: {srv.name} still holds "
                    f"{srv.rpc.threads.in_use} worker threads after "
                    f"quiesce"
                )
        nodes = (
            dep.testbed.server_nodes
            + dep.testbed.client_nodes
            + [dep.testbed.extra_node]
        )
        tx = sum(n.nic.tx_bytes for n in nodes)
        rx = sum(n.nic.rx_bytes for n in nodes)
        if rx > tx:
            violations.append(
                f"conservation: network delivered {rx} bytes but only "
                f"{tx} were sent"
            )

    result.fault_log = list(inj.events)
    result.stats = {
        "reads_checked": model.reads_checked,
        "bytes_checked": model.bytes_checked,
        "synthetic_reads": model.synthetic_reads,
        "trace_len": len(trace),
        "sim_time": round(sim.now, 6),
    }
    digest = hashlib.sha256()
    for entry in trace:
        digest.update(repr(entry).encode())
    for when, what in inj.events:
        digest.update(f"{when:.9f}:{what}".encode())
    result.trace_hash = digest.hexdigest()
    return result


def sweep(
    arches: list[str],
    seeds: int,
    start_seed: int = 0,
    progress=None,
    jobs: int = 1,
    metadata: bool = False,
) -> list[EpisodeResult]:
    """Run ``seeds`` consecutive seeds against each architecture.

    Returns every result (failing and passing); callers filter.  The
    program for a seed is shared across architectures — the same
    workload must hold up everywhere.  ``progress(spec, result,
    wall_seconds, cached)`` is called once per finished episode.

    ``jobs`` fans the (seed, arch) episodes over worker processes via
    :mod:`repro.parallel`; every episode is a pure function of its
    seed, so the result list — including each episode's ``trace_hash``
    — is identical whatever ``jobs`` is.
    """
    from repro.parallel import run_jobs, torture_spec

    specs = [
        torture_spec(seed, arch, metadata=metadata)
        for seed in range(start_seed, start_seed + seeds)
        for arch in arches
    ]
    results, _report = run_jobs(specs, jobs=jobs, progress=progress)
    return results
