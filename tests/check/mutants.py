"""Checker-power mutants: shipped fixes reverted in memory.

Each mutant is a broken body of one method of a named class.  A test
applies it with ``apply(monkeypatch, name)``, which patches the class
for that test only.  The client mutants are the pre-fix bodies of
``Nfs4Client`` methods, so every NFS-family client the deployment
builds — ``PnfsClient``, each shard behind a ``ShardedPnfsRouter``,
and the torture verifier — runs the pre-fix code; the native PVFS2
client has no page cache, hence neither bug: it stays stock.  The
``lock`` mutant blinds every NFS server's lock table to conflicts, and
the ``replycache`` mutant empties every session's reply cache.

A class patch does not reach ``repro.parallel`` pool workers, so runs
under a mutant stay serial (``jobs=1``).
"""

from repro import rpc
from repro.nfs.client import Nfs4Client
from repro.nfs.locks import LockManager
from repro.nfs.sessions import Session
from repro.vfs.api import FsError


def unfixed_writeback(self, f, start, end):
    """``Nfs4Client._writeback`` with the pre-fix write-back bug.

    Before the errseq fix, a failed asynchronous write-back left the
    range off the dirty list and latched no error: the bytes were gone
    and the next fsync still reported success.  An episode run with
    this mutant must make the durability oracle report the silent
    loss — the standing proof that the harness has the power to catch
    the bug class this repo already shipped a fix for.
    """
    pc = f.pc
    data = pc.cache.read(start, end - start)
    try:
        yield from self._io_write(f, start, data)
    except (FsError, rpc.RpcTimeout):
        return  # the bug: range already left ``dirty``, no error latched
    finally:
        pc.flushing.remove(start, end)
    pc.commit_needed = True
    self.bytes_written += data.nbytes


def unfixed_truncate(self, path, size):
    """``Nfs4Client.truncate`` with the pre-fix truncate bug.

    Before the fix, ``truncate`` only dropped the path's cached
    attributes: every open file kept its stale ``size``, its cached
    pages above the cut, and its dirty ranges — so later reads served
    resurrected bytes from local cache and later write-backs pushed
    them back to the server — no ``PageCache.clip``, hence no readahead
    cursor reset either.  A metadata episode with this mutant must
    report truncate-resurrection.
    """
    self._attr_cache.pop(path, None)  # the bug: this was the whole fix-less op
    yield from self._call(
        "truncate", {"path": path, "size": size, "callback": self._cb}
    )


def blind_lock_test(self, fh, owner, start, end, kind):
    """``LockManager.test`` that never sees a conflict.

    Every LOCK is granted, so two owners can hold overlapping write
    locks at once; the lock-safety oracle must report the coexisting
    grants.
    """
    return None


def empty_reply_cache(self, seq):
    """``Session.cached_reply`` that never finds a reply.

    Every retransmission the server receives is executed again, so a
    retried non-idempotent op runs twice; the exactly-once oracle must
    report the re-execution.
    """
    return None


#: name -> (the class it patches, the method it replaces, the broken body).
MUTANTS = {
    "writeback": (Nfs4Client, "_writeback", unfixed_writeback),
    "truncate": (Nfs4Client, "truncate", unfixed_truncate),
    "lock": (LockManager, "test", blind_lock_test),
    "replycache": (Session, "cached_reply", empty_reply_cache),
}


def apply(monkeypatch, name: str) -> None:
    """Apply mutant ``name`` to its class until the test ends."""
    cls, method, body = MUTANTS[name]
    monkeypatch.setattr(cls, method, body)
