"""Access control: credentials and permission checks.

The paper's control path uses RPCSEC_GSS for authentication and NFSv4
ACLs for authorization (§3.1); one of Direct-pNFS's selling points is
that the *data* path inherits NFSv4's security semantics instead of
exposing each parallel file system's own mechanism (§3.2).  We model
the authorization decision — who may read/write/traverse what — as
data structures checked on access, not the cryptography.

:class:`Credential` identifies a caller; :func:`check_access` evaluates
the owner/other mode bits of :class:`~repro.vfs.api.FileAttributes`,
the decision the server makes on OPEN.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vfs.api import AccessDenied, FileAttributes

__all__ = ["Credential", "check_access", "READ", "WRITE", "EXECUTE"]

READ = 4
WRITE = 2
EXECUTE = 1


@dataclass(frozen=True)
class Credential:
    """An authenticated principal (the result of RPCSEC_GSS, §3.1)."""

    user: str = "root"

    @property
    def is_superuser(self) -> bool:
        return self.user == "root"


def check_access(attrs: FileAttributes, cred: Credential, want: int) -> None:
    """Raise :class:`AccessDenied` unless ``cred`` holds ``want`` bits:
    the owner class of the mode bits for the owner, the other class
    otherwise."""
    if not 0 < want <= 7:
        raise ValueError("want must be a combination of R/W/X bits")
    if cred.is_superuser:
        return
    mode = attrs.mode
    granted = (mode >> 6) & 7 if cred.user == attrs.owner else mode & 7
    if want & ~granted:
        raise AccessDenied(
            f"{cred.user}: mode {mode:#o} grants {granted:#o}, wanted {want:#o}"
        )
