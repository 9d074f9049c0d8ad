"""Atomic whole-file replacement: tmp file + fsync + ``os.replace``.

Every file this package rewrites in place — shard snapshots, the store
manifest — and the two single-file snapshots that hold secrets (the
broker's :func:`repro.core.persistence.save_broker` and the client's
:meth:`repro.core.client.Wallet.save`) land through :func:`write_atomic`.
A crash at any instant leaves either the old file or the complete new
one, never a truncated mix: the bytes are written and fsynced to a
sibling ``<name>.tmp`` first, then renamed over the target.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically.

    Raises:
        OSError: the write, fsync or rename failed; ``path`` still holds
            its previous contents (a stale ``<name>.tmp`` may remain and
            is overwritten by the next attempt).
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


__all__ = ["write_atomic"]
