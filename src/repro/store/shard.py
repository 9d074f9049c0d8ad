"""One shard: a write-ahead log + snapshot + materialized backend.

Every mutation follows the same discipline:

1. encode the operation as JSON and :meth:`append <WriteAheadLog.append>`
   it to the shard's WAL (``ack`` flushes/fsyncs first — the caller only
   acknowledges *after* the journal is durable);
2. apply it to the backend.

Recovery inverts that: clear the backend, load the last snapshot (an
atomically-replaced JSON file), then replay the WAL front to back. Both
``put`` and ``delete`` replay idempotently, so the stale-snapshot +
longer-WAL case (crash between snapshot write and WAL truncation during
compaction) merely re-applies operations the snapshot already contains.
Because the backend is rebuilt wholesale, two shards fed the same
snapshot + journal materialize the same logical state regardless of
backend — that is the cross-backend recovery-identity property the chaos
suite asserts.

Compaction = write a new snapshot of the current state (tmp file, fsync,
``os.replace``) and reset the WAL. A crash at any point leaves either the
old snapshot + full WAL or the new snapshot + (possibly still-full) WAL —
both recover to the same state.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import obs
from repro.store.atomic import write_atomic
from repro.store.backend import KVBackend, make_backend
from repro.store.errors import StoreCorruptError
from repro.store.retry import RetryPolicy, with_retries
from repro.store.wal import WriteAheadLog

#: Snapshot format version, checked on load.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class RecoveryStats:
    """What one shard recovery did (summed per store by the caller).

    ``discarded_records`` counts journal operations dropped because they
    belong to a logical operation whose commit marker never made it to
    disk — by construction these were never acknowledged to any caller.
    """

    snapshot_records: int
    replayed_records: int
    truncated_bytes: int
    replay_ms: float
    discarded_records: int = 0


def committed_txns(
    ops_lists: "list[list[dict[str, object]]]",
) -> tuple[set[int], int]:
    """Collect committed transaction ids (and the highest id seen).

    A journal record tagged ``"txn": N`` belongs to logical operation
    ``N`` and only takes effect if a ``{"op": "commit", "txn": N}``
    marker exists — on *any* shard, which is why the caller passes every
    shard's decoded operations together.
    """
    committed: set[int] = set()
    highest = 0
    for ops in ops_lists:
        for op in ops:
            txn = op.get("txn")
            if txn is None:
                continue
            highest = max(highest, int(txn))  # type: ignore[call-overload]
            if op.get("op") == "commit":
                committed.add(int(txn))  # type: ignore[call-overload]
    return committed, highest


class Shard:
    """One journaled partition of a store.

    Args:
        directory: the shard's directory (``wal.log``, ``snapshot.json``
            and the backend's data file live here).
        backend: backend name — ``"memory"`` or ``"sqlite"``.
        fsync_every: WAL group-commit width.
        retry: IO retry budget shared by WAL and snapshot writes.
        rng: seeded randomness for retry jitter.
        sleep: retry pause implementation (tests inject a no-op).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        backend: str = "memory",
        fsync_every: int = 1,
        retry: RetryPolicy | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.backend_kind = backend
        self.retry = retry if retry is not None else RetryPolicy()
        self.rng = rng if rng is not None else random.Random("repro.store.shard")
        self.sleep = sleep
        self.wal = WriteAheadLog(
            self.directory / "wal.log",
            fsync_every=fsync_every,
            retry=self.retry,
            rng=self.rng,
            sleep=sleep,
        )
        self.backend: KVBackend = make_backend(backend, self.directory / "data.db")

    @property
    def snapshot_path(self) -> Path:
        """Where this shard's snapshot file lives."""
        return self.directory / "snapshot.json"

    # ------------------------------------------------------------------
    # Mutation (journal first, then apply)
    # ------------------------------------------------------------------
    def put(
        self, space: str, key: str, value: object, txn: int | None = None
    ) -> None:
        """Journal and apply an upsert of a JSON-encodable value.

        With ``txn`` set, the record is tagged as part of logical
        operation ``txn`` (effective on recovery only once its commit
        marker lands) and its fsync is deferred to the commit point.
        """
        blob = _encode(value)
        record: dict[str, object] = {"op": "put", "space": space, "key": key, "value": value}
        if txn is not None:
            record["txn"] = txn
        self.wal.append(
            json.dumps(record, sort_keys=True).encode("utf-8"), defer=txn is not None
        )
        self.backend.put(space, key, blob)

    def delete(self, space: str, key: str, txn: int | None = None) -> None:
        """Journal and apply a deletion (idempotent on replay)."""
        record: dict[str, object] = {"op": "delete", "space": space, "key": key}
        if txn is not None:
            record["txn"] = txn
        self.wal.append(
            json.dumps(record, sort_keys=True).encode("utf-8"), defer=txn is not None
        )
        self.backend.delete(space, key)

    def append_commit(self, txn: int) -> None:
        """Append (without fsyncing) the commit marker for operation ``txn``.

        The caller — :meth:`repro.store.store.Store.commit` — fsyncs every
        shard holding the operation's records *before* this marker is
        appended, then fsyncs this shard, so a durable marker implies
        durable records.
        """
        self.wal.append(
            json.dumps({"op": "commit", "txn": txn}, sort_keys=True).encode("utf-8"),
            defer=True,
        )

    def ack(self) -> None:
        """Durability barrier: fsync the WAL before acknowledging a caller."""
        self.wal.flush()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, space: str, key: str) -> object | None:
        """Return the decoded value at ``(space, key)``, or ``None``."""
        blob = self.backend.get(space, key)
        return None if blob is None else json.loads(blob.decode("utf-8"))

    def dump(self) -> dict[str, dict[str, object]]:
        """The shard's whole logical state: ``{space: {key: value}}``."""
        state: dict[str, dict[str, object]] = {}
        for space in self.backend.spaces():
            state[space] = {
                key: json.loads(blob.decode("utf-8"))
                for key, blob in self.backend.items(space)
            }
        return state

    # ------------------------------------------------------------------
    # Recovery / compaction
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryStats:
        """Rebuild the backend from snapshot + WAL replay.

        A standalone shard resolves commit markers against its own WAL
        only; a :class:`~repro.store.store.Store` orchestrates recovery
        itself (via :meth:`load_base` / :meth:`apply_ops`) so markers on
        one shard commit records on another.

        Returns:
            Per-shard :class:`RecoveryStats`.

        Raises:
            StoreCorruptError: snapshot unreadable, or WAL damage beyond
                a torn tail.
        """
        started = time.perf_counter()
        snapshot_records, ops = self.load_base()
        committed, _highest = committed_txns([ops])
        applied, discarded = self.apply_ops(ops, committed)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs.observe("store_replay_ms", elapsed_ms)
        obs.counter_inc("store_replayed_records_total", float(applied))
        return RecoveryStats(
            snapshot_records=snapshot_records,
            replayed_records=applied,
            truncated_bytes=self.wal.truncated_bytes,
            replay_ms=elapsed_ms,
            discarded_records=discarded,
        )

    def load_base(self) -> tuple[int, list[dict[str, object]]]:
        """Clear the backend, load the snapshot, read the healed WAL.

        Returns:
            ``(snapshot record count, decoded journal operations)`` —
            the operations are *not* applied yet; the caller filters
            them by commit status first.
        """
        self.backend.clear()
        snapshot_records = self._load_snapshot()
        ops = [
            json.loads(payload.decode("utf-8")) for payload in self.wal.replay()
        ]
        return snapshot_records, ops

    def apply_ops(
        self, ops: list[dict[str, object]], committed: set[int]
    ) -> tuple[int, int]:
        """Apply decoded journal operations, honoring commit markers.

        Returns:
            ``(applied, discarded)`` record counts; commit markers
            themselves count as neither.
        """
        applied = 0
        discarded = 0
        for op in ops:
            if op.get("op") == "commit":
                continue
            txn = op.get("txn")
            if txn is not None and int(txn) not in committed:  # type: ignore[call-overload]
                discarded += 1
                continue
            self._apply(op)
            applied += 1
        self.backend.flush()
        return applied, discarded

    def compact(self) -> None:
        """Snapshot current state atomically, then reset the WAL.

        The snapshot lands via :func:`~repro.store.atomic.write_atomic`; a crash
        between the replace and the WAL reset leaves the stale-snapshot +
        longer-WAL layout that :meth:`recover` handles idempotently.
        """
        self.write_snapshot()
        self.wal.reset()
        self.backend.flush()

    def write_snapshot(self) -> None:
        """Write an atomic snapshot of current state, leaving the WAL alone.

        Split from :meth:`compact` so the store can snapshot *every*
        shard before resetting *any* WAL — commit markers must outlive
        all journal records they commit, even across shards.
        """
        payload = json.dumps(
            {"version": SNAPSHOT_VERSION, "spaces": self.dump()},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        with_retries(
            lambda: write_atomic(self.snapshot_path, payload),
            policy=self.retry,
            rng=self.rng,
            describe=f"write snapshot {self.snapshot_path.name}",
            sleep=self.sleep,
        )

    def verify(self) -> list[str]:
        """Check snapshot parseability and WAL integrity without mutating."""
        problems = [f"wal.log: {issue}" for issue in self.wal.verify()]
        if self.snapshot_path.exists():
            try:
                document = json.loads(self.snapshot_path.read_text("utf-8"))
            except (ValueError, OSError) as error:
                problems.append(f"snapshot.json: unreadable ({error})")
            else:
                if document.get("version") != SNAPSHOT_VERSION:
                    problems.append(
                        f"snapshot.json: version {document.get('version')!r} "
                        f"(expected {SNAPSHOT_VERSION})"
                    )
        return problems

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON dump of the logical state.

        Backend- and history-independent: two shards that recovered the
        same journal produce the same digest.
        """
        canonical = json.dumps(
            self.dump(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()

    def flush(self) -> None:
        """Fsync the WAL and commit the backend."""
        self.wal.flush()
        self.backend.flush()

    def close(self) -> None:
        """Flush everything and release file handles."""
        self.wal.close()
        self.backend.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _load_snapshot(self) -> int:
        if not self.snapshot_path.exists():
            return 0
        try:
            document = json.loads(self.snapshot_path.read_text("utf-8"))
        except ValueError as error:
            raise StoreCorruptError(
                f"{self.snapshot_path}: snapshot is not valid JSON ({error})"
            ) from error
        if document.get("version") != SNAPSHOT_VERSION:
            raise StoreCorruptError(
                f"{self.snapshot_path}: snapshot version "
                f"{document.get('version')!r} (expected {SNAPSHOT_VERSION})"
            )
        count = 0
        for space, table in document["spaces"].items():
            for key, value in table.items():
                self.backend.put(space, key, _encode(value))
                count += 1
        return count

    def _apply(self, operation: dict[str, object]) -> None:
        op = operation.get("op")
        space = str(operation["space"])
        key = str(operation["key"])
        if op == "put":
            self.backend.put(space, key, _encode(operation["value"]))
        elif op == "delete":
            self.backend.delete(space, key)
        else:
            raise StoreCorruptError(f"unknown journal operation {op!r}")


def _encode(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


__all__ = ["RecoveryStats", "SNAPSHOT_VERSION", "Shard", "committed_txns"]
