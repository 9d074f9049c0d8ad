"""Broker and witness state persistence over the durable store.

Section 3: the broker is "a dedicated (but not necessarily on-line)
server" — it goes down, restarts, and must come back with its signing
keys, merchant registry, witness tables and (critically) its deposit and
renewal databases intact: forgetting a deposited coin would let the same
coin be cashed twice across a restart. The witnesses carry the same
burden for their commitment and spent-coin tables.

This module maps that state onto the :mod:`repro.store` space schema and
provides two ways to use it:

* **Whole-state snapshots** — :func:`save_broker` / :func:`load_broker`
  keep the original single-JSON-file interface (now covering *all*
  broker state, including in-flight withdrawal tickets, batch tickets,
  the witness-fault log and the full ledger history);
* **Journaling** — :func:`attach_journal` /
  :func:`attach_witness_journal` hook a live :class:`Broker` /
  :class:`WitnessService` to a :class:`~repro.store.Store` so every
  mutation is appended to the write-ahead log *before* the mutating
  method returns (journal-before-acknowledge), and
  :func:`attach_broker_store` replays snapshot+WAL back into a broker
  after a crash.

State is serialized to JSON using the same wire codecs as the network
layer, so a stored transcript is byte-identical to a transmitted one.
The files contain the broker's SECRET keys; a deployment would encrypt
them at rest — key management is out of scope here, as it is in the
paper.

Space schema (``spaces`` marked with * shard by coin-hash prefix):

========================  =====================================================
space                     contents
========================  =====================================================
``meta``                  account name, both secret keys, version/ticket ctrs
``merchants``             one record per registered merchant
``tables``                one record per published witness table version
``deposits`` *            cleared deposits, keyed by hex coin digest
``renewals`` *            renewal transcripts, keyed by hex coin digest
``tickets``               in-flight withdrawal/renewal sessions
``batches``               in-flight batch-withdrawal sessions
``ledger``                every ledger movement, keyed by zero-padded sequence
``faults``                the witness-fault log, keyed by sequence
``commitments:<id>`` *    a witness's outstanding commitments
``spent:<id>`` *          a witness's spent-coin records
``witness:<id>``          a witness's counters (``signed_count``)
========================  =====================================================

Ledger balances, ``minted`` and ``burned`` are not stored — they are
rebuilt by replaying the journaled history through the real ledger
methods, so the persisted form cannot drift from the arithmetic.
"""

from __future__ import annotations

import itertools
import json
from contextlib import AbstractContextManager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.bank import Ledger
from repro.core.broker import (
    Broker,
    MerchantAccount,
    _DepositRecord,
    _RenewalRecord,
    _WithdrawalTicket,
)
from repro.core.coin import BareCoin
from repro.core.params import SystemParams
from repro.core.transcripts import DoubleSpendProof, PaymentTranscript, SignedTranscript, WitnessCommitment
from repro.core.witness import WitnessService, _CommitmentRecord, _SpentRecord
from repro.core.witness_ranges import SignedWitnessEntry, WitnessAssignmentTable
from repro.crypto import counters
from repro.crypto.blind import PartiallyBlindSigner, SignerSession
from repro.crypto.representation import RepresentationResponse
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.serialize import int_to_text, text_to_int

if TYPE_CHECKING:
    from repro.store import RecoveryStats, Store

STATE_VERSION = 2

#: Zero-padding width for sequence-numbered keys (ledger, faults); keeps
#: lexicographic key order equal to numeric order in every backend.
_SEQ_WIDTH = 12


# ----------------------------------------------------------------------
# Record codecs (store values are JSON; big ints travel as text)
# ----------------------------------------------------------------------

def _seq_key(seq: int) -> str:
    return f"{seq:0{_SEQ_WIDTH}d}"


def _merchant_to_json(account: MerchantAccount) -> dict[str, object]:
    return {
        "public_key": int_to_text(account.public_key),
        "security_deposit": account.security_deposit,
        "coins_witnessed": account.coins_witnessed,
        "incidents": account.incidents,
    }


def _merchant_from_json(merchant_id: str, fields: dict[str, object]) -> MerchantAccount:
    return MerchantAccount(
        merchant_id=merchant_id,
        public_key=text_to_int(str(fields["public_key"])),
        security_deposit=int(fields["security_deposit"]),  # type: ignore[arg-type]
        coins_witnessed=int(fields["coins_witnessed"]),  # type: ignore[arg-type]
        incidents=int(fields["incidents"]),  # type: ignore[arg-type]
    )


def _table_to_json(table: WitnessAssignmentTable) -> dict[str, object]:
    return {
        "space": int_to_text(table.space),
        "entries": [_jsonify(entry.to_wire()) for entry in table.entries],
    }


def _table_from_json(version: int, fields: dict[str, object]) -> WitnessAssignmentTable:
    entries = tuple(
        SignedWitnessEntry.from_wire(_flatten(entry))
        for entry in fields["entries"]  # type: ignore[union-attr]
    )
    return WitnessAssignmentTable(
        version=version, entries=entries, space=text_to_int(str(fields["space"]))
    )


def _deposit_to_json(record: _DepositRecord) -> dict[str, object]:
    return {
        "signed": _jsonify(record.signed.to_wire()),
        "deposited_at": record.deposited_at,
    }


def _deposit_from_json(fields: dict[str, object]) -> _DepositRecord:
    signed = SignedTranscript.from_wire(_flatten(fields["signed"]))
    return _DepositRecord(
        signed=signed, deposited_at=int(fields["deposited_at"])  # type: ignore[arg-type]
    )


def _renewal_to_json(record: _RenewalRecord) -> dict[str, object]:
    return {
        "bare": _jsonify(record.bare.to_wire()),
        "challenge": int_to_text(record.challenge),
        "r1": int_to_text(record.response.r1),
        "r2": int_to_text(record.response.r2),
        "renewed_at": record.renewed_at,
    }


def _renewal_from_json(fields: dict[str, object]) -> _RenewalRecord:
    return _RenewalRecord(
        bare=BareCoin.from_wire(_flatten(fields["bare"])),
        challenge=text_to_int(str(fields["challenge"])),
        response=RepresentationResponse(
            r1=text_to_int(str(fields["r1"])), r2=text_to_int(str(fields["r2"]))
        ),
        renewed_at=int(fields["renewed_at"]),  # type: ignore[arg-type]
    )


def _ticket_to_json(ticket: _WithdrawalTicket) -> dict[str, object]:
    return {
        "info": _jsonify(ticket.info.to_wire()),
        "session": {
            "u": int_to_text(ticket.session.u),
            "s": int_to_text(ticket.session.s),
            "d": int_to_text(ticket.session.d),
            "z": int_to_text(ticket.session.z),
        },
        "paid_by": ticket.paid_by,
    }


def _ticket_from_json(fields: dict[str, object]) -> _WithdrawalTicket:
    from repro.core.info import CoinInfo

    session = fields["session"]  # type: ignore[assignment]
    paid_by = fields["paid_by"]
    return _WithdrawalTicket(
        info=CoinInfo.from_wire(_flatten(fields["info"])),
        session=SignerSession(
            u=text_to_int(str(session["u"])),  # type: ignore[index]
            s=text_to_int(str(session["s"])),  # type: ignore[index]
            d=text_to_int(str(session["d"])),  # type: ignore[index]
            z=text_to_int(str(session["z"])),  # type: ignore[index]
        ),
        paid_by=None if paid_by is None else str(paid_by),
    )


def _fault_to_json(
    entry: tuple[str, SignedTranscript, SignedTranscript]
) -> dict[str, object]:
    witness_id, first, second = entry
    return {
        "witness_id": witness_id,
        "first": _jsonify(first.to_wire()),
        "second": _jsonify(second.to_wire()),
    }


def _fault_from_json(
    fields: dict[str, object]
) -> tuple[str, SignedTranscript, SignedTranscript]:
    return (
        str(fields["witness_id"]),
        SignedTranscript.from_wire(_flatten(fields["first"])),
        SignedTranscript.from_wire(_flatten(fields["second"])),
    )


def _ledger_entry_to_json(entry: tuple[str, str, str, int]) -> dict[str, object]:
    source, destination, memo, amount = entry
    return {"src": source, "dst": destination, "memo": memo, "amount": amount}


def _v_to_json(v: tuple[object, ...]) -> list[dict[str, object]]:
    parts: list[dict[str, object]] = []
    for part in v:
        if isinstance(part, bool):  # bool is an int subclass; keep it out
            raise TypeError("unexpected committed value part: bool")
        if isinstance(part, int):
            parts.append({"kind": "int", "value": int_to_text(part)})
        elif isinstance(part, str):
            parts.append({"kind": "str", "value": part})
        elif isinstance(part, bytes):
            parts.append({"kind": "bytes", "value": part.hex()})
        else:
            raise TypeError(f"unexpected committed value part {part!r}")
    return parts


def _v_from_json(parts: list[dict[str, object]]) -> tuple[object, ...]:
    out: list[object] = []
    for part in parts:
        kind = part["kind"]
        value = str(part["value"])
        if kind == "int":
            out.append(text_to_int(value))
        elif kind == "str":
            out.append(value)
        elif kind == "bytes":
            out.append(bytes.fromhex(value))
        else:
            raise ValueError(f"unknown committed value kind {kind!r}")
    return tuple(out)


def _commitment_to_json(record: _CommitmentRecord) -> dict[str, object]:
    return {
        "commitment": _jsonify(record.commitment.to_wire()),
        "v": _v_to_json(record.v),
    }


def _commitment_from_json(fields: dict[str, object]) -> _CommitmentRecord:
    return _CommitmentRecord(
        commitment=WitnessCommitment.from_wire(_flatten(fields["commitment"])),
        v=_v_from_json(fields["v"]),  # type: ignore[arg-type]
    )


def _spent_to_json(record: _SpentRecord) -> dict[str, object]:
    return {
        "transcript": None
        if record.transcript is None
        else _jsonify(record.transcript.to_wire()),
        "salt": None
        if record.transcript_salt is None
        else int_to_text(record.transcript_salt),
        "proof": None if record.proof is None else _jsonify(record.proof.to_wire()),
    }


def _spent_from_json(fields: dict[str, object]) -> _SpentRecord:
    transcript = fields["transcript"]
    salt = fields["salt"]
    proof = fields["proof"]
    return _SpentRecord(
        transcript=None
        if transcript is None
        else PaymentTranscript.from_wire(_flatten(transcript)),
        transcript_salt=None if salt is None else text_to_int(str(salt)),
        proof=None if proof is None else DoubleSpendProof.from_wire(_flatten(proof)),
    )


# ----------------------------------------------------------------------
# Whole-state dump / restore
# ----------------------------------------------------------------------

def _bare_key(bare: BareCoin, params: SystemParams) -> str:
    """Hex coin digest — the storage key and shard-routing prefix.

    Suppressed: persistence bookkeeping must not perturb the Table 1
    operation counts the protocol tests assert.
    """
    with counters.suppressed():
        return f"{bare.digest(params):x}"


def _meta_record(broker: Broker) -> dict[str, object]:
    """The ``meta`` singleton: account, keys, counters.

    A tiny constant-size record, built directly — the journal re-writes
    it on every counter advance (ticket opened, table published), so it
    must never require serializing the broker's accumulated state.
    """
    return {
        "account": broker.account,
        "blind_secret": int_to_text(broker._signer._secret),
        "sign_secret": int_to_text(broker._sign_key.secret),
        "next_version": broker._next_version,
        "next_ticket": _peek_ticket_counter(broker),
    }


def broker_spaces(broker: Broker) -> dict[str, dict[str, object]]:
    """The broker's complete logical state in the store space schema."""
    params = broker.params
    spaces: dict[str, dict[str, object]] = {
        "meta": _meta_record(broker),
        "merchants": {
            merchant_id: _merchant_to_json(account)
            for merchant_id, account in broker.merchants.items()
        },
        "tables": {
            str(version): _table_to_json(table)
            for version, table in broker.tables.items()
        },
        "deposits": {
            _bare_key(bare, params): _deposit_to_json(record)
            for bare, record in broker._deposits.items()
        },
        "renewals": {
            _bare_key(bare, params): _renewal_to_json(record)
            for bare, record in broker._renewals.items()
        },
        "tickets": {
            str(ticket_id): _ticket_to_json(ticket)
            for ticket_id, ticket in broker._tickets.items()
        },
        "batches": {
            str(ticket_id): [_ticket_to_json(ticket) for ticket in batch]
            for ticket_id, batch in broker._batch_tickets.items()
        },
        "ledger": {
            _seq_key(seq): _ledger_entry_to_json(entry)
            for seq, entry in enumerate(broker.ledger.history)
        },
        "faults": {
            _seq_key(seq): _fault_to_json(entry)
            for seq, entry in enumerate(broker.witness_fault_log)
        },
    }
    return {space: table for space, table in spaces.items() if table or space == "meta"}


def restore_broker(broker: Broker, spaces: dict[str, dict[str, object]]) -> None:
    """Rebuild a broker's state in place from a space-schema dump.

    In-place (rather than returning a fresh broker) so that everything
    already holding a reference — simulation dispatchers, invariant
    checkers, daemon registries — observes the recovered state.

    Raises:
        ValueError: the dump has no ``meta`` space (not broker state).
    """
    meta = spaces.get("meta")
    if not meta:
        raise ValueError("broker state dump has no 'meta' space")
    params = broker.params

    broker.account = str(meta["account"])
    broker._signer = PartiallyBlindSigner(
        params.group, params.hashes, secret=text_to_int(str(meta["blind_secret"]))
    )
    sign_secret = text_to_int(str(meta["sign_secret"]))
    with counters.suppressed():
        sign_public = pow(params.group.g, sign_secret, params.group.p)
    broker._sign_key = SchnorrKeyPair(
        group=params.group, secret=sign_secret, public=sign_public
    )
    broker._next_version = int(meta["next_version"])  # type: ignore[arg-type]
    broker._ticket_ids = itertools.count(int(meta["next_ticket"]))  # type: ignore[arg-type]

    broker.merchants.clear()
    for merchant_id, fields in spaces.get("merchants", {}).items():
        broker.merchants[merchant_id] = _merchant_from_json(
            merchant_id, fields  # type: ignore[arg-type]
        )

    broker.tables.clear()
    for version_text, fields in spaces.get("tables", {}).items():
        broker.tables[int(version_text)] = _table_from_json(
            int(version_text), fields  # type: ignore[arg-type]
        )

    broker._deposits.clear()
    for fields in spaces.get("deposits", {}).values():
        record = _deposit_from_json(fields)  # type: ignore[arg-type]
        broker._deposits[record.signed.transcript.coin.bare] = record

    broker._renewals.clear()
    for fields in spaces.get("renewals", {}).values():
        record = _renewal_from_json(fields)  # type: ignore[arg-type]
        broker._renewals[record.bare] = record

    broker._tickets.clear()
    for ticket_text, fields in spaces.get("tickets", {}).items():
        broker._tickets[int(ticket_text)] = _ticket_from_json(
            fields  # type: ignore[arg-type]
        )

    broker._batch_tickets.clear()
    for ticket_text, batch_fields in spaces.get("batches", {}).items():
        broker._batch_tickets[int(ticket_text)] = [
            _ticket_from_json(fields) for fields in batch_fields  # type: ignore[union-attr]
        ]

    broker.witness_fault_log.clear()
    for key in sorted(spaces.get("faults", {})):
        broker.witness_fault_log.append(
            _fault_from_json(spaces["faults"][key])  # type: ignore[arg-type]
        )

    _replay_ledger(broker.ledger, spaces.get("ledger", {}))


def _replay_ledger(ledger: Ledger, entries: dict[str, object]) -> None:
    """Rebuild balances/minted/burned by replaying journaled movements.

    The journal callback is detached during replay so restoration never
    re-journals its own input.
    """
    callback = ledger.on_entry
    ledger.on_entry = None
    try:
        ledger.accounts.clear()
        ledger.minted = 0
        ledger.burned = 0
        ledger.history.clear()
        for key in sorted(entries):
            fields = entries[key]
            source = str(fields["src"])  # type: ignore[index]
            destination = str(fields["dst"])  # type: ignore[index]
            memo = str(fields["memo"])  # type: ignore[index]
            amount = int(fields["amount"])  # type: ignore[index]
            if source == "<external>":
                ledger.mint(destination, amount, memo=memo)
            elif destination == "<external>":
                ledger.burn(source, amount, memo=memo)
            else:
                ledger.transfer(source, destination, amount, memo=memo)
    finally:
        ledger.on_entry = callback


def _peek_ticket_counter(broker: Broker) -> int:
    """Read the next ticket id without consuming it."""
    peeked = next(broker._ticket_ids)
    broker._ticket_ids = itertools.count(peeked)
    return peeked


def witness_spaces(witness: WitnessService) -> dict[str, dict[str, object]]:
    """A witness's commitment/spent tables in the store space schema."""
    identity = witness.merchant_id
    return {
        f"commitments:{identity}": {
            f"{coin_hash:x}": _commitment_to_json(record)
            for coin_hash, record in witness._commitments.items()
        },
        f"spent:{identity}": {
            f"{coin_hash:x}": _spent_to_json(record)
            for coin_hash, record in witness._spent.items()
        },
        f"witness:{identity}": {"signed_count": witness.signed_count},
    }


def restore_witness(
    witness: WitnessService, spaces: dict[str, dict[str, object]]
) -> None:
    """Rebuild a witness's tables in place from a space-schema dump."""
    identity = witness.merchant_id
    witness._commitments.clear()
    for key, fields in spaces.get(f"commitments:{identity}", {}).items():
        witness._commitments[int(key, 16)] = _commitment_from_json(
            fields  # type: ignore[arg-type]
        )
    witness._spent.clear()
    for key, fields in spaces.get(f"spent:{identity}", {}).items():
        witness._spent[int(key, 16)] = _spent_from_json(fields)  # type: ignore[arg-type]
    meta = spaces.get(f"witness:{identity}", {})
    witness.signed_count = int(meta.get("signed_count", 0))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Single-file snapshots (the original interface, now gap-free)
# ----------------------------------------------------------------------

def save_broker(broker: Broker, path: str | Path) -> None:
    """Serialize the full broker state (including secrets) to JSON.

    Written atomically (:func:`repro.store.atomic.write_atomic`): a crash
    mid-save leaves the previous snapshot intact.
    """
    from repro.store.atomic import write_atomic

    state = {"version": STATE_VERSION, "spaces": broker_spaces(broker)}
    write_atomic(
        Path(path), json.dumps(state, indent=1, sort_keys=True).encode("utf-8")
    )


def load_broker(path: str | Path, params: SystemParams) -> Broker:
    """Restore a broker (and its ledger) from :func:`save_broker` output.

    Raises:
        ValueError: unsupported state-file version.
    """
    state = json.loads(Path(path).read_text())
    if state.get("version") != STATE_VERSION:
        raise ValueError(f"unsupported broker state version {state.get('version')!r}")
    with counters.suppressed():
        broker = Broker(params)
    restore_broker(broker, state["spaces"])
    return broker


# ----------------------------------------------------------------------
# Journaling over a durable store
# ----------------------------------------------------------------------

class BrokerJournal:
    """Mirrors every broker mutation into a :class:`~repro.store.Store`.

    Hook methods are invoked by :class:`Broker` after each in-memory
    mutation and *before* the mutating method returns. Each hook runs
    inside a :meth:`Store.operation` scope, whose commit (WAL fsync plus
    commit marker) is the durability point — journal-before-acknowledge.
    When the broker opens an :meth:`operation` scope around a whole
    protocol step, the hooks it fires *join* that scope, so everything
    the step journals — ledger movements included — commits atomically:
    recovery replays all of it or none of it, never a prefix.
    """

    def __init__(self, broker: Broker, store: "Store") -> None:
        self.broker = broker
        self.store = store

    def operation(self) -> "AbstractContextManager[None]":
        """One atomic durability unit (see :meth:`Store.operation`)."""
        return self.store.operation()

    # -- hooks (called from Broker) ------------------------------------
    def record_meta(self) -> None:
        """Journal the key/counter singleton after a counter advance."""
        with self.store.operation():
            self._put_meta()

    def record_merchant(self, account: MerchantAccount) -> None:
        """Journal one merchant record (registration or counters)."""
        with self.store.operation():
            self.store.put(
                "merchants", account.merchant_id, _merchant_to_json(account)
            )

    def record_table(self, table: WitnessAssignmentTable) -> None:
        """Journal a newly published witness table and the version counter."""
        with self.store.operation():
            self.store.put("tables", str(table.version), _table_to_json(table))
            self._put_meta()

    def record_ticket(self, ticket_id: int, ticket: _WithdrawalTicket) -> None:
        """Journal an opened withdrawal/renewal session."""
        with self.store.operation():
            self.store.put("tickets", str(ticket_id), _ticket_to_json(ticket))
            self._put_meta()

    def drop_ticket(self, ticket_id: int) -> None:
        """Journal the close of a withdrawal/renewal session."""
        with self.store.operation():
            self.store.delete("tickets", str(ticket_id))

    def record_batch(self, ticket_id: int, batch: list[_WithdrawalTicket]) -> None:
        """Journal an opened batch-withdrawal session."""
        with self.store.operation():
            self.store.put(
                "batches", str(ticket_id), [_ticket_to_json(ticket) for ticket in batch]
            )
            self._put_meta()

    def drop_batch(self, ticket_id: int) -> None:
        """Journal the close of a batch-withdrawal session."""
        with self.store.operation():
            self.store.delete("batches", str(ticket_id))

    def record_deposit(self, bare: BareCoin, record: _DepositRecord) -> None:
        """Journal a cleared deposit before the merchant is told."""
        with self.store.operation():
            self.store.put(
                "deposits", _bare_key(bare, self.broker.params), _deposit_to_json(record)
            )

    def record_renewal(self, record: _RenewalRecord) -> None:
        """Journal a renewal transcript before the response is sent."""
        with self.store.operation():
            self.store.put(
                "renewals",
                _bare_key(record.bare, self.broker.params),
                _renewal_to_json(record),
            )

    def record_fault(
        self, seq: int, entry: tuple[str, SignedTranscript, SignedTranscript]
    ) -> None:
        """Journal one witness-fault log entry."""
        with self.store.operation():
            self.store.put("faults", _seq_key(seq), _fault_to_json(entry))

    def drop_record(self, space: str, bare: BareCoin) -> None:
        """Journal a purge of one deposit/renewal record."""
        with self.store.operation():
            self.store.delete(space, _bare_key(bare, self.broker.params))

    def on_ledger_entry(self, seq: int, entry: tuple[str, str, str, int]) -> None:
        """Journal one ledger movement (wired to :attr:`Ledger.on_entry`).

        Inside a broker operation scope this joins it — the movement
        commits together with the records of the step that caused it;
        a ledger movement outside any scope commits on its own.
        """
        with self.store.operation():
            self.store.put("ledger", _seq_key(seq), _ledger_entry_to_json(entry))

    # -- bulk -----------------------------------------------------------
    def write_baseline(self) -> None:
        """Journal the broker's entire current state (initial attach)."""
        with self.store.operation():
            spaces = broker_spaces(self.broker)
            for space, table in spaces.items():
                if space == "meta":
                    self.store.put("meta", "state", table)
                    continue
                for key, value in table.items():
                    self.store.put(space, key, value)

    def _put_meta(self) -> None:
        self.store.put("meta", "state", _meta_record(self.broker))


class WitnessJournal:
    """Mirrors a witness's table mutations into a store (same contract
    as :class:`BrokerJournal`: each hook is one atomic
    :meth:`Store.operation`, committed before the method returns).
    """

    def __init__(self, witness: WitnessService, store: "Store") -> None:
        self.witness = witness
        self.store = store
        self._commit_space = f"commitments:{witness.merchant_id}"
        self._spent_space = f"spent:{witness.merchant_id}"
        self._meta_space = f"witness:{witness.merchant_id}"

    def record_commitment(self, coin_hash: int, record: _CommitmentRecord) -> None:
        """Journal an issued commitment."""
        with self.store.operation():
            self.store.put(
                self._commit_space, f"{coin_hash:x}", _commitment_to_json(record)
            )

    def drop_commitment(self, coin_hash: int) -> None:
        """Journal a consumed or expired commitment."""
        with self.store.operation():
            self.store.delete(self._commit_space, f"{coin_hash:x}")

    def record_spent(self, coin_hash: int, record: _SpentRecord) -> None:
        """Journal a spent-coin record (first spend or extracted proof).

        The spent record (sharded by coin hash) and the signer counter
        (pinned to shard 0) commit as one unit.
        """
        with self.store.operation():
            self.store.put(self._spent_space, f"{coin_hash:x}", _spent_to_json(record))
            self.store.put(self._meta_space, "signed_count", self.witness.signed_count)

    def drop_spent(self, coin_hash: int) -> None:
        """Journal a purged spent-coin record."""
        with self.store.operation():
            self.store.delete(self._spent_space, f"{coin_hash:x}")

    def write_baseline(self) -> None:
        """Journal the witness's entire current tables (initial attach)."""
        with self.store.operation():
            for space, table in witness_spaces(self.witness).items():
                for key, value in table.items():
                    self.store.put(space, key, value)


def attach_journal(broker: Broker, store: "Store", *, baseline: bool = True) -> BrokerJournal:
    """Journal every future mutation of ``broker`` into ``store``.

    Args:
        broker: the live broker.
        store: an opened (and, if pre-existing, recovered) store.
        baseline: also journal the broker's *current* state first, so a
            store attached mid-life starts complete. Pass ``False`` when
            the store's contents were just restored into the broker.
    """
    journal = BrokerJournal(broker, store)
    broker.journal = journal
    broker.ledger.on_entry = journal.on_ledger_entry
    if baseline:
        journal.write_baseline()
    return journal


def attach_witness_journal(
    witness: WitnessService, store: "Store", *, baseline: bool = True
) -> WitnessJournal:
    """Journal every future mutation of ``witness``'s tables into ``store``."""
    journal = WitnessJournal(witness, store)
    witness.journal = journal
    if baseline:
        journal.write_baseline()
    return journal


def reconcile_broker(broker: Broker) -> list[str]:
    """Cross-check a recovered broker's ledger against its deposit records.

    Every deposit/witness-fault record is created alongside exactly one
    ``"coin deposit"`` ledger credit, inside the same atomic store
    operation; purging expired records removes records but never ledger
    history. The checkable invariant is therefore one-directional:

        ``len(deposits) + len(faults) <= count(memo == "coin deposit")``

    A violation means a transcript record was journaled without its
    funding movement — exactly the half-journaled state atomic commit
    exists to prevent — and the recovered state must not be trusted.

    Returns:
        Problem descriptions (empty when the invariant holds).
    """
    credits = sum(
        1 for _src, _dst, memo, _amount in broker.ledger.history
        if memo == "coin deposit"
    )
    records = len(broker._deposits) + len(broker.witness_fault_log)
    problems: list[str] = []
    if records > credits:
        problems.append(
            f"{records} deposit/witness-fault record(s) but only {credits} "
            "'coin deposit' ledger credit(s) — a transcript record was "
            "journaled without its funding movement"
        )
    if not broker.ledger.conserved():
        problems.append(
            "recovered ledger does not conserve money "
            f"(minted={broker.ledger.minted} burned={broker.ledger.burned})"
        )
    return problems


def _reconcile_or_raise(broker: Broker) -> None:
    problems = reconcile_broker(broker)
    if problems:
        from repro.store import StoreCorruptError

        raise StoreCorruptError(
            "recovered broker state failed reconciliation: " + "; ".join(problems)
        )


def attach_broker_store(broker: Broker, store: "Store") -> "RecoveryStats":
    """Recover a store, restore its state into ``broker``, start journaling.

    The one call a restarting daemon (or chaos scenario) makes: replays
    snapshot + WAL, and — when the store holds broker state — rebuilds
    the broker in place from it (reconciling the recovered ledger against
    the deposit records before trusting it); a fresh store instead gets
    the broker's current state as its baseline. Either way the broker
    journals every subsequent mutation.

    Returns:
        The recovery statistics (all-zero for a brand-new store).

    Raises:
        StoreCorruptError: the recovered state failed reconciliation.
    """
    stats = store.recover()
    spaces = store.dump()
    meta = spaces.get("meta", {}).get("state")
    if meta is not None:
        restore_broker(broker, {**spaces, "meta": meta})  # type: ignore[dict-item]
        _reconcile_or_raise(broker)
        attach_journal(broker, store, baseline=False)
    else:
        attach_journal(broker, store, baseline=True)
    return stats


def load_broker_from_store(store: "Store", params: SystemParams) -> Broker:
    """Recover a store and build a fresh broker from its contents.

    Raises:
        ValueError: the store holds no broker state.
        StoreCorruptError: the recovered state failed reconciliation.
    """
    with counters.suppressed():
        broker = Broker(params)
    store.recover()
    spaces = store.dump()
    meta = spaces.get("meta", {}).get("state")
    if meta is None:
        raise ValueError("store holds no broker state")
    restore_broker(broker, {**spaces, "meta": meta})  # type: ignore[dict-item]
    _reconcile_or_raise(broker)
    return broker


# ----------------------------------------------------------------------
# JSON helpers shared with the wire codecs
# ----------------------------------------------------------------------

def _jsonify(wire: dict[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in wire.items():
        if isinstance(value, dict):
            out[key] = _jsonify(value)
        elif isinstance(value, int):
            out[key] = int_to_text(value)
        else:
            out[key] = value
    return out


def _flatten(data: object, prefix: str = "") -> dict[str, str]:
    if not isinstance(data, dict):
        raise ValueError("malformed broker state entry")
    out: dict[str, str] = {}
    for key, value in data.items():
        full_key = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_flatten(value, full_key))
        else:
            out[full_key] = str(value)
    return out


__all__ = [
    "BrokerJournal",
    "STATE_VERSION",
    "WitnessJournal",
    "attach_broker_store",
    "attach_journal",
    "attach_witness_journal",
    "broker_spaces",
    "load_broker",
    "load_broker_from_store",
    "reconcile_broker",
    "restore_broker",
    "restore_witness",
    "save_broker",
    "witness_spaces",
]
