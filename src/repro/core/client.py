"""The client: wallet, withdrawal blinding, payment construction, renewal.

The paper's client is a browser plug-in that buys coins from the broker and
"stores the coins in a file". :class:`Client` implements the cryptographic
side (blinding, witness selection, commitment requests, transcripts) and
:class:`Wallet` the coin file (JSON persistence).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import obs
from repro.perf.precompute import PrecomputePool, WithdrawalPrecomp
from repro.core.coin import BareCoin, Coin
from repro.core.exceptions import CommitmentError, ExpiredCoinError, WrongWitnessError
from repro.core.info import CoinInfo
from repro.core.params import SystemParams
from repro.core.transcripts import (
    CommitmentRequest,
    PaymentTranscript,
    WitnessCommitment,
    payment_nonce,
)
from repro.core.witness_ranges import WitnessAssignmentTable
from repro.crypto.blind import BlindSession, SignerChallenge, SignerResponse
from repro.crypto.hashing import constant_time_eq
from repro.crypto.numbers import random_bits
from repro.crypto.representation import RepresentationPair, respond
from repro.crypto.serialize import text_to_int, int_to_text


@dataclass(frozen=True)
class StoredCoin:
    """A full coin together with the owner's secrets."""

    coin: Coin
    secrets: RepresentationPair

    @property
    def denomination(self) -> int:
        """Coin value in cents."""
        return self.coin.denomination

    def to_json(self) -> dict[str, object]:
        """Serialize coin + secrets for the wallet file."""
        wire = self.coin.to_wire()
        return {
            "coin": _jsonify(wire),
            "secrets": {
                "x1": int_to_text(self.secrets.x.k1),
                "x2": int_to_text(self.secrets.x.k2),
                "y1": int_to_text(self.secrets.y.k1),
                "y2": int_to_text(self.secrets.y.k2),
            },
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "StoredCoin":
        """Parse the output of :meth:`to_json`."""
        from repro.crypto.representation import Representation

        flat = _flatten_json(data["coin"])
        secrets = data["secrets"]
        assert isinstance(secrets, dict)
        return cls(
            coin=Coin.from_wire(flat),
            secrets=RepresentationPair(
                x=Representation(text_to_int(secrets["x1"]), text_to_int(secrets["x2"])),
                y=Representation(text_to_int(secrets["y1"]), text_to_int(secrets["y2"])),
            ),
        )


@dataclass
class WithdrawalSession:
    """Client-side state of one in-flight withdrawal (or renewal)."""

    info: CoinInfo
    secrets: RepresentationPair
    blind_session: BlindSession

    @property
    def e(self) -> int:
        """The blinded challenge to send to the broker."""
        return self.blind_session.e


@dataclass
class PendingPayment:
    """Client-side state between commitment request and payment."""

    stored: StoredCoin
    merchant_id: str
    salt: int
    coin_hash: int
    nonce: int


class Wallet:
    """The coin file: holds :class:`StoredCoin` objects, JSON-persistable.

    Coins are kept in an insertion-ordered dict keyed by the (frozen,
    hashable) coin itself, so :meth:`add`, :meth:`remove` and ``in`` are
    O(1) however many coins the wallet holds. A coin is held at most
    once: adding a coin the wallet already holds changes nothing.
    """

    def __init__(self, coins: Iterable[StoredCoin] = ()) -> None:
        self._coins: dict[StoredCoin, None] = dict.fromkeys(coins)

    @property
    def coins(self) -> list[StoredCoin]:
        """The held coins in the order they were added (a fresh list)."""
        return list(self._coins)

    def __contains__(self, stored: object) -> bool:
        return stored in self._coins

    def __len__(self) -> int:
        return len(self._coins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wallet):
            return NotImplemented
        return list(self._coins) == list(other._coins)

    def __repr__(self) -> str:
        return f"Wallet(coins={list(self._coins)!r})"

    def add(self, stored: StoredCoin) -> None:
        """Put a fresh coin in the wallet."""
        self._coins[stored] = None

    def remove(self, stored: StoredCoin) -> None:
        """Drop a spent/renewed coin.

        Raises:
            ValueError: the wallet does not hold ``stored``.
        """
        try:
            del self._coins[stored]
        except KeyError:
            raise ValueError("coin not in wallet") from None

    def spendable(self, now: int) -> list[StoredCoin]:
        """Coins currently within their spendable window."""
        return [c for c in self._coins if c.coin.info.is_spendable(now)]

    def renewable(self, now: int) -> list[StoredCoin]:
        """Coins past soft expiry (or otherwise unusable) but not yet void."""
        return [
            c
            for c in self._coins
            if c.coin.info.is_renewable(now) and not c.coin.info.is_spendable(now)
        ]

    def total_value(self) -> int:
        """Sum of denominations in the wallet."""
        return sum(c.denomination for c in self._coins)

    def select_coins(self, amount: int, now: int) -> list[StoredCoin]:
        """Pick spendable coins summing to exactly ``amount``.

        Coins are indivisible (divisibility is the paper's future work),
        so a purchase is a sequence of single-coin payments. Selection
        prefers large coins first, then fills exactly with a subset-sum
        search over the (deduplicated) remaining denominations — wallets
        hold physical-coin-like denominations, so the search space is
        tiny.

        Raises:
            ValueError: ``amount`` is not positive, exceeds the spendable
                balance, or cannot be tiled exactly by held coins.
        """
        if amount <= 0:
            raise ValueError("payment amount must be positive")
        candidates = sorted(
            self.spendable(now), key=lambda c: c.denomination, reverse=True
        )
        total = sum(c.denomination for c in candidates)
        if total < amount:
            raise ValueError(
                f"wallet holds {total} spendable cents, cannot pay {amount}"
            )
        chosen = _exact_subset(candidates, amount)
        if chosen is None:
            raise ValueError(
                f"held denominations cannot pay exactly {amount}; "
                "withdraw change-sized coins or renew"
            )
        return chosen

    def save(self, path: str | Path) -> None:
        """Write the wallet to a JSON file, atomically (it holds coin secrets).

        The bytes land via :func:`repro.store.atomic.write_atomic`, so a
        crash mid-save leaves the previous file intact.
        """
        from repro.store.atomic import write_atomic

        payload = {"version": 1, "coins": [c.to_json() for c in self._coins]}
        write_atomic(Path(path), json.dumps(payload, indent=2).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Wallet":
        """Read a wallet JSON file.

        Raises:
            ValueError: unsupported wallet file version.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != 1:
            raise ValueError(f"unsupported wallet version {payload.get('version')!r}")
        return cls(coins=[StoredCoin.from_json(entry) for entry in payload["coins"]])


@dataclass
class Client:
    """The client role.

    Args:
        params: system parameters.
        broker_blind_public: the broker's blind-signature key ``y``.
        broker_sign_public: the broker's plain signature key.
        rng: optional deterministic randomness source.
        precompute: optional offline bank of withdrawal blinding tuples
            and payment salts (:class:`repro.perf.precompute.PrecomputePool`);
            when present and stocked, :meth:`begin_withdrawal` and
            :meth:`prepare_commitment_request` drain it instead of doing
            the work online.
    """

    params: SystemParams
    broker_blind_public: int
    broker_sign_public: int
    rng: random.Random | None = None
    wallet: Wallet = field(default_factory=Wallet)
    precompute: PrecomputePool | None = None

    # ------------------------------------------------------------------
    # Withdrawal (Algorithm 1, client side)
    # ------------------------------------------------------------------
    def begin_withdrawal(self, info: CoinInfo, challenge: SignerChallenge) -> WithdrawalSession:
        """Step 2: pick coin secrets, blind the broker's commitments.

        Costs 8 ``Exp`` + 2 ``Hash`` (construct ``A``, ``B``; compute
        ``alpha``, ``beta``, ``z``, ``epsilon``). When the client's
        :attr:`precompute` bank holds a tuple for this ``info``, the
        online work drops to two modular multiplications and one hash —
        the logical cost is still declared in full, so Table 1 accounting
        does not depend on the bank.
        """
        if self.precompute is not None:
            entry = self.precompute.take(info)
            if entry is not None:
                return self._withdrawal_from_precomp(info, challenge, entry)
        secrets = RepresentationPair.generate(self.params.group, self.rng)
        commitment_a, commitment_b = secrets.commitments(self.params.group)
        session = BlindSession.start(
            self.params.group,
            self.params.hashes,
            self.broker_blind_public,
            info.hash_parts(),
            (commitment_a, commitment_b),
            challenge,
            self.rng,
        )
        return WithdrawalSession(info=info, secrets=secrets, blind_session=session)

    def _withdrawal_from_precomp(
        self,
        info: CoinInfo,
        challenge: SignerChallenge,
        entry: WithdrawalPrecomp,
    ) -> WithdrawalSession:
        """Finish step 2 from a banked tuple: 2 multiplications + 1 hash.

        The serial path's 8 ``Exp`` + 2 ``Hash`` are declared up front
        (the exponentiations physically ran, suppressed, when the bank
        was filled); only ``epsilon`` — which binds the broker's fresh
        ``(a, b)`` — is computed now, under suppression.
        """
        from repro.crypto import counters

        group = self.params.group
        counters.record_exp(8)
        counters.record_hash(2)
        with counters.suppressed():
            alpha = group.mul(challenge.a, entry.alpha_factor)
            beta = group.mul(challenge.b, entry.beta_factor)
            epsilon = self.params.hashes.H(
                alpha, beta, entry.z, entry.commitment_a, entry.commitment_b
            )
            e = (epsilon - entry.t2 - entry.t4) % group.q
        session = BlindSession(
            group=group,
            hashes=self.params.hashes,
            signer_public=self.broker_blind_public,
            info_parts=info.hash_parts(),
            message_parts=(entry.commitment_a, entry.commitment_b),
            z=entry.z,
            t1=entry.t1,
            t2=entry.t2,
            t3=entry.t3,
            t4=entry.t4,
            e=e,
        )
        return WithdrawalSession(info=info, secrets=entry.secrets, blind_session=session)

    def finish_withdrawal(
        self,
        session: WithdrawalSession,
        response: SignerResponse,
        table: WitnessAssignmentTable,
    ) -> StoredCoin:
        """Step 4: unblind, select the witness entry, assemble the coin.

        Costs 4 ``Exp`` + 2 ``Hash`` + 1 ``Ver`` (verification equation;
        ``h(bare coin)``; broker signature on the selected witness entry) —
        the client's withdrawal row of Table 1 totals 12/4/0/1 together
        with :meth:`begin_withdrawal`.

        Raises:
            ValueError: the broker's response fails to unblind/verify.
            WrongWitnessError: the table cannot serve this coin (version
                mismatch or bad entry signature).
        """
        message_a, message_b = session.blind_session.message_parts
        signature = session.blind_session.finish(response)
        bare = BareCoin(
            signature=signature,
            info=session.info,
            commitment_a=message_a,
            commitment_b=message_b,
        )
        if table.version != session.info.list_version:
            raise WrongWitnessError(
                f"witness table v{table.version} does not match coin info "
                f"v{session.info.list_version}"
            )
        digest = bare.digest(self.params)
        entry = table.witness_for(digest)
        if not entry.verify(self.params, self.broker_sign_public):
            raise WrongWitnessError("broker signature on witness entry failed to verify")
        stored = StoredCoin(
            coin=Coin(bare=bare, witness_entry=entry), secrets=session.secrets
        )
        self.wallet.add(stored)
        obs.counter_inc("client_coins_withdrawn_total")
        return stored

    # ------------------------------------------------------------------
    # Payment (Algorithm 2, client side)
    # ------------------------------------------------------------------
    def prepare_commitment_request(
        self, stored: StoredCoin, merchant_id: str, now: int
    ) -> tuple[CommitmentRequest, PendingPayment]:
        """Step 1: compute ``(coin_hash, nonce)`` for the witness.

        Costs 2 ``Hash`` (digest and nonce).

        Raises:
            ExpiredCoinError: the coin is past its soft expiry.
        """
        if not stored.coin.info.is_spendable(now):
            raise ExpiredCoinError("coin is past its soft expiration date")
        salt = self.precompute.take_payment_salt() if self.precompute is not None else None
        if salt is None:
            salt = random_bits(128, self.rng)
        coin_hash = stored.coin.digest(self.params)
        nonce = payment_nonce(self.params, salt, merchant_id)
        request = CommitmentRequest(coin_hash=coin_hash, nonce=nonce)
        pending = PendingPayment(
            stored=stored,
            merchant_id=merchant_id,
            salt=salt,
            coin_hash=coin_hash,
            nonce=nonce,
        )
        return request, pending

    def build_payment(
        self,
        pending: PendingPayment,
        commitment: WitnessCommitment,
        witness_public: int,
        now: int,
    ) -> PaymentTranscript:
        """Step 3: check the commitment, produce the payment transcript.

        Costs 1 ``Hash`` (the challenge ``d``) + 1 ``Ver`` (the witness's
        commitment signature); the responses ``r1, r2`` are pure ``Z_q``
        arithmetic. With step 1 this is the client's payment row of
        Table 1: 0 ``Exp`` / 3 ``Hash`` / 1 ``Ver``.

        Raises:
            CommitmentError: the commitment does not cover this payment.
        """
        # The digest and nonce computed in step 1 are reused, not
        # recomputed: comparing stored values costs no hash operations.
        if not constant_time_eq(
            commitment.coin_hash, pending.coin_hash
        ) or not constant_time_eq(commitment.nonce, pending.nonce):
            raise CommitmentError("witness commitment does not match the pending payment")
        if commitment.witness_id != pending.stored.coin.witness_id:
            raise CommitmentError("commitment signed by a different witness")
        if now >= commitment.expires_at:
            raise CommitmentError("witness commitment already expired")
        if not commitment.verify(self.params, witness_public):
            raise CommitmentError("witness signature on commitment failed to verify")
        d = self.params.hashes.H0(
            *pending.stored.coin.hash_parts(), pending.merchant_id, now
        )
        return PaymentTranscript(
            coin=pending.stored.coin,
            response=respond(pending.stored.secrets, d, self.params.group.q),
            merchant_id=pending.merchant_id,
            timestamp=now,
            salt=pending.salt,
        )

    def mark_spent(self, stored: StoredCoin) -> None:
        """Remove a successfully spent coin from the wallet (O(1))."""
        if stored in self.wallet:
            self.wallet.remove(stored)
            obs.counter_inc("client_coins_spent_total")

    # ------------------------------------------------------------------
    # Renewal (Algorithm 4, client side)
    # ------------------------------------------------------------------
    def renewal_proof(self, stored: StoredCoin, now: int) -> tuple[int, int, int, int]:
        """Prove ownership of the old coin: ``(timestamp, salt, r1*, r2*)``.

        The challenge ``d*`` is "constructed as in the payment protocol"
        but bound to the renewal context instead of a merchant identity
        (one ``Hash``). A fresh salt keeps every renewal attempt's
        challenge distinct, so a second attempt is always extractable even
        within the same clock second.
        """
        salt = random_bits(128, self.rng)
        d_star = renewal_challenge(self.params, stored.coin, now, salt)
        response = respond(stored.secrets, d_star, self.params.group.q)
        return now, salt, response.r1, response.r2


def renewal_challenge(params: SystemParams, coin: Coin, timestamp: int, salt: int) -> int:
    """``d* = H0(C*, "renewal", timestamp, salt)`` — the renewal challenge.

    Hashes the *bare* coin (renewal exchanges the bare coin; Algorithm 4
    never transmits the witness entry) plus a renewal tag, so it is
    distinct from every payment challenge — a coin that was both spent and
    submitted for renewal yields two distinct challenges, enough for the
    broker to extract the secrets. The salt additionally separates two
    renewal attempts made within the same second.
    """
    return params.hashes.H0(*coin.bare.hash_parts(), "renewal", timestamp, salt)


def _exact_subset(
    candidates: list[StoredCoin], amount: int
) -> list[StoredCoin] | None:
    """Find a subset of coins summing to exactly ``amount``.

    Greedy-first (largest coins that still fit), then a dynamic program
    over reachable sums as fallback. Coin values are cents bounded by the
    purchase amount, so the DP table stays small.
    """
    chosen: list[StoredCoin] = []
    remaining = amount
    for stored in candidates:
        if stored.denomination <= remaining:
            chosen.append(stored)
            remaining -= stored.denomination
            if remaining == 0:
                return chosen
    # Greedy missed (e.g. pay 30 from {25, 10, 10, 10}); run the DP.
    reachable: dict[int, list[StoredCoin]] = {0: []}
    for stored in candidates:
        updates: dict[int, list[StoredCoin]] = {}
        for value, subset in reachable.items():
            candidate_sum = value + stored.denomination
            if candidate_sum <= amount and candidate_sum not in reachable:
                updates[candidate_sum] = subset + [stored]
        reachable.update(updates)
        if amount in reachable:
            return reachable[amount]
    return reachable.get(amount)


def _jsonify(wire: dict[str, object]) -> dict[str, object]:
    """Convert a wire mapping (ints/strs/nested) into JSON-safe values."""
    out: dict[str, object] = {}
    for key, value in wire.items():
        if isinstance(value, dict):
            out[key] = _jsonify(value)
        elif isinstance(value, int):
            out[key] = int_to_text(value)
        else:
            out[key] = value
    return out


def _flatten_json(data: object, prefix: str = "") -> dict[str, str]:
    """Flatten nested JSON back into the dotted-key wire mapping."""
    if not isinstance(data, dict):
        raise ValueError("malformed wallet entry")
    out: dict[str, str] = {}
    for key, value in data.items():
        full_key = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_flatten_json(value, full_key))
        else:
            out[full_key] = str(value)
    return out


__all__ = [
    "Client",
    "Wallet",
    "StoredCoin",
    "WithdrawalSession",
    "PendingPayment",
    "renewal_challenge",
]
