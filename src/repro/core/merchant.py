"""The merchant role: accept payments, verify everything, deposit later.

Step 3 of the payment protocol is the merchant's big verification moment:
broker signature on the coin, witness assignment, witness commitment
(binding via the nonce), and the representation NIZK. Only then does it
forward the transcript to the witness; only with the witness's signature in
hand does it deliver the service; and the signed transcript is what it
later cashes at the broker (Algorithm 3).
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field

from repro import obs, perf
from repro.core.coin import Coin
from repro.core.exceptions import (
    DoubleSpendError,
    EcashError,
    InvalidCoinError,
    InvalidPaymentError,
)
from repro.core.params import SystemParams
from repro.core.transcripts import (
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
    verify_commitment_binding,
    verify_payment_response,
)
from repro.core.witness_ranges import verify_entry_matches
from repro.crypto.schnorr import SchnorrKeyPair


@dataclass(frozen=True)
class PaymentRequest:
    """Everything the client hands the merchant in step 3."""

    transcript: PaymentTranscript
    commitment: WitnessCommitment


@dataclass
class Merchant:
    """One storefront merchant.

    Args:
        params: system parameters.
        merchant_id: this merchant's identifier ``I_M``.
        keypair: Schnorr key pair registered with the broker.
        broker_blind_public: the broker's blind-signature key ``y`` (coin
            verification).
        broker_sign_public: the broker's plain signature key (witness-range
            verification).
        witness_keys: directory mapping merchant ids to their public keys;
            in deployment this comes from the broker's signed merchant
            list, here it is filled in at registration time.
    """

    params: SystemParams
    merchant_id: str
    keypair: SchnorrKeyPair
    broker_blind_public: int
    broker_sign_public: int
    witness_keys: dict[str, int] = field(default_factory=dict)
    rng: random.Random | None = None
    accepted: list[SignedTranscript] = field(default_factory=list)
    deposited: list[SignedTranscript] = field(default_factory=list)
    refused_double_spends: list[DoubleSpendProof] = field(default_factory=list)
    _seen_bare_coins: set[object] = field(default_factory=set)
    #: Accepted-but-undeposited transcripts in accept order: the O(1)
    #: settlement index behind :meth:`pending_deposits`. ``accepted`` and
    #: ``deposited`` stay the append-only audit record.
    _pending: dict[SignedTranscript, None] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def public_key(self) -> int:
        """The merchant's signature-verification key."""
        return self.keypair.public

    def verify_payment_request(self, request: PaymentRequest, now: int) -> None:
        """Run every local check of step 3 before involving the witness.

        Cost: 7 ``Exp`` + 6 ``Hash`` + 2 ``Ver`` (coin signature 4 ``Exp``
        2 ``Hash``; witness assignment 1 ``Hash`` 1 ``Ver``; commitment
        binding 2 ``Hash`` 1 ``Ver``; NIZK 1 ``Hash`` 3 ``Exp``) — together
        with :meth:`accept_signed_transcript`'s 1 ``Ver`` this is the
        merchant's payment row of Table 1.

        Raises:
            InvalidCoinError, ExpiredCoinError, WrongWitnessError,
            CommitmentError, InvalidPaymentError: per failed check.
        """
        transcript = request.transcript
        coin = transcript.coin
        if transcript.merchant_id != self.merchant_id:
            raise InvalidPaymentError("payment transcript names a different merchant")
        coin.ensure_valid_signature(self.params, self.broker_blind_public)
        coin.ensure_spendable(now)
        digest = coin.digest(self.params)
        verify_entry_matches(
            self.params,
            self.broker_sign_public,
            coin.witness_entry,
            digest,
            coin.info.list_version,
        )
        witness_public = self._witness_public(coin)
        verify_commitment_binding(
            self.params,
            request.commitment,
            coin,
            transcript.salt,
            self.merchant_id,
            witness_public,
            now,
        )
        verify_payment_response(self.params, transcript)
        if coin.bare in self._seen_bare_coins:
            raise InvalidPaymentError("merchant already accepted a payment with this coin")
        obs.counter_inc("merchant_payments_verified_total")

    def accept_signed_transcript(self, signed: SignedTranscript, now: int) -> None:
        """Verify the witness's signature (1 ``Ver``) and store for deposit.

        Raises:
            InvalidPaymentError: bad witness signature.
        """
        witness_public = self._witness_public(signed.transcript.coin)
        if not signed.verify_witness_signature(self.params, witness_public):
            raise InvalidPaymentError("witness signature on transcript failed to verify")
        self.accepted.append(signed)
        self._pending[signed] = None
        self._seen_bare_coins.add(signed.transcript.coin.bare)

    def handle_double_spend_proof(self, proof: DoubleSpendProof, coin: Coin) -> None:
        """Validate a double-spend refusal from the witness.

        Verifying the revealed representation(s) against ``A``/``B`` costs
        the two extra exponentiations the paper reports for the
        double-spend case (and the merchant skips the transcript ``Ver``).

        Raises:
            InvalidPaymentError: the proof does not actually open the
                coin's commitments — the witness refused without evidence,
                which is itself an arbitrable protocol violation.
        """
        if not proof.verify(self.params, coin):
            raise InvalidPaymentError("witness returned an invalid double-spend proof")
        self.refused_double_spends.append(proof)
        obs.counter_inc("merchant_double_spend_refusals_total")
        raise DoubleSpendError(proof)

    def verify_payment_bulk(
        self,
        items: list[SignedTranscript],
        now: int,
        pool: "perf.CryptoPool | None" = None,
    ) -> list[EcashError | None]:
        """Audit-grade public verification of many signed transcripts.

        Per item: broker signature on the coin (4 ``Exp`` 2 ``Hash``),
        spendability, witness-range entry (1 ``Hash`` 1 ``Ver``), witness
        signature on the transcript (1 ``Ver``) and the representation
        NIZK (1 ``Hash`` + 3 ``Exp``). Unlike
        :meth:`verify_payment_request` this does not bind the transcripts
        to *this* merchant — it is the bulk re-check a depositor, auditor
        or arbiter runs over a pile of third-party transcripts.

        With the perf engine on, the NIZKs collapse into BGR batch
        equations (per pool chunk when the parallel engine fans out, one
        batch otherwise) with exact per-item fallback naming culprits;
        accept/reject outcomes and logical-op accounting are identical on
        every path.

        Returns:
            Per item, in order: ``None`` on success, else the
            :class:`~repro.core.exceptions.EcashError` it raised.
        """
        items = list(items)
        results: list[EcashError | None] = [None] * len(items)
        if not perf.is_enabled():
            from repro.core.transcripts import verify_payment_response

            for index, signed in enumerate(items):
                try:
                    self._verify_transcript_structure(signed, now)
                    verify_payment_response(self.params, signed.transcript)
                except EcashError as exc:
                    results[index] = exc
            return results

        pool = pool if pool is not None else perf.shared_pool()
        if pool is not None and pool.active() and len(items) > 1:
            from repro.perf.parallel import replay_ops

            outcomes = pool.run_payment_checks(
                self.params,
                self.broker_blind_public,
                self.broker_sign_public,
                dict(self.witness_keys),
                items,
                now,
                seed=self._draw_seed(),
            )
            for index, outcome in enumerate(outcomes):
                replay_ops(outcome.ops)
                results[index] = outcome.error
            return results

        from repro.crypto import counters
        from repro.crypto.representation import verify_response

        group = self.params.group
        claims = perf.ClaimSet()
        checked: list[tuple[int, SignedTranscript, perf.RepresentationCheck]] = []
        for index, signed in enumerate(items):
            try:
                self._verify_transcript_structure(signed, now, claims, index)
            except EcashError as exc:
                results[index] = exc
                continue
            transcript = signed.transcript
            d = transcript.challenge(self.params)
            counters.record_exp(3)
            checked.append(
                (
                    index,
                    signed,
                    perf.RepresentationCheck(
                        commitment_a=transcript.coin.bare.commitment_a,
                        commitment_b=transcript.coin.bare.commitment_b,
                        challenge=d,
                        r1=transcript.response.r1,
                        r2=transcript.response.r2,
                    ),
                )
            )
        if checked and not perf.verify_batch(
            group.p, group.q, group.g1, group.g2, [c for _, _, c in checked], rng=self.rng
        ):
            for index, signed, check in checked:
                with counters.suppressed():
                    valid = verify_response(
                        group,
                        check.commitment_a,
                        check.commitment_b,
                        check.challenge,
                        signed.transcript.response,
                    )
                if not valid:
                    results[index] = InvalidPaymentError(
                        "representation proof A*B^d == g1^r1*g2^r2 failed"
                    )
        # Certify every fast-path signature recovery in one combined
        # equation; a definitively-bad token overrides the glitched fast
        # path's verdict with the exception the naive path would have
        # raised at that (earlier) stage.
        stage_order = {"coin": 0, "wsig": 1}
        worst: dict[int, str] = {}
        for token in claims.certify(group.p, group.q, self.rng):
            index, stage = token  # type: ignore[misc]
            if index not in worst or stage_order[stage] < stage_order[worst[index]]:
                worst[index] = stage
        for index, stage in worst.items():
            if stage == "coin":
                results[index] = InvalidCoinError(
                    "broker's partially blind signature failed to verify"
                )
            else:
                results[index] = InvalidPaymentError(
                    "witness signature on transcript failed to verify"
                )
        return results

    def _verify_transcript_structure(
        self,
        signed: SignedTranscript,
        now: int,
        claims: "perf.ClaimSet | None" = None,
        index: int | None = None,
    ) -> None:
        """The non-NIZK checks of :meth:`verify_payment_bulk` for one item.

        Mirrors the per-item half of the parallel engine's payment chunk
        (:func:`repro.perf.parallel.run_payment_chunk`) — same checks,
        same order, same exceptions — so serial and pooled bulk
        verification agree item for item. Bulk callers thread a claim set
        through so the coin- and witness-signature fast paths register
        their recovery claims under ``(index, stage)`` tokens.

        Raises:
            InvalidCoinError, ExpiredCoinError, WrongWitnessError,
            InvalidPaymentError: per failed check.
        """
        transcript = signed.transcript
        coin = transcript.coin
        coin.ensure_valid_signature(
            self.params, self.broker_blind_public, claims, (index, "coin")
        )
        coin.ensure_spendable(now)
        verify_entry_matches(
            self.params,
            self.broker_sign_public,
            coin.witness_entry,
            coin.digest(self.params),
            coin.info.list_version,
        )
        witness_public = self.witness_keys.get(coin.witness_id)
        if witness_public is None:
            raise InvalidPaymentError(
                f"no verification key for witness {coin.witness_id!r}"
            )
        if not signed.verify_witness_signature(
            self.params, witness_public, claims, (index, "wsig")
        ):
            raise InvalidPaymentError(
                "witness signature on transcript failed to verify"
            )

    def _draw_seed(self) -> int:
        """64-bit seed for a pooled batch — deterministic under a seeded RNG."""
        if self.rng is not None:
            return self.rng.getrandbits(64)
        return secrets.randbits(64)

    def pending_deposits(self) -> list[SignedTranscript]:
        """Signed transcripts accepted but not yet deposited, in accept order.

        O(pending): the index is kept by :meth:`accept_signed_transcript`
        and :meth:`mark_deposited`, so the cost does not grow with the
        merchant's deposit history.
        """
        return list(self._pending)

    def mark_deposited(self, signed: SignedTranscript) -> None:
        """Record a successful deposit (O(1))."""
        self.deposited.append(signed)
        self._pending.pop(signed, None)

    def _witness_public(self, coin: Coin) -> int:
        """Look up the public key of the coin's witness.

        Raises:
            InvalidPaymentError: unknown witness (not in the merchant
                directory).
        """
        try:
            return self.witness_keys[coin.witness_id]
        except KeyError:
            raise InvalidPaymentError(
                f"unknown witness merchant {coin.witness_id!r}"
            ) from None


__all__ = ["Merchant", "PaymentRequest"]
