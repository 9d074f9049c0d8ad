"""The protocol method registry: one dispatch table, many transports.

The paper's parties are web services exchanging URL-encoded REST
messages; this module is the single place their RPC surface is defined.
Both network backends consume it:

* the discrete-event sim (:class:`repro.net.services.NetworkDeployment`)
  registers the handler tables on simulated :class:`~repro.net.node.Node`
  hosts and drives the client flows on the event loop;
* the real asyncio daemons (:mod:`repro.daemon`) register the same
  tables on TCP servers and drive the same flows over sockets.

Server side, :func:`broker_dispatch` / :func:`witness_dispatch` /
:func:`merchant_dispatch` build ``{method name: handler}`` tables around
the core actors. A handler either returns a payload mapping directly or
is a *generator* that yields the result of the backend-supplied ``rpc``
callable for nested calls (the merchant's ``pay`` handler contacts the
witness mid-request) and receives the reply payload back.

Client side, the ``*_flow`` generators express each protocol as a
sequence of :class:`RemoteCall` yields. A transport drives a flow by
performing each yielded call and sending the reply payload back into the
generator; exceptions raised by the transport are thrown into the flow.
Because the flows are transport-agnostic, a scenario replayed over the
sim and over real sockets performs byte-for-byte identical protocol
messages (given :class:`~repro.core.system.EcashSystem` per-party
seeding), which is what lets the daemon deployment check its traffic
accounting against the sim's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Protocol

from repro.core.broker import Broker
from repro.core.client import Client, StoredCoin
from repro.core.coin import BareCoin
from repro.core.exceptions import (
    DoubleDepositError,
    DoubleSpendError,
    RenewalRefusedError,
)
from repro.core.info import CoinInfo
from repro.core.merchant import Merchant, PaymentRequest
from repro.core.transcripts import (
    CommitmentRequest,
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
)
from repro.core.witness import WitnessService
from repro.core.witness_ranges import WitnessAssignmentTable
from repro.crypto.blind import SignerChallenge, SignerResponse
from repro.crypto.serialize import (
    batch_indices,
    flatten,
    int_to_text,
    pack_batch,
    text_to_int,
)

#: A server-side handler: payload mapping in, payload mapping (or a
#: generator producing one) out.
Handler = Callable[[dict[str, Any]], Any]

#: Backend-supplied nested-call hook for generator handlers: called as
#: ``rpc(destination, method, payload)``; the handler *yields* the result
#: and is resumed with the reply payload.
RpcFn = Callable[[str, str, dict[str, Any]], Any]

#: A protocol clock: whole seconds, simulated or real.
Clock = Callable[[], int]

#: Every method name each role serves, in registration order. These
#: tuples are the protocol's method namespace; the dispatch builders
#: below are checked against them so the two can never drift apart.
BROKER_METHODS: tuple[str, ...] = (
    "withdraw/begin",
    "withdraw/complete",
    "withdraw/batch-begin",
    "withdraw/batch-complete",
    "renew/begin",
    "renew/complete",
    "deposit",
    "deposit/batch",
)
WITNESS_METHODS: tuple[str, ...] = ("witness/commit", "witness/sign")
MERCHANT_METHODS: tuple[str, ...] = ("pay",)


@dataclass(frozen=True)
class RemoteCall:
    """One RPC a client flow wants performed.

    Yielded by the ``*_flow`` generators; the driving transport performs
    the call and sends the response payload back into the flow.

    Attributes:
        destination: target node name.
        method: RPC method (one of the ``*_METHODS`` names).
        payload: request payload mapping.
        timeout: per-call timeout in seconds (``None`` = transport
            default).
    """

    destination: str
    method: str
    payload: dict[str, Any] = field(hash=False)
    timeout: float | None = None


#: A client flow: yields :class:`RemoteCall`, receives reply payloads,
#: returns its protocol-level result.
Flow = Generator[RemoteCall, Any, Any]


class Transport(Protocol):
    """What a network backend must offer to run the shared flows.

    The sim implements this with generator processes on the event loop;
    the daemons implement it with coroutines over authenticated TCP.
    ``run_flow`` executes a :data:`Flow` to completion — performing every
    yielded :class:`RemoteCall`, sending reply payloads back in, throwing
    transport/protocol errors into the flow — and returns (a backend-
    native awaitable of) the flow's return value.
    """

    def run_flow(self, source: str, flow: Flow) -> Any:
        """Drive ``flow`` on behalf of node ``source``."""
        ...


# ----------------------------------------------------------------------
# Server dispatch tables
# ----------------------------------------------------------------------
def broker_dispatch(broker: Broker, clock: Clock) -> dict[str, Handler]:
    """The broker's method table (withdrawal, renewal, deposit)."""

    def withdraw_begin(payload: dict[str, Any]) -> dict[str, Any]:
        info = CoinInfo.from_wire(strip_prefix(flatten(payload), "info."))
        ticket, challenge = broker.begin_withdrawal(info)
        return {"ticket": {"id": ticket, "a": challenge.a, "bare": challenge.b}}

    def withdraw_complete(payload: dict[str, Any]) -> dict[str, Any]:
        response = broker.complete_withdrawal(
            as_int(payload["ticket"]), as_int(payload["sig_e"])
        )
        return {"rho": response.r, "commitment": response.c, "sig_s": response.s}

    def renew_begin(payload: dict[str, Any]) -> dict[str, Any]:
        info = CoinInfo.from_wire(strip_prefix(flatten(payload), "info."))
        ticket, challenge = broker.begin_renewal(info)
        return {"ticket": {"id": ticket, "a": challenge.a, "bare": challenge.b}}

    def renew_complete(payload: dict[str, Any]) -> dict[str, Any]:
        flat = flatten(payload)
        old = BareCoin.from_wire(strip_prefix(flat, "old."))
        try:
            response = broker.complete_renewal(
                as_int(payload["ticket"]),
                as_int(payload["sig_e"]),
                old,
                as_int(payload["proof_ts"]),
                as_int(payload["proof_salt"]),
                as_int(payload["r1"]),
                as_int(payload["r2"]),
                clock(),
            )
        except RenewalRefusedError as refusal:
            # In-band like the storefront's double-spend reply: the
            # generic error frame would drop the extraction proof.
            return {"status": "refused", "proof": refusal.proof.to_wire()}
        return {"rho": response.r, "commitment": response.c, "sig_s": response.s}

    def deposit(payload: dict[str, Any]) -> dict[str, Any]:
        flat = flatten(payload)
        signed = SignedTranscript.from_wire(strip_prefix(flat, "signed."))
        result = broker.deposit(str(payload["merchant_id"]), signed, clock())
        return {"outcome": result.outcome.value, "amount": result.amount}

    def deposit_batch(payload: dict[str, Any]) -> dict[str, Any]:
        flat = flatten(payload)
        indices = batch_indices(flat, "batch", "t")
        signed_items = [
            SignedTranscript.from_wire(strip_prefix(flat, f"batch.t{index}."))
            for index in indices
        ]
        results = broker.deposit_batch(
            str(payload["merchant_id"]), signed_items, clock()
        )
        out: dict[str, Any] = {}
        for index, result in zip(indices, results):
            if isinstance(result, Exception):
                out[f"r{index}"] = {
                    "kind": type(result).__name__,
                    "error": str(result),
                }
            else:
                out[f"r{index}"] = {
                    "outcome": result.outcome.value,
                    "amount": result.amount,
                }
        return out

    def withdraw_batch_begin(payload: dict[str, Any]) -> dict[str, Any]:
        flat = flatten(payload)
        indices = batch_indices(flat, "batch", "i")
        infos = [
            CoinInfo.from_wire(strip_prefix(flat, f"batch.i{index}.")) for index in indices
        ]
        ticket, challenges = broker.begin_batch_withdrawal(infos)
        out: dict[str, Any] = {"ticket": ticket}
        for index, challenge in enumerate(challenges):
            out[f"c{index}"] = {"a": challenge.a, "bare": challenge.b}
        return out

    def withdraw_batch_complete(payload: dict[str, Any]) -> dict[str, Any]:
        flat = flatten(payload)
        indices = sorted(
            int(key.removeprefix("es.e")) for key in flat if key.startswith("es.e")
        )
        es = [as_int(flat[f"es.e{index}"]) for index in indices]
        responses = broker.complete_batch_withdrawal(as_int(payload["ticket"]), es)
        out: dict[str, Any] = {}
        for index, response in enumerate(responses):
            out[f"r{index}"] = {"rho": response.r, "commitment": response.c, "sig_s": response.s}
        return out

    table = {
        "withdraw/begin": withdraw_begin,
        "withdraw/complete": withdraw_complete,
        "withdraw/batch-begin": withdraw_batch_begin,
        "withdraw/batch-complete": withdraw_batch_complete,
        "renew/begin": renew_begin,
        "renew/complete": renew_complete,
        "deposit": deposit,
        "deposit/batch": deposit_batch,
    }
    assert tuple(table) == BROKER_METHODS
    return table


def witness_dispatch(witness: WitnessService, clock: Clock) -> dict[str, Handler]:
    """The witness service's method table (commitment + transcript sign)."""

    def witness_commit(payload: dict[str, Any]) -> dict[str, Any]:
        request = CommitmentRequest.from_wire(strip_prefix(flatten(payload), ""))
        commitment = witness.request_commitment(request, clock())
        return {"commitment": commitment.to_wire()}

    def witness_sign(payload: dict[str, Any]) -> dict[str, Any]:
        transcript = PaymentTranscript.from_wire(strip_prefix(flatten(payload), "transcript."))
        try:
            signed = witness.sign_transcript(transcript, clock())
        except DoubleSpendError as refusal:
            return {"status": "double-spend", "proof": refusal.proof.to_wire()}
        return {"status": "ok", "signed": signed.to_wire()}

    table = {"witness/commit": witness_commit, "witness/sign": witness_sign}
    assert tuple(table) == WITNESS_METHODS
    return table


def merchant_dispatch(
    merchant: Merchant, merchant_id: str, clock: Clock, rpc: RpcFn
) -> dict[str, Handler]:
    """The storefront's method table (``pay``).

    The ``pay`` handler is a generator: after the local checks it calls
    the coin's witness through the backend-supplied ``rpc`` hook and
    resumes with the witness's reply.
    """

    def pay(payload: dict[str, Any]) -> Generator[Any, Any, dict[str, Any]]:
        flat = flatten(payload)
        transcript = PaymentTranscript.from_wire(strip_prefix(flat, "transcript."))
        commitment = WitnessCommitment.from_wire(strip_prefix(flat, "commitment."))
        merchant.verify_payment_request(
            PaymentRequest(transcript=transcript, commitment=commitment), clock()
        )
        reply = flatten(
            (yield rpc(
                transcript.coin.witness_id,
                "witness/sign",
                {"transcript": transcript.to_wire()},
            ))
        )
        if reply.get("status") == "double-spend":
            proof = DoubleSpendProof.from_wire(strip_prefix(reply, "proof."))
            try:
                merchant.handle_double_spend_proof(proof, transcript.coin)
            except DoubleSpendError:
                pass
            return {"status": "double-spend", "proof": proof.to_wire()}
        signed = SignedTranscript.from_wire(strip_prefix(reply, "signed."))
        merchant.accept_signed_transcript(signed, clock())
        return {"status": "service", "amount": transcript.coin.denomination}

    table: dict[str, Handler] = {"pay": pay}
    assert tuple(table) == MERCHANT_METHODS
    return table


# ----------------------------------------------------------------------
# Client-side protocol flows
# ----------------------------------------------------------------------
def withdrawal_flow(
    client: Client,
    broker_id: str,
    tables: Mapping[int, WitnessAssignmentTable],
    info: CoinInfo,
) -> Flow:
    """Algorithm 1 as a transport-neutral flow (two broker rounds)."""
    opened = flatten(
        (yield RemoteCall(broker_id, "withdraw/begin", {"info": info.to_wire()}))
    )
    challenge = SignerChallenge(
        a=as_int(opened["ticket.a"]), b=as_int(opened["ticket.bare"])
    )
    ticket = as_int(opened["ticket.id"])
    session = client.begin_withdrawal(info, challenge)
    answered = yield RemoteCall(
        broker_id, "withdraw/complete", {"ticket": ticket, "sig_e": session.e}
    )
    response = SignerResponse(
        r=as_int(answered["rho"]),
        c=as_int(answered["commitment"]),
        s=as_int(answered["sig_s"]),
    )
    return client.finish_withdrawal(session, response, tables[info.list_version])


def payment_flow(
    client: Client,
    stored: StoredCoin,
    merchant_id: str,
    witness_public: int,
    clock: Clock,
) -> Flow:
    """Algorithm 2 as a flow: commit at the witness, pay the storefront.

    ``clock`` is consulted per step (not once up front) so timestamps
    reflect the time each message is actually built — on the sim backend
    simulated time advances between the rounds.

    Raises:
        DoubleSpendError: the storefront relayed a verified refusal.
        EcashError subclasses: per failed check, raised remotely.

    Returns:
        The payment amount in cents.
    """
    witness_id = stored.coin.witness_id
    request, pending = client.prepare_commitment_request(stored, merchant_id, clock())
    commit_reply = flatten(
        (yield RemoteCall(witness_id, "witness/commit", request.to_wire()))
    )
    commitment = WitnessCommitment.from_wire(strip_prefix(commit_reply, "commitment."))
    transcript = client.build_payment(pending, commitment, witness_public, clock())
    pay_reply = flatten(
        (yield RemoteCall(
            merchant_id,
            "pay",
            {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()},
        ))
    )
    if pay_reply.get("status") == "double-spend":
        proof = DoubleSpendProof.from_wire(strip_prefix(pay_reply, "proof."))
        raise DoubleSpendError(proof)
    client.mark_spent(stored)
    # The settled amount comes from the storefront's receipt, not from
    # the client's own view of the coin.
    return as_int(pay_reply["amount"])


def direct_spend_flow(
    client: Client,
    stored: StoredCoin,
    merchant_id: str,
    witness_public: int,
    clock: Clock,
) -> Flow:
    """Spend directly against the witness, playing the storefront locally.

    The merchant-side transcript check is performed by the *caller* (a
    storefront colluding with — or simply operated by — the client), so
    the witness is the only independent party contacted: commitment, then
    ``witness/sign``. This is the flow an attacking client uses for its
    second spend, and the refusal path the paper's Section 7 measures.

    Raises:
        DoubleSpendError: the witness refused with an extraction proof.

    Returns:
        The countersigned transcript on success.
    """
    witness_id = stored.coin.witness_id
    request, pending = client.prepare_commitment_request(stored, merchant_id, clock())
    commit_reply = flatten(
        (yield RemoteCall(witness_id, "witness/commit", request.to_wire()))
    )
    commitment = WitnessCommitment.from_wire(strip_prefix(commit_reply, "commitment."))
    transcript = client.build_payment(pending, commitment, witness_public, clock())
    sign_reply = flatten(
        (yield RemoteCall(
            witness_id, "witness/sign", {"transcript": transcript.to_wire()}
        ))
    )
    if sign_reply.get("status") == "double-spend":
        proof = DoubleSpendProof.from_wire(strip_prefix(sign_reply, "proof."))
        raise DoubleSpendError(proof)
    return SignedTranscript.from_wire(strip_prefix(sign_reply, "signed."))


def deposit_flow(merchant: Merchant, merchant_id: str, broker_id: str) -> Flow:
    """Algorithm 3 as a flow (one broker message per pending transcript).

    Settling is idempotent: a :class:`DoubleDepositError` means the broker
    already credited this merchant for the coin (an earlier reply was
    lost or a replayed request won the race), so the transcript is marked
    deposited, reported as a refusal item, and settling continues. Every
    other refusal and every transport error propagates and leaves the
    transcript pending.

    Returns:
        Per transcript settled, in order: ``{"outcome", "amount"}``, or
        ``{"error", "kind"}`` for one the broker had already credited.
    """
    results: list[dict[str, Any]] = []
    for signed in merchant.pending_deposits():
        try:
            reply = flatten(
                (yield RemoteCall(
                    broker_id,
                    "deposit",
                    {"merchant_id": merchant_id, "signed": signed.to_wire()},
                ))
            )
        except DoubleDepositError as refusal:
            merchant.mark_deposited(signed)
            results.append({"error": str(refusal), "kind": type(refusal).__name__})
            continue
        merchant.mark_deposited(signed)
        results.append(
            {"outcome": str(reply["outcome"]), "amount": as_int(reply["amount"])}
        )
    return results


def renewal_flow(
    client: Client,
    broker_id: str,
    tables: Mapping[int, WitnessAssignmentTable],
    stored: StoredCoin,
    new_info: CoinInfo,
    clock: Clock,
) -> Flow:
    """Algorithm 4 as a flow (two broker rounds).

    ``clock`` is read when the ownership proof is built — after the first
    round-trip — matching when the sim backend stamps it.
    """
    opened = flatten(
        (yield RemoteCall(broker_id, "renew/begin", {"info": new_info.to_wire()}))
    )
    challenge = SignerChallenge(
        a=as_int(opened["ticket.a"]), b=as_int(opened["ticket.bare"])
    )
    ticket = as_int(opened["ticket.id"])
    session = client.begin_withdrawal(new_info, challenge)
    timestamp, salt, r1_star, r2_star = client.renewal_proof(stored, clock())
    answered = flatten(
        (yield RemoteCall(
            broker_id,
            "renew/complete",
            {
                "ticket": ticket,
                "sig_e": session.e,
                "old": stored.coin.bare.to_wire(),
                "proof_ts": timestamp,
                "proof_salt": salt,
                "r1": r1_star,
                "r2": r2_star,
            },
        ))
    )
    if answered.get("status") == "refused":
        proof = DoubleSpendProof.from_wire(strip_prefix(answered, "proof."))
        raise RenewalRefusedError(proof)
    response = SignerResponse(
        r=as_int(answered["rho"]),
        c=as_int(answered["commitment"]),
        s=as_int(answered["sig_s"]),
    )
    fresh = client.finish_withdrawal(session, response, tables[new_info.list_version])
    client.mark_spent(stored)
    return fresh


# ----------------------------------------------------------------------
# Wire-value helpers (shared by dispatch tables, flows and backends)
# ----------------------------------------------------------------------
def strip_prefix(fields: Mapping[str, Any], prefix: str) -> dict[str, str]:
    """Select keys under ``prefix`` and coerce values to wire text."""
    out: dict[str, str] = {}
    for key, value in fields.items():
        if key.startswith(prefix):
            out[key.removeprefix(prefix)] = as_text(value)
    return out


def as_text(value: Any) -> str:
    """Coerce a wire value to its text form (ints via base64)."""
    if isinstance(value, int):
        return int_to_text(value)
    return str(value)


def as_int(value: Any) -> int:
    """Coerce a wire value to an integer (text via base64)."""
    if isinstance(value, int):
        return value
    return text_to_int(str(value))


__all__ = [
    "BROKER_METHODS",
    "Clock",
    "Flow",
    "Handler",
    "MERCHANT_METHODS",
    "RemoteCall",
    "RpcFn",
    "Transport",
    "WITNESS_METHODS",
    "as_int",
    "as_text",
    "broker_dispatch",
    "deposit_flow",
    "direct_spend_flow",
    "merchant_dispatch",
    "pack_batch",
    "payment_flow",
    "renewal_flow",
    "strip_prefix",
    "withdrawal_flow",
    "witness_dispatch",
]
