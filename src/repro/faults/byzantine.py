"""Scripted Byzantine actors for the chaos scenarios.

Each function here makes one party misbehave in exactly the way the
paper's detection-and-punishment machinery exists to catch:

* an **equivocating witness** signs two transcripts for one coin —
  caught at deposit time (Algorithm 3 case 2-b), the cheated merchant is
  paid from the witness's security deposit;
* a **double-spending client** replays a spent coin at a second merchant
  — refused in real time with a verifiable ``(x1, x2)`` extraction when
  the witness is honest;
* a **double-depositing merchant** re-submits an already-cleared
  transcript — refused with :class:`~repro.core.exceptions.DoubleDepositError`;
* a **stale-table broker** replays old (or outright forged) overlay
  directories — peers ignore anything not strictly newer and
  authentically signed.
"""

from __future__ import annotations

import random
from typing import Any, Generator

from repro.core.client import StoredCoin
from repro.core.exceptions import DoubleSpendError, EcashError
from repro.core.params import SystemParams
from repro.core.system import EcashSystem
from repro.core.transcripts import DoubleSpendProof, SignedTranscript
from repro.core.witness import WitnessService
from repro.core.witness_ranges import WitnessAssignmentTable
from repro.net.overlay import Directory, directory_signed_parts
from repro.net.services import BROKER_NODE, NetworkDeployment
from repro.net.sim import Sleep
from repro.crypto.schnorr import SchnorrKeyPair


def equivocating_witness(system: EcashSystem, witness_id: str) -> WitnessService:
    """Turn a witness faulty: it will sign conflicting transcripts.

    Returns the witness service so callers can inspect its state.
    """
    witness = system.witness(witness_id)
    witness.faulty = True
    return witness


def double_spend_process(
    deployment: NetworkDeployment,
    client_name: str,
    stored: StoredCoin,
    merchants: tuple[str, str],
    pause: float = 200.0,
) -> Generator[Any, Any, tuple[list[str], DoubleSpendProof | None]]:
    """Spend one coin at two merchants (re-arming the wallet in between).

    Returns ``(outcomes, proof)`` where ``outcomes`` holds one label per
    attempt (``accepted`` / the refusing error type) and ``proof`` is the
    double-spend extraction if any attempt was refused with one. With an
    honest witness the second attempt is refused; with an equivocating
    witness both are accepted — and the deposit protocol must catch it.

    Args:
        pause: simulated seconds slept between the attempts, so the first
            commitment's lifetime expires and the witness accepts a fresh
            commitment request for the coin.
    """
    client = deployment.clients[client_name]
    outcomes: list[str] = []
    proof: DoubleSpendProof | None = None
    for index, merchant_id in enumerate(merchants):
        if index > 0:
            if pause > 0:
                yield Sleep(pause)
            if stored not in client.wallet:
                client.wallet.add(stored)  # the attacker "forgets" it was spent
        try:
            yield from deployment.payment_process(client_name, stored, merchant_id)
            outcomes.append("accepted")
        except DoubleSpendError as refusal:
            outcomes.append("refused-double-spend")
            proof = refusal.proof
        except EcashError as error:
            outcomes.append(f"refused-{type(error).__name__}")
    return outcomes, proof


def double_deposit_process(
    deployment: NetworkDeployment, merchant_id: str, signed: SignedTranscript
) -> Generator[Any, Any, list[str]]:
    """Deposit the same signed transcript twice from one merchant.

    Returns the outcome labels of both attempts; the broker must refuse
    the second (Algorithm 3 case 2-a).
    """
    outcomes: list[str] = []
    for _ in range(2):
        try:
            reply = yield deployment.network.rpc(
                merchant_id,
                BROKER_NODE,
                "deposit",
                {"merchant_id": merchant_id, "signed": signed.to_wire()},
            )
            outcomes.append(str(reply.get("outcome")))
        except EcashError as error:
            outcomes.append(f"refused-{type(error).__name__}")
    return outcomes


def forged_directory(
    params: SystemParams,
    version: int,
    table: WitnessAssignmentTable,
    merchant_keys: dict[str, int],
    rng: random.Random | None = None,
) -> Directory:
    """A directory signed by an adversary's key instead of the broker's.

    Overlay members must reject it regardless of its (tempting) version
    number.
    """
    imposter = SchnorrKeyPair.generate(params.group, rng)
    signature = imposter.sign(
        *directory_signed_parts(version, table, merchant_keys), rng=rng
    )
    return Directory(
        version=version,
        table=table,
        merchant_keys=dict(merchant_keys),
        signature=signature,
    )


def push_directory_process(
    deployment_network: Any, source: str, target: str, directory: Directory
) -> Generator[Any, Any, str]:
    """Push a directory at a peer, as the stale-table broker actor does.

    Returns the version the target reports holding afterwards (as text),
    or the refusing error type. The ``source`` node must be registered on
    the network (the adversary runs a real host).
    """
    from repro.net.overlay import directory_to_payload

    try:
        reply = yield deployment_network.rpc(
            source, target, "overlay/push", directory_to_payload(directory), timeout=5.0
        )
        return str(reply.get("version"))
    except EcashError as error:
        return f"refused-{type(error).__name__}"


__all__ = [
    "double_deposit_process",
    "double_spend_process",
    "equivocating_witness",
    "forged_directory",
    "push_directory_process",
]
