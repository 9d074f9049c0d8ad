"""Settling after a lost or duplicated deposit reply is idempotent.

The broker may already have credited a transcript whose reply the
storefront never saw. Its next settle then meets ``DoubleDepositError``
for that transcript; the transcript must count as deposited and the ones
behind it must still be cashed, on every deposit path.
"""

import pytest

from repro.core.exceptions import DoubleDepositError, EcashError
from repro.core.system import EcashSystem
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment
from repro.net.transport import Message

COINS = 3


@pytest.fixture()
def credited_first(params):
    """Three coins paid at one storefront; the broker already cashed the first."""
    system = EcashSystem(params=params, seed=31)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=31)
    dep.add_client("client-0")
    merchant_id = system.merchant_ids[0]
    client = dep.clients["client-0"]
    while len(system.merchant(merchant_id).pending_deposits()) < COINS:
        stored = dep.run(
            dep.withdrawal_process("client-0", system.standard_info(25, now=dep.now()))
        )
        if stored.coin.witness_id == merchant_id:
            client.wallet.remove(stored)
            continue
        dep.run(dep.payment_process("client-0", stored, merchant_id))
    first = system.merchant(merchant_id).pending_deposits()[0]
    system.broker.deposit(merchant_id, first, dep.now())  # the reply is "lost"
    return system, dep, merchant_id


def _assert_settled_once(system, merchant_id, results):
    assert results[0]["kind"] == "DoubleDepositError"
    assert [r["outcome"] for r in results[1:]] == ["credited"] * (COINS - 1)
    assert not system.merchant(merchant_id).pending_deposits()
    assert len(system.merchant(merchant_id).deposited) == COINS
    assert system.broker.merchant_balance(merchant_id) == 25 * COINS


def test_per_transcript_settle_continues_past_an_earlier_credit(credited_first):
    system, dep, merchant_id = credited_first
    results = dep.run(dep.deposit_process(merchant_id))
    _assert_settled_once(system, merchant_id, results)
    assert dep.run(dep.deposit_process(merchant_id)) == []


def test_batch_settle_marks_an_earlier_credit_deposited(credited_first):
    system, dep, merchant_id = credited_first
    results = dep.run(dep.batch_deposit_process(merchant_id))
    _assert_settled_once(system, merchant_id, results)


def test_stream_flush_marks_an_earlier_credit_deposited(credited_first):
    system, dep, merchant_id = credited_first
    dep.start_deposit_stream(merchant_id, max_batch=16, max_age=None)
    for signed in system.merchant(merchant_id).pending_deposits():
        dep.stream_deposit(merchant_id, signed)
    results = dep.run(dep.flush_deposit_stream(merchant_id))
    _assert_settled_once(system, merchant_id, results)


def test_other_refusals_still_stop_settling(credited_first):
    """Only the already-credited refusal is absorbed: a deposit the broker
    refuses for any other reason raises and leaves everything pending."""
    system, dep, merchant_id = credited_first
    other = system.merchant_ids[1]

    def relabel(source, destination, message):
        if message.method == "deposit":
            payload = dict(message.payload)
            payload["merchant_id"] = other
            return Message(method="deposit", payload=payload)
        return message

    dep.network.tamper_hook = relabel
    with pytest.raises(EcashError) as refusal:
        dep.run(dep.deposit_process(merchant_id))
    assert not isinstance(refusal.value, DoubleDepositError)
    assert len(system.merchant(merchant_id).pending_deposits()) == COINS
    assert system.broker.merchant_balance(merchant_id) == 25
