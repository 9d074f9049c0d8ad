"""Settlement and wallet bookkeeping cost O(1) per operation.

Deterministic, not timed: each test counts the ``__eq__`` calls the
bookkeeping makes and checks the count is the same with a short history
as with 1,000 transcripts or coins behind it.
"""

import dataclasses
import json

import pytest

from repro.core.client import StoredCoin, Wallet
from repro.core.protocols import run_payment
from repro.core.transcripts import SignedTranscript
from repro.crypto.representation import Representation, RepresentationPair
from tests.conftest import other_merchant

HISTORY = 1000


@pytest.fixture()
def paid(system, funded_client):
    """One real payment: the client, its coin, the merchant and the transcript."""
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    return client, stored, merchant, merchant.accepted[0]


@pytest.fixture()
def eq_calls(monkeypatch):
    """Count ``SignedTranscript.__eq__`` and ``StoredCoin.__eq__`` calls."""
    calls = {"n": 0}
    for cls in (SignedTranscript, StoredCoin):
        original = cls.__eq__

        def counting(self, other, _original=original):
            calls["n"] += 1
            return _original(self, other)

        monkeypatch.setattr(cls, "__eq__", counting)
    return calls


def _transcripts(signed, count):
    """``count`` distinct transcripts cloned from one (salt differs)."""
    return [
        dataclasses.replace(
            signed, transcript=dataclasses.replace(signed.transcript, salt=salt)
        )
        for salt in range(count)
    ]


def _coins(stored, count):
    """``count`` distinct wallet coins cloned from one (secrets differ)."""
    return [
        dataclasses.replace(
            stored,
            secrets=RepresentationPair(
                x=Representation(index, index), y=stored.secrets.y
            ),
        )
        for index in range(count)
    ]


def _settle_cost(merchant, signed, history, monkeypatch, eq_calls):
    """``__eq__`` calls for one pending scan plus one deposit, ``history`` deep."""
    monkeypatch.setattr(SignedTranscript, "verify_witness_signature", lambda *a, **k: True)
    merchant = dataclasses.replace(
        merchant, accepted=[], deposited=[], _seen_bare_coins=set()
    )
    items = _transcripts(signed, history + 2)
    for item in items:
        merchant.accept_signed_transcript(item, now=10)
    for item in items[:history]:
        merchant.mark_deposited(item)
    eq_calls["n"] = 0
    pending = merchant.pending_deposits()
    merchant.mark_deposited(pending[0])
    calls = eq_calls["n"]
    assert merchant.pending_deposits() == [items[-1]]
    return calls


def test_settlement_cost_does_not_grow_with_history(paid, monkeypatch, eq_calls):
    _, _, merchant, signed = paid
    short = _settle_cost(merchant, signed, 10, monkeypatch, eq_calls)
    long = _settle_cost(merchant, signed, HISTORY, monkeypatch, eq_calls)
    assert long == short <= 2


def _spend_cost(client, stored, history, eq_calls):
    """``__eq__`` calls for ``mark_spent`` of the newest of ``history`` coins."""
    client.wallet = Wallet(coins=_coins(stored, history))
    newest = client.wallet.coins[-1]
    eq_calls["n"] = 0
    client.mark_spent(newest)
    calls = eq_calls["n"]
    assert newest not in client.wallet and len(client.wallet) == history - 1
    return calls


def test_mark_spent_cost_does_not_grow_with_wallet_size(paid, eq_calls):
    client, stored, _, _ = paid
    short = _spend_cost(client, stored, 10, eq_calls)
    long = _spend_cost(client, stored, HISTORY, eq_calls)
    assert long == short <= 2


def test_pending_keeps_accept_order_after_partial_deposits(paid, monkeypatch):
    _, _, merchant, signed = paid
    monkeypatch.setattr(SignedTranscript, "verify_witness_signature", lambda *a, **k: True)
    items = _transcripts(signed, 10)
    for item in items:
        merchant.accept_signed_transcript(item, now=10)
    for index in (7, 0, 3):
        merchant.mark_deposited(items[index])
    expected = [signed] + [item for i, item in enumerate(items) if i not in (0, 3, 7)]
    assert merchant.pending_deposits() == expected
    # The audit record keeps its meaning: every accept and every deposit.
    assert merchant.accepted == [signed, *items]
    assert merchant.deposited == [items[7], items[0], items[3]]


def test_wallet_remove_of_unheld_coin_raises(funded_client):
    client, stored = funded_client
    client.wallet.remove(stored)
    with pytest.raises(ValueError):
        client.wallet.remove(stored)
    client.mark_spent(stored)  # spending an unheld coin is a no-op
    assert len(client.wallet) == 0


def test_wallet_duplicate_add_holds_the_coin_once(funded_client):
    client, stored = funded_client
    client.wallet.add(stored)
    assert client.wallet.coins == [stored]
    assert len(client.wallet) == 1
    assert client.wallet.total_value() == stored.denomination
    client.wallet.remove(stored)
    assert stored not in client.wallet


def test_wallet_keeps_order_and_file_bytes(funded_client, tmp_path):
    client, stored = funded_client
    coins = _coins(stored, 5)
    wallet = Wallet(coins=coins)
    wallet.remove(coins[2])
    wallet.add(coins[2])
    order = [coins[0], coins[1], coins[3], coins[4], coins[2]]
    assert wallet.coins == order
    path = tmp_path / "wallet.json"
    wallet.save(path)
    expected = json.dumps({"version": 1, "coins": [c.to_json() for c in order]}, indent=2)
    assert path.read_bytes() == expected.encode("ascii")
    assert Wallet.load(path) == wallet
