"""The pipelined deposit stream: size/age watermarks over simulated time."""

import pytest

from repro.core.system import EcashSystem
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment
from repro.perf.pipeline import PipelineFullError


@pytest.fixture()
def deployment(params):
    system = EcashSystem(params=params, seed=23)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=23)
    dep.add_client("client-0")
    return system, dep


def _accepted_transcripts(system, dep, merchant_id, count):
    signed = []
    client = dep.clients["client-0"]
    while len(signed) < count:
        info = system.standard_info(25, now=dep.now())
        stored = dep.run(dep.withdrawal_process("client-0", info))
        if stored.coin.witness_id == merchant_id:
            # Spend it elsewhere; we only stream deposits for merchant_id.
            client.wallet.remove(stored)
            continue
        dep.run(dep.payment_process("client-0", stored, merchant_id))
        signed = system.merchant(merchant_id).pending_deposits()
    return signed


def test_size_watermark_flushes_full_batches(deployment):
    system, dep = deployment
    merchant_id = system.merchant_ids[0]
    signed = _accepted_transcripts(system, dep, merchant_id, 3)
    dep.start_deposit_stream(merchant_id, max_batch=3, max_age=50.0)
    for item in signed:
        dep.stream_deposit(merchant_id, item)
    dep.sim.run()
    results = dep.deposit_stream_results[merchant_id]
    assert [r["outcome"] for r in results] == ["credited"] * 3
    assert system.broker.merchant_balance(merchant_id) == 75
    assert not system.merchant(merchant_id).pending_deposits()
    assert len(dep.deposit_streams[merchant_id]) == 0


def test_age_watermark_flushes_partial_batch(deployment):
    system, dep = deployment
    merchant_id = system.merchant_ids[0]
    signed = _accepted_transcripts(system, dep, merchant_id, 2)
    dep.start_deposit_stream(merchant_id, max_batch=10, max_age=2.0)
    for item in signed:
        dep.stream_deposit(merchant_id, item)
    before = dep.sim.now
    dep.sim.run()
    # Nothing reached the size watermark; the age timer (simulated clock,
    # never wall time) flushed the partial batch.
    assert dep.sim.now >= before + 2.0
    results = dep.deposit_stream_results[merchant_id]
    assert [r["outcome"] for r in results] == ["credited"] * 2
    assert system.broker.merchant_balance(merchant_id) == 50


def test_explicit_flush_drains_everything(deployment):
    system, dep = deployment
    merchant_id = system.merchant_ids[0]
    signed = _accepted_transcripts(system, dep, merchant_id, 2)
    dep.start_deposit_stream(merchant_id, max_batch=10, max_age=None)
    for item in signed:
        dep.stream_deposit(merchant_id, item)
    results = dep.run(dep.flush_deposit_stream(merchant_id))
    assert [r["outcome"] for r in results] == ["credited"] * 2
    assert not system.merchant(merchant_id).pending_deposits()


def test_stream_capacity_is_bounded(deployment):
    system, dep = deployment
    merchant_id = system.merchant_ids[0]
    signed = _accepted_transcripts(system, dep, merchant_id, 3)
    dep.start_deposit_stream(merchant_id, max_batch=2, max_age=None, capacity=2)
    dep.stream_deposit(merchant_id, signed[0])
    dep.stream_deposit(merchant_id, signed[1])  # spawns a flush, not yet run
    with pytest.raises(PipelineFullError):
        dep.stream_deposit(merchant_id, signed[2])


def test_start_is_idempotent_per_merchant(deployment):
    system, dep = deployment
    merchant_id = system.merchant_ids[0]
    first = dep.start_deposit_stream(merchant_id, max_batch=4)
    again = dep.start_deposit_stream(merchant_id, max_batch=9)
    assert first is again
    assert first.max_batch == 4
