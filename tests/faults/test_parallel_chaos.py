"""Chaos scenarios under the parallel engine: same verdicts, green runs.

The fault scenarios must not care whether bulk verification fans out to
worker processes: chunk partitioning and batch seeds are independent of
worker count, deposits settle sequentially in input order, and the
deposit stream flushes on the simulator clock (never a wall-time timer a
process pool could race). These tests force the shared pool on — even on
a single-core host — and require byte-identical scenario reports.
"""

from __future__ import annotations

import pytest

from repro.faults.scenarios import run_scenario
from repro.perf import parallel

#: Scenarios touching the deposit/verification bulk paths the pool serves.
SCENARIOS = [
    "reorder-deposits",
    "duplicate-deposit-replay",
    "double-deposit-merchant",
    "byzantine-witness-slash",
]


@pytest.fixture()
def forced_shared_pool(monkeypatch):
    """Make ``perf.shared_pool()`` active regardless of the host's cores."""
    monkeypatch.setenv("REPRO_WORKERS", "2")
    parallel.set_parallel_enabled(True)
    parallel.shutdown_shared_pool()
    yield
    parallel.shutdown_shared_pool()


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_is_green_and_identical_with_parallel_engine(
    name, forced_shared_pool
):
    with parallel.parallel_disabled():
        serial = run_scenario(name, seed=11)
    assert serial.ok, serial.render()
    assert parallel.shared_pool() is not None  # the engine really is on
    pooled = run_scenario(name, seed=11)
    assert pooled.ok, pooled.render()
    assert pooled.render() == serial.render()


def test_streamed_deposits_flush_on_simulated_clock(forced_shared_pool, params):
    """A stream + pool run settles everything without touching wall time."""
    from repro.core.system import EcashSystem
    from repro.net.costmodel import instant_profile
    from repro.net.services import NetworkDeployment

    system = EcashSystem(params=params, seed=77)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=77)
    dep.add_client("client-0")
    merchant_id = system.merchant_ids[0]
    dep.start_deposit_stream(merchant_id, max_batch=2, max_age=3.0)
    streamed = 0
    while streamed < 3:
        info = system.standard_info(25, now=dep.now())
        stored = dep.run(dep.withdrawal_process("client-0", info))
        if stored.coin.witness_id == merchant_id:
            dep.clients["client-0"].wallet.remove(stored)
            continue
        dep.run(dep.payment_process("client-0", stored, merchant_id))
        signed = system.merchant(merchant_id).pending_deposits()[-1]
        dep.stream_deposit(merchant_id, signed)
        streamed += 1
    dep.sim.run()  # size watermark flushed 2, age watermark the last one
    results = dep.deposit_stream_results[merchant_id]
    assert [r["outcome"] for r in results] == ["credited"] * 3
    assert system.broker.merchant_balance(merchant_id) == 75
    assert system.ledger.conserved()
