"""The seeded end-to-end chaos suite behind ``python -m repro chaos``.

Each scenario builds a fresh deployment, applies one flavour of chaos —
message faults from a :class:`~repro.faults.plan.FaultPlan`, scripted
Byzantine parties from :mod:`repro.faults.byzantine`, or a broker
crash/restart — drives real protocol traffic through it, and then runs
the :class:`~repro.faults.invariants.InvariantChecker`. The *liveness*
outcome of a run (payments succeeded, recovered, or gave up) is recorded
but never asserted; the *safety* invariants must hold for every seed.

Everything is seeded and the report renderer is fixed-format, so
``run_suite`` with the same seeds produces a byte-identical report — the
property the CI smoke step and the determinism test pin down.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.core.client import StoredCoin
from repro.core.exceptions import (
    DoubleDepositError,
    EcashError,
    ServiceUnavailableError,
)
from repro.core.persistence import (
    attach_broker_store,
    broker_spaces,
    load_broker,
    save_broker,
)
from repro.core.system import EcashSystem
from repro.faults.byzantine import (
    double_deposit_process,
    double_spend_process,
    equivocating_witness,
    forged_directory,
    push_directory_process,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, InvariantResult
from repro.faults.plan import FaultPlan
from repro.net.costmodel import instant_profile
from repro.net.latency import Region
from repro.net.node import Node, metered
from repro.net.overlay import GossipOverlay, publish_directory
from repro.net.services import BROKER_NODE, NetworkDeployment
from repro.net.sim import SimTimeoutError
from repro.store import Store

#: The client node name every scenario uses.
CLIENT = "client-0"


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one seeded scenario run produced."""

    name: str
    seed: int
    outcomes: tuple[str, ...]
    invariants: tuple[InvariantResult, ...]
    fault_counts: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        """True iff every safety invariant held."""
        return all(result.ok for result in self.invariants)

    def render(self) -> str:
        """Fixed-format block for the chaos report."""
        status = "OK" if self.ok else "VIOLATED"
        lines = [f"scenario {self.name} seed={self.seed} {status}"]
        if self.fault_counts:
            lines.append(
                "  faults "
                + " ".join(f"{kind}={count}" for kind, count in self.fault_counts)
            )
        lines.extend(f"  outcome {line}" for line in self.outcomes)
        lines.extend(f"  invariant {result.render()}" for result in self.invariants)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _fresh(seed: int) -> tuple[EcashSystem, NetworkDeployment, InvariantChecker]:
    """A deployment on the fast test group, plus its invariant checker.

    The checker is constructed *before* any chaos so it snapshots the
    pristine security deposits.
    """
    system = EcashSystem(seed=seed)
    deployment = NetworkDeployment(system, cost_model=instant_profile(), seed=seed)
    deployment.add_client(CLIENT)
    return system, deployment, InvariantChecker(system)


def _withdraw(
    system: EcashSystem, deployment: NetworkDeployment, denomination: int = 25
) -> StoredCoin:
    info = system.standard_info(denomination, now=deployment.now())
    return deployment.run(deployment.withdrawal_process(CLIENT, info))


def _other_merchant(system: EcashSystem, stored: StoredCoin, index: int = 0) -> str:
    """A deterministic storefront that is not the coin's own witness."""
    others = [m for m in system.merchant_ids if m != stored.coin.witness_id]
    return others[index % len(others)]


def _pay(
    deployment: NetworkDeployment,
    stored: StoredCoin,
    merchant_id: str,
    **kwargs: Any,
) -> str:
    """Run the hardened payment, mapping the outcome to a report label."""
    try:
        receipt = deployment.run(
            deployment.robust_payment_process(CLIENT, stored, merchant_id, **kwargs)
        )
        return f"paid {receipt.merchant_id} amount={receipt.amount}"
    except (SimTimeoutError, ServiceUnavailableError):
        return "unavailable"
    except EcashError as error:
        return f"refused-{type(error).__name__}"
    except Exception as error:  # noqa: BLE001 - corrupted payloads crash parsers
        return f"error-{type(error).__name__}"


def _settle_one(
    system: EcashSystem, deployment: NetworkDeployment, merchant_id: str
) -> list[str]:
    """Deposit one merchant's pending transcripts; label each outcome."""
    lines: list[str] = []
    try:
        replies = deployment.run(deployment.deposit_process(merchant_id))
        lines.extend(
            f"deposit {merchant_id}: {reply.get('outcome', 'already-credited')}"
            for reply in replies
        )
    except SimTimeoutError:
        lines.append(f"deposit {merchant_id}: timeout")
    except EcashError as error:
        lines.append(f"deposit {merchant_id}: refused-{type(error).__name__}")
    return lines


def _settle(system: EcashSystem, deployment: NetworkDeployment) -> list[str]:
    """Deposit every merchant's pending transcripts; label each outcome."""
    lines: list[str] = []
    for merchant_id in system.merchant_ids:
        if system.merchant(merchant_id).pending_deposits():
            lines.extend(_settle_one(system, deployment, merchant_id))
    return lines


def _finish(
    name: str,
    seed: int,
    outcomes: Sequence[str],
    checker: InvariantChecker,
    injector: FaultInjector | None = None,
    proofs: list[tuple[Any, Any]] | None = None,
) -> ScenarioResult:
    counts: dict[str, int] = {}
    if injector is not None:
        for event in injector.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
    return ScenarioResult(
        name=name,
        seed=seed,
        outcomes=tuple(outcomes),
        invariants=tuple(checker.check_all(proofs)),
        fault_counts=tuple(sorted(counts.items())),
    )


# ----------------------------------------------------------------------
# Message-fault scenarios
# ----------------------------------------------------------------------

def _scenario_drop(seed: int) -> ScenarioResult:
    """Witness traffic randomly dropped; clients fail over by renewing."""
    system, deployment, checker = _fresh(seed)
    coins = [_withdraw(system, deployment) for _ in range(3)]
    plan = FaultPlan(seed=seed).drop(method="witness/*", probability=0.3)
    injector = FaultInjector(plan).install(deployment.network)
    outcomes = [
        f"payment-{index}: {_pay(deployment, stored, _other_merchant(system, stored, index))}"
        for index, stored in enumerate(coins)
    ]
    injector.uninstall()
    outcomes.extend(_settle(system, deployment))
    return _finish("drop-witness-requests", seed, outcomes, checker, injector)


def _scenario_delay(seed: int) -> ScenarioResult:
    """Every message delayed by seconds of jittered extra latency."""
    system, deployment, checker = _fresh(seed)
    coins = [_withdraw(system, deployment) for _ in range(2)]
    plan = FaultPlan(seed=seed).delay(delay=2.0, jitter=1.0, probability=0.5)
    injector = FaultInjector(plan).install(deployment.network)
    outcomes = [
        f"payment-{index}: {_pay(deployment, stored, _other_merchant(system, stored, index))}"
        for index, stored in enumerate(coins)
    ]
    outcomes.extend(_settle(system, deployment))
    injector.uninstall()
    return _finish("delay-storm", seed, outcomes, checker, injector)


def _scenario_reorder(seed: int) -> ScenarioResult:
    """Two deposits race on one link; the first is held and overtaken."""
    system, deployment, checker = _fresh(seed)
    coins = [_withdraw(system, deployment) for _ in range(2)]
    merchant_id = _other_merchant(system, coins[0])
    outcomes = [
        f"payment-{index}: {_pay(deployment, stored, merchant_id)}"
        for index, stored in enumerate(coins)
    ]
    pending = list(system.merchant(merchant_id).pending_deposits())
    plan = FaultPlan(seed=seed).reorder(method="deposit", max_injections=1)
    injector = FaultInjector(plan).install(deployment.network)
    race_lines: list[str] = []
    for index, signed in enumerate(pending):

        def runner(signed=signed, index=index) -> Generator[Any, Any, None]:
            try:
                reply = yield deployment.network.rpc(
                    merchant_id,
                    BROKER_NODE,
                    "deposit",
                    {"merchant_id": merchant_id, "signed": signed.to_wire()},
                )
                race_lines.append(f"deposit-{index}: {reply.get('outcome')}")
            except EcashError as error:
                race_lines.append(f"deposit-{index}: refused-{type(error).__name__}")
            except SimTimeoutError:
                race_lines.append(f"deposit-{index}: timeout")

        deployment.sim.spawn(
            metered(runner(), deployment.network.cost_model, deployment.network.rng)
        )
    deployment.sim.run()
    injector.uninstall()
    outcomes.extend(race_lines)
    return _finish("reorder-deposits", seed, outcomes, checker, injector)


def _scenario_duplicate(seed: int) -> ScenarioResult:
    """Deposit messages replayed on the wire; replays must not re-credit."""
    system, deployment, checker = _fresh(seed)
    coins = [_withdraw(system, deployment) for _ in range(2)]
    outcomes = [
        f"payment-{index}: {_pay(deployment, stored, _other_merchant(system, stored, index))}"
        for index, stored in enumerate(coins)
    ]
    plan = FaultPlan(seed=seed).duplicate(method="deposit")
    injector = FaultInjector(plan).install(deployment.network)
    outcomes.extend(_settle(system, deployment))
    injector.uninstall()
    return _finish("duplicate-deposit-replay", seed, outcomes, checker, injector)


def _scenario_corrupt(seed: int) -> ScenarioResult:
    """One payment message corrupted in flight, then a clean retry."""
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    merchant_id = _other_merchant(system, stored)
    plan = FaultPlan(seed=seed).corrupt(method="pay", max_injections=1)
    injector = FaultInjector(plan).install(deployment.network)
    outcomes = [f"payment-corrupted: {_pay(deployment, stored, merchant_id)}"]
    injector.uninstall()
    # Wait out the first commitment's lifetime, then retry cleanly.
    deployment.sim.schedule(200.0, lambda: None)
    deployment.sim.run()
    if stored in deployment.clients[CLIENT].wallet:
        outcomes.append(f"payment-retry: {_pay(deployment, stored, merchant_id)}")
    outcomes.extend(_settle(system, deployment))
    return _finish("corrupt-payment", seed, outcomes, checker, injector)


# ----------------------------------------------------------------------
# Crash scenarios
# ----------------------------------------------------------------------

def _scenario_witness_crash(seed: int) -> ScenarioResult:
    """The coin's witness crashes and later restarts mid-payment."""
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    plan = FaultPlan(seed=seed).crash(stored.coin.witness_id, at=0.0, duration=40.0)
    injector = FaultInjector(plan).install(deployment.network)
    outcomes = [
        f"payment: {_pay(deployment, stored, _other_merchant(system, stored), max_attempts=4)}"
    ]
    outcomes.extend(_settle(system, deployment))
    injector.uninstall()
    return _finish("witness-crash-restart", seed, outcomes, checker, injector)


def _scenario_unresponsive_witness(seed: int) -> ScenarioResult:
    """The coin's witness goes down for good; renewal routes around it."""
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    plan = FaultPlan(seed=seed).crash(stored.coin.witness_id, at=0.0, duration=None)
    injector = FaultInjector(plan).install(deployment.network)
    outcomes = [
        f"payment: {_pay(deployment, stored, _other_merchant(system, stored), max_attempts=4)}"
    ]
    outcomes.extend(_settle(system, deployment))
    injector.uninstall()
    return _finish("unresponsive-witness", seed, outcomes, checker, injector)


def _scenario_broker_crash(seed: int) -> ScenarioResult:
    """The broker crashes after a deposit and restarts from saved state.

    The deposit database must survive the round-trip: re-depositing the
    already-cleared transcript against the restarted broker is refused.
    """
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    merchant_id = _other_merchant(system, stored)
    outcomes = [f"payment: {_pay(deployment, stored, merchant_id)}"]
    pending = list(system.merchant(merchant_id).pending_deposits())
    outcomes.extend(_settle(system, deployment))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "broker.json"
        save_broker(system.broker, path)
        restarted = load_broker(path, system.params)
    outcomes.append("broker: crash-restart round-trip")
    for signed in pending:
        try:
            restarted.deposit(merchant_id, signed, deployment.now())
            outcomes.append("re-deposit after restart: ACCEPTED")
        except DoubleDepositError:
            outcomes.append("re-deposit after restart: refused-DoubleDepositError")
    conserved = restarted.ledger.conserved()
    outcomes.append(f"restarted ledger conserved: {conserved}")
    return _finish("broker-crash-restart", seed, outcomes, checker)


def _broker_crash_campaign(seed: int, backend: str) -> ScenarioResult:
    """The broker dies mid-deposit-campaign and recovers from its store.

    The broker journals every mutation into a :class:`repro.store.Store`
    (``backend`` selects memory or SQLite shards). Mid-campaign the
    broker node crashes via a :class:`~repro.faults.plan.CrashWindow`
    and the process "dies": the store is closed abruptly, a torn partial
    record is appended to one WAL — and, because the store was compacted
    earlier, the journal is already longer than its snapshot. Recovery
    must truncate the torn tail, replay the journal over the stale
    snapshot, and reproduce the pre-crash state exactly: pending
    deposits settle (nothing lost), cleared transcripts stay refused (no
    double credit), and the ledger audit still conserves money.
    """
    system, deployment, checker = _fresh(seed)
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "broker-state"
        store = Store(state_dir, backend=backend, shards=4)
        attach_broker_store(system.broker, store)
        coins = [_withdraw(system, deployment) for _ in range(4)]
        outcomes = [
            f"payment-{index}: {_pay(deployment, stored, _other_merchant(system, stored, index))}"
            for index, stored in enumerate(coins)
        ]
        pending_by = {
            merchant_id: list(system.merchant(merchant_id).pending_deposits())
            for merchant_id in system.merchant_ids
            if system.merchant(merchant_id).pending_deposits()
        }
        campaign = sorted(pending_by)
        # Settle the first storefront, then compact: everything journaled
        # after this point lives only in the WAL, ahead of the snapshot —
        # which the second storefront's settlement then writes to.
        cleared: list[Any] = []
        if campaign:
            cleared = pending_by[campaign[0]]
            outcomes.extend(_settle_one(system, deployment, campaign[0]))
        store.compact()
        outcomes.append("store: compacted (stale snapshot, journal runs ahead)")
        for merchant_id in campaign[1:2]:
            outcomes.extend(_settle_one(system, deployment, merchant_id))
        # The broker node goes dark mid-campaign; the remaining deposit
        # runs are attempted against the dead node.
        plan = FaultPlan(seed=seed).crash(BROKER_NODE, at=0.0, duration=60.0)
        injector = FaultInjector(plan).install(deployment.network)
        for merchant_id in campaign[2:]:
            outcomes.extend(_settle_one(system, deployment, merchant_id))
        expected = broker_spaces(system.broker)
        # Process death: abrupt close, plus a torn partial record on one
        # shard's WAL, as if the power died mid-write.
        store.close()
        with (state_dir / "shard-00" / "wal.log").open("ab") as handle:
            handle.write(b"\x00\x00\x00\x17to")
        reopened = Store(state_dir, backend=backend, shards=4)
        stats = attach_broker_store(system.broker, reopened)
        outcomes.append(
            "restart: "
            f"snapshot={stats.snapshot_records} "
            f"replayed={stats.replayed_records} "
            f"torn-bytes={stats.truncated_bytes} "
            f"discarded={stats.discarded_records}"
        )
        outcomes.append(
            f"state preserved across crash: {broker_spaces(system.broker) == expected}"
        )
        outcomes.append(f"store digest: {reopened.state_digest()[:16]}")
        # No double credit: transcripts cleared before the crash stay
        # refused by the recovered deposit database.
        for signed in cleared:
            try:
                system.broker.deposit(campaign[0], signed, deployment.now())
                outcomes.append("re-deposit after restart: ACCEPTED")
            except DoubleDepositError:
                outcomes.append("re-deposit after restart: refused-DoubleDepositError")
        # Nothing lost: once the node is back up, the interrupted
        # campaign finishes against the recovered broker.
        deployment.sim.schedule(90.0, lambda: None)
        deployment.sim.run()
        outcomes.extend(_settle(system, deployment))
        injector.uninstall()
        outcomes.append(f"ledger conserved: {system.broker.ledger.conserved()}")
        reopened.close()
    return _finish(
        f"broker-crash-campaign-{backend}", seed, outcomes, checker, injector
    )


def _scenario_crash_campaign_memory(seed: int) -> ScenarioResult:
    """Broker crash mid-deposit-campaign, memory-backed store."""
    return _broker_crash_campaign(seed, "memory")


def _scenario_crash_campaign_sqlite(seed: int) -> ScenarioResult:
    """Broker crash mid-deposit-campaign, SQLite-backed store."""
    return _broker_crash_campaign(seed, "sqlite")


# ----------------------------------------------------------------------
# Byzantine scenarios
# ----------------------------------------------------------------------

def _scenario_byzantine_witness(seed: int) -> ScenarioResult:
    """An equivocating witness signs two transcripts for one coin.

    Both payments go through in real time — the witness is the detection
    point and it is lying — so the fraud must be caught at deposit time
    (Algorithm 3 case 2-b): the second depositing merchant is paid out of
    the witness's security deposit and the fault is logged with the two
    conflicting transcripts as evidence.
    """
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    equivocating_witness(system, stored.coin.witness_id)
    others = [m for m in system.merchant_ids if m != stored.coin.witness_id]
    attempts, proof = deployment.run(
        double_spend_process(deployment, CLIENT, stored, (others[0], others[1]))
    )
    outcomes = [f"spend-{index}: {label}" for index, label in enumerate(attempts)]
    if proof is not None:
        outcomes.append("unexpected real-time refusal despite faulty witness")
    outcomes.extend(_settle(system, deployment))
    outcomes.append(f"witness-faults-logged: {len(system.broker.witness_fault_log)}")
    return _finish("byzantine-witness-slash", seed, outcomes, checker)


def _scenario_double_spend(seed: int) -> ScenarioResult:
    """A client replays a spent coin; the honest witness refuses with proof."""
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    others = [m for m in system.merchant_ids if m != stored.coin.witness_id]
    attempts, proof = deployment.run(
        double_spend_process(deployment, CLIENT, stored, (others[0], others[1]))
    )
    outcomes = [f"spend-{index}: {label}" for index, label in enumerate(attempts)]
    proofs = [(proof, stored.coin)] if proof is not None else []
    outcomes.append(f"extraction-proof: {'present' if proof is not None else 'MISSING'}")
    outcomes.extend(_settle(system, deployment))
    return _finish("double-spend-extraction", seed, outcomes, checker, proofs=proofs)


def _scenario_double_deposit(seed: int) -> ScenarioResult:
    """A merchant submits the same cleared transcript twice."""
    system, deployment, checker = _fresh(seed)
    stored = _withdraw(system, deployment)
    merchant_id = _other_merchant(system, stored)
    outcomes = [f"payment: {_pay(deployment, stored, merchant_id)}"]
    signed = system.merchant(merchant_id).pending_deposits()[0]
    attempts = deployment.run(
        double_deposit_process(deployment, merchant_id, signed)
    )
    system.merchant(merchant_id).mark_deposited(signed)
    outcomes.extend(f"deposit-{index}: {label}" for index, label in enumerate(attempts))
    return _finish("double-deposit-merchant", seed, outcomes, checker)


def _scenario_stale_broker(seed: int) -> ScenarioResult:
    """An adversary pushes stale and forged directories into the overlay."""
    system, deployment, checker = _fresh(seed)
    members = list(system.merchant_ids)
    overlay = GossipOverlay(
        system.params,
        deployment.network,
        system.broker.sign_public,
        members,
        seed=seed,
    )
    rng = random.Random(f"chaos-stale:{seed}")
    keys = {mid: system.merchant(mid).public_key for mid in members}
    table = system.broker.current_table
    stale = publish_directory(
        system.params, system.broker._sign_key, 1, table, keys, rng
    )
    current = publish_directory(
        system.params, system.broker._sign_key, 2, table, keys, rng
    )
    overlay.seed(current, members)
    deployment.network.register(Node("mallory", Region.MASSACHUSETTS))
    target = members[0]
    deployment.run(
        push_directory_process(deployment.network, "mallory", target, stale)
    )
    outcomes = [f"stale push: target still at v{overlay.version_of(target)}"]
    forged = forged_directory(system.params, 9, table, keys, rng)
    deployment.run(
        push_directory_process(deployment.network, "mallory", target, forged)
    )
    outcomes.append(f"forged push: target still at v{overlay.version_of(target)}")
    outcomes.append(f"forged rejections: {overlay.states[target].rejected}")
    return _finish("stale-table-broker", seed, outcomes, checker)


#: The scenario registry, in report order.
SCENARIOS: dict[str, Callable[[int], ScenarioResult]] = {
    "drop-witness-requests": _scenario_drop,
    "delay-storm": _scenario_delay,
    "reorder-deposits": _scenario_reorder,
    "duplicate-deposit-replay": _scenario_duplicate,
    "corrupt-payment": _scenario_corrupt,
    "witness-crash-restart": _scenario_witness_crash,
    "unresponsive-witness": _scenario_unresponsive_witness,
    "byzantine-witness-slash": _scenario_byzantine_witness,
    "double-spend-extraction": _scenario_double_spend,
    "double-deposit-merchant": _scenario_double_deposit,
    "stale-table-broker": _scenario_stale_broker,
    "broker-crash-restart": _scenario_broker_crash,
    "broker-crash-campaign-memory": _scenario_crash_campaign_memory,
    "broker-crash-campaign-sqlite": _scenario_crash_campaign_sqlite,
}


def run_scenario(name: str, seed: int) -> ScenarioResult:
    """Run one named scenario under one seed.

    Raises:
        KeyError: unknown scenario name.
    """
    return SCENARIOS[name](seed)


def run_suite(
    names: Iterable[str] | None = None, seeds: Iterable[int] = range(20)
) -> list[ScenarioResult]:
    """Run scenarios × seeds (all scenarios by default), in report order."""
    chosen = list(names) if names is not None else list(SCENARIOS)
    return [run_scenario(name, seed) for name in chosen for seed in seeds]


def render_report(results: Sequence[ScenarioResult]) -> str:
    """The full chaos report: fixed format, no clocks, byte-stable."""
    violations = sum(1 for result in results if not result.ok)
    lines = [
        "chaos report",
        f"runs={len(results)} violations={violations}",
        "",
    ]
    for result in results:
        lines.append(result.render())
        lines.append("")
    lines.append(
        "ALL INVARIANTS HELD" if violations == 0 else f"INVARIANT VIOLATIONS: {violations}"
    )
    return "\n".join(lines) + "\n"


__all__ = [
    "CLIENT",
    "SCENARIOS",
    "ScenarioResult",
    "render_report",
    "run_scenario",
    "run_suite",
]
