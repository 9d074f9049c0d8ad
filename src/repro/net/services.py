"""The e-cash system deployed over the simulated network.

:class:`NetworkDeployment` places the parties of a
:class:`~repro.core.system.EcashSystem` on simulated hosts — the broker on
one node, every merchant's storefront *and* witness service co-located on
its own node (as in the paper's implementation), clients wherever the
experiment wants them — and exposes the four protocols as generator
processes whose local cryptography is charged to simulated time by the
compute cost model and whose messages are real URI-encoded payloads
crossing the latency model.

The Table 2 benchmark drives :meth:`NetworkDeployment.payment_process`;
the Figure 1 benchmark replays the full lifecycle and checks the message
trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro import obs
from repro.faults.recovery import BackoffPolicy, CircuitBreaker
from repro.core.client import Client, StoredCoin
from repro.core.exceptions import DoubleDepositError, ServiceUnavailableError
from repro.core.info import CoinInfo
from repro.core.merchant import Merchant
from repro.core.system import EcashSystem
from repro.core.transcripts import SignedTranscript
from repro.crypto.blind import SignerChallenge, SignerResponse
from repro.crypto.serialize import flatten, pack_batch
from repro.perf.pipeline import DepositPipeline
from repro.net import registry
from repro.net.costmodel import ComputeCostModel, python2006_profile
from repro.net.latency import LatencyModel, Region, planetlab_us
from repro.net.node import Network, Node, metered
from repro.net.registry import as_int as _as_int
from repro.net.sim import Simulator

BROKER_NODE = "broker"


@dataclass(frozen=True)
class PaymentReceipt:
    """What a client gets back from a successful networked payment."""

    merchant_id: str
    amount: int
    elapsed: float
    client_bytes_sent: int


class NetworkDeployment:
    """A core :class:`EcashSystem` running on simulated hosts.

    Args:
        system: the wired parties.
        sim: event loop (fresh one created if omitted).
        latency: WAN model (paper's PlanetLab geography by default).
        cost_model: compute profile (paper's 2006 Python stack by default).
        merchant_regions: region per merchant node (defaults follow the
            paper: first merchant in California — the witness — the rest
            in Massachusetts).
        seed: seed for compute-noise sampling.
    """

    def __init__(
        self,
        system: EcashSystem,
        sim: Simulator | None = None,
        latency: LatencyModel | None = None,
        cost_model: ComputeCostModel | None = None,
        merchant_regions: dict[str, Region] | None = None,
        broker_region: Region = Region.WISCONSIN,
        seed: int = 0,
        server_concurrency: int | None = None,
    ) -> None:
        self.system = system
        self.sim = sim if sim is not None else Simulator()
        self.network = Network(
            self.sim,
            latency if latency is not None else planetlab_us(seed=seed),
            cost_model if cost_model is not None else python2006_profile(),
            seed=seed,
        )
        regions = merchant_regions or {}
        default_regions = [Region.CALIFORNIA, Region.MASSACHUSETTS, Region.MASSACHUSETTS]
        self.broker_node = self.network.register(
            Node(BROKER_NODE, broker_region, concurrency=server_concurrency)
        )
        self._register_broker_handlers()
        for index, merchant_id in enumerate(system.merchant_ids):
            region = regions.get(
                merchant_id, default_regions[min(index, len(default_regions) - 1)]
            )
            node = self.network.register(
                Node(merchant_id, region, concurrency=server_concurrency)
            )
            self._register_merchant_handlers(node, merchant_id)
        self.clients: dict[str, Client] = {}
        #: Default retry spacing for :meth:`robust_payment_process`.
        self.backoff_policy = BackoffPolicy()
        #: One circuit breaker per witness, shared by every client of this
        #: deployment (a witness that times out for one client is likely
        #: down for all of them).
        self.witness_breakers: dict[str, CircuitBreaker] = {}
        self._recovery_rng = random.Random(f"recovery:{seed}")
        #: One bounded deposit queue per streaming merchant; flushes are
        #: driven entirely by the simulator clock (see
        #: :meth:`start_deposit_stream`).
        self.deposit_streams: dict[str, DepositPipeline[SignedTranscript]] = {}
        #: Per-merchant flush outcomes, appended by every stream flush.
        self.deposit_stream_results: dict[str, list[dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_client(self, name: str, region: Region = Region.WISCONSIN) -> Client:
        """Place a new client on the network."""
        self.network.register(Node(name, region))
        client = self.system.new_client()
        self.clients[name] = client
        return client

    def now(self) -> int:
        """The protocol clock: whole simulated seconds."""
        return int(self.sim.now)

    def _traced(
        self, name: str, process: Generator[Any, Any, Any], **attributes: object
    ) -> Generator[Any, Any, Any]:
        """Run a protocol process inside a span on the *simulator* clock.

        The span opens when the process first executes and closes when it
        returns (or raises), so its duration is the protocol's simulated
        wall time, not host time.
        """
        with obs.span(name, clock=lambda: self.sim.now, **attributes):
            result = yield from process
        return result

    # ------------------------------------------------------------------
    # Client-side protocol processes
    # ------------------------------------------------------------------
    def withdrawal_process(
        self, client_name: str, info: CoinInfo
    ) -> Generator[Any, Any, StoredCoin]:
        """Algorithm 1 over the network (two rounds to the broker)."""
        return self._traced("net.withdrawal", self._withdrawal_steps(client_name, info))

    def _withdrawal_steps(
        self, client_name: str, info: CoinInfo
    ) -> Generator[Any, Any, StoredCoin]:
        flow = registry.withdrawal_flow(
            self.clients[client_name], BROKER_NODE, self.system.broker.tables, info
        )
        stored = yield from self._drive(client_name, flow)
        return stored

    def run_flow(self, source: str, flow: registry.Flow) -> Generator[Any, Any, Any]:
        """Drive a shared protocol flow as a sim process.

        This is the sim's :class:`repro.net.registry.Transport`
        implementation: the returned generator performs each yielded
        :class:`~repro.net.registry.RemoteCall` as a simulated RPC and is
        run (or composed into a larger process) via :meth:`run`.
        """
        return self._drive(source, flow)

    def _drive(self, source: str, flow: registry.Flow) -> Generator[Any, Any, Any]:
        """Translate a flow's RemoteCall yields into simulated RPCs.

        Reply payloads are sent back into the flow; RPC failures (time-
        outs, offline nodes, remote errors) are thrown into it, so a flow
        can react — or, as all current flows do, let them propagate.
        """
        reply: Any = None
        failure: BaseException | None = None
        while True:
            try:
                if failure is not None:
                    error, failure = failure, None
                    call = flow.throw(error)
                else:
                    call = flow.send(reply)
            except StopIteration as stop:
                return stop.value
            try:
                if call.timeout is None:
                    reply = yield self.network.rpc(
                        source, call.destination, call.method, call.payload
                    )
                else:
                    reply = yield self.network.rpc(
                        source,
                        call.destination,
                        call.method,
                        call.payload,
                        timeout=call.timeout,
                    )
            except Exception as error:
                failure = error
                reply = None

    def batch_withdrawal_process(
        self, client_name: str, infos: list[CoinInfo]
    ) -> Generator[Any, Any, list[StoredCoin]]:
        """Batched Algorithm 1: several coins, still two rounds total.

        The communication saving the paper's step 0 promises — compare
        against running :meth:`withdrawal_process` once per coin.
        """
        return self._traced(
            "net.batch_withdrawal",
            self._batch_withdrawal_steps(client_name, infos),
            coins=len(infos),
        )

    def _batch_withdrawal_steps(
        self, client_name: str, infos: list[CoinInfo]
    ) -> Generator[Any, Any, list[StoredCoin]]:
        client = self.clients[client_name]
        opened = flatten(
            (yield self.network.rpc(
                client_name,
                BROKER_NODE,
                "withdraw/batch-begin",
                {"batch": pack_batch("i", [info.to_wire() for info in infos])},
            ))
        )
        ticket = _as_int(opened["ticket"])
        sessions = []
        for index, info in enumerate(infos):
            challenge = SignerChallenge(
                a=_as_int(opened[f"c{index}.a"]), b=_as_int(opened[f"c{index}.bare"])
            )
            sessions.append(client.begin_withdrawal(info, challenge))
        answered = flatten(
            (yield self.network.rpc(
                client_name,
                BROKER_NODE,
                "withdraw/batch-complete",
                {
                    "ticket": ticket,
                    "es": {f"e{k}": session.e for k, session in enumerate(sessions)},
                },
            ))
        )
        coins = []
        for index, (info, session) in enumerate(zip(infos, sessions)):
            response = SignerResponse(
                r=_as_int(answered[f"r{index}.rho"]),
                c=_as_int(answered[f"r{index}.commitment"]),
                s=_as_int(answered[f"r{index}.sig_s"]),
            )
            table = self.system.broker.tables[info.list_version]
            coins.append(client.finish_withdrawal(session, response, table))
        return coins

    def payment_process(
        self,
        client_name: str,
        stored: StoredCoin,
        merchant_id: str,
    ) -> Generator[Any, Any, PaymentReceipt]:
        """Algorithm 2 over the network — the Table 2 measured flow.

        Rounds: client<->witness (commitment), client->merchant (payment),
        merchant<->witness (transcript signing), merchant->client
        (service) — "3 rounds of message exchange (2 for payment, and 1
        for commitment)".

        Raises:
            DoubleSpendError: refused with a verified extraction proof.
            EcashError subclasses: per failed check, raised remotely.
        """
        return self._traced(
            "net.payment",
            self._payment_steps(client_name, stored, merchant_id),
            merchant=merchant_id,
        )

    def _payment_steps(
        self,
        client_name: str,
        stored: StoredCoin,
        merchant_id: str,
    ) -> Generator[Any, Any, PaymentReceipt]:
        client_node = self.network.node(client_name)
        start_time = self.sim.now
        start_bytes = client_node.meter.sent_bytes
        witness_public = self.system.merchant(merchant_id).witness_keys[
            stored.coin.witness_id
        ]
        flow = registry.payment_flow(
            self.clients[client_name], stored, merchant_id, witness_public, self.now
        )
        amount = yield from self._drive(client_name, flow)
        return PaymentReceipt(
            merchant_id=merchant_id,
            amount=amount,
            elapsed=self.sim.now - start_time,
            client_bytes_sent=client_node.meter.sent_bytes - start_bytes,
        )

    def deposit_process(self, merchant_id: str) -> Generator[Any, Any, list[dict[str, Any]]]:
        """Algorithm 3 over the network (one message per transcript)."""
        return self._traced(
            "net.deposit", self._deposit_steps(merchant_id), merchant=merchant_id
        )

    def _deposit_steps(self, merchant_id: str) -> Generator[Any, Any, list[dict[str, Any]]]:
        flow = registry.deposit_flow(
            self.system.merchant(merchant_id), merchant_id, BROKER_NODE
        )
        results = yield from self._drive(merchant_id, flow)
        return results

    def batch_deposit_process(
        self, merchant_id: str
    ) -> Generator[Any, Any, list[dict[str, Any]]]:
        """Algorithm 3 over the network, batched: one RPC for all pending.

        All of the merchant's pending transcripts travel in a single
        ``deposit/batch`` message and the broker clears them through
        :meth:`repro.core.broker.Broker.deposit_batch` (one combined
        representation check instead of one per transcript). Transcripts
        the broker rejected stay pending; accepted ones — and, as in
        :func:`repro.net.registry.deposit_flow`, ones it refused with
        ``DoubleDepositError`` because it already credited them — are
        marked deposited.
        """
        return self._traced(
            "net.batch_deposit",
            self._batch_deposit_steps(merchant_id),
            merchant=merchant_id,
        )

    def _batch_deposit_steps(
        self, merchant_id: str
    ) -> Generator[Any, Any, list[dict[str, Any]]]:
        merchant = self.system.merchant(merchant_id)
        pending = list(merchant.pending_deposits())
        if not pending:
            return []
        reply = flatten(
            (yield self.network.rpc(
                merchant_id,
                BROKER_NODE,
                "deposit/batch",
                {
                    "merchant_id": merchant_id,
                    "batch": pack_batch("t", [signed.to_wire() for signed in pending]),
                },
            ))
        )
        return _settle_batch_reply(merchant, pending, reply)

    # ------------------------------------------------------------------
    # Pipelined deposit streaming
    # ------------------------------------------------------------------
    def start_deposit_stream(
        self,
        merchant_id: str,
        max_batch: int = 16,
        max_age: float | None = 5.0,
        capacity: int = 256,
    ) -> DepositPipeline[SignedTranscript]:
        """Open (or return) the merchant's streaming deposit queue.

        Accepted transcripts offered via :meth:`stream_deposit` accumulate
        here and flush into ``deposit/batch`` RPCs when the queue reaches
        ``max_batch`` items or its oldest item has waited ``max_age``
        simulated seconds. Both watermarks are evaluated on the simulator
        clock — there is no wall-time timer to race the fault injector.
        """
        pipeline = self.deposit_streams.get(merchant_id)
        if pipeline is None:
            pipeline = DepositPipeline(
                max_batch=max_batch,
                max_age=max_age,
                capacity=capacity,
                name=f"deposit:{merchant_id}",
            )
            self.deposit_streams[merchant_id] = pipeline
            self.deposit_stream_results.setdefault(merchant_id, [])
        return pipeline

    def stream_deposit(self, merchant_id: str, signed: SignedTranscript) -> None:
        """Offer one accepted transcript to the merchant's deposit stream.

        Flushes immediately when the size watermark trips; otherwise
        schedules a flush check at the moment the item's age watermark
        would trip (a simulator event, so scenarios stay deterministic).

        Raises:
            KeyError: no stream opened for this merchant.
            repro.perf.pipeline.PipelineFullError: the queue is at
                capacity — the caller must let a flush drain it first.
        """
        pipeline = self.deposit_streams[merchant_id]
        pipeline.offer(signed, self.sim.now)
        if pipeline.ready(self.sim.now):
            self.sim.spawn(self._stream_flush_process(merchant_id))
            return
        deadline = pipeline.next_deadline()
        if deadline is not None:
            self.sim.schedule(
                max(deadline - self.sim.now, 0.0), self._flush_if_due, merchant_id
            )

    def flush_deposit_stream(
        self, merchant_id: str
    ) -> Generator[Any, Any, list[dict[str, Any]]]:
        """Force-drain the merchant's stream (end-of-scenario settlement)."""
        return self._traced(
            "net.deposit_stream_flush",
            self._stream_flush_steps(merchant_id, drain_all=True),
            merchant=merchant_id,
        )

    def _flush_if_due(self, merchant_id: str) -> None:
        """Simulator callback: flush when the age watermark has tripped.

        Re-arms itself when the queue holds items whose deadline has not
        tripped yet — including the rounding case where the event fires a
        float ulp *before* the deadline it was scheduled for.
        """
        pipeline = self.deposit_streams.get(merchant_id)
        if pipeline is None or not len(pipeline):
            return
        if pipeline.ready(self.sim.now):
            self.sim.spawn(self._stream_flush_process(merchant_id))
            return
        deadline = pipeline.next_deadline()
        if deadline is not None:
            self.sim.schedule(
                max(deadline - self.sim.now, 1e-9), self._flush_if_due, merchant_id
            )

    def _stream_flush_process(
        self, merchant_id: str
    ) -> Generator[Any, Any, list[dict[str, Any]]]:
        return self._traced(
            "net.deposit_stream_flush",
            self._stream_flush_steps(merchant_id),
            merchant=merchant_id,
        )

    def _stream_flush_steps(
        self, merchant_id: str, drain_all: bool = False
    ) -> Generator[Any, Any, list[dict[str, Any]]]:
        merchant = self.system.merchant(merchant_id)
        pipeline = self.deposit_streams[merchant_id]
        results: list[dict[str, Any]] = []
        while True:
            items = pipeline.drain_all() if drain_all else pipeline.drain()
            if not items:
                break
            reply = flatten(
                (yield self.network.rpc(
                    merchant_id,
                    BROKER_NODE,
                    "deposit/batch",
                    {
                        "merchant_id": merchant_id,
                        "batch": pack_batch(
                            "t", [signed.to_wire() for signed in items]
                        ),
                    },
                ))
            )
            results.extend(_settle_batch_reply(merchant, items, reply))
            if not drain_all and not pipeline.ready(self.sim.now):
                break
        self.deposit_stream_results.setdefault(merchant_id, []).extend(results)
        return results

    def renewal_process(
        self, client_name: str, stored: StoredCoin, new_info: CoinInfo
    ) -> Generator[Any, Any, StoredCoin]:
        """Algorithm 4 over the network (two rounds to the broker)."""
        return self._traced(
            "net.renewal", self._renewal_steps(client_name, stored, new_info)
        )

    def _renewal_steps(
        self, client_name: str, stored: StoredCoin, new_info: CoinInfo
    ) -> Generator[Any, Any, StoredCoin]:
        flow = registry.renewal_flow(
            self.clients[client_name],
            BROKER_NODE,
            self.system.broker.tables,
            stored,
            new_info,
            self.now,
        )
        fresh = yield from self._drive(client_name, flow)
        return fresh

    def witness_breaker(self, witness_id: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one witness."""
        breaker = self.witness_breakers.get(witness_id)
        if breaker is None:
            breaker = self.witness_breakers[witness_id] = CircuitBreaker()
        return breaker

    def robust_payment_process(
        self,
        client_name: str,
        stored: StoredCoin,
        merchant_id: str,
        max_attempts: int = 3,
        soft_extension: int = 3600,
        hard_extension: int = 7200,
        backoff: BackoffPolicy | None = None,
    ) -> Generator[Any, Any, PaymentReceipt]:
        """Payment with the paper's witness-outage fallback built in.

        Attempts the payment; if the coin's witness is unreachable
        (timeout / offline), renews the coin at the broker — obtaining a
        fresh coin with a (very likely) different witness — and retries.
        This is the client behaviour Section 4's soft-expiry mechanism
        exists to enable: *"This approach allows clients ... to recover
        from faulty witnesses."*

        Retries are spaced by exponential backoff with deterministic
        seeded jitter, and each witness sits behind a shared per-witness
        circuit breaker: once a witness has failed repeatedly, further
        attempts skip straight to renewal instead of burning a full RPC
        timeout against a host that is known to be down.

        Args:
            max_attempts: payment attempts before giving up.
            soft_extension: seconds added to ``now`` for the renewed
                coin's soft expiry (the chaos scenarios shrink this to
                exercise expiry edges).
            hard_extension: seconds added to ``now`` for the renewed
                coin's hard expiry.
            backoff: retry-spacing policy (defaults to the deployment's
                :attr:`backoff_policy`).

        Raises:
            ServiceUnavailableError: every attempt exhausted (witnesses and
                broker both unreachable).
            DoubleSpendError / other EcashError: non-availability refusals
                propagate immediately — retrying cannot fix those.
        """
        from repro.net.sim import SimTimeoutError, Sleep

        policy = backoff if backoff is not None else self.backoff_policy
        current = stored
        last_error: Exception | None = None
        started = self.sim.now
        for attempt in range(max_attempts):
            witness_id = current.coin.witness_id
            breaker = self.witness_breaker(witness_id)
            if breaker.allows(self.sim.now):
                try:
                    receipt = yield from self.payment_process(
                        client_name, current, merchant_id
                    )
                    breaker.record_success()
                    if attempt > 0:
                        obs.observe(
                            "payment_recovery_seconds", self.sim.now - started
                        )
                        obs.counter_inc("payment_failovers_total", outcome="recovered")
                    return receipt
                except (SimTimeoutError, ServiceUnavailableError) as error:
                    last_error = error
                    was_open = breaker.open
                    breaker.record_failure(self.sim.now)
                    if breaker.open and not was_open:
                        obs.counter_inc("circuit_breaker_opened_total", witness=witness_id)
            else:
                obs.counter_inc("circuit_breaker_skips_total", witness=witness_id)
                last_error = ServiceUnavailableError(
                    f"witness {witness_id!r} circuit is open; renewing instead"
                )
            if attempt == max_attempts - 1:
                break  # out of attempts: renewing again would be wasted work
            pause = policy.delay(attempt, self._recovery_rng)
            if pause > 0:
                yield Sleep(pause)
            new_info = CoinInfo(
                denomination=current.coin.denomination,
                list_version=self.system.broker.current_table.version,
                soft_expiry=max(
                    current.coin.info.soft_expiry, self.now() + soft_extension
                ),
                hard_expiry=max(
                    current.coin.info.hard_expiry, self.now() + hard_extension
                ),
            )
            current = yield from self.renewal_process(
                client_name, current, new_info
            )
        obs.counter_inc("payment_failovers_total", outcome="exhausted")
        raise ServiceUnavailableError(
            f"payment failed after {max_attempts} attempts: {last_error}"
        )

    def apply_churn(
        self,
        model,
        horizon: float,
        node_names: list[str] | None = None,
    ) -> dict[str, object]:
        """Schedule up/down transitions for nodes from a churn model.

        Args:
            model: a :class:`repro.net.churn.ChurnModel`.
            horizon: how far ahead (simulated seconds) to schedule.
            node_names: which nodes churn (default: all merchant nodes —
                the broker and clients stay up, matching the paper's
                merchant-churn discussion).

        Returns:
            The sampled :class:`AvailabilityTimeline` per node.
        """
        names = node_names if node_names is not None else list(self.system.merchant_ids)
        timelines = {}
        for name in names:
            node = self.network.node(name)
            timeline = model.timeline(horizon)
            timelines[name] = timeline
            node.set_up(timeline.is_up(self.sim.now))
            up = timeline.initially_up
            for transition in timeline.transitions:
                up = not up
                delay = transition - self.sim.now
                if delay >= 0:
                    self.sim.schedule(delay, node.set_up, up)
        return timelines

    def run(self, process: Generator[Any, Any, Any]) -> Any:
        """Run a client process (metered) to completion on the event loop."""
        wrapped = metered(process, self.network.cost_model, self.network.rng)
        return self.sim.run_process(wrapped)

    # ------------------------------------------------------------------
    # Server-side handlers
    # ------------------------------------------------------------------
    def _register_broker_handlers(self) -> None:
        table = registry.broker_dispatch(self.system.broker, self.now)
        for method, handler in table.items():
            self.broker_node.on(method, handler)

    def _register_merchant_handlers(self, node: Node, merchant_id: str) -> None:
        def relay(destination: str, method: str, payload: dict[str, Any]) -> Any:
            return self.network.rpc(merchant_id, destination, method, payload)

        table = {
            **registry.witness_dispatch(self.system.witness(merchant_id), self.now),
            **registry.merchant_dispatch(
                self.system.merchant(merchant_id), merchant_id, self.now, relay
            ),
        }
        for method, handler in table.items():
            node.on(method, handler)


def _settle_batch_reply(
    merchant: Merchant, items: list[SignedTranscript], reply: dict[str, Any]
) -> list[dict[str, Any]]:
    """Per-item results of a flattened ``deposit/batch`` reply.

    Credited items are marked deposited. So are items refused with
    ``DoubleDepositError``: the broker already credited this merchant for
    the coin, so keeping them pending would refuse them forever. Every
    other refusal leaves its transcript pending.
    """
    results: list[dict[str, Any]] = []
    for index, signed in enumerate(items):
        outcome = reply.get(f"r{index}.outcome")
        if outcome is not None:
            merchant.mark_deposited(signed)
            results.append(
                {"outcome": str(outcome), "amount": _as_int(reply[f"r{index}.amount"])}
            )
            continue
        kind = str(reply.get(f"r{index}.kind", "EcashError"))
        if kind == DoubleDepositError.__name__:
            merchant.mark_deposited(signed)
        results.append(
            {"error": str(reply.get(f"r{index}.error", "unknown")), "kind": kind}
        )
    return results


__all__ = ["NetworkDeployment", "PaymentReceipt", "BROKER_NODE"]
