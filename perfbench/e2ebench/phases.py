"""The three kinds of load: open-loop lifecycles, closed-loop refill, campaign.

A run interleaves phases in rounds (see :mod:`e2ebench.runner`), so each
load loop keeps its state between calls and resumes where it stopped: the
open loop's schedule clock and the storefront's held transcripts, the
refill flows' wallet and previous coins. Each loop fills one
:class:`PhaseResult`: timings in milliseconds per operation kind,
operations attempted and failed (with the first few failure messages),
generator lateness, and the time it was active. Correctness is checked on
every operation:

* a payment must return the coin's denomination;
* a replay must be refused with a proof that verifies against the coin;
* every settle outcome must be ``credited`` (checked in
  :meth:`Deployment.settle`, audited against the broker at the end);
* every withdrawal verifies in ``finish_withdrawal`` (it raises if not);
* a re-submitted renewal must be refused with a proof that verifies.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.exceptions import RenewalRefusedError

from e2ebench.deploy import DENOMINATION, Deployment
from e2ebench.schedule import REFILL_FLOWS, SETTLE_EVERY_S, LifecyclePlan, RefillPlan
from e2ebench.tracing import Recorder

perf_counter = time.perf_counter

#: Failure messages kept per phase (the count is always exact).
MAX_FAILURE_NOTES = 5


@dataclass
class PhaseResult:
    """What one phase measured."""

    kind: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    #: Seconds the phase was driving load (summed over its segments).
    active: float = 0.0
    #: Completed units the per-coin layer metrics divide by.
    coins: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        """Record one timing (given in seconds, kept in ms)."""
        self.samples.setdefault(name, []).append(seconds * 1000.0)

    def fail(self, what: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(what)


class NullRecorder:
    """The untraced stand-in for :class:`Recorder` (every call is a no-op)."""

    def open(self) -> None:
        return None

    def close(self, *args: Any, **kwargs: Any) -> None:
        return None

    def add_span(self, *args: Any, **kwargs: Any) -> int:
        return 0


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


# ----------------------------------------------------------------------
# lifecycle: open loop
# ----------------------------------------------------------------------
class OpenLoop:
    """Issue the arrivals of ``plan`` when due, settling on a fixed cadence.

    :meth:`run_segment` plays one slice of the schedule's timeline; the
    schedule clock stands still between slices. Withdrawals and refusals
    are timed from when they were due, payments from when their
    withdrawal completed, so a stalled generator or a backlog shows in the
    latencies instead of slowing the offered load.

    The storefront settles every :data:`SETTLE_EVERY_S` after a slice
    starts, and once more when the slice's coins have drained, so every
    settle covers one cadence of arrivals when slices last whole
    multiples of it (the main phase), or one slice when they are shorter
    (a companion). No settle covers only the stragglers of a tick.
    """

    def __init__(self, dep: Deployment, plan: LifecyclePlan, recorder: Recorder | None = None) -> None:
        self.dep = dep
        self.plan = plan
        self.rec: Any = recorder if recorder is not None else NullRecorder()
        self.result = PhaseResult("lifecycle")
        self.client = dep.new_client()
        self.params = dep.system.params  # type: ignore[union-attr]
        self.paid: dict[int, asyncio.Future[Any]] = {}
        self.coin_latency: dict[int, tuple[float, float]] = {}
        self.result.extra["coin_latency"] = self.coin_latency
        self._next = 0
        self._position = 0.0

    async def run_segment(self, until: float) -> None:
        """Play every arrival due before schedule time ``until``, then settle."""
        arrivals = self.plan.arrivals
        base, self._position = self._position, until
        if self._next >= len(arrivals):
            return
        origin = perf_counter() + 0.002
        loop = asyncio.get_running_loop()
        tasks: list[asyncio.Task[None]] = []
        stop = asyncio.Event()
        settling = asyncio.create_task(self._settler(origin, base, until, stop))
        while self._next < len(arrivals) and arrivals[self._next].at < until:
            arrival = arrivals[self._next]
            self._next += 1
            due = origin + arrival.at - base
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if arrival.kind == "coin":
                self.paid[arrival.coin] = loop.create_future()
                tasks.append(asyncio.create_task(self._coin(arrival.coin, due)))
            else:
                tasks.append(asyncio.create_task(self._replay(arrival.coin, due)))
        await asyncio.gather(*tasks)
        stop.set()
        await settling
        await self._settle()
        self.result.active += perf_counter() - origin
        self.result.coins = len(self.coin_latency)

    async def _coin(self, index: int, due: float) -> None:
        rec, result = self.rec, self.result
        root = rec.open()
        started = perf_counter()
        result.lateness_ms.append((started - due) * 1000.0)
        rec.add_span("generator", "lag", due, started, parent=root[0] if root else None)
        result.attempted += 2
        stage = "withdraw"
        try:
            flow = rec.open()
            flow_start = perf_counter()
            stored = await self.dep.withdraw(self.client)
            rec.close(flow, "registry", "flow.withdraw", flow_start)
            withdrawn = perf_counter()
            result.add("withdraw", withdrawn - due)
            stage = "pay"
            flow = rec.open()
            amount = await self.dep.pay(self.client, stored)
            rec.close(flow, "registry", "flow.pay", withdrawn)
            finished = perf_counter()
            result.add("pay", finished - withdrawn)
            if amount != DENOMINATION:
                result.fail(f"pay returned {amount}, not {DENOMINATION}")
            else:
                self.coin_latency[index] = (due, finished)
            self.paid[index].set_result(stored)
        except Exception as error:  # counted, reported, never hidden
            result.fail(f"{stage}: {_describe(error)}")
            if stage == "withdraw":
                result.fail("pay: not attempted, withdrawal failed")
            self.paid[index].set_result(None)
        finally:
            rec.close(root, "coin", f"coin.{index}", due)

    async def _replay(self, target: int, due: float) -> None:
        result = self.result
        stored = await self.paid[target]
        started = perf_counter()
        result.lateness_ms.append((started - due) * 1000.0)
        result.attempted += 1
        if stored is None:
            result.fail(f"replay of coin {target}: coin was never paid")
            return
        try:
            proof = await self.dep.replay(self.client, stored)
        except Exception as error:
            result.fail(f"replay: {_describe(error)}")
            return
        result.add("refusal", perf_counter() - due)
        if proof is None:
            result.fail(f"replay of coin {target} was accepted")
        elif not proof.verify(self.params, stored.coin):
            result.fail(f"replay of coin {target}: proof does not verify")

    async def _settle(self) -> None:
        result = self.result
        result.attempted += 1
        try:
            seconds, count = await self.dep.settle()
        except Exception as error:
            result.fail(f"settle: {_describe(error)}")
            return
        if count:
            result.add("settle", seconds)
            result.add("settle_per_coin", seconds / count)
            result.samples.setdefault("settle_count", []).append(float(count))
            result.samples.setdefault("settle_held", []).append(float(len(self.dep.paid)))

    async def _settler(self, origin: float, base: float, until: float, stop: asyncio.Event) -> None:
        """Settle at every cadence tick strictly inside the slice.

        The tick at ``until`` is left to :meth:`run_segment`, which settles
        after the slice's last coins have paid.
        """
        tick = base + SETTLE_EVERY_S
        while tick < until - 1e-9 and not stop.is_set():
            delay = origin + tick - base - perf_counter()
            try:
                await asyncio.wait_for(stop.wait(), timeout=max(0.0, delay))
                return
            except asyncio.TimeoutError:
                pass
            await self._settle()
            tick += SETTLE_EVERY_S


# ----------------------------------------------------------------------
# refill: closed loop
# ----------------------------------------------------------------------
class ClosedLoop:
    """:data:`REFILL_FLOWS` flows, each withdrawing and renewing back to back.

    All flows share one client, so its wallet ends holding one coin per
    iteration. Operations are timed from when they were issued.
    :meth:`run_segment` runs the next block of iterations; each flow keeps
    its previous coin and renewed coins between blocks.
    """

    def __init__(self, dep: Deployment, plan: RefillPlan, recorder: Recorder | None = None) -> None:
        self.dep = dep
        self.plan = plan
        self.rec: Any = recorder if recorder is not None else NullRecorder()
        self.result = PhaseResult("refill")
        self.client = dep.new_client()
        self.params = dep.system.params  # type: ignore[union-attr]
        self.previous: list[Any] = [None] * REFILL_FLOWS
        self.renewed: list[list[Any]] = [[] for _ in range(REFILL_FLOWS)]
        #: Completed operations per segment and the rate of each, which
        #: falls as the wallet grows.
        self.result.extra["coins_per_s_by_segment"] = []
        self._next = 0

    async def run_segment(self, iterations: int) -> None:
        """Run the next ``iterations`` iterations of the plan."""
        first = self._next
        last = min(self.plan.iterations, first + iterations)
        if first >= last:
            return
        self._next = last
        result = self.result
        before = result.coins
        origin = perf_counter()
        await asyncio.gather(
            *(self._flow(flow, first, last) for flow in range(REFILL_FLOWS))
        )
        elapsed = perf_counter() - origin
        result.active += elapsed
        result.extra["coins_per_s"] = result.coins / result.active
        result.extra["coins_per_s_by_segment"].append((result.coins - before) / elapsed)
        result.extra["wallet_size"] = len(self.client.wallet.coins)

    async def _flow(self, flow: int, first: int, last: int) -> None:
        rec, result, plan = self.rec, self.result, self.plan
        start = first + (flow - first) % REFILL_FLOWS
        for index in range(start, last, REFILL_FLOWS):
            result.attempted += 1
            started = perf_counter()
            opened = rec.open()
            try:
                stored = await self.dep.withdraw(self.client)
            except Exception as error:
                result.fail(f"withdraw: {_describe(error)}")
                stored = None
            finally:
                rec.close(opened, "registry", "flow.withdraw", started)
            if stored is not None:
                result.add("withdraw", perf_counter() - started)
                result.coins += 1
            previous = self.previous[flow]
            if previous is not None:
                result.attempted += 1
                started = perf_counter()
                opened = rec.open()
                try:
                    await self.dep.renew(self.client, previous)
                except Exception as error:
                    result.fail(f"renew: {_describe(error)}")
                else:
                    result.add("renew", perf_counter() - started)
                    result.coins += 1
                    self.renewed[flow].append(previous)
                finally:
                    rec.close(opened, "registry", "flow.renew", started)
            renewed = self.renewed[flow]
            if plan.resubmit[index] and renewed:
                await self._resubmit(renewed[plan.picks[index] % len(renewed)])
            self.previous[flow] = stored

    async def _resubmit(self, old: Any) -> None:
        result = self.result
        result.attempted += 1
        started = perf_counter()
        try:
            await self.dep.renew(self.client, old)
        except RenewalRefusedError as refusal:
            result.add("resubmit", perf_counter() - started)
            if not refusal.proof.verify(self.params, old.coin):
                result.fail("re-submitted renewal: proof does not verify")
        except Exception as error:
            result.fail(f"re-submitted renewal: {_describe(error)}")
        else:
            result.fail("re-submitted renewal was accepted")


# ----------------------------------------------------------------------
# overlay-campaign
# ----------------------------------------------------------------------
class CampaignLoop:
    """Identical ``run_campaign`` calls; events/s per call.

    Checks that no call reports an invariant violation or a mean hop
    count over its bound, and that every call's results digest agrees.
    """

    def __init__(self, seed: int, nodes: int, duration: float) -> None:
        from repro.scale import campaign

        self.campaign = campaign
        self.config = campaign.CampaignConfig(seed=seed, nodes=nodes, duration=duration)
        self.result = PhaseResult("campaign")
        self.digests: list[str] = []

    def run_once(self) -> None:
        """One ``run_campaign`` call, timed and checked."""
        campaign, result = self.campaign, self.result
        merged: list[int] = []
        timeline = campaign._merged_timeline

        def counted_timeline(config: Any, ring: Any) -> Any:
            entries, down = timeline(config, ring)
            merged.append(len(entries))
            return entries, down

        campaign._merged_timeline = counted_timeline
        result.attempted += 1
        # The campaign shares this process with the load generator's
        # wallets and samples. Freezing them keeps the collector from
        # rescanning that heap during the call, as it would not in a
        # process of the campaign's own; the call's garbage is collected
        # afterwards, untimed, so it does not stall the next timed slice.
        gc.collect()
        gc.freeze()
        try:
            started = perf_counter()
            report = campaign.run_campaign(self.config)
            wall = perf_counter() - started
        finally:
            campaign._merged_timeline = timeline
            gc.unfreeze()
            gc.collect()
        result.active += wall
        result.coins += merged[0]
        result.samples.setdefault("events_per_s", []).append(merged[0] / wall)
        results = report["results"]
        violations = results["protocol"]["violations"]
        if violations:
            result.fail(f"campaign: {violations} invariant violation(s)")
        elif not results["lookups"]["within_bound"]:
            result.fail("campaign: mean hops over the bound")
        if self.digests and report["digest"] != self.digests[0]:
            result.fail("campaign digest differs across identical runs")
        self.digests.append(report["digest"])
        result.extra.update(
            events=merged[0],
            digest=report["digest"],
            schedule_digest=results["workload"]["schedule_digest"],
            mean_hops=results["lookups"]["hops"]["mean"],
            repair_ops_per_event=report["engine"]["repair_ops_per_event"]["mean"],
            lookups=results["lookups"]["count"],
        )
