"""Workloads: which phases a run drives, and the metrics it reports.

Every run prints every end-to-end metric, so each workload is a *mix*:
one **main** phase sized by ``--seconds``, which the workload exists for,
and small fixed-size **companion** phases of the other two kinds, which
supply the remaining metrics. Judge a workload by its main metrics (the
README lists them).

=================  ===============================  ==========================
workload           main phase                       companions
=================  ===============================  ==========================
lifecycle          open loop, 30 coins/s            refill, small campaigns
refill             closed loop, 1 flow              lifecycle, small campaigns
overlay-campaign   10,000-node campaigns            lifecycle, refill
=================  ===============================  ==========================

The phases run interleaved in :data:`ROUNDS_PER_SECOND` ``x --seconds``
rounds: each round plays the next slice of the main phase, then a slice
of each companion. Every metric thereby draws its samples from many
short bursts spread over the whole run, not from one stretch of it, which
keeps a few seconds of host noise from moving one metric alone. Rates
and per-coin costs are totals over the run (work done over time taken),
not medians of a few per-call values, which jump with the host's speed.

A traced run (``--trace 1``) drives the main phase only, three times:
untraced, traced, untraced again. It reports the per-layer metrics of the
traced pass and the overhead against the mean of the untraced ones.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import platform
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from e2ebench import layers
from e2ebench.deploy import Deployment, own_peak_rss_kib
from e2ebench.phases import CampaignLoop, OpenLoop, PhaseResult, ClosedLoop
from e2ebench.schedule import (
    COMPANION_REPLAY_SHARE,
    LIFECYCLE_RATE,
    LIFECYCLE_REPLAY_SHARE,
    SETTLE_EVERY_S,
    digest,
    lifecycle_plan,
    refill_plan,
)
from e2ebench.stats import median, summarize
from e2ebench.tracing import Recorder, install_campaign, install_client

WORKLOADS = ("lifecycle", "refill", "overlay-campaign")

#: End-to-end metrics as ``(name, unit, better)``, printed and bounded.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("rss_mb", "MB", "lower"),
    ("withdraw_p50_ms", "ms", "lower"),
    ("pay_p50_ms", "ms", "lower"),
    ("refusal_p50_ms", "ms", "lower"),
    ("settle_ms_per_coin", "ms", "lower"),
    ("renew_p50_ms", "ms", "lower"),
    ("refill_coins_per_s", "1/s", "higher"),
    ("campaign_events_per_s", "1/s", "higher"),
)

#: Tail timings, printed in every report but not bounded: across seeds on
#: a shared 2-core host their spread is wider than any bound a benchmark
#: may set (see the README).
TAILS = ("withdraw_p99_ms", "pay_p99_ms", "renew_p99_ms")

#: Deployments brought up per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of the host's CPU time (every CPU over the wall time) the
#: hypervisor may steal during an untraced measurement before it is made
#: once more (see :func:`run`). On the 2-core host the benchmark was
#: tuned on, runs that lost under 2% kept their workload's main metric
#: within about 10% of the median of ten seeds; runs that lost 3-11% ran
#: it 10-40% slower.
STEAL_LIMIT = 0.03
#: A measurement that took longer than this leaves no time for another.
RETRY_WITHIN_S = 60.0
#: Wall time a whole run may take at ``--seconds`` up to 20 (a run must
#: end within 180 s).
RUN_BUDGET_S = 170.0
#: Rounds per second of ``--seconds`` (each main slice lasts about 1 s).
ROUNDS_PER_SECOND = 1.0

#: Open loop: the companion's size (the offered load is set in
#: :mod:`e2ebench.schedule`).
COMPANION_COINS_PER_ROUND = 5
#: Closed loop: iterations per second of ``--seconds`` (about what one
#: flow sustains on a 2-core host as the wallet grows), and the
#: companion's size.
REFILL_PER_SECOND = 100
COMPANION_REFILL_PER_ROUND = 50
#: Campaigns: the main one at 10,000 nodes over 600 simulated seconds
#: (Chord bootstrap is about a quarter of its wall time),
#: :data:`CAMPAIGN_CALLS_PER_SECOND` calls per second of ``--seconds`` on
#: evenly spread rounds; the companion at 2,000 nodes over 60, one call
#: every round.
CAMPAIGN_NODES = 10_000
CAMPAIGN_HORIZON = 600.0
CAMPAIGN_CALLS_PER_SECOND = 0.75
COMPANION_NODES = 2_000
COMPANION_HORIZON = 60.0


@dataclass(frozen=True)
class Context:
    """Where a run lives and what it was asked to do."""

    workload: str
    seed: int
    seconds: int
    src_root: Path
    run_dir: Path

    @property
    def deploy_seed(self) -> int:
        return 10_000 + self.seed

    @property
    def rounds(self) -> int:
        return max(1, round(self.seconds * ROUNDS_PER_SECOND))


def host_facts() -> dict[str, Any]:
    """The host and build facts stamped on every result."""
    from repro.core.params import test_params
    from repro.crypto import backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "backend": backend.name(),
        "group_bits": test_params().group.p.bit_length(),
        "traffic": "loopback 127.0.0.1",
        "machine": platform.machine(),
    }


def cpu_steal_seconds() -> float | None:
    """CPU time the hypervisor took from this host so far (``/proc/stat``).

    Reported per run, as the difference across it, to explain outliers:
    a virtual host's stolen time comes and goes with its neighbours' load.
    """
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _main_kind(workload: str) -> str:
    return {"lifecycle": "lifecycle", "refill": "refill", "overlay-campaign": "campaign"}[workload]


async def _bring_up(ctx: Context, name: str, trace_dir: Path | None = None) -> tuple[Deployment, float]:
    started = time.perf_counter()
    dep = Deployment(ctx.run_dir / name, ctx.deploy_seed, ctx.src_root, trace_dir)
    try:
        await dep.start()
        await dep.warm_up()
    except BaseException:
        await dep.abort()
        raise
    return dep, time.perf_counter() - started


class Phase:
    """One kind of load with its size, driven one round at a time."""

    def __init__(self, ctx: Context, kind: str, main: bool, dep: Deployment | None, recorder: Recorder | None = None) -> None:
        self.kind = kind
        self.main = main
        self.rounds = ctx.rounds
        self.done = 0
        if kind == "lifecycle":
            coins = int(LIFECYCLE_RATE * ctx.seconds) if main else COMPANION_COINS_PER_ROUND * self.rounds
            share = LIFECYCLE_REPLAY_SHARE if main else COMPANION_REPLAY_SHARE
            plan = lifecycle_plan(ctx.seed, coins, share)
            end = plan.duration
            if main:
                # Slices end on whole settle ticks, so every settle of the
                # main phase covers one cadence of arrivals.
                every = SETTLE_EVERY_S
                self.ends = [
                    min(end, math.ceil(ctx.seconds * k / self.rounds / every) * every)
                    for k in range(1, self.rounds)
                ] + [end]
            else:
                # A companion's slices hold equal shares of its arrivals
                # and last less than one cadence; each is settled once,
                # when it has drained.
                arrivals = plan.arrivals
                self.ends = [
                    arrivals[len(arrivals) * k // self.rounds].at for k in range(1, self.rounds)
                ] + [end]
            self.load: Any = OpenLoop(dep, plan, recorder)  # type: ignore[arg-type]
            self.schedule = plan.sha256()
        elif kind == "refill":
            per_round = REFILL_PER_SECOND * ctx.seconds // self.rounds if main else COMPANION_REFILL_PER_ROUND
            plan = refill_plan(ctx.seed, per_round * self.rounds)
            self.per_round = per_round
            self.load = ClosedLoop(dep, plan, recorder)  # type: ignore[arg-type]
            self.schedule = plan.sha256()
        else:
            nodes, horizon = (CAMPAIGN_NODES, CAMPAIGN_HORIZON) if main else (COMPANION_NODES, COMPANION_HORIZON)
            calls = max(1, round(ctx.seconds * CAMPAIGN_CALLS_PER_SECOND)) if main else self.rounds
            self.calls_at = {min(self.rounds, math.ceil((k + 1) * self.rounds / calls)) for k in range(calls)}
            self.load = CampaignLoop(ctx.seed, nodes, horizon)
            self.schedule = ""

    @property
    def result(self) -> PhaseResult:
        return self.load.result

    async def step(self) -> None:
        """Drive the next round's slice."""
        self.done += 1
        if self.kind == "lifecycle":
            await self.load.run_segment(self.ends[self.done - 1])
        elif self.kind == "refill":
            await self.load.run_segment(self.per_round)
        elif self.done in self.calls_at:
            self.load.run_once()
            self.schedule = self.result.extra["schedule_digest"]


# ----------------------------------------------------------------------
# untraced run: every end-to-end metric
# ----------------------------------------------------------------------
async def untraced(ctx: Context) -> dict[str, Any]:
    """Bring the deployment up :data:`SETUPS` times, drive all rounds, check."""
    setups: list[float] = []
    dep: Deployment | None = None
    for index in range(SETUPS):
        dep, seconds = await _bring_up(ctx, f"deploy-{index}")
        setups.append(seconds)
        if index < SETUPS - 1:
            await dep.stop()
            shutil.rmtree(dep.directory, ignore_errors=True)
    assert dep is not None
    main = _main_kind(ctx.workload)
    order = [main] + [k for k in ("lifecycle", "refill", "campaign") if k != main]
    phases = {kind: Phase(ctx, kind, kind == main, dep) for kind in order}
    try:
        for _ in range(ctx.rounds):
            for kind in order:
                await phases[kind].step()
    finally:
        await dep.stop()
    audit = dep.reconcile()

    results = {kind: phase.result for kind, phase in phases.items()}
    life, refill, camp = results["lifecycle"], results["refill"], results["campaign"]
    withdraw_source = refill if main == "refill" else life
    summaries = {
        "withdraw": summarize(withdraw_source.samples.get("withdraw", [])),
        "pay": summarize(life.samples.get("pay", [])),
        "refusal": summarize(life.samples.get("refusal", [])),
        "settle_per_coin": summarize(life.samples.get("settle_per_coin", [])),
        "renew": summarize(refill.samples.get("renew", [])),
        "events_per_s": summarize(camp.samples.get("events_per_s", [])),
    }
    settled = sum(life.samples.get("settle_count", []))
    # The process under test: the daemons where the main phase drives
    # them, this process where it runs the campaigns.
    peaks_mb = {name: kib / 1024.0 for name, kib in {"generator": own_peak_rss_kib(), **dep.peak_rss}.items()}
    under_test = ["generator"] if main == "campaign" else list(dep.peak_rss)
    values = {
        "setup_s": median(setups),
        "rss_mb": max(peaks_mb[name] for name in under_test),
        "withdraw_p50_ms": summaries["withdraw"]["p50"],
        "withdraw_p99_ms": summaries["withdraw"]["tail"],
        "pay_p50_ms": summaries["pay"]["p50"],
        "pay_p99_ms": summaries["pay"]["tail"],
        "refusal_p50_ms": summaries["refusal"]["p50"],
        "settle_ms_per_coin": sum(life.samples.get("settle", [])) / settled if settled else None,
        "renew_p50_ms": summaries["renew"]["p50"],
        "renew_p99_ms": summaries["renew"]["tail"],
        "refill_coins_per_s": refill.extra.get("coins_per_s"),
        "campaign_events_per_s": camp.coins / camp.active if camp.active else None,
    }
    failed = sum(p.failed for p in results.values())
    problems = _audit_problems("run", audit)
    missing = [name for name, value in values.items() if not value]
    problems += [f"metric {name} has no samples" for name in missing]
    schedules = {kind: phase.schedule for kind, phase in phases.items()}
    report = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": 0,
        "rounds": ctx.rounds,
        "host": host_facts(),
        "schedule_sha256": digest(schedules),
        "schedules": schedules,
        "setup_samples_s": setups,
        "rss_mb_by_process": peaks_mb,
        "rss_mb_of": under_test,
        "phases": {
            kind: {
                "main": kind == main,
                "attempted": p.attempted,
                "failed": p.failed,
                "failures": p.failures,
                "lateness_ms": summarize(p.lateness_ms) if p.lateness_ms else None,
                "lateness_max_ms": max(p.lateness_ms, default=0.0),
                "active_s": p.active,
                "extra": {k: v for k, v in p.extra.items() if k != "coin_latency"},
            }
            for kind, p in results.items()
        },
        "percentiles": {k: {"n": s["n"], "tail_pct": s["tail_pct"]} for k, s in summaries.items()},
        "tails": {
            name: {
                "value": values.pop(name),
                "unit": "ms",
                "percentile": summaries[name.split("_")[0]]["tail_pct"],
                "n": summaries[name.split("_")[0]]["n"],
            }
            for name in TAILS
        },
        "settle_held": life.samples.get("settle_held", []),
        "settle_count": life.samples.get("settle_count", []),
        "settle_ms_per_coin_series": life.samples.get("settle_per_coin", []),
        "events_per_s_series": camp.samples.get("events_per_s", []),
        "audit": audit,
        "problems": problems,
    }
    return {
        "correct": not failed and not report["problems"],
        "attempted": sum(p.attempted for p in results.values()),
        "failed": failed,
        "values": values,
        "report": report,
    }


# ----------------------------------------------------------------------
# traced run: every per-layer metric
# ----------------------------------------------------------------------
def _headline(kind: str, result: PhaseResult) -> float:
    """The cost the tracing overhead is measured on (larger is slower)."""
    if kind == "lifecycle":
        return median(result.samples["withdraw"]) + median(result.samples["pay"])
    if kind == "refill":
        return 1.0 / result.extra["coins_per_s"]
    return result.active / result.coins


async def _main_only(ctx: Context, kind: str, dep: Deployment | None, recorder: Recorder | None = None) -> tuple[Phase, tuple[float, float]]:
    phase = Phase(ctx, kind, True, dep, recorder)
    started = time.perf_counter()
    for _ in range(ctx.rounds):
        await phase.step()
    return phase, (started, time.perf_counter())


async def _plain_pass(ctx: Context, kind: str, name: str) -> tuple[PhaseResult, list[str]]:
    """The main phase with nothing traced; returns it and audit problems."""
    if kind == "campaign":
        phase, _ = await _main_only(ctx, kind, None)
        return phase.result, []
    dep, _ = await _bring_up(ctx, name)
    try:
        phase, _ = await _main_only(ctx, kind, dep)
    finally:
        await dep.stop()
    return phase.result, _audit_problems(name, dep.reconcile())


def _audit_problems(name: str, audit: dict[str, Any]) -> list[str]:
    checks = ("lost_credits", "double_credits", "amount_mismatch", "settle_reply_mismatch")
    if audit["problems"] or any(audit[check] for check in checks):
        return [f"{name}: broker audit failed: {audit}"]
    return []


async def traced(ctx: Context) -> dict[str, Any]:
    """Main phase untraced, traced, untraced again; per-layer metrics.

    The overhead compares the traced pass with the mean of the two
    untraced passes around it, which cancels drift across the run.
    """
    kind = _main_kind(ctx.workload)
    problems: list[str] = []
    values = {name: 0.0 for name, _, _ in layers.catalogue()}
    report: dict[str, Any] = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "rounds": ctx.rounds,
        "trace": 1,
        "host": host_facts(),
    }
    before, found = await _plain_pass(ctx, kind, "plain-before")
    problems += found

    if kind == "campaign":
        recorder = Recorder("campaign")
        install_campaign(recorder)
        try:
            phase, _ = await _main_only(ctx, kind, None)
        finally:
            recorder.restore()
        result = phase.result
        if result.extra["digest"] != before.extra["digest"]:
            problems.append("traced campaign digest differs from the untraced one")
        values.update(layers.campaign_layers(recorder.document(), result.extra, result.coins))
        for op, count in zip(layers.OPS, recorder.op_counter.snapshot()):
            values[f"crypto.{op}_per_coin"] = count / result.coins
        report["schedule_sha256"] = result.extra["schedule_digest"]
    else:
        trace_dir = ctx.run_dir / "spans"
        trace_dir.mkdir()
        recorder = Recorder("client")
        install_client(recorder)
        try:
            dep, _ = await _bring_up(ctx, "deploy-traced", trace_dir)
            try:
                start = await dep.traffic()
                phase, window = await _main_only(ctx, kind, dep, recorder)
                end = await dep.traffic()
            finally:
                await dep.stop()
        finally:
            recorder.restore()
        result = phase.result
        problems += _audit_problems("traced pass", dep.reconcile())
        servers = [
            json.loads((trace_dir / f"{party}.json").read_text())
            for party in ("broker", "storefront")
        ]
        generator = recorder.document()
        values.update(
            layers.service_layers(
                generator, servers, window, result.coins, end["bytes"] - start["bytes"]
            )
        )
        report["schedule_sha256"] = phase.schedule
        if kind == "lifecycle":
            check = layers.self_check(generator, result.extra["coin_latency"])
            check["tolerance_pct"] = layers.SELF_CHECK_TOLERANCE_PCT
            report["self_check"] = check
            values["obs.self_check_unattributed_pct"] = check["unattributed_pct_p50"]
            if check["unattributed_pct_p50"] > layers.SELF_CHECK_TOLERANCE_PCT:
                problems.append(
                    f"measured layers leave {check['unattributed_pct_p50']:.2f}% of coin latency "
                    f"unattributed (tolerance {layers.SELF_CHECK_TOLERANCE_PCT}%)"
                )
        report["pending_deposits_ms_series"] = [
            (s[5] - s[4]) * 1e3 for s in servers[1]["spans"] if s[3] == "core.merchant.pending_deposits"
        ]

    after, found = await _plain_pass(ctx, kind, "plain-after")
    problems += found
    headlines = [_headline(kind, p) for p in (before, result, after)]
    report["overhead_headlines"] = {"untraced_before": headlines[0], "traced": headlines[1], "untraced_after": headlines[2]}
    values["obs.tracing_overhead_pct"] = (2.0 * headlines[1] / (headlines[0] + headlines[2]) - 1.0) * 100.0
    passes = [before, result, after]
    report["passes"] = [
        {"traced": p is result, "attempted": p.attempted, "failed": p.failed, "failures": p.failures}
        for p in passes
    ]
    report["problems"] = problems
    failed = sum(p.failed for p in passes)
    return {
        "correct": not failed and not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "values": values,
        "report": report,
    }


def _measure(ctx: Context, trace: bool, budget: float) -> tuple[dict[str, Any], float, float | None]:
    """One measurement: its outcome, wall time, and CPU time stolen meanwhile."""
    steal = cpu_steal_seconds()
    started = time.perf_counter()
    outcome = asyncio.run(asyncio.wait_for(traced(ctx) if trace else untraced(ctx), budget))
    wall = time.perf_counter() - started
    after = cpu_steal_seconds()
    stolen = after - steal if steal is not None and after is not None else None
    outcome["report"]["host"]["cpu_steal_s_during_run"] = stolen
    return outcome, wall, stolen


def run(ctx: Context, trace: bool) -> dict[str, Any]:
    """Run one workload and return ``correct/attempted/failed/values/report``.

    An untraced measurement during which the hypervisor stole more than
    :data:`STEAL_LIMIT` of the host's CPU time is made once more, in a
    fresh deployment with the same seed, when the first took less than
    :data:`RETRY_WITHIN_S`. The attempt with the smaller stolen share is
    reported; operations and failures of every attempt count, any failed
    attempt makes the run incorrect, and the report lists every attempt.

    Raises:
        TimeoutError: the run overran its budget (:data:`RUN_BUDGET_S` at
            ``--seconds`` 20).
    """
    started = time.perf_counter()
    total = max(RUN_BUDGET_S, 8.5 * ctx.seconds)
    if trace:
        return _measure(ctx, True, total)[0]
    cpus = len(os.sched_getaffinity(0))
    attempts: list[tuple[float, dict[str, Any]]] = []
    while True:
        directory = ctx.run_dir / f"attempt-{len(attempts)}"
        directory.mkdir()
        budget = total - (time.perf_counter() - started)
        outcome, wall, stolen = _measure(replace(ctx, run_dir=directory), False, budget)
        share = stolen / (wall * cpus) if stolen is not None else 0.0
        attempts.append((share, outcome))
        if share <= STEAL_LIMIT or len(attempts) > 1 or time.perf_counter() - started > RETRY_WITHIN_S:
            break
    chosen = min(attempts, key=lambda attempt: attempt[0])[1]
    report = chosen["report"]
    report["attempts"] = [
        {
            "reported": outcome is chosen,
            "steal_share": share,
            "cpu_steal_s": outcome["report"]["host"]["cpu_steal_s_during_run"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "values": outcome["values"],
        }
        for share, outcome in attempts
    ]
    for index, (_, outcome) in enumerate(attempts):
        if outcome is not chosen:
            report["problems"] += [f"attempt {index}: {problem}" for problem in outcome["report"]["problems"]]
    return {
        "correct": all(outcome["correct"] for _, outcome in attempts),
        "attempted": sum(outcome["attempted"] for _, outcome in attempts),
        "failed": sum(outcome["failed"] for _, outcome in attempts),
        "values": chosen["values"],
        "report": report,
    }
