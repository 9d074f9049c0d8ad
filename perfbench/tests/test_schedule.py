"""Offered load is a pure function of the seed."""

from e2ebench.schedule import REFILL_FLOWS, REPLAY_MARGIN_S, lifecycle_plan, refill_plan


def test_lifecycle_schedule_is_deterministic_per_seed():
    first = lifecycle_plan(5, 300, 0.05)
    again = lifecycle_plan(5, 300, 0.05)
    assert first == again
    assert first.sha256() == again.sha256()
    assert lifecycle_plan(6, 300, 0.05).sha256() != first.sha256()


def test_lifecycle_schedule_shape():
    plan = lifecycle_plan(3, 300, 0.05)
    coins = [a for a in plan.arrivals if a.kind == "coin"]
    replays = [a for a in plan.arrivals if a.kind == "replay"]
    assert [a.coin for a in coins] == list(range(300))
    assert [a.at for a in plan.arrivals] == sorted(a.at for a in plan.arrivals)
    # About 5% of arrivals replay; each coin at most once, well after it paid.
    assert 0.02 < len(replays) / len(plan.arrivals) < 0.09
    assert len({a.coin for a in replays}) == len(replays)
    arrival_of = {a.coin: a.at for a in coins}
    assert all(r.at - arrival_of[r.coin] >= REPLAY_MARGIN_S for r in replays)
    # Poisson at 30/s: 300 coins take about ten seconds. The plan ends at
    # the first whole settle second after its last arrival.
    assert 8.0 < coins[-1].at < 12.5
    assert plan.arrivals[-1].at < plan.duration <= plan.arrivals[-1].at + 1.0
    assert plan.duration == int(plan.duration)


def test_refill_plan_is_deterministic_per_seed():
    first = refill_plan(9, 1500)
    assert first == refill_plan(9, 1500)
    assert first.sha256() == refill_plan(9, 1500).sha256()
    assert refill_plan(10, 1500).sha256() != first.sha256()
    share = sum(first.resubmit) / first.iterations
    assert 0.005 < share < 0.04
    assert not any(first.resubmit[: 2 * REFILL_FLOWS])
