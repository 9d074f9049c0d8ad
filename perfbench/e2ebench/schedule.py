"""Seeded offered load: the open-loop arrival schedule and the refill plan.

Everything the load generator sends is decided here, from the seed alone,
before a daemon starts. Each plan carries a sha256 over its canonical
JSON, so two runs can show they offered the same load.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any

#: Open loop: coins offered per second, how long a coin must have been
#: due before it may be replayed, and the storefront's settle cadence.
LIFECYCLE_RATE = 30.0
REPLAY_MARGIN_S = 1.0
SETTLE_EVERY_S = 1.0
#: Share of arrivals that replay a paid coin: in the main phase (10%, so
#: that a 16 s run times about 50 refusals), and in the small companion
#: phase, which needs more replays per coin to gather refusal samples
#: from few coins.
LIFECYCLE_REPLAY_SHARE = 0.1
COMPANION_REPLAY_SHARE = 0.5
#: Closed loop: flows in flight, and the share of iterations that also
#: re-submit an already-renewed coin. One flow keeps the generator and
#: the broker taking turns on the CPUs; with two, both stayed busy, and
#: on a 2-core host whose second core came and went for a minute at a
#: time the rate halved in some runs while single-process work in the
#: same seconds did not slow.
REFILL_FLOWS = 1
RESUBMIT_SHARE = 0.02


def digest(document: Any) -> str:
    """sha256 over the canonical JSON of ``document``."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class Arrival:
    """One open-loop arrival.

    Attributes:
        at: due time in seconds after the phase starts.
        kind: ``"coin"`` (withdraw then pay) or ``"replay"`` (re-spend a
            paid coin at the colluding storefront).
        coin: index of the fresh coin (``"coin"``) or of the coin
            replayed (``"replay"``).
    """

    at: float
    kind: str
    coin: int


@dataclass(frozen=True)
class LifecyclePlan:
    """The ``lifecycle`` phase's offered load."""

    coins: int
    replay_share: float
    arrivals: tuple[Arrival, ...]

    @property
    def duration(self) -> float:
        """The first settle tick after the last arrival, in seconds."""
        last = self.arrivals[-1].at if self.arrivals else 0.0
        return (math.floor(last / SETTLE_EVERY_S) + 1) * SETTLE_EVERY_S

    def document(self) -> dict[str, Any]:
        """Canonical form hashed by :meth:`sha256`."""
        return {
            "rate": LIFECYCLE_RATE,
            "coins": self.coins,
            "replay_share": self.replay_share,
            "replay_margin": REPLAY_MARGIN_S,
            "settle_every": SETTLE_EVERY_S,
            "arrivals": [[a.at, a.kind, a.coin] for a in self.arrivals],
        }

    def sha256(self) -> str:
        """Digest of the schedule."""
        return digest(self.document())


def lifecycle_plan(seed: int, coins: int, replay_share: float) -> LifecyclePlan:
    """Poisson arrivals at :data:`LIFECYCLE_RATE` until ``coins`` fresh coins are due.

    Each arrival is a replay with probability ``replay_share`` when some
    coin that arrived at least :data:`REPLAY_MARGIN_S` earlier has not
    been replayed yet; the target is drawn uniformly from those. A coin is
    replayed at most once: a second replay inside the witness's commitment
    window would be refused for the outstanding commitment, not with a
    proof.
    """
    rng = random.Random(f"perfbench:lifecycle:{seed}")
    arrivals: list[Arrival] = []
    coin_times: list[float] = []
    eligible: list[int] = []
    replayed: set[int] = set()
    next_eligible = 0
    at = 0.0
    while len(coin_times) < coins:
        at += rng.expovariate(LIFECYCLE_RATE)
        stamp = round(at, 6)
        while next_eligible < len(coin_times) and coin_times[next_eligible] <= stamp - REPLAY_MARGIN_S:
            eligible.append(next_eligible)
            next_eligible += 1
        if eligible and rng.random() < replay_share:
            target = eligible.pop(rng.randrange(len(eligible)))
            replayed.add(target)
            arrivals.append(Arrival(stamp, "replay", target))
            continue
        arrivals.append(Arrival(stamp, "coin", len(coin_times)))
        coin_times.append(stamp)
    return LifecyclePlan(coins=coins, replay_share=replay_share, arrivals=tuple(arrivals))


@dataclass(frozen=True)
class RefillPlan:
    """The ``refill`` phase's closed-loop work list.

    Iteration ``i`` runs on flow ``i % REFILL_FLOWS``. ``resubmit[i]`` marks the
    iterations that also re-submit a coin the same flow already renewed;
    ``picks[i]`` chooses which one (modulo how many that flow has).
    """

    iterations: int
    resubmit: tuple[bool, ...]
    picks: tuple[int, ...]

    def document(self) -> dict[str, Any]:
        """Canonical form hashed by :meth:`sha256`."""
        return {
            "iterations": self.iterations,
            "flows": REFILL_FLOWS,
            "resubmit_share": RESUBMIT_SHARE,
            "resubmit": [i for i, flag in enumerate(self.resubmit) if flag],
            "picks": [self.picks[i] for i, flag in enumerate(self.resubmit) if flag],
        }

    def sha256(self) -> str:
        """Digest of the plan."""
        return digest(self.document())


def refill_plan(seed: int, iterations: int) -> RefillPlan:
    """``iterations`` withdraw+renew steps; about :data:`RESUBMIT_SHARE` re-submit.

    The first iteration of each flow has no earlier coin to renew, so it
    never re-submits either.
    """
    rng = random.Random(f"perfbench:refill:{seed}")
    resubmit: list[bool] = []
    picks: list[int] = []
    for index in range(iterations):
        flag = rng.random() < RESUBMIT_SHARE
        resubmit.append(flag and index >= 2 * REFILL_FLOWS)
        picks.append(rng.randrange(1 << 30))
    return RefillPlan(iterations=iterations, resubmit=tuple(resubmit), picks=tuple(picks))
