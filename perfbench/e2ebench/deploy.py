"""The loopback deployment under test: a durable broker and one storefront.

:class:`Deployment` provisions keys and a netmap in a directory of the
run, starts two ``python -m repro serve`` daemons (or, traced, the
:mod:`e2ebench.traced_serve` bootstrap around the same ``serve``), connects
to both as ``client-0``, pins their protocol clocks and warms them up.

* ``broker`` runs with ``--state-dir`` on the sqlite backend, so every
  mutating RPC is journaled and fsynced before it is answered.
* ``bob-news`` is the only storefront daemon and holds every witness
  weight, so it witnesses its own coins, as the paper co-locates them.
* ``carol-games`` is registered but served by no daemon: the colluding
  storefront named in double-spend replays, as in ``connect --demo``.
"""

from __future__ import annotations

import asyncio
import os
import resource
import socket
import sys
import time
from pathlib import Path
from typing import Any

from repro.core.client import Client
from repro.core.exceptions import DoubleSpendError
from repro.core.persistence import load_broker_from_store, reconcile_broker
from repro.core.system import EcashSystem
from repro.daemon.client import SocketTransport
from repro.daemon.config import DeploymentConfig, NodeAddress
from repro.daemon.keys import load_authorized, load_identity, provision
from repro.faults.recovery import BackoffPolicy
from repro.net import registry
from repro.store import Store

BROKER = "broker"
STORE = "bob-news"
COLLUDER = "carol-games"
CLIENT = "client-0"

#: The protocol second every clock is pinned to for the whole run.
PINNED_NOW = 1000
DENOMINATION = 25
STORE_SHARDS = 4

#: Lifecycles, renewals and settles run by :meth:`Deployment.warm_up`.
WARM_UP_COINS = 4

#: Daemon processes started and not yet reaped, so a run that fails
#: midway can still stop every process it started (see :func:`reap_all`).
_LIVE: set[asyncio.subprocess.Process] = set()


def reap_all() -> None:
    """Kill and reap any daemon a failed run left behind."""
    for process in list(_LIVE):
        if process.returncode is None:
            try:
                os.kill(process.pid, 9)
                os.waitpid(process.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        _LIVE.discard(process)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a live process, in KiB (0 when unreadable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        return 0
    return 0


def own_peak_rss_kib() -> int:
    """Peak RSS of this process, in KiB."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class Deployment:
    """One broker + storefront pair on loopback, driven as ``client-0``.

    Args:
        directory: fresh directory for keys, netmap, broker state and logs.
        seed: deployment seed (every process rebuilds the same system).
        src_root: the ``src`` directory the daemons import ``repro`` from.
        trace_dir: when set, daemons run the traced bootstrap and write
            their span files here.
    """

    def __init__(
        self,
        directory: Path,
        seed: int,
        src_root: Path,
        trace_dir: Path | None = None,
    ) -> None:
        self.directory = directory
        self.seed = seed
        self.src_root = src_root
        self.trace_dir = trace_dir
        self.state_dir = directory / "broker-state"
        self.processes: dict[str, asyncio.subprocess.Process] = {}
        self.transport: SocketTransport | None = None
        self.system: EcashSystem | None = None
        #: Amounts the storefront accepted, and amounts ``admin/deposit``
        #: reported credited; reconciled against the broker at the end.
        self.paid: list[int] = []
        self.credited: list[int] = []
        self.settle_problems: list[str] = []
        self.peak_rss: dict[str, int] = {}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Provision, spawn both daemons, connect, and pin the clocks."""
        self.directory.mkdir(parents=True)
        config = DeploymentConfig(
            seed=self.seed,
            merchants=(STORE, COLLUDER),
            witness_weights={STORE: 1.0},
            nodes={
                BROKER: NodeAddress("127.0.0.1", _free_port(), "broker"),
                STORE: NodeAddress("127.0.0.1", _free_port(), "merchant"),
            },
        )
        provision(self.directory, [BROKER, STORE, CLIENT], self.seed)
        config.save(self.directory)
        await asyncio.gather(
            self._spawn(BROKER, ["--state-dir", str(self.state_dir), "--store-backend", "sqlite"]),
            self._spawn(STORE, []),
        )
        # The generator's view of the shared system: public keys, witness
        # tables and its own client RNG stream, rebuilt from the seed.
        self.system = config.build_system()
        self.transport = SocketTransport(
            load_identity(self.directory, CLIENT),
            load_authorized(self.directory),
            config.netmap(),
            connect_attempts=50,
            connect_backoff=BackoffPolicy(base=0.01, factor=1.5, max_delay=0.2),
        )
        for name in (BROKER, STORE):
            await self.transport.call(name, "admin/ping", {}, timeout=30.0)
            await self.transport.call(name, "admin/clock", {"now": PINNED_NOW})

    async def _spawn(self, name: str, extra: list[str]) -> None:
        env = dict(os.environ)
        bench_root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join([str(self.src_root), str(bench_root)])
        if self.trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            party = "broker" if name == BROKER else "storefront"
            command = [
                sys.executable,
                "-m",
                "e2ebench.traced_serve",
                "--trace-out",
                str(self.trace_dir / f"{party}.json"),
                "--party",
                party,
            ]
        command += ["--dir", str(self.directory), "--name", name, *extra]
        log = open(self.directory / f"{name}.log", "wb")
        try:
            process = await asyncio.create_subprocess_exec(
                *command, env=env, stdout=asyncio.subprocess.PIPE, stderr=log
            )
        finally:
            log.close()
        self.processes[name] = process
        _LIVE.add(process)
        assert process.stdout is not None
        # ``serve`` prints one line once its socket is bound.
        while True:
            line = await asyncio.wait_for(process.stdout.readline(), timeout=120.0)
            if not line:
                raise RuntimeError(f"daemon {name} exited before listening; see {name}.log")
            if b"listening on" in line:
                return

    # ------------------------------------------------------------------
    def new_client(self) -> Client:
        """A fresh client (own wallet, next per-party RNG stream)."""
        assert self.system is not None
        return self.system.new_client()

    def info(self) -> Any:
        """Coin info for one standard coin at the pinned protocol time."""
        assert self.system is not None
        return self.system.standard_info(DENOMINATION, now=PINNED_NOW)

    @property
    def witness_public(self) -> int:
        """The storefront's witness key, which every coin is assigned to."""
        assert self.system is not None
        return self.system.merchant(STORE).witness_keys[STORE]

    def clock(self) -> int:
        """The generator's protocol clock (pinned like the daemons')."""
        return PINNED_NOW

    async def withdraw(self, client: Client) -> Any:
        """Algorithm 1 against the broker; returns the stored coin."""
        assert self.transport is not None and self.system is not None
        return await self.transport.run_flow(
            CLIENT,
            registry.withdrawal_flow(client, BROKER, self.system.broker.tables, self.info()),
        )

    async def pay(self, client: Client, stored: Any) -> int:
        """Algorithm 2 at the storefront; returns the amount paid."""
        assert self.transport is not None
        amount = await self.transport.run_flow(
            CLIENT,
            registry.payment_flow(client, stored, STORE, self.witness_public, self.clock),
        )
        self.paid.append(int(amount))
        return int(amount)

    async def replay(self, client: Client, stored: Any) -> Any:
        """Re-spend ``stored`` at the colluding name; returns the refusal proof.

        Returns ``None`` when the witness countersigned instead.
        """
        assert self.transport is not None
        try:
            await self.transport.run_flow(
                CLIENT,
                registry.direct_spend_flow(
                    client, stored, COLLUDER, self.witness_public, self.clock
                ),
            )
        except DoubleSpendError as refusal:
            return refusal.proof
        return None

    async def renew(self, client: Client, stored: Any) -> Any:
        """Algorithm 4 against the broker; returns the fresh coin."""
        assert self.transport is not None and self.system is not None
        return await self.transport.run_flow(
            CLIENT,
            registry.renewal_flow(
                client, BROKER, self.system.broker.tables, stored, self.info(), self.clock
            ),
        )

    async def settle(self) -> tuple[float, int]:
        """``admin/deposit`` at the storefront; returns ``(seconds, count)``.

        Every outcome must be ``credited``; anything else is recorded in
        :attr:`settle_problems`.
        """
        assert self.transport is not None
        started = time.perf_counter()
        reply = await self.transport.call(STORE, "admin/deposit", {}, timeout=60.0)
        elapsed = time.perf_counter() - started
        count = registry.as_int(reply["count"])
        for index in range(count):
            result = reply[f"r{index}"]
            outcome = str(result.get("outcome"))
            if outcome != "credited":
                self.settle_problems.append(f"settle outcome {outcome!r}")
                continue
            self.credited.append(registry.as_int(result["amount"]))
        return elapsed, count

    async def warm_up(self) -> None:
        """Run a few of every operation so lazy tables and caches are built."""
        client = self.new_client()
        coins = []
        for _ in range(WARM_UP_COINS):
            stored = await self.withdraw(client)
            await self.pay(client, stored)
            coins.append(stored)
        spare = await self.withdraw(client)
        await self.renew(client, spare)
        if await self.replay(client, coins[0]) is None:
            raise RuntimeError("warm-up replay was not refused")
        await self.settle()

    async def traffic(self) -> dict[str, int]:
        """Protocol bytes and messages on both daemons' meters."""
        assert self.transport is not None
        totals = {"bytes": 0, "messages": 0}
        for name in (BROKER, STORE):
            reply = await self.transport.call(name, "admin/stats", {}, timeout=60.0)
            totals["bytes"] += registry.as_int(reply["sent"]) + registry.as_int(reply["received"])
            totals["messages"] += registry.as_int(reply["messages_received"])
        return totals

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Record peak RSS, shut both daemons down and wait for them."""
        for name, process in self.processes.items():
            self.peak_rss[name] = peak_rss_kib(process.pid)
        if self.transport is not None:
            for name in self.processes:
                try:
                    await self.transport.call(name, "admin/shutdown", {}, timeout=30.0)
                except Exception:  # the process is killed below if it lingers
                    pass
            await self.transport.close()
            self.transport = None
        await self.kill()

    async def kill(self, grace: float = 20.0) -> None:
        """Wait up to ``grace`` s for every daemon to exit, then kill it."""
        for process in self.processes.values():
            try:
                await asyncio.wait_for(process.wait(), timeout=grace)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
            _LIVE.discard(process)

    async def abort(self) -> None:
        """Tear down a deployment that failed to come up."""
        if self.transport is not None:
            await self.transport.close()
            self.transport = None
        await self.kill(grace=0.0)

    def reconcile(self) -> dict[str, Any]:
        """Reopen the stopped broker's store and audit it against the run.

        Returns counts of lost and double credits, the cents by which the
        broker's credits and the ``admin/deposit`` replies fall short of
        what was paid (all must be 0), and the problems
        :func:`repro.core.persistence.reconcile_broker` reports.
        """
        assert self.system is not None
        store = Store(self.state_dir, backend="sqlite", shards=STORE_SHARDS)
        try:
            broker = load_broker_from_store(store, self.system.params)
        finally:
            store.close()
        credits = [
            amount
            for _src, _dst, memo, amount in broker.ledger.history
            if memo == "coin deposit"
        ]
        return {
            "problems": reconcile_broker(broker) + list(self.settle_problems),
            "paid": len(self.paid),
            "credited": len(credits),
            "lost_credits": max(0, len(self.paid) - len(credits)),
            "double_credits": max(0, len(credits) - len(self.paid)),
            "amount_mismatch": sum(self.paid) - sum(credits),
            "settle_reply_mismatch": sum(self.paid) - sum(self.credited),
        }
