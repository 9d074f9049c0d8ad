"""In-memory spans around each layer's public entry points.

Tracing is installed from the benchmark's own files by patching the
classes and module attributes a layer is entered through; no file under
``src/`` changes. Each process keeps its spans and event samples in a
:class:`Recorder` and writes them to one JSON file when it exits; the
load generator merges the files afterwards (see :mod:`e2ebench.layers`).

Timestamps are ``time.perf_counter()`` readings. On Linux that clock is
``CLOCK_MONOTONIC``, shared by every process on the host, so events of
different processes can be filtered to one measurement window. Spans of
different processes are never linked to each other: a server span has no
parent on the client side, and server spans are aggregated per method.

A span is ``[id, parent, layer, name, start, end, ops]``; ``ops`` is the
``(exp, hash, sig, ver)`` delta of the party's crypto counter across an
outermost core call, else ``None``. Core wrappers activate the party's
:class:`repro.crypto.counters.OpCounter`, so the Table 1 accounting is
measured exactly, per party.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable

perf_counter = time.perf_counter

#: Counter names intercepted from :func:`repro.obs.counter_inc`.
WATCHED_COUNTERS = (
    "perf_verify_cache_hits_total",
    "perf_verify_cache_misses_total",
    "perf_fixed_base_hits_total",
    "store_io_retries_total",
)

#: Core entry points per class, as ``module, class, methods``.
CORE_CLIENT = ("repro.core.client", "Client", (
    "begin_withdrawal",
    "finish_withdrawal",
    "prepare_commitment_request",
    "build_payment",
    "renewal_proof",
    "mark_spent",
))
CORE_SERVER = (
    ("repro.core.broker", "Broker", (
        "begin_withdrawal",
        "complete_withdrawal",
        "begin_renewal",
        "complete_renewal",
        "deposit",
    )),
    ("repro.core.witness", "WitnessService", ("request_commitment", "sign_transcript")),
    ("repro.core.merchant", "Merchant", (
        "verify_payment_request",
        "accept_signed_transcript",
        "pending_deposits",
    )),
)

_CORE_PREFIX = {"Client": "client", "Broker": "broker", "WitnessService": "witness", "Merchant": "merchant"}


def method_key(method: str) -> str:
    """RPC method name as used in metric names (``/`` becomes ``-``)."""
    return method.replace("/", "-")


class Recorder:
    """One process's spans, timed samples and counter events."""

    def __init__(self, party: str) -> None:
        self.party = party
        self.spans: list[list[Any]] = []
        #: ``name -> [[start, seconds], ...]`` for timed leaf events.
        self.samples: dict[str, list[list[float]]] = {}
        #: ``name -> [[time, amount], ...]`` for intercepted counters.
        self.events: dict[str, list[list[float]]] = {}
        #: ``name -> [label, start, seconds]`` for labelled samples.
        self.labelled: dict[str, list[list[Any]]] = {}
        self.current: ContextVar[int | None] = ContextVar(
            f"perfbench_span_{party}", default=None
        )
        self._ids = itertools.count(1)
        self._core_depth = 0
        self.op_counter: Any = None
        self._patched: list[tuple[Any, str, Any]] = []

    def patch(self, target: Any, name: str, value: Any) -> None:
        """Replace ``target.name`` with ``value``, remembering the original."""
        self._patched.append((target, name, target.__dict__[name] if isinstance(target, type) else getattr(target, name)))
        setattr(target, name, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    # -- recording -----------------------------------------------------
    def open(self) -> tuple[int, int | None, Any]:
        """Start a span under the current one; returns ``(id, parent, token)``."""
        span_id = next(self._ids)
        parent = self.current.get()
        return span_id, parent, self.current.set(span_id)

    def close(
        self,
        opened: tuple[int, int | None, Any],
        layer: str,
        name: str,
        start: float,
        ops: tuple[int, ...] | None = None,
    ) -> None:
        """Finish a span opened by :meth:`open`."""
        end = perf_counter()
        span_id, parent, token = opened
        self.current.reset(token)
        self.spans.append([span_id, parent, layer, name, start, end, ops])

    def add_span(
        self, layer: str, name: str, start: float, end: float, parent: int | None = None
    ) -> int:
        """Record an already-finished span (used for generator-side lag)."""
        span_id = next(self._ids)
        self.spans.append([span_id, parent, layer, name, start, end, None])
        return span_id

    def sample(self, name: str, start: float, seconds: float) -> None:
        """Record one timed leaf event."""
        self.samples.setdefault(name, []).append([start, seconds])

    def event(self, name: str, amount: float) -> None:
        """Record one counter increment."""
        self.events.setdefault(name, []).append([perf_counter(), amount])

    def document(self) -> dict[str, Any]:
        """Everything recorded, in the span-file layout."""
        return {
            "party": self.party,
            "pid": os.getpid(),
            "spans": self.spans,
            "samples": self.samples,
            "events": self.events,
            "labelled": self.labelled,
        }

    def dump(self, path: str | Path) -> None:
        """Write everything recorded to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.document()))

    # -- wrappers ------------------------------------------------------
    def wrap_core(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Span + exact crypto-op delta around a synchronous core method."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counter = recorder.op_counter
            outermost = recorder._core_depth == 0
            before = counter.snapshot() if outermost else None
            recorder._core_depth += 1
            opened = recorder.open()
            start = perf_counter()
            try:
                if not outermost:
                    return fn(*args, **kwargs)
                with counter:
                    return fn(*args, **kwargs)
            finally:
                recorder._core_depth -= 1
                ops = None
                if before is not None:
                    after = counter.snapshot()
                    ops = tuple(a - b for a, b in zip(after, before))
                recorder.close(opened, "core", name, start, ops)

        return wrapper

    def wrap_leaf(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Time a leaf function (no span tree); re-entrant calls count once."""
        recorder = self
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                recorder.sample(name, start, perf_counter() - start)

        return wrapper


# ----------------------------------------------------------------------
# Installers
# ----------------------------------------------------------------------
def install_common(recorder: Recorder) -> None:
    """Patches every traced process gets: crypto leaves and obs intercepts."""
    from repro import obs
    from repro.crypto import backend, counters

    recorder.op_counter = counters.OpCounter()
    # Modular exponentiation is entered through three functions: the
    # bigint backend's ``powmod`` and the perf engine's fixed-base
    # ``fpow`` and Straus ``multi_exp``. All count as ``crypto.powmod``.
    recorder.patch(backend, "powmod", recorder.wrap_leaf(backend.powmod, "crypto.powmod"))
    perf = importlib.import_module("repro.perf")
    batch = importlib.import_module("repro.perf.batch")
    multi_exp = recorder.wrap_leaf(perf.multi_exp, "crypto.powmod")
    recorder.patch(perf, "fpow", recorder.wrap_leaf(perf.fpow, "crypto.powmod"))
    recorder.patch(perf, "multi_exp", multi_exp)
    recorder.patch(batch, "multi_exp", multi_exp)
    encode = importlib.import_module("repro.crypto.hashing").encode_for_hash
    wrapped = recorder.wrap_leaf(encode, "crypto.encode_for_hash")
    for module in ("repro.crypto.hashing", "repro.crypto.schnorr", "repro.core.witness"):
        target = importlib.import_module(module)
        if getattr(target, "encode_for_hash", None) is encode:
            recorder.patch(target, "encode_for_hash", wrapped)

    counter_inc = obs.counter_inc
    watched = frozenset(WATCHED_COUNTERS)

    def counter_hook(name: str, amount: float = 1.0, **labels: object) -> None:
        if name in watched:
            recorder.event(name, amount)
        counter_inc(name, amount, **labels)

    observe = obs.observe

    def observe_hook(name: str, value: float, **labels: object) -> None:
        if name == "daemon_rpc_seconds":
            recorder.labelled.setdefault(name, []).append(
                [str(labels.get("method", "?")), perf_counter() - value, value]
            )
        observe(name, value, **labels)

    recorder.patch(obs, "counter_inc", counter_hook)
    recorder.patch(obs, "observe", observe_hook)


def _install_core(recorder: Recorder, module: str, cls_name: str, methods: tuple[str, ...]) -> None:
    cls = getattr(importlib.import_module(module), cls_name)
    prefix = _CORE_PREFIX[cls_name]
    for method in methods:
        recorder.patch(cls, method, recorder.wrap_core(getattr(cls, method), f"core.{prefix}.{method}"))


def _install_transport(recorder: Recorder) -> None:
    """RPC round trips and connection set-up, seen from the calling side."""
    from repro.daemon.client import PeerConnection, SocketTransport

    call = SocketTransport.call

    async def traced_call(self: Any, destination: str, method: str, payload: dict[str, Any], timeout: float | None = None) -> Any:
        opened = recorder.open()
        start = perf_counter()
        try:
            return await call(self, destination, method, payload, timeout)
        finally:
            recorder.close(opened, "daemon", f"rtt.{method_key(method)}", start)

    recorder.patch(SocketTransport, "call", traced_call)

    open_fn = PeerConnection.open.__func__  # type: ignore[attr-defined]

    async def traced_open(cls: Any, *args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        try:
            return await open_fn(cls, *args, **kwargs)
        finally:
            recorder.sample("daemon.connect", start, perf_counter() - start)

    recorder.patch(PeerConnection, "open", classmethod(traced_open))


def install_client(recorder: Recorder) -> None:
    """Generator-side tracing: client core calls and RPC round trips."""
    install_common(recorder)
    _install_core(recorder, *CORE_CLIENT)
    _install_transport(recorder)


def install_server(recorder: Recorder) -> None:
    """Daemon-side tracing: handlers, core calls, nested RPCs and the store."""
    install_common(recorder)
    for module, cls_name, methods in CORE_SERVER:
        _install_core(recorder, module, cls_name, methods)
    _install_transport(recorder)

    from repro.daemon.service import DaemonNode

    run_handler = DaemonNode._run_handler

    async def traced_run_handler(self: Any, handler: Any, payload: dict[str, Any]) -> Any:
        names = self.__dict__.get("_perfbench_names")
        if names is None:
            names = {id(h): m for m, h in self.handlers.items()}
            self.__dict__["_perfbench_names"] = names
        opened = recorder.open()
        start = perf_counter()
        try:
            return await run_handler(self, handler, payload)
        finally:
            recorder.close(opened, "registry", method_key(names.get(id(handler), "?")), start)

    recorder.patch(DaemonNode, "_run_handler", traced_run_handler)

    from repro.store.store import Store
    from repro.store.wal import WriteAheadLog

    begin, commit, abort = Store.begin, Store.commit, Store.abort
    opened_at: list[float] = []

    def traced_begin(self: Any) -> None:
        opened_at.append(perf_counter())
        begin(self)

    def finish(fn: Callable[[Any], None]) -> Callable[[Any], None]:
        def traced(self: Any) -> None:
            try:
                fn(self)
            finally:
                if opened_at:
                    start = opened_at.pop()
                    recorder.sample("store.operation", start, perf_counter() - start)

        return traced

    recorder.patch(Store, "begin", traced_begin)
    recorder.patch(Store, "commit", finish(commit))
    recorder.patch(Store, "abort", finish(abort))

    append = WriteAheadLog.append

    def traced_append(self: Any, payload: bytes, *args: Any, **kwargs: Any) -> None:
        append(self, payload, *args, **kwargs)
        recorder.event("store.wal_bytes", float(len(payload) + 8))

    recorder.patch(WriteAheadLog, "append", traced_append)
    recorder.patch(os, "fsync", recorder.wrap_leaf(os.fsync, "store.fsync"))


def install_campaign(recorder: Recorder) -> None:
    """Overlay-campaign tracing: Chord, the scale estimators and the sim slice."""
    install_common(recorder)
    from repro.net.chord import ChordRing
    from repro.scale import campaign
    from repro.scale.stats import StreamingStats

    from repro.crypto import counters

    # The sim activates a counter per simulated node, so the campaign's
    # operations are summed from the record_* calls of whichever counter
    # is active (Table 1 accounting: suppressed inner operations skipped).
    totals = recorder.op_counter
    for op in ("exp", "hash", "sig", "ver"):
        record = getattr(counters, f"record_{op}")

        def hooked(n: int = 1, _record: Callable[[int], None] = record, _op: str = op) -> None:
            if counters.current_counter() is not None:
                setattr(totals, _op, getattr(totals, _op) + n)
            _record(n)

        recorder.patch(counters, f"record_{op}", hooked)

    for target, name, label in (
        (ChordRing, "__init__", "chord.bootstrap"),
        (ChordRing, "lookup", "chord.lookup"),
        (StreamingStats, "add", "scale.stats_add"),
        (campaign, "generate_events", "scale.generate_events"),
        (campaign, "_protocol_slice", "sim.protocol_slice"),
    ):
        recorder.patch(target, name, recorder.wrap_leaf(getattr(target, name), label))
