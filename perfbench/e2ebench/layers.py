"""Per-layer metrics from merged span files, and the catalogue of their names.

Server-side spans and samples are filtered to the measurement window of
the phase on the shared monotonic clock and aggregated per RPC method; the
generator's spans are grouped per coin. A layer the workload does not
exercise reports 0.

Self time of a span is its duration minus the part of it that its child
spans cover. On ``lifecycle`` every coin's span tree is checked (see
:func:`self_check`): the per-layer self times of a coin add up to the
latency the generator observed, and the measured layers must leave no
more than :data:`SELF_CHECK_TOLERANCE_PCT` of it to unattributed glue.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from e2ebench.stats import median

#: RPC methods, as they appear in metric names.
METHODS = (
    "withdraw-begin",
    "withdraw-complete",
    "witness-commit",
    "witness-sign",
    "pay",
    "deposit",
    "renew-begin",
    "renew-complete",
    "admin-deposit",
)
CORE = (
    "client.begin_withdrawal",
    "client.finish_withdrawal",
    "client.prepare_commitment_request",
    "client.build_payment",
    "client.renewal_proof",
    "client.mark_spent",
    "broker.begin_withdrawal",
    "broker.complete_withdrawal",
    "broker.begin_renewal",
    "broker.complete_renewal",
    "broker.deposit",
    "witness.request_commitment",
    "witness.sign_transcript",
    "merchant.verify_payment_request",
    "merchant.accept_signed_transcript",
    "merchant.pending_deposits",
)
PARTIES = ("client", "broker", "storefront")
OPS = ("exp", "hash", "sig", "ver")

#: Generator-side layers that account for a coin's latency: its wait for
#: the event loop (``generator`` lag), RPC round trips (``daemon``) and
#: client core calls (``core``). The rest of a coin's span tree, the
#: ``coin`` root and the ``registry`` flows, is glue between them.
ATTRIBUTED_LAYERS = ("generator", "daemon", "core")
#: Largest median share of coin latency, in percent, the glue may hold.
#: Each attributed layer holds more than this, so a missing wrapper fails.
SELF_CHECK_TOLERANCE_PCT = 5.0


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out: list[tuple[str, str, str]] = []
    for kind in ("rtt", "server", "transit"):
        out += [(f"daemon.{kind}_ms.{m}", "ms", "lower") for m in METHODS]
    out += [
        ("daemon.connect_ms", "ms", "lower"),
        ("daemon.rpcs_per_coin", "count", "lower"),
        ("daemon.bytes_per_coin", "B", "lower"),
    ]
    out += [(f"registry.glue_ms.{m}", "ms", "lower") for m in METHODS]
    out += [(f"core.{name}_ms", "ms", "lower") for name in CORE]
    out += [
        ("core.merchant.pending_deposits_growth", "ratio", "lower"),
        ("core.client.mark_spent_growth", "ratio", "lower"),
    ]
    out += [(f"crypto.{op}_per_coin", "count", "lower") for op in OPS]
    out += [(f"crypto.{op}_per_coin.{party}", "count", "lower") for op in OPS for party in PARTIES]
    out += [
        ("crypto.powmod_calls_per_coin", "count", "lower"),
        ("crypto.powmod_share", "ratio", "lower"),
        ("crypto.encode_for_hash_share", "ratio", "lower"),
        ("perf.verify_cache_hit_ratio", "ratio", "higher"),
        ("perf.fixed_base_hits_per_coin", "count", "higher"),
        ("store.fsyncs_per_op", "count", "lower"),
        ("store.wal_bytes_per_op", "B", "lower"),
        ("store.fsync_ms_p50", "ms", "lower"),
        ("store.operation_ms_p50", "ms", "lower"),
        ("store.io_retries", "count", "lower"),
        ("chord.bootstrap_s", "s", "lower"),
        ("chord.lookup_us_p50", "us", "lower"),
        ("chord.lookups", "count", "higher"),
        ("chord.mean_hops", "count", "lower"),
        ("chord.repair_ops_per_event", "count", "lower"),
        ("scale.generate_events_s", "s", "lower"),
        ("scale.stats_add_us_p50", "us", "lower"),
        ("sim.protocol_slice_s", "s", "lower"),
        ("obs.tracing_overhead_pct", "%", "lower"),
        ("obs.self_check_unattributed_pct", "%", "lower"),
    ]
    return out


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _med(values: list[float], scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list[Any]]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    return {
        span[0]: (span[5] - span[4]) - _covered(span[4], span[5], children.get(span[0], ()))
        for span in spans
    }


def _window(items: Iterable[list[Any]], window: tuple[float, float], at: int) -> list[list[Any]]:
    lo, hi = window
    return [item for item in items if lo <= item[at] <= hi]


# ----------------------------------------------------------------------
# daemon workloads
# ----------------------------------------------------------------------
def service_layers(
    generator: dict[str, Any],
    servers: list[dict[str, Any]],
    window: tuple[float, float],
    coins: int,
    traffic_bytes: int,
) -> dict[str, float]:
    """Daemon, registry, core, crypto, perf and store metrics of one phase."""
    out: dict[str, float] = {}
    per = 1.0 / coins if coins else 0.0
    processes = [generator, *servers]
    spans = {id(p): _window(p["spans"], window, 4) for p in processes}

    rtt: dict[str, list[float]] = defaultdict(list)
    for process in processes:
        for span in spans[id(process)]:
            if span[2] == "daemon":
                rtt[span[3].removeprefix("rtt.")].append(span[5] - span[4])
    server: dict[str, list[float]] = defaultdict(list)
    rpcs = 0
    for process in servers:
        for method, start, seconds in _window(process["labelled"].get("daemon_rpc_seconds", []), window, 1):
            server[method.replace("/", "-")].append(seconds)
            rpcs += not method.startswith("admin/")
    for method in METHODS:
        out[f"daemon.rtt_ms.{method}"] = _med(rtt[method], 1e3)
        out[f"daemon.server_ms.{method}"] = _med(server[method], 1e3)
        if rtt[method] and server[method]:
            out[f"daemon.transit_ms.{method}"] = out[f"daemon.rtt_ms.{method}"] - out[f"daemon.server_ms.{method}"]
        else:
            out[f"daemon.transit_ms.{method}"] = 0.0
    connects = [s for p in processes for _, s in p["samples"].get("daemon.connect", [])]
    out["daemon.connect_ms"] = _med(connects, 1e3)
    out["daemon.rpcs_per_coin"] = rpcs * per
    out["daemon.bytes_per_coin"] = traffic_bytes * per

    glue: dict[str, list[float]] = defaultdict(list)
    for process in servers:
        own = self_times(process["spans"])
        for span in spans[id(process)]:
            if span[2] == "registry":
                glue[span[3]].append(own[span[0]])
    for method in METHODS:
        out[f"registry.glue_ms.{method}"] = _med(glue[method], 1e3)

    core: dict[str, list[list[Any]]] = defaultdict(list)
    ops = {party: [0, 0, 0, 0] for party in PARTIES}
    for process in processes:
        for span in spans[id(process)]:
            if span[2] != "core":
                continue
            core[span[3].removeprefix("core.")].append(span)
            if span[6] is not None:
                party = ops[process["party"]]
                for index, value in enumerate(span[6]):
                    party[index] += value
    for name in CORE:
        out[f"core.{name}_ms"] = _med([s[5] - s[4] for s in core[name]], 1e3)
    pending = sorted(core["merchant.pending_deposits"], key=lambda s: s[4])
    out["core.merchant.pending_deposits_growth"] = (
        (pending[-1][5] - pending[-1][4]) / (pending[0][5] - pending[0][4]) if len(pending) >= 2 else 0.0
    )
    spent = [s[5] - s[4] for s in sorted(core["client.mark_spent"], key=lambda s: s[4])]
    tenth = len(spent) // 10
    out["core.client.mark_spent_growth"] = (
        median(spent[-tenth:]) / median(spent[:tenth]) if tenth >= 2 else 0.0
    )

    for index, op in enumerate(OPS):
        total = 0
        for party in PARTIES:
            out[f"crypto.{op}_per_coin.{party}"] = ops[party][index] * per
            total += ops[party][index]
        out[f"crypto.{op}_per_coin"] = total * per
    powmods = [s for p in processes for s in _window(p["samples"].get("crypto.powmod", []), window, 0)]
    out["crypto.powmod_calls_per_coin"] = len(powmods) * per
    busy = 0.0
    leaf = {"crypto.powmod": 0.0, "crypto.encode_for_hash": 0.0}
    for process in servers:
        handlers = [(s[4], s[5]) for s in spans[id(process)] if s[2] == "registry"]
        if handlers:
            busy += _covered(min(h[0] for h in handlers), max(h[1] for h in handlers), handlers)
        for name in leaf:
            leaf[name] += sum(s for _, s in _window(process["samples"].get(name, []), window, 0))
    out["crypto.powmod_share"] = leaf["crypto.powmod"] / busy if busy else 0.0
    out["crypto.encode_for_hash_share"] = leaf["crypto.encode_for_hash"] / busy if busy else 0.0

    def events(name: str, among: list[dict[str, Any]]) -> float:
        return sum(amount for p in among for _, amount in _window(p["events"].get(name, []), window, 0))

    hits = events("perf_verify_cache_hits_total", processes)
    misses = events("perf_verify_cache_misses_total", processes)
    out["perf.verify_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["perf.fixed_base_hits_per_coin"] = events("perf_fixed_base_hits_total", processes) * per

    broker = [p for p in servers if p["party"] == "broker"]
    operations = [s for p in broker for _, s in _window(p["samples"].get("store.operation", []), window, 0)]
    fsyncs = [s for p in broker for _, s in _window(p["samples"].get("store.fsync", []), window, 0)]
    count = len(operations)
    out["store.fsyncs_per_op"] = len(fsyncs) / count if count else 0.0
    out["store.wal_bytes_per_op"] = events("store.wal_bytes", broker) / count if count else 0.0
    out["store.fsync_ms_p50"] = _med(fsyncs, 1e3)
    out["store.operation_ms_p50"] = _med(operations, 1e3)
    out["store.io_retries"] = events("store_io_retries_total", broker)
    return out


def self_check(
    generator: dict[str, Any], coin_latency: dict[int, tuple[float, float]]
) -> dict[str, Any]:
    """Per-layer self times of each coin against its observed latency.

    A coin's root span runs from when the coin was due until it paid, so
    the self times of its span tree add up to that latency; the report
    keeps the largest gap (``layer_sum_err_pct_max``) as a check on the
    merge. What the check gates is the *unattributed* share: the part of
    the latency no :data:`ATTRIBUTED_LAYERS` span covers. It is flow glue
    and time a coin spent behind other coins' work on the event loop, a
    few percent; a layer whose wrapper is missing moves its whole share
    into it.

    Returns ``unattributed_pct_p50`` (the gated figure),
    ``unattributed_pct_max``, ``layer_sum_err_pct_max``, the mean share
    of coin latency per layer, and the number of coins checked.
    """
    spans = generator["spans"]
    own = self_times(spans)
    children: dict[int, list[list[Any]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    sum_err = 0.0
    unattributed: list[float] = []
    shares: dict[str, float] = defaultdict(float)
    for root in spans:
        if root[2] != "coin":
            continue
        index = int(root[3].split(".")[1])
        if index not in coin_latency:
            continue
        due, finished = coin_latency[index]
        observed = finished - due
        by_layer: dict[str, float] = defaultdict(float)
        stack = [root]
        while stack:
            span = stack.pop()
            by_layer[span[2]] += own[span[0]]
            stack.extend(children.get(span[0], ()))
        sum_err = max(sum_err, abs(sum(by_layer.values()) - observed) / observed * 100.0)
        attributed = sum(by_layer[layer] for layer in ATTRIBUTED_LAYERS)
        unattributed.append(max(0.0, observed - attributed) / observed * 100.0)
        for layer, seconds in by_layer.items():
            shares[layer] += seconds / observed
    checked = len(unattributed)
    return {
        "unattributed_pct_p50": median(unattributed) if checked else 100.0,
        "unattributed_pct_max": max(unattributed, default=100.0),
        "layer_sum_err_pct_max": sum_err,
        "coin_latency_share_by_layer": {k: v / checked for k, v in shares.items()} if checked else {},
        "coins": checked,
    }


# ----------------------------------------------------------------------
# overlay-campaign
# ----------------------------------------------------------------------
def campaign_layers(recorder: dict[str, Any], extra: dict[str, Any], events: int) -> dict[str, float]:
    """Chord, scale, sim and crypto metrics of traced campaigns, per call."""
    samples = recorder["samples"]

    def seconds(name: str) -> list[float]:
        return [s for _, s in samples.get(name, [])]

    calls = len(seconds("chord.bootstrap")) or 1
    per = 1.0 / events if events else 0.0
    out = {
        "chord.bootstrap_s": _med(seconds("chord.bootstrap")),
        "chord.lookup_us_p50": _med(seconds("chord.lookup"), 1e6),
        "chord.lookups": len(seconds("chord.lookup")) / calls,
        "chord.mean_hops": float(extra.get("mean_hops", 0.0)),
        "chord.repair_ops_per_event": float(extra.get("repair_ops_per_event", 0.0)),
        "scale.generate_events_s": sum(seconds("scale.generate_events")) / calls,
        "scale.stats_add_us_p50": _med(seconds("scale.stats_add"), 1e6),
        "sim.protocol_slice_s": sum(seconds("sim.protocol_slice")) / calls,
        "crypto.powmod_calls_per_coin": len(seconds("crypto.powmod")) * per,
    }
    events_of = recorder["events"]
    hits = sum(a for _, a in events_of.get("perf_verify_cache_hits_total", []))
    misses = sum(a for _, a in events_of.get("perf_verify_cache_misses_total", []))
    out["perf.verify_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["perf.fixed_base_hits_per_coin"] = (
        sum(a for _, a in events_of.get("perf_fixed_base_hits_total", [])) * per
    )
    return out
