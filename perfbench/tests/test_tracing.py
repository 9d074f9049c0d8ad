"""Tracing changes no outcome, the self-check catches an untraced layer, and
the benchmark's catalogue matches BENCHMARK.json."""

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

from e2ebench import layers, runner
from e2ebench.deploy import Deployment
from e2ebench.phases import CampaignLoop
from e2ebench.tracing import Recorder, install_campaign, install_client

BENCH_DIR = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
COINS = 4


async def _serial_lifecycle(directory: Path, traced: bool) -> tuple[list, float, dict]:
    """Withdraw and pay COINS coins one at a time, replay one, settle."""
    trace_dir = directory / "spans" if traced else None
    recorder = Recorder("client") if traced else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    if recorder is not None:
        install_client(recorder)
    dep = Deployment(directory / "deploy", 7, SRC, trace_dir)
    try:
        await dep.start()
        await dep.warm_up()
        before = await dep.traffic()
        client = dep.new_client()
        outcomes: list = []
        paid = []
        for _ in range(COINS):
            stored = await dep.withdraw(client)
            outcomes.append(("pay", await dep.pay(client, stored)))
            paid.append(stored)
        proof = await dep.replay(client, paid[0])
        outcomes.append(("refused", proof is not None and proof.verify(dep.system.params, paid[0].coin)))
        _, count = await dep.settle()
        outcomes.append(("settled", count, sum(dep.credited)))
        after = await dep.traffic()
    finally:
        await dep.stop()
        if recorder is not None:
            recorder.restore()
    if trace_dir is not None:
        for party in ("broker", "storefront"):
            assert json.loads((trace_dir / f"{party}.json").read_text())["spans"]
        assert recorder is not None and recorder.spans
    audit = dep.reconcile()
    return outcomes, (after["bytes"] - before["bytes"]) / COINS, audit


def test_traced_and_untraced_lifecycles_agree(tmp_path):
    plain = asyncio.run(_serial_lifecycle(tmp_path / "plain", traced=False))
    traced = asyncio.run(_serial_lifecycle(tmp_path / "traced", traced=True))
    assert plain[0] == traced[0]
    assert plain[0][-2] == ("refused", True)
    # daemon.bytes_per_coin: identical wire bytes with and without tracing.
    assert plain[1] == traced[1] > 0
    for audit in (plain[2], traced[2]):
        assert audit["problems"] == []
        assert audit["lost_credits"] == audit["double_credits"] == 0
        assert audit["amount_mismatch"] == audit["settle_reply_mismatch"] == 0


def test_traced_campaign_keeps_its_digest():
    plain = CampaignLoop(4, 300, 20.0)
    plain.run_once()
    recorder = Recorder("campaign")
    install_campaign(recorder)
    try:
        traced = CampaignLoop(4, 300, 20.0)
        traced.run_once()
    finally:
        recorder.restore()
    assert plain.result.failed == traced.result.failed == 0
    assert plain.result.extra["digest"] == traced.result.extra["digest"]
    assert recorder.samples["chord.lookup"]


def test_benchmark_json_lists_every_metric_the_code_reports():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.catalogue()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "lifecycle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def _coin_spans(with_daemon: bool) -> tuple[dict, dict]:
    """One coin's generator-side span tree, shaped as the open loop records it."""
    recorder = Recorder("client")
    due = time.perf_counter()
    root = recorder.open()
    time.sleep(0.002)
    recorder.add_span("generator", "lag", due, time.perf_counter(), parent=root[0])
    flow = recorder.open()
    flow_start = time.perf_counter()
    rpc = recorder.open()
    rpc_start = time.perf_counter()
    time.sleep(0.02)
    if with_daemon:
        recorder.close(rpc, "daemon", "rtt.pay", rpc_start)
    else:
        recorder.current.reset(rpc[2])
    core = recorder.open()
    core_start = time.perf_counter()
    time.sleep(0.004)
    recorder.close(core, "core", "core.client.build_payment", core_start)
    recorder.close(flow, "registry", "flow.pay", flow_start)
    finished = time.perf_counter()
    recorder.close(root, "coin", "coin.0", due)
    return recorder.document(), {0: (due, finished)}


def test_self_check_fails_when_a_layer_is_not_traced():
    complete = layers.self_check(*_coin_spans(with_daemon=True))
    assert complete["coins"] == 1
    assert complete["layer_sum_err_pct_max"] < 1.0
    assert complete["unattributed_pct_p50"] < layers.SELF_CHECK_TOLERANCE_PCT
    # Without the transport wrapper the round trip is flow glue.
    missing = layers.self_check(*_coin_spans(with_daemon=False))
    assert missing["layer_sum_err_pct_max"] < 1.0
    assert missing["unattributed_pct_p50"] > 50.0 > layers.SELF_CHECK_TOLERANCE_PCT
