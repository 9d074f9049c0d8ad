"""Atomic file replacement for snapshots, the manifest and secret files."""

import json

import pytest

from repro.core.client import Wallet
from repro.core.persistence import (
    STATE_VERSION,
    broker_spaces,
    load_broker,
    save_broker,
)
from repro.core.protocols import run_withdrawal
from repro.store import atomic
from repro.store.atomic import write_atomic


def _fail_replace(monkeypatch):
    def boom(src, dst):
        raise OSError("injected crash before the rename")

    monkeypatch.setattr(atomic.os, "replace", boom)


def test_write_atomic_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "state.json"
    path.write_bytes(b"old")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_failure_before_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    path.write_bytes(b"old")
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"old"


def test_wallet_save_is_atomic(system, tmp_path, monkeypatch):
    client = system.new_client()
    run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    path = tmp_path / "wallet.json"
    Wallet().save(path)
    before = path.read_bytes()
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        client.wallet.save(path)
    assert path.read_bytes() == before
    monkeypatch.undo()
    client.wallet.save(path)
    assert Wallet.load(path) == client.wallet


def test_save_broker_is_atomic_and_byte_stable(system, tmp_path, monkeypatch):
    path = tmp_path / "broker.json"
    save_broker(system.broker, path)
    expected = json.dumps(
        {"version": STATE_VERSION, "spaces": broker_spaces(system.broker)},
        indent=1,
        sort_keys=True,
    )
    assert path.read_bytes() == expected.encode("ascii")
    before = path.read_bytes()
    client = system.new_client()
    run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        save_broker(system.broker, path)
    assert path.read_bytes() == before
    assert load_broker(path, system.params).tables.keys() == system.broker.tables.keys()
