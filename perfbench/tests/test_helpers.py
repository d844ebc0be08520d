"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import PrimacyConfig

from perfbench.layers import budget
from perfbench.measure import OpLog, tail
from perfbench.spans import ROOT, Tracer
from perfbench.workloads import PackZlib, ReadPoint, ServeMixed


# -- the tail rule ------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in np.random.default_rng(0).permutation(100) + 1]
    value, pct = tail(samples)
    assert value == 90.0
    assert pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_follows_sample_count():
    value, pct = tail([float(v) for v in range(1, 251)])
    assert value == 240.0
    assert pct == pytest.approx(96.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)
    assert tail([1.0] * 11) == (1.0, pytest.approx(100 / 11))


# -- the budget ---------------------------------------------------------


class _Layers:
    """Stand-in for a reader: read_io calls restore, which calls the solver."""

    def read(self):
        time.sleep(0.002)
        return self.restore()

    def restore(self):
        time.sleep(0.001)
        return self.solve() + self.solve()

    def solve(self):
        time.sleep(0.001)
        return 1


def test_budget_rows_sum_to_wall():
    tracer = Tracer()
    tracer.wrap_method(_Layers, "read", "storage.read_io")
    tracer.wrap_method(_Layers, "restore", "core.restore")
    tracer.wrap_method(_Layers, "solve", "compressors.decompress")
    try:
        layers = _Layers()
        for _ in range(5):
            with tracer.span(ROOT):
                time.sleep(0.001)
                layers.read()
        layers.read()  # outside any root: not part of the budget
    finally:
        tracer.uninstall()
    rows = budget(tracer.totals(rooted_only=True))
    parts = sum(v for k, v in rows.items() if k != "wall_s")
    assert parts == pytest.approx(rows["wall_s"], rel=1e-9)
    assert rows["compressors.decompress_s"] >= 10 * 0.001
    assert rows["unattributed_s"] >= 5 * 0.001
    everywhere = tracer.totals()
    assert everywhere.incl["storage.read_io"] > rows["storage.read_io_s"]
    assert not hasattr(_Layers.__dict__["read"], "__wrapped__")  # restored


def test_budget_splits_round_trip_into_server_and_overhead():
    tracer = Tracer()
    with tracer.span(ROOT):
        with tracer.span("serve.round_trip"):
            time.sleep(0.003)
    rows = budget(tracer.totals(rooted_only=True), server_s=0.002)
    assert rows["serve.server_s"] == 0.002
    parts = sum(v for k, v in rows.items() if k != "wall_s")
    assert parts == pytest.approx(rows["wall_s"], rel=1e-9)


# -- seeded inputs ------------------------------------------------------


def _read_inputs(tmp_path, seed):
    wl = ReadPoint(tmp_path, seed)
    wl.prepare()
    ops = wl._ops()
    return [data for _name, data in wl.pool], [next(ops) for _ in range(50)]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for cls in (PackZlib, ServeMixed):
        first, again, other = cls(tmp_path, 1), cls(tmp_path, 1), cls(tmp_path, 2)
        for wl in (first, again, other):
            wl.prepare()
        assert first.pool == again.pool
        assert [d for _n, d in other.pool] != [d for _n, d in first.pool]
        assert sorted(n for n, _d in other.pool) == sorted(cls.mix)
    assert _read_inputs(tmp_path, 1) == _read_inputs(tmp_path, 1)
    pool1, ops1 = _read_inputs(tmp_path, 1)
    pool2, ops2 = _read_inputs(tmp_path, 2)
    assert pool1 != pool2 and ops1 != ops2


# -- verification -------------------------------------------------------


class _SmallPack(PackZlib):
    mix = ("gts_phi_l", "flash_gamc")
    var_bytes = 128 * 1024
    config = PrimacyConfig(chunk_bytes=64 * 1024)


def _flip_record_byte(archive):
    shard = archive / "shard-0000.prif"
    blob = bytearray(shard.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    shard.write_bytes(bytes(blob))


def test_pack_verifier_flags_a_damaged_archive(tmp_path):
    from repro.storage.catalog import ShardedArchiveWriter

    wl = _SmallPack(tmp_path, 3)
    wl.prepare()
    _name, data = wl.pool[0]
    archive = tmp_path / "a"
    writer = ShardedArchiveWriter(archive, wl.config, shards=2, workers=1)
    writer.write(data)
    writer.close()
    assert wl._verify(archive, data)
    _flip_record_byte(archive)
    assert not wl._verify(archive, data)


class _SmallRead(ReadPoint):
    mix = ("obs_info",)
    chunks = 4
    shards = 2
    config = PrimacyConfig(chunk_bytes=64 * 1024)


def _small_read_point(tmp_path, seed):
    wl = _SmallRead(tmp_path, seed)
    wl.prepare()
    wl.setup()
    return wl


def test_read_point_counts_a_corrupt_chunk_as_failed(tmp_path):
    wl = _small_read_point(tmp_path, 4)
    log = wl.run(0.05)
    assert log.failed == 0 and log.attempted > 0
    wl.close()
    _flip_record_byte(tmp_path / "archive-0")
    wl._open()
    log = wl.run(0.05)
    wl.close()
    assert log.failed > 0


class _CorruptingClient:
    """Answers like the daemon, but damages one byte of every compress reply."""

    def __init__(self, *_address):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def compress(self, data, config=None):
        reply = bytearray(self.containers[self.payloads.index(data)])
        reply[-1] ^= 0x01
        return bytes(reply)

    def decompress(self, container):
        return self.payloads[self.containers.index(container)]


def test_serve_verifier_flags_a_corrupted_reply(tmp_path, monkeypatch):
    import perfbench.workloads as workloads

    wl = ServeMixed(tmp_path, 5)
    wl.payload_bytes = 64 * 1024
    wl.prepare()
    _CorruptingClient.payloads = [data for _name, data in wl.pool]
    _CorruptingClient.containers = wl.containers
    monkeypatch.setattr(workloads, "ServeClient", _CorruptingClient)
    wl.address = ("127.0.0.1", 0)
    log = wl.run(0.05)
    assert log.attempted >= 10
    compress_ops = log.attempted - len(wl.by_kind["decompress"])
    assert log.failed == compress_ops > 0
    assert wl.by_kind["compress"] == []


def test_traced_read_point_budget_covers_its_ops(tmp_path):
    from perfbench.layers import install, layer_metrics

    wl = _small_read_point(tmp_path, 6)
    tracer = Tracer()
    install(tracer)
    try:
        wl.restart(tracer)
        log = wl.run(0.1, tracer)
    finally:
        wl.close()
        tracer.uninstall()
    rooted = tracer.totals(rooted_only=True)
    rows = budget(rooted)
    assert rows["wall_s"] == pytest.approx(log.wall, rel=0.05)
    assert rows["compressors.decompress_s"] > 0 and rows["storage.read_io_s"] > 0
    parts = sum(v for k, v in rows.items() if k != "wall_s")
    assert parts == pytest.approx(rows["wall_s"], rel=1e-9)
    metrics = layer_metrics(tracer.totals(), rooted, {}, 0.0)
    assert metrics["core.chunks"] >= log.attempted
    assert 0 < metrics["storage.handle_hit_frac"] <= 1


# -- process clean-up ---------------------------------------------------


def test_wait_group_outlasts_an_orphaned_grandchild():
    import subprocess

    from perfbench.procs import descendants, group_members, wait_group

    # The shell exits at once and leaves its background sleep behind.
    shell = subprocess.Popen(
        ["sh", "-c", "sleep 0.5 & sleep 0.1"], start_new_session=True
    )
    time.sleep(0.05)
    assert descendants(shell.pid)
    shell.wait()
    assert group_members(shell.pid)
    wait_group(shell.pid, timeout=5)
    assert group_members(shell.pid) == []
