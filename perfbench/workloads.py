"""The three workloads: ``pack_zlib``, ``read_point`` and ``serve_mixed``.

Each workload makes its inputs from the seed (:meth:`prepare`), pays
its set-up (:meth:`setup`, which returns ``setup_s``), then runs timed
passes (:meth:`run`).  Every timed output is checked against the
generated input or the one-shot container outside the op's timed
interval; a mismatch or a typed refusal is counted as a failed op
instead of aborting the run.

The mixes have a fixed composition and the seed varies the values and
the order, so runs with different seeds do the same kind of work and
their figures are comparable.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.compressors.base import CodecError
from repro.core import PrimacyCompressor, PrimacyConfig
from repro.datasets import generate_bytes
from repro.parallel.engine import KIND_COMPRESS, EngineError, ParallelEngine
from repro.serve import RequestConfig, ServeClient, ServeError
from repro.storage.catalog import ShardedArchiveReader, ShardedArchiveWriter

from perfbench.measure import OpLog, proc_tree_peak_rss_mb, self_peak_rss_mb
from perfbench.procs import wait_group
from perfbench.spans import ROOT, Tracer

#: The checkout the benchmark runs in (the daemon imports ``src/`` from it).
CHECKOUT = Path(__file__).resolve().parent.parent
WORKERS = 2
KIB = 1024

#: Hard to compress (PRIMACY CR about 1.2-1.33) and compressible (1.78).
HARD = ("gts_phi_l", "msg_bt", "obs_info")
COMPRESSIBLE = "flash_gamc"


def _root(tracer: Tracer | None):
    return tracer.span(ROOT) if tracer is not None else nullcontext()


def _paused(tracer: Tracer | None):
    return tracer.paused() if tracer is not None else nullcontext()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def _zipf(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


def _variables(names, n_bytes: int, rng) -> list[tuple[str, bytes]]:
    """One seeded variable per name, in a seeded order."""
    order = rng.permutation(len(names))
    return [
        (
            names[i],
            generate_bytes(names[i], n_bytes // 8, seed=int(rng.integers(2**31))),
        )
        for i in order
    ]


class PackZlib:
    """Pack one sharded archive per variable, durably, with 2 engine workers.

    Default pipeline (``pyzlib`` solver) at 256 KiB chunks, so that one
    1 MiB variable is four chunks, two per shard, and a run packs well
    over a hundred archives: enough for a tail percentile.
    """

    name = "pack_zlib"
    fsync = "fsync+rename of every shard file and of the catalog (durable=True)"
    config = PrimacyConfig(chunk_bytes=256 * KIB)
    mix = HARD * 2 + (COMPRESSIBLE,) * 2
    var_bytes = 1024 * KIB
    shards = 2
    setup_reps = 15

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.engine: ParallelEngine | None = None
        self.stored = {}

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = _variables(self.mix, self.var_bytes, rng)

    def _start(self) -> float:
        """Engine start to first result, plus a writer open."""
        probe = self.pool[0][1][: 8 * KIB]
        t0 = time.perf_counter()
        engine = ParallelEngine(self.config, workers=WORKERS)
        engine.pop(engine.submit(KIND_COMPRESS, probe))
        writer = ShardedArchiveWriter(
            self.work / "setup", self.config, shards=self.shards, engine=engine
        )
        seconds = time.perf_counter() - t0
        writer.abort()
        shutil.rmtree(self.work / "setup")
        self.engine = engine
        return seconds

    def setup(self) -> float:
        samples = []
        for _ in range(self.setup_reps):
            self.close()
            samples.append(self._start())
        return statistics.median(samples)

    def restart(self, tracer: Tracer | None = None) -> None:
        # Workers fork after the tracer is installed, so they inherit it.
        self.close()
        self._start()

    def engine_stats(self) -> dict:
        return self.engine.stats.summary()

    def run(self, seconds: float, tracer: Tracer | None = None) -> OpLog:
        log = OpLog()
        i = 0
        while log.wall < seconds or i < len(self.pool):
            name, data = self.pool[i % len(self.pool)]
            path = self.work / f"archive-{i}"
            writer = None
            t0 = time.perf_counter()
            try:
                with _root(tracer):
                    writer = ShardedArchiveWriter(
                        path, self.config, shards=self.shards, engine=self.engine
                    )
                    writer.write(data)
                    writer.close()
                ok = True
            except (CodecError, EngineError) as exc:
                ok = False
                print(f"pack {name} failed: {exc!r}", file=sys.stderr)
                if writer is not None:
                    writer.abort()
                self.engine.recover()
            elapsed = time.perf_counter() - t0
            with _paused(tracer):
                ok = ok and self._verify(path, data)
            if ok and i < len(self.pool):
                self.stored[i] = (_dir_bytes(path), len(data))
            shutil.rmtree(path, ignore_errors=True)
            log.add(elapsed, len(data), ok)
            log.wall += elapsed
            i += 1
        return log

    @staticmethod
    def _verify(path: Path, data: bytes) -> bool:
        try:
            with ShardedArchiveReader(path) as reader:
                return reader.read_all() == data
        except CodecError as exc:
            print(f"read-back of {path.name} failed: {exc!r}", file=sys.stderr)
            return False

    def bytes_stored_per_byte(self) -> float:
        stored, user = map(sum, zip(*self.stored.values()))
        return stored / user

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class ReadPoint:
    """Skewed point reads against archives with more shards than handles.

    Three archives (the hard datasets) of 24 chunks at 256 KiB over 12
    shards each; every reader's handle LRU holds 8.  Ops cycle over the
    archives; in each block of four, three are ``read_chunk`` and one is
    a ``read_values`` that spans a chunk boundary.  Chunks and boundaries
    are drawn Zipf(1.1)-skewed over a seeded permutation.
    """

    name = "read_point"
    fsync = "archives built durably during set-up; the timed ops only read"
    config = PrimacyConfig(chunk_bytes=256 * KIB)
    # Hard datasets only: flash_gamc decodes ~4x slower per byte and its
    # time swings most with host load, which made mbps twice as noisy.
    mix = HARD
    chunks = 24
    shards = 12
    zipf = 1.1
    setup_reps = 3

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.readers: list[ShardedArchiveReader] = []

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = _variables(
            self.mix, self.chunks * self.config.chunk_bytes, rng
        )
        # Popularity ranks: which chunks and which boundaries are hot.
        self.hot_chunks = [rng.permutation(self.chunks) for _ in self.pool]
        self.hot_edges = [1 + rng.permutation(self.chunks - 1) for _ in self.pool]

    def _build(self) -> float:
        """Build the archives and open their readers; returns seconds."""
        self.close()
        for k in range(len(self.pool)):
            shutil.rmtree(self.work / f"archive-{k}", ignore_errors=True)
        t0 = time.perf_counter()
        with ParallelEngine(self.config, workers=WORKERS) as engine:
            for k, (_name, data) in enumerate(self.pool):
                writer = ShardedArchiveWriter(
                    self.work / f"archive-{k}",
                    self.config,
                    shards=self.shards,
                    engine=engine,
                )
                writer.write(data)
                writer.close()
        self._open()
        return time.perf_counter() - t0

    def setup(self) -> float:
        return statistics.median(self._build() for _ in range(self.setup_reps))

    def _open(self) -> None:
        self.close()
        self.readers = [
            ShardedArchiveReader(self.work / f"archive-{k}")
            for k in range(len(self.pool))
        ]

    def restart(self, tracer: Tracer | None = None) -> None:
        self._open()

    def engine_stats(self) -> dict:
        return {}

    def _ops(self):
        """Endless seeded op stream of ``(archive, kind, start, count)``.

        ``start``/``count`` are in values; a ``chunk`` op reads the whole
        chunk that starts at ``start``.  Every pass replays the same
        stream.
        """
        rng = np.random.default_rng([self.seed, 1])
        per_chunk = self.config.chunk_bytes // 8
        chunk_p = _zipf(self.chunks, self.zipf)
        edge_p = _zipf(self.chunks - 1, self.zipf)
        k = 0
        while True:
            value_slot = int(rng.integers(4))
            for slot in range(4):
                arc = k % len(self.pool)
                k += 1
                if slot != value_slot:
                    rank = rng.choice(self.chunks, p=chunk_p)
                    chunk = int(self.hot_chunks[arc][rank])
                    yield arc, "chunk", chunk * per_chunk, per_chunk
                    continue
                rank = rng.choice(self.chunks - 1, p=edge_p)
                edge = int(self.hot_edges[arc][rank]) * per_chunk
                before = int(rng.integers(1, per_chunk // 2))
                after = int(rng.integers(1, per_chunk // 2))
                yield arc, "values", edge - before, before + after

    def run(self, seconds: float, tracer: Tracer | None = None) -> OpLog:
        log = OpLog()
        ops = self._ops()
        while log.wall < seconds:
            arc, kind, start, count = next(ops)
            reader = self.readers[arc]
            t0 = time.perf_counter()
            try:
                with _root(tracer):
                    if kind == "chunk":
                        result = reader.read_chunk(start // count)
                    else:
                        result = reader.read_values(start, count)
                ok = True
            except CodecError as exc:
                ok, result = False, b""
                print(f"read {kind} at {start} failed: {exc!r}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
            data = self.pool[arc][1]
            ok = ok and memoryview(data)[start * 8 : (start + count) * 8] == result
            if tracer is not None:
                tracer.count("bench.returned_bytes", len(result))
            log.add(elapsed, len(result), ok)
            log.wall += elapsed
        return log

    def bytes_stored_per_byte(self) -> float:
        stored = sum(
            _dir_bytes(self.work / f"archive-{k}") for k in range(len(self.pool))
        )
        return stored / sum(len(data) for _name, data in self.pool)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        for reader in self.readers:
            reader.close()
        self.readers = []


class ServeMixed:
    """Closed loop of 2 blocking clients against ``primacy serve --workers 2``.

    Each client sends its next request when the previous reply is in;
    in every block of five requests three are ``compress`` and two are
    ``decompress``, in a seeded order.  Payloads are 512 KiB of a hard
    dataset at 128 KiB chunks (four chunks per request).
    """

    name = "serve_mixed"
    fsync = "no storage: containers travel in memory"
    request = RequestConfig(chunk_bytes=128 * KIB)
    mix = HARD * 2
    payload_bytes = 512 * KIB
    clients = 2
    setup_reps = 3

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.daemon: subprocess.Popen | None = None
        self.by_kind: dict[str, list[float]] = {}
        self._lock = threading.Lock()

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = _variables(self.mix, self.payload_bytes, rng)
        one_shot = PrimacyCompressor(
            PrimacyConfig(chunk_bytes=self.request.chunk_bytes)
        )
        self.containers = [one_shot.compress(data)[0] for _name, data in self.pool]

    # -- daemon lifecycle ----------------------------------------------

    def _spawn(self, argv: list[str]) -> float:
        """Start a daemon; returns seconds from spawn to a healthy reply."""
        env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
        t0 = time.perf_counter()
        self.daemon = subprocess.Popen(
            argv + ["serve", "--workers", str(WORKERS), "--port", "0"],
            cwd=CHECKOUT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            # Its own group, so close() can wait for everything it starts.
            start_new_session=True,
        )
        line = self.daemon.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))
        with ServeClient(*self.address) as client:
            if client.health().get("status") != "ok":
                raise RuntimeError("daemon is not healthy")
        return time.perf_counter() - t0

    def setup(self) -> float:
        # The first spawn compiles the bytecode caches; it is not timed.
        self._spawn([sys.executable, "-m", "repro.cli"])
        samples = []
        for _ in range(self.setup_reps):
            self.close()
            samples.append(self._spawn([sys.executable, "-m", "repro.cli"]))
        return statistics.median(samples)

    def restart(self, tracer: Tracer | None = None) -> None:
        self.close()
        if tracer is None:
            self._spawn([sys.executable, "-m", "repro.cli"])
            return
        launcher = CHECKOUT / "perfbench" / "traced_serve.py"
        self._spawn([sys.executable, str(launcher), str(tracer.dump_dir), "--"])

    def engine_stats(self) -> dict:
        with ServeClient(*self.address) as client:
            return client.stat()["engine"]

    # -- the closed loop -----------------------------------------------

    def _client(
        self, index: int, deadline: float, log: OpLog, tracer: Tracer | None
    ) -> None:
        rng = np.random.default_rng([self.seed, index])
        by_kind: dict[str, list[float]] = {"compress": [], "decompress": []}
        with ServeClient(*self.address) as client:
            while time.perf_counter() < deadline:
                kinds = rng.permutation(["compress"] * 3 + ["decompress"] * 2)
                for kind in kinds:
                    k = int(rng.integers(len(self.pool)))
                    data, container = self.pool[k][1], self.containers[k]
                    t0 = time.perf_counter()
                    try:
                        with _root(tracer):
                            if kind == "compress":
                                reply = client.compress(data, config=self.request)
                            else:
                                reply = client.decompress(container)
                        ok = True
                    except ServeError as exc:
                        ok = False
                        if tracer is not None:
                            tracer.count("serve.refused")
                        print(f"{kind} refused: {exc!r}", file=sys.stderr)
                    except (CodecError, OSError) as exc:
                        ok = False
                        print(f"{kind} failed: {exc!r}", file=sys.stderr)
                    elapsed = time.perf_counter() - t0
                    expected = container if kind == "compress" else data
                    ok = ok and reply == expected
                    log.add(elapsed, len(data), ok)
                    if ok:
                        by_kind[kind].append(elapsed)
        with self._lock:
            for kind, samples in by_kind.items():
                self.by_kind.setdefault(kind, []).extend(samples)

    def run(self, seconds: float, tracer: Tracer | None = None) -> OpLog:
        self.by_kind = {}
        logs = [OpLog() for _ in range(self.clients)]
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [
            threading.Thread(target=self._client, args=(i, deadline, logs[i], tracer))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log = OpLog()
        for part in logs:
            log.extend(part)
        log.wall = time.perf_counter() - t0
        return log

    def bytes_stored_per_byte(self) -> float:
        return sum(map(len, self.containers)) / sum(
            len(data) for _name, data in self.pool
        )

    def peak_rss_mb(self) -> float:
        daemon = proc_tree_peak_rss_mb(self.daemon.pid) if self.daemon else 0.0
        return max(self_peak_rss_mb(), daemon)

    def close(self) -> None:
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
        wait_group(daemon.pid)


WORKLOADS = {cls.name: cls for cls in (PackZlib, ReadPoint, ServeMixed)}
