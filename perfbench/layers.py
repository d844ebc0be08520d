"""Which public calls each layer's spans wrap, and the per-layer metrics.

Layer names follow the ``repro`` packages.  :func:`install` wraps the
calls listed here; :func:`layer_metrics` turns the merged span totals of
all traced processes into the per-layer metrics of ``BENCHMARK.json``;
:func:`budget` splits the benchmark process's timed wall into one row
per layer plus the unattributed rest.
"""

from __future__ import annotations

from perfbench.spans import ROOT, Totals, Tracer

#: Per-layer metric -> (end-to-end metric it should move, workloads);
#: a workload not named is predicted not to move.  The traced run prints
#: this beside each per-layer metric.
MOVES = {
    "compressors.compress_s": ("mbps", "pack_zlib, serve_mixed"),
    "compressors.decompress_s": ("mbps, p50_ms", "read_point, serve_mixed"),
    "compressors.in_mb": ("mbps", "all (work count)"),
    "compressors.out_per_in": ("bytes_stored_per_byte", "pack_zlib, serve_mixed"),
    "core.precondition_s": ("mbps", "pack_zlib (small share), serve_mixed"),
    "core.restore_s": ("mbps, p50_ms", "read_point"),
    "core.chunks": ("mbps", "all (work count)"),
    "isobar.analyze_s": ("mbps", "pack_zlib, serve_mixed"),
    "isobar.partition_s": ("mbps", "pack_zlib, serve_mixed"),
    "isobar.reassemble_s": ("mbps, p50_ms", "read_point"),
    "isobar.solver_frac": ("mbps", "all (share of ISOBAR time in the solver)"),
    "checksum.adler32_s": ("mbps", "read_point (largest share), pack_zlib"),
    "checksum.crc32_s": ("setup_s", "read_point (catalog CRC)"),
    "checksum.mb": ("mbps", "all (work count)"),
    "storage.append_s": ("mbps", "pack_zlib"),
    "storage.commit_s": ("mbps, p50_ms", "pack_zlib (fsync+rename)"),
    "storage.catalog_seal_s": ("mbps", "pack_zlib"),
    "storage.catalog_open_s": ("setup_s", "read_point"),
    "storage.read_io_s": ("tail_ms", "read_point"),
    "storage.touched_per_returned": ("mbps", "read_point"),
    "storage.handle_hit_frac": ("tail_ms", "read_point"),
    "storage.handle_evictions": ("tail_ms", "read_point"),
    "parallel.tasks": ("mbps", "pack_zlib, serve_mixed (work count)"),
    "parallel.busy_s": ("mbps", "pack_zlib, serve_mixed"),
    "parallel.wait_s": ("mbps, tail_ms", "pack_zlib, serve_mixed"),
    "parallel.drain_s": ("mbps", "pack_zlib"),
    "parallel.utilization": ("mbps", "pack_zlib, serve_mixed"),
    "serve.client_codec_s": ("p50_ms", "serve_mixed"),
    "serve.server_s": ("p50_ms", "serve_mixed"),
    "serve.overhead_s": ("p50_ms", "serve_mixed"),
    "serve.refused": ("ok_frac", "serve_mixed"),
    "wall_s": ("budget", "every row plus unattributed_s adds up to it"),
    "unattributed_s": ("budget", "op time inside no layer span"),
    "trace_overhead_frac": ("budget", "traced vs untraced wall per user byte"),
}

#: Budget row of each span name recorded in the benchmark process.
#: ``serve.round_trip`` is split into ``serve.server_s`` and
#: ``serve.overhead_s`` by :func:`budget`.
ROW_OF = {
    "compressors.compress": "compressors.compress_s",
    "compressors.decompress": "compressors.decompress_s",
    "core.precondition": "core.precondition_s",
    "core.restore": "core.restore_s",
    "isobar.analyze": "isobar.analyze_s",
    "isobar.partition": "isobar.partition_s",
    "isobar.reassemble": "isobar.reassemble_s",
    "checksum.adler32": "checksum.adler32_s",
    "checksum.crc32": "checksum.crc32_s",
    "storage.append": "storage.append_s",
    "storage.commit": "storage.commit_s",
    "storage.catalog_seal": "storage.catalog_seal_s",
    "storage.catalog_open": "storage.catalog_open_s",
    "storage.read_io": "storage.read_io_s",
    "parallel.drain": "parallel.drain_s",
    "serve.client_codec": "serve.client_codec_s",
}


def _count_codec(direction: str):
    def on_call(tracer: Tracer, args, result, _pre) -> None:
        coded, raw = (result, args[1]) if direction == "c" else (args[1], result)
        tracer.count("compressors.raw_bytes", len(raw))
        tracer.count("compressors.coded_bytes", len(coded))

    return on_call


def _count_chunk(tracer: Tracer, _args, _result, _pre) -> None:
    tracer.count("core.chunks")


def _count_checksummed(tracer: Tracer, args, _result, _pre) -> None:
    tracer.count("checksum.bytes", len(args[0]))


def _count_touched(tracer: Tracer, args, _result, _pre) -> None:
    reader, chunk_id = args[0], args[1]
    tracer.count("storage.touched_bytes", reader.manifest.entries[chunk_id].length)


def _handles_before(args):
    # The handle LRU has no public counters; peek at it around each call.
    reader, shard_id = args[0], args[1]
    return shard_id in reader._handles, len(reader._handles)


def _count_handle(tracer: Tracer, args, _result, pre) -> None:
    hit, open_before = pre
    tracer.count("storage.handle_hits" if hit else "storage.handle_misses")
    if not hit and len(args[0]._handles) == open_before:
        tracer.count("storage.handle_evictions")


def install(tracer: Tracer, *, server: bool = False) -> None:
    """Wrap every layer's public calls; ``server`` adds the daemon's."""
    from repro.compressors.base import get_codec
    from repro.core.primacy import PrimacyCompressor
    from repro.isobar.partitioner import IsobarPartitioner
    from repro.parallel.engine import ParallelEngine
    from repro.serve import protocol
    from repro.serve.client import ServeClient
    from repro.storage.catalog import ShardedArchiveReader, ShardedArchiveWriter
    from repro.storage.writer import PrimacyFileWriter
    from repro.util import checksum
    from repro.util.durable import AtomicFile

    solver = type(get_codec("pyzlib"))
    tracer.wrap_method(solver, "compress", "compressors.compress", _count_codec("c"))
    tracer.wrap_method(
        solver, "decompress", "compressors.decompress", _count_codec("d")
    )
    tracer.wrap_method(
        PrimacyCompressor, "compress_chunk", "core.precondition", _count_chunk
    )
    tracer.wrap_method(
        PrimacyCompressor, "decompress_chunk", "core.restore", _count_chunk
    )
    tracer.wrap_method(IsobarPartitioner, "analyze", "isobar.analyze")
    tracer.wrap_method(
        IsobarPartitioner, "compress_with_analysis", "isobar.partition"
    )
    tracer.wrap_method(IsobarPartitioner, "decompress", "isobar.reassemble")
    tracer.wrap_function(checksum.adler32, "checksum.adler32", _count_checksummed)
    tracer.wrap_function(checksum.crc32, "checksum.crc32", _count_checksummed)
    for cls, attr in (
        (ShardedArchiveWriter, "__init__"),
        (ShardedArchiveWriter, "write"),
        (PrimacyFileWriter, "write"),
        (PrimacyFileWriter, "close"),
        (AtomicFile, "write"),
    ):
        tracer.wrap_method(cls, attr, "storage.append")
    tracer.wrap_method(AtomicFile, "commit", "storage.commit")
    tracer.wrap_method(ShardedArchiveWriter, "close", "storage.catalog_seal")
    tracer.wrap_method(ShardedArchiveReader, "__init__", "storage.catalog_open")
    tracer.wrap_method(
        ShardedArchiveReader, "read_chunk", "storage.read_io", _count_touched
    )
    tracer.wrap_method(ShardedArchiveReader, "read_values", "storage.read_io")
    tracer.wrap_method(ShardedArchiveReader, "read_range", "storage.read_io")
    tracer.wrap_method(
        ShardedArchiveReader,
        "_shard_handle",
        "storage.read_io",
        _count_handle,
        before=_handles_before,
    )
    tracer.wrap_method(ParallelEngine, "submit", "parallel.drain")
    tracer.wrap_method(ParallelEngine, "pop", "parallel.drain")
    if server:
        from repro.serve.daemon import PrimacyServer

        tracer.wrap_method(PrimacyServer, "handle_request", "serve.server")
        return
    tracer.wrap_function(protocol.encode_request, "serve.client_codec")
    tracer.wrap_function(protocol.decode_response, "serve.client_codec")
    tracer.wrap_method(protocol.FrameAssembler, "feed", "serve.client_codec")
    tracer.wrap_method(ServeClient, "request", "serve.round_trip")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def budget(rooted: Totals, server_s: float = 0.0) -> dict[str, float]:
    """Rows of the benchmark process's timed wall; they sum to ``wall_s``.

    ``rooted`` holds the spans recorded under :data:`ROOT`.  Each row is
    the self time of its layer's spans; the self time of the roots is
    ``unattributed_s``.  ``server_s`` (measured in the daemon) is carved
    out of the client's round-trip self time.
    """
    rows = {row: 0.0 for row in ROW_OF.values()}
    rows["serve.server_s"] = 0.0
    rows["serve.overhead_s"] = 0.0
    for name, self_s in rooted.self_s.items():
        if name == ROOT:
            continue
        if name == "serve.round_trip":
            server = min(server_s, self_s)
            rows["serve.server_s"] += server
            rows["serve.overhead_s"] += self_s - server
            continue
        rows[ROW_OF[name]] += self_s
    rows["unattributed_s"] = rooted.self_s.get(ROOT, 0.0)
    rows["wall_s"] = rooted.incl.get(ROOT, 0.0)
    return rows


def layer_metrics(
    everywhere: Totals, rooted: Totals, engine: dict, overhead: float
) -> dict[str, float]:
    """Per-layer metrics from the traced run.

    ``everywhere`` merges the totals of every traced process (benchmark,
    engine workers, daemon); ``rooted`` is the benchmark process's budget
    part; ``engine`` holds the engine-statistics deltas over the traced
    pass (``tasks``, ``worker_seconds``, ``queue_wait_seconds``,
    ``workers``, ``wall``).
    """
    self_s = everywhere.self_s
    counts = everywhere.counts
    server_s = everywhere.incl.get("serve.server", 0.0)
    out = {
        "compressors.compress_s": self_s.get("compressors.compress", 0.0),
        "compressors.decompress_s": self_s.get("compressors.decompress", 0.0),
        "compressors.in_mb": counts.get("compressors.raw_bytes", 0) / 1e6,
        "compressors.out_per_in": _ratio(
            counts.get("compressors.coded_bytes", 0),
            counts.get("compressors.raw_bytes", 0),
        ),
        "core.precondition_s": self_s.get("core.precondition", 0.0),
        "core.restore_s": self_s.get("core.restore", 0.0),
        "core.chunks": counts.get("core.chunks", 0),
        "isobar.analyze_s": self_s.get("isobar.analyze", 0.0),
        "isobar.partition_s": self_s.get("isobar.partition", 0.0),
        "isobar.reassemble_s": self_s.get("isobar.reassemble", 0.0),
        "isobar.solver_frac": _ratio(
            sum(
                seconds
                for (parent, child), seconds in everywhere.edges.items()
                if parent.startswith("isobar.")
                and child.startswith("compressors.")
            ),
            sum(
                seconds
                for name, seconds in everywhere.incl.items()
                if name.startswith("isobar.")
            ),
        ),
        "checksum.adler32_s": self_s.get("checksum.adler32", 0.0),
        "checksum.crc32_s": self_s.get("checksum.crc32", 0.0),
        "checksum.mb": counts.get("checksum.bytes", 0) / 1e6,
        "storage.append_s": self_s.get("storage.append", 0.0),
        "storage.commit_s": self_s.get("storage.commit", 0.0),
        "storage.catalog_seal_s": self_s.get("storage.catalog_seal", 0.0),
        "storage.catalog_open_s": self_s.get("storage.catalog_open", 0.0),
        "storage.read_io_s": self_s.get("storage.read_io", 0.0),
        "storage.touched_per_returned": _ratio(
            counts.get("storage.touched_bytes", 0),
            counts.get("bench.returned_bytes", 0),
        ),
        "storage.handle_hit_frac": _ratio(
            counts.get("storage.handle_hits", 0),
            counts.get("storage.handle_hits", 0)
            + counts.get("storage.handle_misses", 0),
        ),
        "storage.handle_evictions": counts.get("storage.handle_evictions", 0),
        "parallel.tasks": engine.get("tasks", 0),
        "parallel.busy_s": engine.get("worker_seconds", 0.0),
        "parallel.wait_s": engine.get("queue_wait_seconds", 0.0),
        "parallel.drain_s": self_s.get("parallel.drain", 0.0),
        "parallel.utilization": _ratio(
            engine.get("worker_seconds", 0.0),
            engine.get("workers", 0) * engine.get("wall", 0.0),
        ),
        "serve.client_codec_s": self_s.get("serve.client_codec", 0.0),
        "serve.server_s": server_s,
        "serve.overhead_s": max(
            self_s.get("serve.round_trip", 0.0) - server_s, 0.0
        ),
        "serve.refused": counts.get("serve.refused", 0),
    }
    rows = budget(rooted, server_s)
    out["wall_s"] = rows["wall_s"]
    out["unattributed_s"] = rows["unattributed_s"]
    out["trace_overhead_frac"] = overhead
    return out
