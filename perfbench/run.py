"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pack_zlib --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the program from
``src/``.  With ``--trace 0`` it prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it runs half the time untraced
and half traced on the same inputs and prints every per-layer metric,
with the layer budget of the traced half.  The last line of standard
output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Untimed ops after set-up, so lazy start-up (the engine's first tasks,
#: the daemon's worker fork) is not inside the measured interval.
WARMUP_SECONDS = 1.0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _end_to_end(wl, setup_s: float, log) -> dict[str, float]:
    from perfbench.measure import latency_summary

    lat = latency_summary(log.latencies)
    print(f"# {wl.name}: {log.attempted} ops, tail_ms is p{lat['tail_pct']:.1f} "
          f"of n={lat['n']}")
    for kind, samples in getattr(wl, "by_kind", {}).items():
        part = latency_summary(samples)
        print(f"#   {kind}: p50 {part['p50_ms']:.2f} ms, tail "
              f"{part['tail_ms']:.2f} ms (p{part['tail_pct']:.1f} of n={part['n']})")
    return {
        "setup_s": setup_s,
        "mbps": log.user_bytes / 1e6 / log.wall,
        "p50_ms": lat["p50_ms"],
        "tail_ms": lat["tail_ms"],
        "bytes_stored_per_byte": wl.bytes_stored_per_byte(),
        "ok_frac": (log.attempted - log.failed) / log.attempted,
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def _traced(wl, seconds: float, dump_dir: Path):
    """Untraced then traced halves; returns (per-layer metrics, budget, log).

    Both halves start from a restarted engine, daemon or reader set, so
    the traced-versus-untraced comparison is like for like.
    """
    from perfbench.layers import budget, install, layer_metrics
    from perfbench.spans import Tracer, load_dumps

    wl.restart()
    base = wl.run(seconds / 2)
    tracer = Tracer(dump_dir)
    install(tracer)
    try:
        wl.restart(tracer)
        with tracer.paused():
            before = wl.engine_stats()
        log = wl.run(seconds / 2, tracer)
        with tracer.paused():
            after = wl.engine_stats()
        wl.close()  # workers and the daemon write their span dumps on exit
    finally:
        tracer.uninstall()
    engine = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("tasks", "worker_seconds", "queue_wait_seconds")
    }
    engine.update(workers=after.get("workers", 0), wall=log.wall)
    everywhere = tracer.totals()
    everywhere.merge(load_dumps(dump_dir))
    rooted = tracer.totals(rooted_only=True)
    overhead = log.seconds_per_mb / base.seconds_per_mb - 1.0
    metrics = layer_metrics(everywhere, rooted, engine, overhead)
    rows = budget(rooted, metrics["serve.server_s"])
    base.extend(log)
    return metrics, rows, base


def _print_budget(rows: dict[str, float]) -> None:
    wall = rows["wall_s"]
    print(f"# budget of the benchmark process's timed ops: wall_s = {wall:.4f} s")
    for name, seconds in rows.items():
        if name != "wall_s" and seconds:
            print(f"#   {name:28s} {seconds:10.4f} s {100 * seconds / wall:6.1f}%")
    parts = sum(v for k, v in rows.items() if k != "wall_s")
    print(f"#   rows + unattributed_s = {parts:.4f} s")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench.measure import host_fingerprint
    from perfbench.layers import MOVES
    from perfbench.procs import become_subreaper, stop_resource_tracker, wait_children
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    become_subreaper()
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    cls = WORKLOADS[args.workload]
    wl = cls(work, args.seed)
    try:
        print("# host " + json.dumps(host_fingerprint(cls.fsync)))
        wl.prepare()
        setup_s = wl.setup()
        wl.run(WARMUP_SECONDS)
        if args.trace:
            values, rows, log = _traced(wl, args.seconds, work / "spans")
            _print_budget(rows)
            wanted = spec["per_layer"]
        else:
            log = wl.run(args.seconds)
            values = _end_to_end(wl, setup_s, log)
            wanted = spec["end_to_end"]
    finally:
        wl.close()
        stop_resource_tracker()
        wait_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's files are still there
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value = values[name]
        moves = " -> {}: {}".format(*MOVES[name]) if args.trace else ""
        print(f"# {name:30s} {value:14.6f} {unit:6s}{moves}")
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
