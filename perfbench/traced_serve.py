"""Start ``primacy serve`` with the benchmark's tracer installed.

    python3 perfbench/traced_serve.py DUMP_DIR -- serve --workers 2 --port 0

The daemon and the engine workers it forks write their span totals to
``DUMP_DIR`` when they exit (after SIGTERM's drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    dump_dir, sep, *serve_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_serve.py DUMP_DIR -- serve ...")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.layers import install
    from perfbench.spans import Tracer
    from repro.cli import main as cli_main

    tracer = Tracer(dump_dir)
    install(tracer, server=True)
    try:
        return cli_main(serve_argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
