"""Out-of-program span tracer for the benchmark's traced runs.

The tracer measures each layer from outside: it replaces public
functions and methods of ``repro`` modules with wrappers that time every
call, and keeps the spans in memory as per-name totals.  A span's *self*
time is its duration minus the time of the spans it caused, so the self
times of all spans below a root add up to the root's duration exactly.

Every process that has the tracer installed keeps its own totals.  The
engine's worker processes are forked from a traced parent and inherit
the wrappers; they write their totals to ``<dump_dir>/<pid>.json`` when
they exit (``multiprocessing.util.Finalize`` runs at a worker's normal
exit), and the parent merges those files with :func:`load_dumps`.

Coroutine functions get *detached* spans: their duration is counted,
but they take no part in nesting, because interleaved coroutines on one
thread do not nest.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Name of the benchmark's own span around each timed operation.
ROOT = "bench.op"


@dataclass
class Totals:
    """Per-span-name totals of one process."""

    incl: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    # (parent name, child name) -> child seconds under that parent
    edges: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add_span(self, name: str, incl: float, self_s: float) -> None:
        self.incl[name] = self.incl.get(name, 0.0) + incl
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def merge(self, other: "Totals") -> None:
        for mine, theirs in (
            (self.incl, other.incl),
            (self.self_s, other.self_s),
            (self.edges, other.edges),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def to_json(self) -> dict:
        return {
            "incl": self.incl,
            "self_s": self.self_s,
            "edges": [[p, c, s] for (p, c), s in self.edges.items()],
            "counts": self.counts,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Totals":
        return cls(
            incl=dict(doc["incl"]),
            self_s=dict(doc["self_s"]),
            edges={(p, c): s for p, c, s in doc["edges"]},
            counts=dict(doc["counts"]),
        )


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0


class Tracer:
    """Wraps targets in place; :meth:`uninstall` restores the originals.

    ``dump_dir`` makes every process that inherits the wrappers by fork
    write its totals there at exit (see the module docstring).
    """

    def __init__(self, dump_dir: str | os.PathLike | None = None) -> None:
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.active = True
        self._restore: list[tuple[object, str, object]] = []
        self._reset_process()

    # -- per-process state ---------------------------------------------

    def _reset_process(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[Totals, Totals]] = []

    def _state(self):
        if os.getpid() != self._pid:
            # A forked child inherits the parent's totals and open frames;
            # it starts empty and reports its own at exit.
            self._reset_process()
            self._register_child_dump()
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rooted = Totals()
            local.loose = Totals()
            with self._lock:
                self._per_thread.append((local.rooted, local.loose))
        return local

    def _register_child_dump(self) -> None:
        if self.dump_dir is None:
            return
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)

    def totals(self, rooted_only: bool = False) -> Totals:
        """This process's totals, merged over its threads.

        ``rooted_only`` keeps only spans recorded under a :data:`ROOT`
        span -- the ones whose self times add up to the roots' duration.
        """
        merged = Totals()
        with self._lock:
            for rooted, loose in self._per_thread:
                merged.merge(rooted)
                if not rooted_only:
                    merged.merge(loose)
        return merged

    def dump(self) -> None:
        """Write this process's totals to ``<dump_dir>/<pid>.json``."""
        if self.dump_dir is None:
            return
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.totals().to_json()))

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a block as a span (the benchmark's root ops use this)."""
        if not self.active:
            yield
            return
        local = self._state()
        frame = _Frame(name)
        stack = local.stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            under_root = (stack[0] if stack else frame).name == ROOT
            totals = local.rooted if under_root else local.loose
            totals.add_span(name, dur, dur - frame.child)
            if stack:
                parent = stack[-1]
                parent.child += dur
                key = (parent.name, name)
                totals.edges[key] = totals.edges.get(key, 0.0) + dur

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter of this process."""
        if self.active:
            self._state().loose.count(name, amount)

    @contextmanager
    def paused(self):
        """Run a block unrecorded (verification between timed ops)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation --------------------------------------------------

    def wrap_method(
        self, cls: type, attr: str, name: str, on_call=None, before=None
    ) -> None:
        """Replace ``cls.attr`` with a timed wrapper.

        ``on_call(tracer, args, result, pre)`` may add counters after each
        call; ``pre`` is what ``before(args)`` returned ahead of the call.
        """
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, on_call, before))

    def wrap_function(self, func, name: str, on_call=None) -> None:
        """Replace ``func`` in every loaded module that binds it by name."""
        wrapper = self._wrapper(func, name, on_call)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is func:
                    self._restore.append((module, key, func))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrapper(self, func, name: str, on_call, before=None):
        tracer = self
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def detached(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    if tracer.active:
                        dur = time.perf_counter() - t0
                        tracer._state().loose.add_span(name, dur, dur)

            return detached

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            pre = before(args) if before is not None else None
            with tracer.span(name):
                result = func(*args, **kwargs)
                if on_call is not None:
                    on_call(tracer, args, result, pre)
            return result

        return timed


def load_dumps(dump_dir: str | os.PathLike) -> Totals:
    """Merge every per-process dump in ``dump_dir``."""
    merged = Totals()
    for path in sorted(Path(dump_dir).glob("*.json")):
        merged.merge(Totals.from_json(json.loads(path.read_text())))
    return merged
