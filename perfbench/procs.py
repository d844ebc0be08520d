"""Make sure every process a run starts has ended before the run does.

Two kinds of process would otherwise outlive a run for a moment: the
:mod:`multiprocessing` resource tracker, which the engine starts and
which only exits once it reads end-of-file after its owner is gone, and
whatever the serve daemon itself started (its engine workers and its own
resource tracker).  The benchmark process makes itself a child
subreaper, so such orphans become its children and can be waited for.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from multiprocessing import resource_tracker
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36
#: How long to wait for a process to end before killing it.
GRACE_SECONDS = 30.0


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); returns whether it worked."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker, if it runs, and wait for it."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _processes() -> list[tuple[int, int, int]]:
    """``(pid, ppid, pgid)`` of every process, zombies included."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue  # ended meanwhile
            fields = stat.rsplit(")", 1)[1].split()
            found.append((int(entry.name), int(fields[1]), int(fields[2])))
    return found


def group_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid``."""
    return [pid for pid, _ppid, group in _processes() if group == pgid]


def children() -> list[int]:
    """Pids of this process's children."""
    me = os.getpid()
    return [pid for pid, ppid, _group in _processes() if ppid == me]


def descendants(root: int) -> list[int]:
    """Pids of the children of ``root``, their children, and so on."""
    below: dict[int, list[int]] = {}
    for pid, ppid, _group in _processes():
        below.setdefault(ppid, []).append(pid)
    found, todo = [], [root]
    while todo:
        kids = below.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def _wait_until_gone(find, timeout: float) -> None:
    """Wait until ``find()`` lists no process, reaping those that are ours.

    After ``timeout`` the stragglers are sent SIGKILL, and a few seconds
    later the wait gives up, so a run always ends.
    """
    deadline = time.monotonic() + timeout
    killed = False
    while (pids := find()) and time.monotonic() < deadline + 5:
        for pid in pids:
            try:
                if not killed and time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass  # gone, or not ours: its own parent reaps it
        killed = time.monotonic() > deadline
        time.sleep(0.01)


def wait_group(pgid: int, timeout: float = GRACE_SECONDS) -> None:
    """Wait until process group ``pgid`` is empty; SIGKILL it after ``timeout``."""
    _wait_until_gone(lambda: group_members(pgid), timeout)


def wait_children(timeout: float = GRACE_SECONDS) -> None:
    """Wait until this process has no children; SIGKILL them after ``timeout``.

    Call it only once nothing else waits for a child of this process.
    """
    _wait_until_gone(children, timeout)
