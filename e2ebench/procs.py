"""Lifetime of everything a benchmark run starts.

:class:`Lifetime` owns the run's child processes and its scratch directory.
It turns SIGINT, SIGTERM and the run's overall deadline into exceptions in
the main thread, so every exit path unwinds through the same ``finally``
blocks: the serving daemon and probe processes are stopped, the distributed
coordinator closes its broker and joins its workers, sockets close, and the
scratch directory is removed.  :func:`live_descendants` then lists any
process of ours still alive, which the caller reports as a failure.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: A run that has not finished by then is aborted and cleaned up.
DEADLINE_S = 160
_PR_SET_PDEATHSIG = 1


class Interrupted(BaseException):
    """A signal or the deadline stopped the run (not an ``Exception``, so no
    ``except Exception`` on the way up can swallow it)."""

    def __init__(self, reason: str, exit_code: int) -> None:
        super().__init__(reason)
        self.exit_code = exit_code


def _libc_prctl():
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


class Lifetime:
    def __init__(self, root: Path, deadline_s: int = DEADLINE_S) -> None:
        self.scratch = root / ".e2ebench_tmp" / str(os.getpid())
        self.deadline_s = deadline_s
        self._children: List[subprocess.Popen] = []
        self._previous_handlers = {}
        self._prctl = _libc_prctl()

    # ------------------------------------------------------------------ context
    def __enter__(self) -> "Lifetime":
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
            self._previous_handlers[signum] = signal.signal(signum, self._on_signal)
        signal.alarm(self.deadline_s)
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *_exc) -> None:
        signal.alarm(0)
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_IGN)      # let clean-up finish
        try:
            for child in reversed(self._children):
                stop_process(child)
            _stop_resource_tracker()
            shutil.rmtree(self.scratch, ignore_errors=True)
            try:
                self.scratch.parent.rmdir()
            except OSError:
                pass            # another run's scratch directory is still there
        finally:
            for signum, handler in self._previous_handlers.items():
                signal.signal(signum, handler)

    def _on_signal(self, signum, _frame) -> None:
        if signum == signal.SIGALRM:
            raise Interrupted(f"run exceeded its {self.deadline_s}s deadline", 124)
        raise Interrupted(f"stopped by {signal.Signals(signum).name}", 128 + signum)

    # ------------------------------------------------------------------ children
    def popen(self, args, **kwargs) -> subprocess.Popen:
        """Start a child that is stopped with the run and dies with this process."""
        prctl = self._prctl

        def die_with_parent() -> None:
            if prctl is not None:
                prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)

        child = subprocess.Popen(args, preexec_fn=die_with_parent, **kwargs)
        self._children.append(child)
        return child

    def run(self, args, *, timeout: float, **kwargs) -> str:
        """Run a child to completion through :meth:`popen`; its stdout.

        Raises ``RuntimeError`` if the child fails."""
        child = self.popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, **kwargs)
        try:
            out, err = child.communicate(timeout=timeout)
        finally:
            stop_process(child)
        if child.returncode != 0:
            raise RuntimeError(f"{' '.join(map(str, args))} exited {child.returncode}: "
                               f"{err.strip()[-2000:]}")
        return out


def stop_process(child: subprocess.Popen, grace: float = 3.0) -> None:
    """SIGTERM, then SIGKILL after ``grace`` seconds; always reaps the child."""
    if child.poll() is None:
        child.terminate()
        try:
            child.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    for stream in (child.stdin, child.stdout, child.stderr):
        if stream is not None:
            stream.close()


def _stop_resource_tracker() -> None:
    """multiprocessing's resource tracker outlives the workers it served."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def live_descendants(root_pid: Optional[int] = None) -> List[Tuple[int, str]]:
    """``(pid, command line)`` of every live (non-zombie) descendant process."""
    root_pid = os.getpid() if root_pid is None else root_pid
    parents, states = {}, {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        states[int(entry.name)] = fields[0]
        parents[int(entry.name)] = int(fields[1])
    found, frontier = [], [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent:
                frontier.append(pid)
                if states[pid] != "Z":
                    found.append(pid)
    return [(pid, _cmdline(pid)) for pid in found]


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def reap_leftovers(wait_s: float = 5.0) -> List[Tuple[int, str]]:
    """Wait for descendants to exit; kill and return any still alive after."""
    deadline = time.monotonic() + wait_s
    alive = live_descendants()
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = live_descendants()
    for pid, _ in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return alive
