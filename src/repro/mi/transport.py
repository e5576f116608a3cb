"""Pipe transports for the MI protocol: one subprocess, three pipes.

Two implementations share one contract — framing (one record per line),
liveness (a dead server is reaped and diagnosed as a
:class:`~repro.core.errors.ServerCrashError` carrying the exit code and a
bounded stderr tail), and interrupt delivery. ``SIGINT`` is what
interrupts a child server's running control call; the ``-exec-interrupt``
line sent with it is still what the tracker service routes by session,
and a child server answers it with nothing:

- :class:`PipeTransport` — the blocking transport behind
  :class:`repro.mi.client.MIClient`. stdout and stderr are drained by
  daemon threads so every receive can carry a deadline; both buffers are
  *bounded rings*, so a log-flooding child cannot grow client memory
  without limit (drops are counted and surfaced through
  :class:`~repro.core.engine.TrackerStats`).
- :class:`AsyncPipeTransport` — the same contract on
  ``asyncio.subprocess`` for the multiplexing tracker service
  (:mod:`repro.service`): no pump threads, no polling — one event loop
  owns many children and sleeps until one of them speaks.
"""

from __future__ import annotations

import asyncio
import collections
import signal
import subprocess
import sys
import threading
from typing import Any, Callable, List, Optional

from repro.core.errors import ServerCrashError
from repro.mi import protocol

#: Sentinel queued by the reader thread when the server's stdout hits EOF.
_EOF = object()

#: How many trailing stderr lines a crashed server leaves behind.
STDERR_TAIL_LINES = 20

#: Default bound on buffered-but-unread stdout lines. Generous — normal
#: sessions buffer a handful of records — but finite, so a child that
#: floods its stdout evicts its own oldest lines instead of growing the
#: client without limit.
MAX_BUFFERED_LINES = 100_000

#: Deadline (seconds) on the greeting of a freshly spawned server.
SPAWN_TIMEOUT = 30.0

#: asyncio stream-reader line limit: timeline dumps serialize a whole
#: recording into one record line, so the default 64 KiB is far too small.
_ASYNC_LINE_LIMIT = 1 << 24


def crash_error(
    context: str,
    exit_code: Optional[int],
    stderr_tail: List[str],
) -> ServerCrashError:
    """The uniform diagnosis both transports raise for a dead server."""
    return ServerCrashError(
        f"the debug server died ({context})",
        exit_code=exit_code,
        stderr_tail=stderr_tail,
    )


class _StderrTail:
    """A bounded tail of stderr lines, counting what scrolled off."""

    def __init__(self, maxlen: int = STDERR_TAIL_LINES):
        self._lines: "collections.deque[str]" = collections.deque(maxlen=maxlen)
        self.dropped = 0

    def append(self, line: str) -> None:
        if len(self._lines) == self._lines.maxlen:
            self.dropped += 1
        self._lines.append(line)

    def lines(self) -> List[str]:
        return list(self._lines)


class _LineRing:
    """A bounded, blocking line queue: a ring buffer with a condition.

    ``put`` never blocks — when the ring is full the *oldest* line is
    evicted and counted, which is the behavior that keeps a flooding
    child from wedging its own pump thread or growing the client.
    """

    def __init__(self, maxlen: int):
        self._lines: "collections.deque[Any]" = collections.deque()
        self._maxlen = maxlen
        self._ready = threading.Condition(threading.Lock())
        self.dropped = 0

    def put(self, item: Any) -> None:
        with self._ready:
            if self._maxlen and len(self._lines) >= self._maxlen:
                self._lines.popleft()
                self.dropped += 1
            self._lines.append(item)
            self._ready.notify()

    def get(self, timeout: Optional[float] = None) -> Any:
        """Next line; ``None`` when the timeout expires first."""
        with self._ready:
            if not self._ready.wait_for(lambda: self._lines, timeout):
                return None
            return self._lines.popleft()


class PipeTransport:
    """One debug-server subprocess and its three pipes (blocking client).

    stdout and stderr are drained by daemon threads: stdout lines land in
    a bounded ring (so receives can time out and floods cannot grow
    memory), stderr lines in a bounded tail buffer (so crash reports
    carry the server's last words). Drops on either side are counted and
    exposed via :meth:`lines_dropped`.
    """

    def __init__(
        self,
        argv: List[str],
        max_buffered_lines: int = MAX_BUFFERED_LINES,
    ):
        self._argv = list(argv)
        self._process = subprocess.Popen(
            self._argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines = _LineRing(max_buffered_lines)
        self._stderr_tail = _StderrTail()
        self._closed = False
        self._reader = threading.Thread(
            target=self._pump_stdout, name="mi-stdout-pump", daemon=True
        )
        self._reader.start()
        self._stderr_reader = threading.Thread(
            target=self._pump_stderr, name="mi-stderr-pump", daemon=True
        )
        self._stderr_reader.start()

    # -- pump threads ----------------------------------------------------

    def _pump_stdout(self) -> None:
        try:
            for line in self._process.stdout:
                self._lines.put(line)
        except ValueError:  # pipe closed under the reader
            pass
        self._lines.put(_EOF)

    def _pump_stderr(self) -> None:
        try:
            for line in self._process.stderr:
                self._stderr_tail.append(line.rstrip("\n"))
        except ValueError:
            pass

    # -- liveness --------------------------------------------------------

    def alive(self) -> bool:
        return self._process.poll() is None

    def exit_code(self) -> Optional[int]:
        return self._process.poll()

    def stderr_tail(self) -> List[str]:
        return self._stderr_tail.lines()

    def lines_dropped(self) -> int:
        """Buffered lines evicted by the stdout/stderr ring bounds."""
        return self._lines.dropped + self._stderr_tail.dropped

    def _crashed(self, context: str) -> ServerCrashError:
        """Reap the dead server and build the diagnosis."""
        try:
            exit_code = self._process.wait(timeout=2)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            exit_code = self._process.poll()
        return crash_error(context, exit_code, self.stderr_tail())

    # -- I/O -------------------------------------------------------------

    def send_line(self, line: str) -> None:
        if not self.alive():
            raise self._crashed("before the command could be sent")
        try:
            self._process.stdin.write(line + "\n")
            self._process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as error:
            raise self._crashed(f"writing failed: {error}") from error

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        """Next stdout line; ``None`` on timeout.

        Raises:
            ServerCrashError: the server's stdout reached EOF (it exited
                or was killed); the subprocess is reaped.
        """
        line = self._lines.get(timeout=timeout)
        if line is None:
            return None
        if line is _EOF:
            self._lines.put(_EOF)  # keep later receives failing fast
            raise self._crashed("its output pipe closed")
        return line

    def interrupt(self) -> None:
        """Ask the busy server to pause its inferior: the line, then SIGINT."""
        try:
            self.send_line(protocol.format_command("-exec-interrupt"))
        except ServerCrashError:
            raise
        if hasattr(signal, "SIGINT"):
            try:
                self._process.send_signal(signal.SIGINT)
            except (ProcessLookupError, OSError):  # already gone
                pass

    # -- teardown --------------------------------------------------------

    def close(self, graceful_exit: bool = True) -> None:
        """Tear the subprocess down (idempotent, crash-tolerant)."""
        if self._closed:
            return
        self._closed = True
        if self.alive() and graceful_exit:
            try:
                self.send_line(protocol.format_command("-gdb-exit"))
                self._process.wait(timeout=2)
            except (ServerCrashError, subprocess.TimeoutExpired):
                pass
        if self.alive():
            self._process.kill()
            try:
                self._process.wait(timeout=2)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                pass
        for pipe in (self._process.stdin, self._process.stdout,
                     self._process.stderr):
            if pipe:
                try:
                    pipe.close()
                except OSError:  # pragma: no cover - defensive
                    pass


class AsyncPipeTransport:
    """The transport contract on ``asyncio.subprocess`` (event-loop client).

    Same framing, liveness and interrupt semantics as
    :class:`PipeTransport`, but no threads and no polling: reads await
    the child's stdout, timeouts are ``asyncio.wait_for`` slices, and one
    event loop can own hundreds of these (the warm-pool service does).

    Build with :meth:`spawn`, not the constructor.
    """

    def __init__(self) -> None:
        self._argv: List[str] = []
        self._process: Optional[asyncio.subprocess.Process] = None
        self._stderr_tail = _StderrTail()
        self._stderr_task: Optional["asyncio.Task[None]"] = None
        self._closed = False

    @classmethod
    async def spawn(cls, argv: List[str]) -> "AsyncPipeTransport":
        transport = cls()
        transport._argv = list(argv)
        transport._process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            limit=_ASYNC_LINE_LIMIT,
        )
        transport._stderr_task = asyncio.ensure_future(
            transport._pump_stderr()
        )
        return transport

    async def _pump_stderr(self) -> None:
        try:
            while True:
                raw = await self._process.stderr.readline()
                if not raw:
                    return
                self._stderr_tail.append(
                    raw.decode("utf-8", "replace").rstrip("\n")
                )
        except (asyncio.CancelledError, ValueError):
            return

    # -- liveness --------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def alive(self) -> bool:
        return (
            self._process is not None and self._process.returncode is None
        )

    def exit_code(self) -> Optional[int]:
        return self._process.returncode if self._process else None

    def stderr_tail(self) -> List[str]:
        return self._stderr_tail.lines()

    def lines_dropped(self) -> int:
        return self._stderr_tail.dropped

    def _crashed(self, context: str) -> ServerCrashError:
        return crash_error(context, self.exit_code(), self.stderr_tail())

    # -- I/O -------------------------------------------------------------

    async def send_line(self, line: str) -> None:
        if not self.alive():
            raise self._crashed("before the command could be sent")
        try:
            self._process.stdin.write((line + "\n").encode("utf-8"))
            await self._process.stdin.drain()
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            raise self._crashed(f"writing failed: {error}") from error

    async def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        """Next stdout line; ``None`` on timeout.

        Raises:
            ServerCrashError: the server's stdout reached EOF.
        """
        read = self._process.stdout.readline()
        if timeout is not None:
            try:
                raw = await asyncio.wait_for(read, timeout)
            except asyncio.TimeoutError:
                return None
        else:
            raw = await read
        if not raw:
            # Reap so exit_code() is accurate in the diagnosis.
            try:
                await asyncio.wait_for(self._process.wait(), 2)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
            raise self._crashed("its output pipe closed")
        return raw.decode("utf-8", "replace")

    def kill(self) -> None:
        """SIGKILL the child immediately (chaos/testing hook).

        The death is observed through the normal liveness paths: the next
        ``recv_line`` hits EOF and raises :class:`ServerCrashError`.
        """
        if self._process is not None and self.alive():
            try:
                self._process.kill()
            except ProcessLookupError:  # pragma: no cover - already gone
                pass

    async def interrupt(self) -> None:
        """Ask the busy server to pause its inferior: the line, then SIGINT."""
        await self.send_line(protocol.format_command("-exec-interrupt"))
        if hasattr(signal, "SIGINT"):
            try:
                self._process.send_signal(signal.SIGINT)
            except (ProcessLookupError, OSError):  # already gone
                pass

    # -- teardown --------------------------------------------------------

    async def close(self, graceful_exit: bool = True) -> None:
        """Tear the subprocess down (idempotent, crash-tolerant).

        Safe to cancel: a close cancelled during the graceful exit still
        kills and reaps the child before the cancellation propagates, so
        neither the child nor its asyncio transport outlives the close.
        """
        if self._closed or self._process is None:
            return
        self._closed = True
        try:
            if self.alive() and graceful_exit:
                try:
                    await self.send_line(protocol.format_command("-gdb-exit"))
                    await asyncio.wait_for(self._process.wait(), 2)
                except (ServerCrashError, asyncio.TimeoutError):
                    pass
        finally:
            if self.alive():
                try:
                    self._process.kill()
                except ProcessLookupError:  # pragma: no cover - already gone
                    pass
                try:
                    await asyncio.wait_for(self._process.wait(), 5)
                except asyncio.TimeoutError:  # pragma: no cover - defensive
                    pass
            if self._stderr_task is not None:
                self._stderr_task.cancel()


def default_transport_factory(
    program: str, args: List[str]
) -> Callable[[], PipeTransport]:
    """The standard blocking transport over ``python -m repro.mi.server``."""
    argv = [sys.executable, "-m", "repro.mi.server", program] + args
    return lambda: PipeTransport(argv)
