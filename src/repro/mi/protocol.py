"""The machine-interface wire protocol between tracker and debug server.

Modeled on GDB/MI, which the paper's GDB tracker drives through a pipe:
commands look like ``-exec-continue`` or ``-break-insert main --maxdepth 2``,
and the server answers with *records*, one per line:

- ``^done`` / ``^done,<json>`` — synchronous success (payload optional);
- ``^error,msg=<json-string>`` — synchronous failure;
- ``^running`` — an exec command was accepted, the inferior is running;
- ``*stopped,<json>`` — async: the inferior paused or exited (payload
  carries the pause reason);
- ``~<json-string>`` — console stream: text the inferior printed;
- ``=<name>,<json>`` — async notification (e.g. heap allocations).

Structured payloads are JSON rather than GDB's ad-hoc tuple syntax — the
substitution keeps the record framing and the command vocabulary while
avoiding a bug-for-bug reimplementation of MI quoting. Parsing is shared by
the client and the server's tests.

Session multiplexing rides on GDB/MI's *token* syntax: a command may be
prefixed with a session id glued to the leading dash (``s1-exec-continue``)
and every record answering it carries the same prefix (``s1^running``,
``s1*stopped,...``). An absent id means the legacy single-session protocol
— old clients and old servers interoperate with new ones unchanged,
because the id is pure prefix and the grammar after it is identical. Ids
are limited to ``[A-Za-z0-9_.]``, and a prefix is only recognized when
followed by a record marker (``^ * ~ =``) or a two-word MI command name,
so the boundary with the command's own leading ``-`` is unambiguous.

The client half of the wire lives here once, for the blocking
(:class:`~repro.mi.client.MIClient`) and the asyncio clients alike:
:class:`ReplyReader`, the one rule for when a command's reply has ended
(with the two-phase deadline wait), and the command table that maps each
control point to its MI command (:func:`point_command`).
"""

from __future__ import annotations

import json
import re
import shlex
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ControlTimeout, ProtocolError, TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import Value, value_from_dict, value_to_dict
from repro.core.supervision import Deadline
from repro.core.tracker import (
    FunctionBreakpoint,
    LineBreakpoint,
    TrackedFunction,
    Watchpoint,
)

#: A session id glued to the start of a command or record line. The
#: lookahead requires the marker that follows: a record marker
#: (``^ * ~ =``), or — for commands — a well-formed MI command name,
#: which always has at least two hyphen-joined words (``-exec-run``,
#: ``-break-insert``). The two-word requirement keeps a bare malformed
#: token like ``exec-run`` from being misread as session ``exec`` plus
#: a command ``-run``; it stays a protocol error, as in the id-less
#: grammar.
_SESSION_PREFIX = re.compile(
    r"^([A-Za-z0-9_.]+)(?=[\^*~=]|-[A-Za-z0-9]+-[A-Za-z0-9])"
)

#: A full, valid session id (for validating caller-chosen ids).
_SESSION_ID = re.compile(r"^[A-Za-z0-9_.]+$")

#: Marker a *retryable* ``^error`` carries inside its message, so clients
#: can distinguish "go away" from "come back in N seconds" without a new
#: record kind (old parsers read the marker as message text, unchanged).
_RETRY_AFTER = re.compile(r"\[retry-after=([0-9.]+)s\]")


def retryable_message(message: str, retry_after: float) -> str:
    """Append the retry-after marker to an error message."""
    return f"{message} [retry-after={retry_after:g}s]"


def parse_retry_after(message: str) -> "Optional[float]":
    """The retry-after hint embedded in an error message, if any."""
    match = _RETRY_AFTER.search(message or "")
    return float(match.group(1)) if match else None


def valid_session_id(session: str) -> bool:
    """Whether ``session`` can be used as an MI session-id prefix."""
    return bool(_SESSION_ID.match(session))


def split_session(line: str) -> Tuple[Optional[str], str]:
    """Split an optional session-id prefix off a command or record line.

    Returns ``(session_id, rest)``; ``session_id`` is ``None`` for legacy
    id-less lines, and ``rest`` is always the line's grammar unchanged.
    """
    match = _SESSION_PREFIX.match(line)
    if match is None:
        return None, line
    return match.group(1), line[match.end():]


def tag_record(line: str, session: Optional[str]) -> str:
    """Prefix a formatted record line with a session id (``None`` = no-op)."""
    if session is None:
        return line
    return session + line


@dataclass
class Command:
    """A parsed MI command: name, positional args, ``--key value`` options.

    ``session`` is the multiplexing id the command line was prefixed with
    (``s1-exec-run``); ``None`` for legacy id-less commands.
    """

    name: str
    args: List[str] = field(default_factory=list)
    options: Dict[str, str] = field(default_factory=dict)
    session: Optional[str] = None

    def option_int(self, key: str) -> Optional[int]:
        raw = self.options.get(key)
        return int(raw) if raw is not None else None


def parse_command(line: str) -> Command:
    """Parse one command line (as the server reads it from its stdin)."""
    session, line = split_session(line.strip())
    try:
        tokens = shlex.split(line)
    except ValueError as error:
        raise ProtocolError(f"malformed MI command: {line!r} ({error})") from error
    if not tokens or not tokens[0].startswith("-"):
        raise ProtocolError(f"malformed MI command: {line!r}")
    name = tokens[0]
    args: List[str] = []
    options: Dict[str, str] = {}
    index = 1
    while index < len(tokens):
        token = tokens[index]
        if token == "--":
            # End-of-options marker: everything after is positional, even
            # tokens that look like options (see format_command).
            args.extend(tokens[index + 1:])
            break
        if token.startswith("--"):
            if index + 1 >= len(tokens):
                raise ProtocolError(f"option {token} is missing its value")
            options[token[2:]] = tokens[index + 1]
            index += 2
        else:
            args.append(token)
            index += 1
    return Command(name=name, args=args, options=options, session=session)


def format_command(
    name: str,
    args: Optional[List[str]] = None,
    options: Optional[Dict[str, Any]] = None,
    session: Optional[str] = None,
) -> str:
    """Format a command line (as the client writes it to the server).

    Positional arguments that would parse as options (anything starting
    with ``--``) are fenced behind an explicit ``--`` end-of-options
    marker, so every args/options combination round-trips through
    :func:`parse_command`. A ``session`` id is glued to the command name
    (``s1-exec-run``), the multiplexed-session framing.
    """
    if session is not None and not valid_session_id(session):
        raise ProtocolError(f"invalid session id {session!r}")
    parts = [name if session is None else session + name]
    for key, value in (options or {}).items():
        parts.append(f"--{key}")
        parts.append(shlex.quote(str(value)))
    arguments = [str(argument) for argument in (args or [])]
    if any(argument.startswith("--") for argument in arguments):
        parts.append("--")
    parts.extend(shlex.quote(argument) for argument in arguments)
    return " ".join(parts)


@dataclass
class Record:
    """A parsed server record.

    ``session`` is the multiplexing id the record line was prefixed with
    (``s1^done``); ``None`` for legacy id-less records.
    """

    kind: str  # "done", "error", "running", "stopped", "stream", "notify"
    payload: Any = None
    notify_name: str = ""
    session: Optional[str] = None


def format_done(payload: Any = None) -> str:
    if payload is None:
        return "^done"
    return "^done," + json.dumps(payload, separators=(",", ":"))


def format_error(message: str) -> str:
    return "^error,msg=" + json.dumps(message)


def format_running() -> str:
    return "^running"


def format_stopped(payload: Dict[str, Any]) -> str:
    return "*stopped," + json.dumps(payload, separators=(",", ":"))


#: MI stop-reason names <-> core pause-reason types: the one table both
#: directions of the stop codec read.
STOP_REASONS = {
    "breakpoint-hit": PauseReasonType.BREAKPOINT,
    "function-entry": PauseReasonType.CALL,
    "function-exit": PauseReasonType.RETURN,
    "watchpoint-trigger": PauseReasonType.WATCH,
    "end-stepping-range": PauseReasonType.STEP,
    "exited": PauseReasonType.EXIT,
    "interrupted": PauseReasonType.INTERRUPT,
    "deadlock-suspected": PauseReasonType.DEADLOCK_SUSPECTED,
}
_STOP_NAMES = {reason: name for name, reason in STOP_REASONS.items()}


def encode_stop(reason: PauseReason, **fields: Any) -> Dict[str, Any]:
    """The ``*stopped`` payload of one pause (or of the exit).

    The reason's own fields become MI fields: ``line``, ``func``, the
    ``thread``/``thread-name`` pair, the watch triple ``var``/``old``/
    ``new``, ``retval`` (a model :class:`Value` crosses as its
    :func:`~repro.core.state.value_to_dict` tree)
    and the ``deadlock`` graph. ``fields`` adds what only the server's
    substrate knows (``exitcode``, ``depth``, ``bkptno``, ``pc`` ...).
    """
    kind = reason.type
    payload: Dict[str, Any] = {
        "reason": _STOP_NAMES.get(kind, "end-stepping-range")
    }
    if kind is not PauseReasonType.EXIT:
        payload["line"] = reason.line
        if reason.function is not None:
            payload["func"] = reason.function
        if reason.thread is not None:
            payload["thread"] = reason.thread
        if reason.thread_name:
            payload["thread-name"] = reason.thread_name
        if kind is PauseReasonType.WATCH:
            payload["var"] = reason.variable
            payload["old"] = reason.old_value
            payload["new"] = reason.new_value
        elif kind is PauseReasonType.RETURN:
            value = reason.return_value
            payload["retval"] = (
                value_to_dict(value) if isinstance(value, Value) else value
            )
        elif kind is PauseReasonType.DEADLOCK_SUSPECTED:
            payload["deadlock"] = reason.details or {}
    payload.update(fields)
    return payload


def decode_stop(payload: Dict[str, Any]) -> PauseReason:
    """The :class:`PauseReason` a ``*stopped`` payload carries.

    The inverse of :func:`encode_stop`; an unknown reason name decodes as
    a plain step. Exit details (``exitcode``, ``error``) stay in the
    payload for the caller.
    """
    kind = STOP_REASONS.get(payload.get("reason"), PauseReasonType.STEP)
    if kind is PauseReasonType.EXIT:
        return PauseReason(type=kind)
    reason = PauseReason(
        type=kind,
        line=payload.get("line"),
        thread=payload.get("thread"),
        thread_name=payload.get("thread-name"),
    )
    if kind in (
        PauseReasonType.BREAKPOINT, PauseReasonType.CALL, PauseReasonType.RETURN
    ):
        reason.function = payload.get("func")
    if kind is PauseReasonType.WATCH:
        reason.variable = payload.get("var")
        reason.old_value = payload.get("old")
        reason.new_value = payload.get("new")
    elif kind is PauseReasonType.RETURN:
        value = payload.get("retval")
        if isinstance(value, dict) and "heap" in value:
            value = value_from_dict(value)
        reason.return_value = value
    elif kind is PauseReasonType.DEADLOCK_SUSPECTED:
        reason.details = payload.get("deadlock")
    return reason


def format_stream(text: str) -> str:
    return "~" + json.dumps(text)


def format_notify(name: str, payload: Dict[str, Any]) -> str:
    return f"={name}," + json.dumps(payload, separators=(",", ":"))


def parse_record(line: str) -> Record:
    """Parse one record line (as the client reads it from the server).

    Raises:
        ProtocolError: on any malformed line — unknown record marker or
            truncated/garbled payload JSON. The caller never sees a raw
            ``json.JSONDecodeError``.
    """
    line = line.rstrip("\n")
    session, line = split_session(line)
    try:
        if line.startswith("^done"):
            rest = line[len("^done") :]
            payload = json.loads(rest[1:]) if rest.startswith(",") else None
            return Record(kind="done", payload=payload, session=session)
        if line.startswith("^error,msg="):
            return Record(
                kind="error",
                payload=json.loads(line[len("^error,msg=") :]),
                session=session,
            )
        if line.startswith("^running"):
            return Record(kind="running", session=session)
        if line.startswith("*stopped,"):
            return Record(
                kind="stopped",
                payload=json.loads(line[len("*stopped,") :]),
                session=session,
            )
        if line.startswith("~"):
            return Record(
                kind="stream", payload=json.loads(line[1:]), session=session
            )
        if line.startswith("="):
            name, _, payload = line[1:].partition(",")
            return Record(
                kind="notify",
                payload=json.loads(payload) if payload else None,
                notify_name=name,
                session=session,
            )
    except ValueError as error:
        raise ProtocolError(
            f"garbled MI record: {line!r} ({error})"
        ) from error
    raise ProtocolError(f"unparsable MI record: {line!r}")


# ---------------------------------------------------------------------------
# The client half: one reply rule, one deadline wait, one command table
# ---------------------------------------------------------------------------

#: MI commands whose reply is a run-control dialogue (``^running``, the
#: run's output, then ``*stopped``) rather than a single ``^done``.
EXEC_COMMANDS = frozenset(
    ["-exec-run", "-exec-continue", "-exec-step", "-exec-next", "-exec-finish"]
)


class ReplyReader:
    """The one rule for when a command's reply has ended (sans-IO).

    A client loop receives records however it does and feeds in those
    that follow one command; :meth:`feed` returns ``True`` on the last.
    A plain command ends at ``^done``/``^error``. An exec command
    (:data:`EXEC_COMMANDS`) ends at ``*stopped``/``^error``, and a
    ``^done`` during it is a stale interrupt ack. Other records never end
    a reply; ``~stream``/``=notify`` ones are the caller's to absorb.

    With a :class:`Deadline` it is also the two-phase wait: an exec
    command is interrupted once ``deadline.timeout`` passes
    (:meth:`interrupt_due`) and then gets ``deadline.grace`` to stop; a
    plain command gets both phases to answer. After that, :meth:`timeout`
    raises :class:`ControlTimeout`.
    """

    def __init__(self, name: str, deadline: Optional[Deadline] = None):
        self.name = name
        self.deadline = deadline
        self.exec = name in EXEC_COMMANDS
        #: the record that ended the reply, once one has
        self.end: Optional[Record] = None

    def feed(self, record: Record) -> bool:
        """Take the next record; whether it ended the reply."""
        if record.kind in ("error", "stopped" if self.exec else "done"):
            self.end = record
            return True
        return False

    def result(self, error: Callable[[Any], Exception] = TrackerError) -> Any:
        """The ended reply's payload (a ``*stopped`` one is always a dict);
        an ``^error`` raises ``error(message)``."""
        if self.end.kind == "error":
            raise error(self.end.payload)
        return (self.end.payload or {}) if self.exec else self.end.payload

    def interrupt_due(self) -> bool:
        """Whether to interrupt the inferior now (true once, at expiry)."""
        deadline = self.deadline
        if (
            deadline is None
            or not self.exec
            or deadline.interrupt_requested
            or deadline.remaining() > 0
        ):
            return False
        deadline.interrupt_requested = True
        return True

    def timeout(self) -> Optional[float]:
        """How long the next receive may block (``None``: no deadline)."""
        deadline = self.deadline
        if deadline is None:
            return None
        if self.exec and not deadline.interrupt_requested:
            return max(deadline.remaining(), 0.001)
        left = deadline.grace_remaining()
        if left > 0:
            return left
        if self.exec:
            raise ControlTimeout(
                f"the inferior did not pause within {deadline.timeout}s "
                "and the interrupt went unanswered for the grace period"
            )
        raise ControlTimeout(
            f"{self.name} went unanswered for "
            f"{deadline.timeout + deadline.grace:.2f}s"
        )


#: The command table, control points: point type -> the MI command that
#: installs it and that command's one positional argument.
_POINT_COMMANDS: Dict[type, Tuple[str, Callable[[Any], str]]] = {
    LineBreakpoint: (
        "-break-insert",
        lambda point: f"{point.filename}:{point.line}"
        if point.filename
        else str(point.line),
    ),
    FunctionBreakpoint: ("-break-insert", lambda point: point.function),
    Watchpoint: ("-break-watch", lambda point: point.variable_id),
    TrackedFunction: ("-track-function", lambda point: point.function),
}


def point_command(
    point: Any,
) -> Tuple[str, List[str], Optional[Dict[str, int]]]:
    """The MI name, args and ``--maxdepth``/``--thread`` options that
    install the control point ``point``."""
    name, argument = _POINT_COMMANDS[type(point)]
    options = {
        key: getattr(point, key)
        for key in ("maxdepth", "thread")
        if getattr(point, key) is not None
    }
    return name, [argument(point)], options or None


def limit_options(limits: Any) -> Dict[str, int]:
    """The ``--as``/``--cpu``/``--fsize`` options that carry a
    :class:`~repro.subproc.limits.ResourceLimits` on ``-apply-limits``
    and ``-session-open``."""
    fields = (("as", limits.address_space), ("cpu", limits.cpu_seconds),
              ("fsize", limits.file_size))
    return {key: value for key, value in fields if value is not None}
