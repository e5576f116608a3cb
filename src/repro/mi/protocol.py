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
"""

from __future__ import annotations

import json
import re
import shlex
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ProtocolError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import Value, value_from_dict, value_to_dict

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
    ``new``, ``retval`` (a model :class:`Value` crosses as its dict form)
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
        if isinstance(value, dict) and "abstract_type" in value:
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
