"""The backend-independent half of an MI debug server.

Two servers speak the MI protocol in this reproduction, and both *host a
tracker*: the server over the mini-C / RISC-V interpreters
(:mod:`repro.mi.server`) hosts an in-process tracker over the inferior's
event generator, and the out-of-process Python server
(:mod:`repro.subproc.server`) hosts a :class:`PythonTracker` in a child
interpreter. Everything that is about *being an MI server over a
tracker* rather than about a particular inferior substrate lives here:

- :class:`ServerCore` — command dispatch (``-name`` to ``_cmd_name``),
  defensive error translation (a handler bug becomes an ``^error`` record,
  never a dead pipe), session-id echo (a command prefixed ``s1-...`` gets
  every reply record prefixed ``s1``, the multiplexed-session framing; an
  id-less command stays id-less, preserving wire compatibility with
  legacy clients), interrupt delivery, the control-point number
  registry shared by enable/disable/delete, and every command that only
  calls the hosted tracker's public API: run control, line/function
  breakpoints, watches, tracked functions, paused-state inspection
  and the ``-timeline-*`` recording family. Each ``*stopped``
  record is built by :func:`repro.mi.protocol.encode_stop` from the
  tracker's :attr:`pause_reason`;
- :func:`serve_stdio` — the line loop that drives a server over
  stdin/stdout, shared by both ``main`` entry points.

A running control call is interrupted only by SIGINT, as a GDB in
synchronous MI mode is. Every client sends it along with each
``-exec-interrupt`` line. CPython runs the handler on the main thread,
the thread blocked in the control call (running the mini-C interpreter,
or waiting for the Python inferior's pause), so nothing reads stdin
while a call runs. The ``-exec-interrupt`` line is read after the call
returns and answered with nothing.

``ServerCore.handle`` is pure (command line in, record lines out), so
every server built on it is unit-testable without pipes.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ProgramLoadError, ProtocolError, TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import frame_to_dict, variables_to_dict
from repro.mi import protocol


class ServerCore:
    """Dispatch, bookkeeping and tracker-API commands of every MI server.

    Subclasses set :attr:`tracker` (a :class:`repro.core.tracker.Tracker`,
    whose ``engine`` holds the control-point registries) and :attr:`path`
    (``None`` while no program is loaded), provide ``_cmd_<name>``
    handlers for their substrate's own commands (dashes in the MI command
    name map to underscores), and override the hooks
    :meth:`_drain_output` (the async records a control call produced),
    :meth:`_stop_fields` (substrate fields of the ``*stopped`` record),
    :meth:`_evaluate` (variable rendering) and :meth:`_break_at_address`.
    """

    def __init__(self) -> None:
        self.tracker: Any = None
        self.path: Optional[str] = None
        #: whether ``-exec-run`` was accepted
        self._running = False
        self._number = 0
        self._finished = False
        #: whether a control call is running (interrupts act only then)
        self._in_flight = False

    @property
    def engine(self) -> Any:
        """The hosted tracker's :class:`ControlPointEngine`."""
        return self.tracker.engine

    def request_interrupt(self) -> None:
        """Ask the running control call to pause at the next opportunity.

        The SIGINT handler's body. Async-signal-safe (the hosted tracker
        stores a flag). Between control calls it does nothing, so a late
        interrupt never lands on the next call.
        """
        if self._in_flight:
            self.tracker._request_interrupt()

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def handle(self, line: str) -> List[str]:
        """Process one command line; return the record lines to emit.

        A command prefixed with a session id (``s1-exec-run``) gets every
        reply record prefixed with the same id (``s1^running`` ...); an
        id-less legacy command gets id-less replies. The two interleave
        freely on one pipe — this server is single-session, so the id is
        pure echo, but it means a multiplexing client can talk to old and
        new servers with one framing.
        """
        session, _ = protocol.split_session(line.strip())
        records = self._dispatch(line)
        if session is None:
            return records
        return [protocol.tag_record(record, session) for record in records]

    def _dispatch(self, line: str) -> List[str]:
        try:
            command = protocol.parse_command(line)
        except ProtocolError as error:
            return [protocol.format_error(str(error))]
        handler = getattr(
            self, "_cmd_" + command.name.lstrip("-").replace("-", "_"), None
        )
        if handler is None:
            return [protocol.format_error(f"undefined command {command.name}")]
        try:
            return handler(command)
        except (TrackerError, ProgramLoadError) as error:
            return [protocol.format_error(str(error))]
        except Exception as error:  # defensive: never kill the pipe
            return [protocol.format_error(f"{type(error).__name__}: {error}")]

    def _cmd_gdb_exit(self, command) -> List[str]:
        self.tracker.terminate()
        self._finished = True
        return [protocol.format_done()]

    # ------------------------------------------------------------------
    # Run control over the hosted tracker
    # ------------------------------------------------------------------

    def _cmd_exec_run(self, command) -> List[str]:
        if self.path is None:
            return [protocol.format_error("no program loaded")]
        if self._running:
            return [protocol.format_error("the inferior is already running")]
        self._running = True
        return self._exec(self.tracker.start)

    def _cmd_exec_continue(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.resume)

    def _cmd_exec_step(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.step)

    def _cmd_exec_next(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.next)

    def _cmd_exec_finish(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.finish)

    def _cmd_exec_interrupt(self, command) -> List[str]:
        """The line that came with a SIGINT; it is read after the call.

        The SIGINT did the interrupting, and the ``*stopped`` record of
        the exec command answered it (or the inferior stopped before it
        arrived). Emitting nothing keeps the client's request/reply
        pairing in step.
        """
        return []

    def _guarded_exec(self, control: Callable[[], None]) -> List[str]:
        if not self._running:
            return [protocol.format_error("the inferior has not been started")]
        if self.tracker.get_exit_code() is not None:
            return [protocol.format_error("the inferior has exited")]
        return self._exec(control)

    def _exec(self, control: Callable[[], None]) -> List[str]:
        """Run one control call; reply ``^running``, output, ``*stopped``."""
        self._in_flight = True
        try:
            control()
        finally:
            self._in_flight = False
            self.engine.interrupt_requested = False
        records = [protocol.format_running()]
        records.extend(self._drain_output())
        records.append(protocol.format_stopped(self._stop_payload()))
        return records

    def _drain_output(self) -> List[str]:
        """Hook: the async records (output, notifications) of the run."""
        return []

    def _stop_payload(self) -> Dict[str, Any]:
        """The ``*stopped`` payload of the tracker's current pause."""
        tracker = self.tracker
        exit_code = tracker.get_exit_code()
        if exit_code is not None:
            reason = PauseReason(type=PauseReasonType.EXIT)
            fields: Dict[str, Any] = {"exitcode": exit_code}
        else:
            reason = tracker.pause_reason or PauseReason(
                type=PauseReasonType.STEP, line=tracker.next_lineno
            )
            fields = {}
            if reason.line is None:
                fields["line"] = tracker.next_lineno
        fields.update(self._stop_fields(reason))
        return protocol.encode_stop(reason, **fields)

    def _stop_fields(self, reason: PauseReason) -> Dict[str, Any]:
        """Hook: substrate fields added to the ``*stopped`` payload."""
        return {}

    # ------------------------------------------------------------------
    # Control points (over the tracker's public API) and their numbering
    # ------------------------------------------------------------------

    def _cmd_break_insert(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("break-insert needs a location")]
        location = command.args[0]
        maxdepth = command.option_int("maxdepth")
        thread = command.option_int("thread")
        if location.startswith("*"):
            point: Any = self._break_at_address(int(location[1:], 0), maxdepth)
        elif ":" in location:
            filename, _, line = location.rpartition(":")
            point = self.tracker.break_before_line(
                int(line), filename=filename or None, maxdepth=maxdepth,
                thread=thread,
            )
        elif location.isdigit():
            point = self.tracker.break_before_line(
                int(location), maxdepth=maxdepth, thread=thread
            )
        else:
            point = self.tracker.break_before_func(
                location, maxdepth=maxdepth, thread=thread
            )
        return [protocol.format_done({"number": self._register(point)})]

    def _break_at_address(self, address: int, maxdepth: Optional[int]) -> Any:
        """Hook: install an address breakpoint; returns the point."""
        raise TrackerError(
            "address breakpoints are not supported for this inferior"
        )

    def _cmd_break_watch(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("break-watch needs a variable id")]
        point = self.tracker.watch(
            command.args[0], maxdepth=command.option_int("maxdepth"),
            thread=command.option_int("thread"),
        )
        return [protocol.format_done({"number": self._register(point)})]

    def _cmd_track_function(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("track-function needs a name")]
        point = self.tracker.track_function(
            command.args[0], maxdepth=command.option_int("maxdepth"),
            thread=command.option_int("thread"),
        )
        return [protocol.format_done({"number": self._register(point)})]

    def _register(self, point: Any) -> int:
        """Assign the next MI number to a freshly appended control point."""
        self._number += 1
        point.number = self._number
        self.engine.mark_dirty()
        return self._number

    def _cmd_break_delete(self, command) -> List[str]:
        if not command.args or command.args[0] == "all":
            self.engine.clear()
            return [protocol.format_done()]
        number = int(command.args[0])
        removed = False
        for registry in (
            self.engine.line_breakpoints,
            self.engine.function_breakpoints,
            self.engine.address_breakpoints,
            self.engine.tracked_functions,
            self.engine.watchpoints,
        ):
            kept = [
                point
                for point in registry
                if getattr(point, "number", None) != number
            ]
            if len(kept) != len(registry):
                registry[:] = kept
                removed = True
        if not removed:
            return [protocol.format_error(f"no control point {number}")]
        self.engine.mark_dirty()
        return [protocol.format_done()]

    def _cmd_break_disable(self, command) -> List[str]:
        return self._set_enabled(command, False)

    def _cmd_break_enable(self, command) -> List[str]:
        return self._set_enabled(command, True)

    def _set_enabled(self, command, enabled: bool) -> List[str]:
        number = int(command.args[0])
        for point in self.engine.all_points():
            if getattr(point, "number", None) == number:
                point.enabled = enabled
                return [protocol.format_done()]
        return [protocol.format_error(f"no control point {number}")]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def _cmd_state_snapshot(self, command) -> List[str]:
        """The paused state as one :meth:`StateSnapshot.to_dict` tree, so
        one heap key names one object across frames, globals and reason.
        ``stdout`` is blanked: the client has it from the ``~`` records."""
        self.tracker._require_paused()
        snapshot = replace(self.tracker.snapshot(), stdout="")
        return [protocol.format_done(snapshot.to_dict())]

    def _cmd_stack_list_frames(self, command) -> List[str]:
        return [
            protocol.format_done(frame_to_dict(self.tracker.get_current_frame()))
        ]

    def _cmd_data_list_globals(self, command) -> List[str]:
        return [
            protocol.format_done(
                variables_to_dict(self.tracker.get_global_variables())
            )
        ]

    def _cmd_inferior_position(self, command) -> List[str]:
        filename, line = self.tracker.get_position()
        return [protocol.format_done({"file": filename, "line": line})]

    def _cmd_thread_info(self, command) -> List[str]:
        from repro.core.threads import thread_to_dict

        return [
            protocol.format_done({
                "threads": [
                    thread_to_dict(info) for info in self.tracker.get_threads()
                ],
            })
        ]

    def _cmd_data_evaluate_expression(self, command) -> List[str]:
        name = command.args[0]
        rendered = self._evaluate(command.options.get("frame"), name)
        if rendered is None:
            return [protocol.format_error(f"no variable {name!r} in scope")]
        return [protocol.format_done({"value": rendered})]

    def _evaluate(self, function: Optional[str], name: str) -> Optional[str]:
        """Hook: a variable's rendered value (``function`` scopes it)."""
        raise TrackerError("this server cannot evaluate expressions")

    def _cmd_tracker_stats(self, command) -> List[str]:
        return [protocol.format_done(self.engine.stats.to_dict())]

    # ------------------------------------------------------------------
    # Timeline recording: the hosted tracker's own recorder, server-side
    # ------------------------------------------------------------------

    def _cmd_timeline_start(self, command) -> List[str]:
        interval = command.option_int("keyframe-interval")
        self.tracker.enable_recording(
            keyframe_interval=interval if interval is not None else 16,
            max_snapshots=command.option_int("max-snapshots"),
        )
        return [protocol.format_done({"recording": True})]

    def _cmd_timeline_stop(self, command) -> List[str]:
        self.tracker.disable_recording()
        return [protocol.format_done({"recording": False})]

    def _cmd_timeline_length(self, command) -> List[str]:
        timeline = self._require_timeline()
        return [
            protocol.format_done(
                {
                    "length": len(timeline),
                    "start": timeline.start_index,
                    "retained": timeline.retained,
                }
            )
        ]

    def _cmd_timeline_dump(self, command) -> List[str]:
        return [protocol.format_done(self._require_timeline().to_dict())]

    def _cmd_timeline_snapshot(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("timeline-snapshot needs an index")]
        timeline = self._require_timeline()
        return [
            protocol.format_done(
                timeline.snapshot(int(command.args[0])).to_dict()
            )
        ]

    def _cmd_timeline_drop_last(self, command) -> List[str]:
        return [
            protocol.format_done(
                {"dropped": self._require_timeline().drop_last()}
            )
        ]

    def _cmd_timeline_query(self, command) -> List[str]:
        """Run a trace query (``x changed``, ``f() == v``, ``len(x) > n``)
        against the server-side timeline, so the recording never crosses
        the pipe.
        """
        from repro.core.tracestore import TimelineView

        if not command.args:
            return [protocol.format_error("timeline-query needs an expression")]
        timeline = self._require_timeline()
        view = getattr(self, "_query_view", None)
        if view is None or view.timeline is not timeline:
            # One cached view per timeline: its index extends
            # incrementally instead of rebuilding on every query.
            view = TimelineView(timeline)
            self._query_view = view
        text = " ".join(command.args)
        return [protocol.format_done(view.query(text).to_dict())]

    def _require_timeline(self):
        timeline = self.tracker.timeline
        if timeline is None:
            raise TrackerError("no timeline; send -timeline-start first")
        return timeline


def serve_stdio(server: ServerCore, greeting: Dict[str, Any]) -> int:
    """Run ``server`` over stdin/stdout until EOF or ``-gdb-exit``.

    A plain line loop on the main thread. SIGINT is routed to
    :meth:`ServerCore.request_interrupt`; CPython runs the handler on
    this thread, which is the one blocked in a running control call.
    """
    signal.signal(signal.SIGINT, lambda *_: server.request_interrupt())
    print(protocol.format_done(greeting), flush=True)
    for raw in sys.stdin.buffer:
        line = raw.decode("utf-8", "replace")
        if not line.strip():
            continue
        for record in server.handle(line):
            print(record, flush=True)
        if server._finished:
            break
    return 0
