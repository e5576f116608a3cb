"""Robustness fuzzing of the debug server.

The server sits on the other end of a pipe from the tracker; whatever
arrives, it must answer with a well-formed record and keep serving — a
crashed server kills the whole session. These property tests throw random
bytes, random commands, and random *valid-shaped* command sequences at a
live server and assert the contract: every input line yields parseable
records and never an unhandled exception.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ControlTimeout, ProtocolError, ServerCrashError
from repro.core.supervision import Deadline
from repro.mi.client import MIClient
from repro.mi.protocol import parse_record
from repro.mi.server import DebugServer
from repro.mi.transport import SPAWN_TIMEOUT
from repro.service.client import AsyncTracker
from repro.testing.faults import ScriptedTransport

C_PROGRAM = """\
int helper(int n) {
    return n + 1;
}

int main(void) {
    int total = 0;
    for (int i = 0; i < 3; i++) {
        total = helper(total);
    }
    return total;
}
"""

COMMANDS = [
    "-exec-run",
    "-exec-continue",
    "-exec-step",
    "-exec-next",
    "-exec-finish",
    "-break-insert",
    "-break-watch",
    "-track-function",
    "-break-delete",
    "-break-disable",
    "-break-enable",
    "-state-snapshot",
    "-stack-list-frames",
    "-data-list-globals",
    "-data-list-register-values",
    "-data-read-memory",
    "-data-disassemble",
    "-data-evaluate-expression",
    "-inferior-position",
    "-list-functions",
    "-heap-blocks",
    "-file-exec-and-symbols",
]

ARGUMENTS = ["", " main", " helper", " 7", " total", " all", " *0x10000",
             " 0x1000 4", " --maxdepth 2", " ghost", " -1", " 99"]


def make_server(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(C_PROGRAM, encoding="utf-8")
    return DebugServer(str(path))


@given(
    st.lists(
        st.tuples(st.sampled_from(COMMANDS), st.sampled_from(ARGUMENTS)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_random_command_sequences_never_crash(tmp_path_factory, sequence):
    server = make_server(tmp_path_factory.mktemp("fuzz"))
    for command, argument in sequence:
        for line in server.handle(command + argument):
            record = parse_record(line)  # every reply line parses
            assert record.kind in ("done", "error", "running", "stopped",
                                   "stream", "notify")


@given(st.text(max_size=60))
@settings(max_examples=100, deadline=None)
def test_arbitrary_text_yields_error_records(tmp_path_factory, junk):
    server = make_server(tmp_path_factory.mktemp("junk"))
    for line in server.handle(junk):
        record = parse_record(line)
        assert record.kind in ("done", "error", "running", "stopped",
                               "stream", "notify")


def test_inspection_commands_after_crash_are_errors(tmp_path):
    path = tmp_path / "crash.c"
    path.write_text(
        "int main(void) { int *p = (int*)7; return *p; }", encoding="utf-8"
    )
    server = DebugServer(str(path))
    server.handle("-exec-run")
    server.handle("-exec-continue")
    for command in ("-state-snapshot", "-stack-list-frames",
                    "-data-list-globals", "-exec-step", "-exec-continue"):
        record = parse_record(server.handle(command)[0])
        assert record.kind == "error"


# ---------------------------------------------------------------------------
# The client against scripted (malicious) server output
# ---------------------------------------------------------------------------

GREETING = '^done,{"loaded":"prog.c"}'


class AsyncScriptedClient:
    """The asyncio reader (:class:`AsyncTracker`) over a ScriptedTransport.

    It stands in for the ``ServiceClient`` an ``AsyncTracker`` reads
    through: sends go to the transport (``-exec-interrupt`` counts as its
    interrupt) and each receive parses the next scripted line. It also
    offers the blocking client's ``execute``/``run_control``, so one test
    body drives both readers.
    """

    def __init__(self, transport):
        self.transport = transport
        transport.recv_line()  # the greeting
        self.tracker = AsyncTracker(self, "s1", queue=None)
        self.console = self.tracker.console
        self.notifications = self.tracker.notifications

    async def _send_line(self, line):
        if line.endswith("-exec-interrupt"):
            self.transport.interrupt()
        else:
            self.transport.send_line(line)

    async def _next(self, queue, timeout):
        line = self.transport.recv_line(timeout=timeout)
        return None if line is None else parse_record(line)

    def execute(self, name, deadline=None):
        timeout = SPAWN_TIMEOUT if deadline is None else deadline.timeout
        return asyncio.run(self.tracker.execute(name, timeout=timeout))

    def run_control(self, name, deadline=None):
        if deadline is None:
            return asyncio.run(self.tracker._run_control(name))
        return asyncio.run(
            self.tracker._run_control(
                name, deadline.timeout, grace=deadline.grace
            )
        )


def scripted_client(lines, on_empty="eof", reader="blocking"):
    """A client wired to a transport replaying exactly ``lines``.

    ``reader`` picks the client: the blocking :class:`MIClient`, or the
    asyncio :class:`AsyncTracker` through :class:`AsyncScriptedClient`.
    """
    transport = ScriptedTransport([GREETING] + list(lines), on_empty=on_empty)
    if reader == "asyncio":
        return AsyncScriptedClient(transport), transport
    client = MIClient("prog.c", transport_factory=lambda: transport)
    return client, transport


class ScriptedReplies:
    """Scripted reply-rule cases, run once per client reader.

    ``reader`` is the parameter. The classes below run their cases on the
    blocking reader; each ``...OverAsyncio`` subclass runs the same cases
    on the asyncio reader (a subclass rather than a pytest parameter keeps
    the blocking cases' test ids).
    """

    reader = "blocking"

    def scripted_client(self, lines, on_empty="eof"):
        return scripted_client(lines, on_empty, reader=self.reader)


class TestTruncatedRecords(ScriptedReplies):
    def test_truncated_done_payload_is_a_typed_error(self):
        client, _ = self.scripted_client(['^done,{"x": '])
        with pytest.raises(ProtocolError):
            client.execute("-stack-list-frames")

    def test_truncated_stopped_payload_is_a_typed_error(self):
        client, _ = self.scripted_client(["^running", '*stopped,{"reason"'])
        with pytest.raises(ProtocolError):
            client.run_control("-exec-continue")

    def test_unknown_record_marker_is_a_typed_error(self):
        client, _ = self.scripted_client(["!!! not MI at all"])
        with pytest.raises(ProtocolError):
            client.execute("-stack-list-frames")


class TestMidRecordEOF(ScriptedReplies):
    def test_eof_instead_of_result_is_a_crash_error(self):
        client, _ = self.scripted_client([])
        with pytest.raises(ServerCrashError):
            client.execute("-stack-list-frames")

    def test_eof_while_running_is_a_crash_error(self):
        client, _ = self.scripted_client(["^running"])
        with pytest.raises(ServerCrashError):
            client.run_control("-exec-continue")

    def test_crash_error_reports_the_context(self):
        client, _ = self.scripted_client([])
        with pytest.raises(ServerCrashError, match="output pipe closed"):
            client.execute("-stack-list-frames")


class TestInterleavedRecords(ScriptedReplies):
    def test_async_lines_before_the_result_are_absorbed(self):
        client, _ = self.scripted_client(
            [
                '~"hello\\n"',
                '=heap-alloc,{"address":16,"size":8}',
                '^done,{"ok":1}',
            ]
        )
        assert client.execute("-stack-list-frames") == {"ok": 1}
        assert client.console == ["hello\n"]
        assert [record.notify_name for record in client.notifications] == [
            "heap-alloc"
        ]

    def test_async_lines_while_running_are_absorbed(self):
        client, _ = self.scripted_client(
            [
                "^running",
                '~"output\\n"',
                '=heap-free,{"address":16}',
                '*stopped,{"reason":"breakpoint-hit","line":3}',
            ]
        )
        payload = client.run_control("-exec-continue")
        assert payload["line"] == 3
        assert client.console == ["output\n"]

    def test_stale_interrupt_ack_mid_run_is_tolerated(self):
        client, _ = self.scripted_client(
            [
                "^running",
                "^done",
                '*stopped,{"reason":"breakpoint-hit","line":3}',
            ]
        )
        assert client.run_control("-exec-continue")["line"] == 3


class TestSilentServerNeverHangs(ScriptedReplies):
    def test_silent_result_read_times_out(self):
        client, _ = self.scripted_client([], on_empty="silence")
        with pytest.raises(ControlTimeout):
            client.execute("-stack-list-frames", deadline=Deadline(0.15))

    def test_silent_run_interrupts_then_times_out(self):
        client, transport = self.scripted_client(["^running"], on_empty="silence")
        with pytest.raises(ControlTimeout):
            client.run_control("-exec-continue", deadline=Deadline(0.15))
        assert transport.interrupts == 1  # the interrupt was attempted


class TestTruncatedRecordsOverAsyncio(TestTruncatedRecords):
    reader = "asyncio"


class TestMidRecordEOFOverAsyncio(TestMidRecordEOF):
    reader = "asyncio"


class TestInterleavedRecordsOverAsyncio(TestInterleavedRecords):
    reader = "asyncio"


class TestSilentServerNeverHangsOverAsyncio(TestSilentServerNeverHangs):
    reader = "asyncio"


@given(st.text(max_size=80))
@settings(max_examples=150, deadline=None)
def test_parse_record_raises_only_typed_errors(junk):
    try:
        parse_record(junk)
    except ProtocolError:
        pass  # the one allowed failure mode


# ---------------------------------------------------------------------------
# Session-id framing (the multiplexed-session wire format)
# ---------------------------------------------------------------------------

SESSION_IDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=8
)


@given(
    session=st.one_of(st.none(), SESSION_IDS),
    name=st.sampled_from(COMMANDS),
    argument=st.sampled_from(ARGUMENTS),
)
@settings(max_examples=100, deadline=None)
def test_command_session_id_round_trips(session, name, argument):
    from repro.mi import protocol

    line = protocol.format_command(
        name, argument.split(), session=session
    )
    command = protocol.parse_command(line)
    assert command.session == session
    assert command.name == name


@given(
    session=st.one_of(st.none(), SESSION_IDS),
    record=st.sampled_from(
        [
            "^done",
            '^done,{"n":1}',
            '^error,msg="boom"',
            "^running",
            '*stopped,{"reason":"exited","exitcode":0}',
            '~"hello\\n"',
            '=heap-alloc,{"address":16}',
        ]
    ),
)
@settings(max_examples=100, deadline=None)
def test_record_session_tag_round_trips(session, record):
    from repro.mi import protocol

    untagged = parse_record(record)
    tagged_line = (
        record if session is None else protocol.tag_record(record, session)
    )
    tagged = parse_record(tagged_line)
    assert tagged.session == session
    assert tagged.kind == untagged.kind
    assert tagged.payload == untagged.payload


@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), SESSION_IDS),
            st.sampled_from(COMMANDS),
            st.sampled_from(ARGUMENTS),
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=40, deadline=None)
def test_mixed_session_and_legacy_commands_echo_their_framing(
    tmp_path_factory, sequence
):
    """Every reply record carries exactly the command's session id."""
    from repro.mi import protocol

    server = make_server(tmp_path_factory.mktemp("sessions"))
    for session, name, argument in sequence:
        line = protocol.format_command(
            name, argument.split(), session=session
        )
        for reply in server.handle(line):
            record = parse_record(reply)
            assert record.session == session
            assert record.kind in ("done", "error", "running", "stopped",
                                   "stream", "notify")


def test_legacy_single_session_wire_format_is_unchanged(tmp_path):
    """An id-less command produces byte-identical records to the seed."""
    server = make_server(tmp_path)
    plain = server.handle("-break-insert main")
    assert plain == ['^done,{"number":1}']
    tagged = server.handle("s1-break-insert helper")
    assert tagged == ['s1^done,{"number":2}']
