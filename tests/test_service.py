"""Tests for the multiplexing tracker service (:mod:`repro.service`).

Everything here drives real child processes through the real asyncio
stack — warm pool, session manager, TCP front-end, stdio front-end — but
each test builds the smallest service that exercises its claim (pool of
one or two, a handful of sessions). The event loop is entered with
``asyncio.run`` per test; no async test framework is required.
"""

import asyncio
import json
import os
import signal
import sys
import time

import pytest

from repro.core.errors import ServerCrashError, TrackerError
from repro.mi import protocol
from repro.mi.client import MIClient, PipeTransport
from repro.mi.transport import AsyncPipeTransport
from repro.service import (
    ProgramQuarantined,
    ServiceAuthError,
    ServiceBusy,
    ServiceClient,
    ServiceConfig,
    ServiceDraining,
    SessionManager,
    SessionOverloaded,
    TrackerService,
    WarmPool,
)
from repro.testing.faults import TCP_HOP, ChaosPlan, ChaosProxy
from tests.test_paused_state import ALIASING_PROGRAM

COUNTING_PY = """\
total = 0
for i in range(5):
    total = total + i
    print("tick", i)
print("done", total)
"""

SPINNING_PY = """\
i = 0
while i < 1000000000:
    i = i + 1
"""

EXITING_PY = """\
import os
os._exit(3)
"""

SLOW_PY = """\
import time
print("start")
time.sleep(0.4)
print("end")
"""


def run(coroutine):
    return asyncio.run(coroutine)


async def make_service(**overrides):
    defaults = dict(pool_size=1, port=0)
    defaults.update(overrides)
    service = TrackerService(ServiceConfig(**defaults))
    await service.start()
    return service


# ---------------------------------------------------------------------------
# Warm pool lifecycle
# ---------------------------------------------------------------------------


class TestWarmPool:
    def test_clean_close_reuses_the_same_child(self, write_program):
        """A run-to-completion session hands its child back to the shelf."""
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                first = await manager.open(path)
                first_pid = first.child.pid
                await first.run_command("-exec-run")
                while not first.exited:
                    await first.run_command("-exec-continue")
                await manager.close_session(first)
                second = await manager.open(path)
                second_pid = second.child.pid
                await manager.close_session(second)
                return first_pid, second_pid, dict(pool.stats)
            finally:
                await manager.close()

        first_pid, second_pid, stats = run(scenario())
        assert first_pid == second_pid
        assert stats["reused"] >= 1

    def test_never_started_session_is_also_reusable(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                first = await manager.open(path)
                pid = first.child.pid
                await manager.close_session(first)
                second = await manager.open(path)
                reopened = second.child.pid
                await manager.close_session(second)
                return pid, reopened
            finally:
                await manager.close()

        pid, reopened = run(scenario())
        assert pid == reopened

    def test_cancelled_graceful_close_still_reaps_the_child(self):
        """A close cancelled while the child ignores ``-gdb-exit`` (the
        reaper cancelled by the manager's shutdown) kills and reaps it."""

        async def scenario():
            transport = await AsyncPipeTransport.spawn(
                [sys.executable, "-c", "import time; time.sleep(60)"]
            )
            try:
                closing = asyncio.ensure_future(transport.close())
                await asyncio.sleep(0.3)  # inside the graceful-exit wait
                closing.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await closing
                return transport.exit_code()
            finally:
                if transport.alive():
                    transport.kill()
                    await transport._process.wait()

        assert run(scenario()) is not None

    def test_mid_run_close_discards_the_child(self, write_program):
        """A started-but-unfinished inferior may haunt the child: retire."""
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                first = await manager.open(path)
                pid = first.child.pid
                await first.run_command("-exec-run")  # started, not exited
                await manager.close_session(first)
                second = await manager.open(path)
                reopened = second.child.pid
                await manager.close_session(second)
                return pid, reopened, dict(pool.stats)
            finally:
                await manager.close()

        pid, reopened, stats = run(scenario())
        assert pid != reopened
        assert stats["discarded"] >= 1

    def test_limited_session_taints_the_child(self, write_program):
        from repro.subproc.limits import ResourceLimits

        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                first = await manager.open(
                    path, limits=ResourceLimits(file_size=10_000_000_000)
                )
                pid = first.child.pid
                await manager.close_session(first)
                second = await manager.open(path)
                reopened = second.child.pid
                await manager.close_session(second)
                return pid, reopened
            finally:
                await manager.close()

        pid, reopened = run(scenario())
        assert pid != reopened

    def test_poisoned_parked_child_is_discarded_on_acquire(
        self, write_program
    ):
        """A killed shelf child fails its health check; acquire recovers."""
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            await pool.start()
            try:
                victim = pool._idle[0]
                os.kill(victim.pid, signal.SIGKILL)
                await victim.transport._process.wait()
                child = await pool.acquire()
                alive_pid = child.pid
                await pool.release(child, reusable=False)
                return victim.pid, alive_pid, dict(pool.stats)
            finally:
                await pool.close()

        victim_pid, alive_pid, stats = run(scenario())
        assert victim_pid != alive_pid
        assert stats["discarded"] >= 1

    def test_pool_refills_under_churn(self, write_program):
        """Draining the shelf triggers background refill back to size."""

        async def scenario():
            pool = WarmPool(size=2)
            await pool.start()
            try:
                first = await pool.acquire()
                second = await pool.acquire()
                await pool.release(first, reusable=False)
                await pool.release(second, reusable=False)
                for _ in range(100):  # wait for the refill task
                    if len(pool._idle) >= pool.size:
                        break
                    await asyncio.sleep(0.1)
                return len(pool._idle), dict(pool.stats)
            finally:
                await pool.close()

        idle, stats = run(scenario())
        assert idle == 2
        assert stats["spawned"] >= 4  # 2 initial + 2 refills

    def test_empty_shelf_falls_back_to_cold_spawn(self):
        async def scenario():
            pool = WarmPool(size=0)  # warming disabled
            await pool.start()
            try:
                child = await pool.acquire()
                warm = child.warm
                await pool.release(child, reusable=False)
                return warm, dict(pool.stats)
            finally:
                await pool.close()

        warm, stats = run(scenario())
        assert warm is False
        assert stats["cold_spawns"] == 1

    def test_close_during_refill_closes_the_greeting_child(self):
        """A refill cancelled mid-greeting must not leave its child alive."""

        class LateGreeter:
            """A child transport that is alive but has not greeted yet."""

            pid = None

            def __init__(self):
                self.closed = False

            def alive(self):
                return not self.closed

            async def recv_line(self, timeout=None):
                await asyncio.sleep(timeout or 3600)
                return None

            async def close(self, graceful_exit=True):
                self.closed = True

        spawned = []

        async def spawner(argv):
            spawned.append(LateGreeter())
            return spawned[-1]

        async def scenario():
            pool = WarmPool(size=1, transport_spawner=spawner)
            pool._schedule_refill()
            for _ in range(100):  # until the refill awaits its greeting
                if spawned:
                    break
                await asyncio.sleep(0.01)
            await pool.close()

        run(scenario())
        assert spawned
        assert not [transport for transport in spawned if transport.alive()]


# ---------------------------------------------------------------------------
# Admission control and idle reaping
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_reject_mode_raises_service_busy(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=1, queue=False)
            await manager.start()
            try:
                first = await manager.open(path)
                with pytest.raises(ServiceBusy):
                    await manager.open(path)
                await manager.close_session(first)
                return manager.stats.rejected
            finally:
                await manager.close()

        assert run(scenario()) == 1

    def test_queue_mode_waits_for_a_slot(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=1, queue=True)
            await manager.start()
            try:
                first = await manager.open(path)
                waiter = asyncio.ensure_future(manager.open(path))
                await asyncio.sleep(0.1)
                assert not waiter.done()  # parked, not rejected
                await manager.close_session(first)
                second = await asyncio.wait_for(waiter, 30)
                await manager.close_session(second)
                return manager.stats.queued
            finally:
                await manager.close()

        assert run(scenario()) == 1

    def test_idle_sessions_are_reaped(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(
                pool, max_sessions=4, idle_timeout=0.3
            )
            await manager.start()
            try:
                session = await manager.open(path)
                for _ in range(100):
                    if session.closed:
                        break
                    await asyncio.sleep(0.1)
                return session.closed, manager.stats.reaped
            finally:
                await manager.close()

        closed, reaped = run(scenario())
        assert closed
        assert reaped == 1


# ---------------------------------------------------------------------------
# The service end-to-end over TCP
# ---------------------------------------------------------------------------


class TestServiceEndToEnd:
    def test_two_concurrent_sessions(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(pool_size=2)
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    a = await client.open_tracker(path)
                    b = await client.open_tracker(path)
                    assert a.session_id != b.session_id
                    await a.break_before_line(5)
                    stops = await asyncio.gather(a.start(), b.start())
                    assert all(
                        s["reason"] == "end-stepping-range" for s in stops
                    )
                    hit = await a.resume()
                    assert hit["reason"] == "breakpoint-hit"
                    while b.get_exit_code() is None:
                        await b.resume()
                    while a.get_exit_code() is None:
                        await a.resume()
                    assert "done 10" in a.get_output()
                    assert "done 10" in b.get_output()
                    await a.close()
                    await b.close()
            finally:
                await service.close()

        run(scenario())

    def test_inspection_fetches_the_paused_state_once_per_pause(
        self, write_program
    ):
        path = write_program("alias.py", ALIASING_PROGRAM)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    sent = []
                    send = client._send_line

                    async def counting(line):
                        sent.append(line)
                        await send(line)

                    client._send_line = counting

                    def fetches():
                        return sum("-state-snapshot" in line for line in sent)

                    tracker = await client.open_tracker(path)
                    await tracker.break_before_line(5)
                    await tracker.break_before_line(6)
                    await tracker.start()
                    await tracker.resume()
                    for _ in range(3):
                        frame = await tracker.get_current_frame()
                        globals_ = await tracker.get_global_variables()
                        position = await tracker.get_position()
                        await tracker.snapshot()
                    assert fetches() == 1
                    assert position[1] == 5
                    items = frame.variables["items"].value.content
                    assert items is globals_["data"].value.content
                    await tracker.resume()
                    assert (await tracker.get_position())[1] == 6
                    frame = await tracker.get_current_frame()
                    assert fetches() == 2
                    assert frame.variables["first"].value.content.content == 1
                    await tracker.close()
            finally:
                await service.close()

        run(scenario())

    def test_child_death_becomes_an_exited_stop(self, write_program):
        path = write_program("exiting.py", EXITING_PY)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    stop = await tracker.resume()
                    assert stop["reason"] == "exited"
                    assert stop["exitcode"] == 3
                    # the dead session answers, it does not hang
                    stop_again = await tracker.resume()
                    assert stop_again["reason"] == "exited"
                    await tracker.close()
            finally:
                await service.close()

        run(scenario())

    def test_deadline_interrupts_a_spinning_inferior(self, write_program):
        path = write_program("spin.py", SPINNING_PY)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    # Each interrupt is spent by the resume it stopped:
                    # none carries into the next, which runs its deadline.
                    for _ in range(3):
                        started = time.monotonic()
                        stop = await tracker.resume(timeout=0.5)
                        assert stop["reason"] == "interrupted"
                        assert time.monotonic() - started >= 0.5
                    await tracker.close()
            finally:
                await service.close()

        run(scenario())

    def test_service_stats_and_unknown_session_error(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    tracker = await client.open_tracker(path)
                    stats = await client.service_stats()
                    assert stats["open_sessions"] == 1
                    assert stats["pool"]["spawned"] >= 1
                    started = time.monotonic()
                    with pytest.raises(
                        TrackerError, match="no session 'ghost'"
                    ):
                        await client._control_request(
                            "ghost-exec-run", timeout=10
                        )
                    # The tagged ^error answers the request, well before
                    # the request's own timeout would.
                    assert time.monotonic() - started < 2.0
                    await tracker.close()
                    stats = await client.service_stats()
                    assert stats["open_sessions"] == 0
            finally:
                await service.close()

        run(scenario())

    def test_closed_trackers_leave_no_demux_queue(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    for _ in range(20):
                        tracker = await client.open_tracker(path)
                        await tracker.break_before_line(3)
                        await tracker.close()
                    return dict(client._queues)
            finally:
                await service.close()

        assert run(scenario()) == {}

    def test_eight_concurrent_sessions_smoke(self, write_program):
        """The CI smoke contract: 8 sessions, breakpoint + resume each,
        clean shutdown, all inside the suite's per-test timeout."""
        path = write_program("prog.py", COUNTING_PY)

        async def drive(client):
            tracker = await client.open_tracker(path)
            await tracker.break_before_line(5)
            await tracker.start()
            stop = await tracker.resume()
            assert stop["reason"] == "breakpoint-hit"
            while tracker.get_exit_code() is None:
                await tracker.resume()
            assert "done 10" in tracker.get_output()
            await tracker.close()
            return tracker.session_id

        async def scenario():
            service = await make_service(pool_size=4, max_sessions=8)
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    ids = await asyncio.gather(
                        *(drive(client) for _ in range(8))
                    )
                    assert len(set(ids)) == 8
                    stats = await client.service_stats()
                    assert stats["total_opened"] == 8
                    assert stats["closed"] == 8
            finally:
                await service.close()

        run(scenario())


# ---------------------------------------------------------------------------
# Legacy (id-less) clients against the service
# ---------------------------------------------------------------------------


class TestLegacyClients:
    def test_blocking_miclient_over_stdio(self, write_program):
        """A stock MIClient cannot tell the service from a child server."""
        path = write_program("prog.py", COUNTING_PY)
        argv = [
            sys.executable, "-m", "repro", "serve", "--stdio", "--pool", "1",
        ]
        client = MIClient(
            path, transport_factory=lambda: PipeTransport(argv)
        )
        try:
            assert client.execute("-file-exec-and-symbols", [path])
            assert client.execute("-break-insert", ["5"]) == {"number": 1}
            first = client.run_control("-exec-run")
            assert first["reason"] == "end-stepping-range"
            hit = client.run_control("-exec-continue")
            assert hit["reason"] == "breakpoint-hit"
            while True:
                payload = client.run_control("-exec-continue")
                if payload["reason"] == "exited":
                    break
            assert "done 10" in "".join(client.console)
        finally:
            client.close()

    def test_idless_command_without_session_is_an_error(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                reader, writer = await asyncio.open_connection(host, port)
                greeting = await reader.readline()
                assert b"service" in greeting
                writer.write(b"-exec-run\n")
                await writer.drain()
                reply = await reader.readline()
                assert reply.startswith(b"^error")
                writer.close()
                await writer.wait_closed()
            finally:
                await service.close()

        run(scenario())


# ---------------------------------------------------------------------------
# Crash-only sessions: resurrection, quarantine, degraded mode
# ---------------------------------------------------------------------------


def payload_of(records, kind="done"):
    """The first payload of ``kind`` in a batch of raw record lines."""
    for raw in records:
        record = protocol.parse_record(raw)
        if record.kind == kind:
            return record.payload
    raise AssertionError(f"no {kind!r} record in {records}")


async def drive_stops(tracker):
    """Resume to completion; the (reason, line) tuples of every stop."""
    stops = []
    while tracker.get_exit_code() is None:
        stop = await tracker.resume()
        stops.append((stop.get("reason"), stop.get("line")))
    return stops


class TestResurrection:
    def test_breakpoints_fire_identically_after_child_sigkill(
        self, write_program
    ):
        """The resurrection parity contract: SIGKILL the child mid-run,
        and the remaining stop sequence matches an unharmed session."""
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(pool_size=2)
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    control = await client.open_tracker(path)
                    await control.break_before_line(5)
                    await control.start()
                    expected = await drive_stops(control)
                    await control.close()

                    victim = await client.open_tracker(path)
                    await victim.break_before_line(5)
                    await victim.start()
                    first_pid = victim.pid
                    os.kill(first_pid, signal.SIGKILL)
                    await asyncio.sleep(0.2)
                    observed = await drive_stops(victim)
                    assert observed == expected
                    assert victim.resurrections == 1
                    assert victim.epoch == 2
                    assert victim.degraded is False
                    assert victim.pid != first_pid
                    await victim.close()
                    stats = await client.service_stats()
                    assert stats["resurrected"] == 1
                    assert stats["child_deaths"] == 1
            finally:
                await service.close()

        run(scenario())

    def test_watchpoints_survive_child_sigkill(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(pool_size=2)
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    control = await client.open_tracker(path)
                    await control.start()
                    assert await control.watch("total") == 1
                    expected = await drive_stops(control)
                    await control.close()

                    victim = await client.open_tracker(path)
                    await victim.start()
                    assert await victim.watch("total") == 1
                    os.kill(victim.pid, signal.SIGKILL)
                    await asyncio.sleep(0.2)
                    observed = await drive_stops(victim)
                    assert observed == expected
                    assert victim.resurrections == 1
                    await victim.close()
            finally:
                await service.close()

        run(scenario())

    def test_limits_are_reapplied_on_resurrection(self, write_program):
        from repro.subproc.limits import ResourceLimits

        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                session = await manager.open(
                    path, limits=ResourceLimits(file_size=10_000_000_000)
                )
                await session.run_command("-exec-run")
                os.kill(session.child.pid, signal.SIGKILL)
                await session.child.transport._process.wait()
                records = await session.run_command("-exec-step")
                notify = payload_of(records, "notify")
                assert notify["epoch"] == 2
                info = await session.child.request("-server-info")
                assert info["limits_applied"] is True
                assert session.tainted  # still never pool-reusable
                await manager.close_session(session)
            finally:
                await manager.close()

        run(scenario())

    def test_recording_session_resumes_at_same_snapshot_index(
        self, write_program
    ):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                control = await manager.open(path)
                await control.run_command("-timeline-start")
                await control.run_command("-exec-run")
                await control.run_command("-exec-step")
                await control.run_command("-exec-step")
                expected = payload_of(
                    await control.run_command("-timeline-length")
                )
                await manager.close_session(control)

                session = await manager.open(path)
                await session.run_command("-timeline-start")
                await session.run_command("-exec-run")
                await session.run_command("-exec-step")
                before = payload_of(
                    await session.run_command("-timeline-length")
                )
                os.kill(session.child.pid, signal.SIGKILL)
                await session.child.transport._process.wait()
                records = await session.run_command("-exec-step")
                notify = payload_of(records, "notify")
                assert notify["degraded"] is False
                assert notify["pause_index"] == 2  # run + one step
                after = payload_of(
                    await session.run_command("-timeline-length")
                )
                # the replay re-recorded to the same snapshot index: the
                # timeline looks exactly like an uninterrupted recording
                assert after["length"] == before["length"] + 1
                assert after == expected
                await manager.close_session(session)
            finally:
                await manager.close()

        run(scenario())

    def test_interrupted_history_resurrects_degraded(self, write_program):
        """An interrupt stop cannot be replayed: the session comes back
        degraded (position lost) and a fresh -exec-run recovers it."""
        path = write_program("spin.py", SPINNING_PY)

        async def scenario():
            service = await make_service(pool_size=2)
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    stop = await tracker.resume(timeout=0.3)
                    assert stop["reason"] == "interrupted"
                    os.kill(tracker.pid, signal.SIGKILL)
                    await asyncio.sleep(0.2)
                    # the in-flight command terminates (here: the fresh
                    # child refuses to continue a never-started inferior)
                    with pytest.raises(TrackerError):
                        await tracker.step()
                    assert tracker.resurrections == 1
                    assert tracker.degraded is True
                    # a fresh run un-degrades the session
                    stop = await tracker.start()
                    assert stop["reason"] == "end-stepping-range"
                    await tracker.close()
                    stats = await client.service_stats()
                    assert stats["degraded"] == 1
            finally:
                await service.close()

        run(scenario())

    def test_poison_pill_program_is_quarantined(self, write_program):
        """A program that kills every child trips the circuit breaker
        instead of draining the pool with endless resurrections."""
        path = write_program("exiting.py", EXITING_PY)

        async def scenario():
            service = await make_service(pool_size=1)
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()  # pauses before the os._exit
                    stop = await tracker.resume()
                    assert stop["reason"] == "exited"
                    assert stop["exitcode"] == 3
                    # two resurrection attempts, then the breaker tripped
                    assert tracker.resurrections == 2
                    with pytest.raises(ProgramQuarantined):
                        await client.open_tracker(path)
                    stats = await client.service_stats()
                    assert stats["quarantined"] == 1
                    assert stats["child_deaths"] == 3
                    assert path in stats["quarantined_programs"]
                    await tracker.close()
            finally:
                await service.close()

        run(scenario())


# ---------------------------------------------------------------------------
# Reconnectable sessions: detach, -session-attach, client reconnect
# ---------------------------------------------------------------------------


class TestReconnect:
    def test_client_reconnects_and_reattaches_after_tcp_drop(
        self, write_program
    ):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(detach_grace=10.0)
            proxy = None
            try:
                host, port = service.address
                proxy = ChaosProxy(host, port, ChaosPlan())
                await proxy.start()
                async with await ServiceClient.connect(
                    "127.0.0.1", proxy.port
                ) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.break_before_line(5)
                    await tracker.start()
                    proxy.drop_connections()
                    await asyncio.sleep(0.2)
                    stop = await tracker.resume()
                    assert stop["reason"] == "breakpoint-hit"
                    assert client.connections == 2
                    while tracker.get_exit_code() is None:
                        await tracker.resume()
                    assert "done 10" in tracker.get_output()
                    await tracker.close()
                    stats = await client.service_stats()
                    assert stats["detached"] == 1
                    assert stats["attached"] == 1
            finally:
                if proxy is not None:
                    await proxy.close()
                await service.close()

        run(scenario())

    def test_inflight_command_survives_connection_drop(self, write_program):
        """A command in flight when the TCP connection dies finishes on
        the service and its answer reaches the caller after re-attach."""
        path = write_program("slow.py", SLOW_PY)

        async def scenario():
            service = await make_service(detach_grace=10.0)
            proxy = None
            try:
                host, port = service.address
                proxy = ChaosProxy(host, port, ChaosPlan())
                await proxy.start()
                async with await ServiceClient.connect(
                    "127.0.0.1", proxy.port
                ) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    resume = asyncio.ensure_future(tracker.resume())
                    await asyncio.sleep(0.1)  # the inferior is sleeping
                    proxy.drop_connections()
                    stop = await asyncio.wait_for(resume, 30)
                    assert stop["reason"] == "exited"
                    assert client.connections == 2
                    await tracker.close()
            finally:
                if proxy is not None:
                    await proxy.close()
                await service.close()

        run(scenario())

    @pytest.mark.parametrize("reconnect", ["default", None])
    def test_drop_during_the_greeting(self, write_program, reconnect):
        """A connection severed before its greeting arrives is retried on
        the reconnect policy; without one, ``connect`` fails."""
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service()
            proxy = None
            try:
                host, port = service.address
                # The service's greeting is the first chunk on the hop.
                proxy = ChaosProxy(
                    host, port, ChaosPlan(scripted={(TCP_HOP, 0): "disconnect"})
                )
                await proxy.start()
                if reconnect is None:
                    with pytest.raises(ServerCrashError):
                        await ServiceClient.connect(
                            "127.0.0.1", proxy.port, reconnect=None
                        )
                    assert proxy.accepted == 1
                    return
                async with await ServiceClient.connect(
                    "127.0.0.1", proxy.port
                ) as client:
                    assert proxy.accepted == 2
                    assert client.connections == 1
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    await tracker.close()
            finally:
                if proxy is not None:
                    await proxy.close()
                await service.close()

        run(scenario())

    def test_detached_session_is_reaped_after_grace(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(detach_grace=0.3)
            try:
                host, port = service.address
                client = await ServiceClient.connect(
                    host, port, reconnect=None
                )
                tracker = await client.open_tracker(path)
                sid = tracker.session_id
                await client.close()  # drop without -session-close
                manager = service.manager
                for _ in range(100):
                    if sid not in manager.sessions:
                        break
                    await asyncio.sleep(0.1)
                assert sid not in manager.sessions
                assert manager.stats.detached == 1
                assert manager.stats.reaped == 1
            finally:
                await service.close()

        run(scenario())

    def test_attach_refuses_a_live_connections_session(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(detach_grace=10.0)
            try:
                host, port = service.address
                owner = await ServiceClient.connect(host, port)
                thief = await ServiceClient.connect(host, port)
                tracker = await owner.open_tracker(path)
                with pytest.raises(TrackerError, match="another connection"):
                    await thief._control_request(
                        f"-session-attach {tracker.session_id}"
                    )
                await tracker.close()
                await owner.close()
                await thief.close()
            finally:
                await service.close()

        run(scenario())


# ---------------------------------------------------------------------------
# Graceful drain and load shedding
# ---------------------------------------------------------------------------


class TestDrain:
    def test_draining_manager_rejects_new_opens_with_retry_after(
        self, write_program
    ):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                await manager.open(path)
                drain = asyncio.ensure_future(manager.drain(deadline=5))
                await asyncio.sleep(0.05)
                with pytest.raises(ServiceDraining) as info:
                    await manager.open(path)
                assert info.value.retry_after == 5.0
                assert "[retry-after=5s]" in str(info.value)
                await drain
                assert not manager.sessions
            finally:
                await manager.close()

        run(scenario())

    def test_drain_finishes_inflight_and_snapshots_recordings(
        self, write_program, tmp_path
    ):
        path = write_program("slow.py", SLOW_PY)
        snapshot_dir = str(tmp_path / "snapshots")

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(pool, max_sessions=4)
            await manager.start()
            try:
                session = await manager.open(path)
                await session.run_command("-timeline-start")
                await session.run_command("-exec-run")
                inflight = asyncio.ensure_future(
                    session.run_command("-exec-continue")
                )
                await asyncio.sleep(0.1)  # mid-sleep inside the inferior
                await manager.drain(deadline=10, snapshot_dir=snapshot_dir)
                records = await inflight
                assert payload_of(records, "stopped")["reason"] == "exited"
                dump_path = os.path.join(
                    snapshot_dir, f"{session.session_id}.timeline.json"
                )
                with open(dump_path) as handle:
                    dump = json.load(handle)
                assert dump["format"] == "repro-timeline"
                assert dump["segments"]
            finally:
                await manager.close()

        run(scenario())

    def test_draining_service_rejects_over_the_wire(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service()
            try:
                host, port = service.address
                async with await ServiceClient.connect(host, port) as client:
                    service.manager.draining = True
                    with pytest.raises(ServiceDraining) as info:
                        await client.open_tracker(path)
                    assert info.value.retry_after == 5.0
                    service.manager.draining = False
            finally:
                await service.close()

        run(scenario())

    def test_sigterm_drains_serve_forever(self, write_program):
        async def scenario():
            service = await make_service()
            serving = asyncio.ensure_future(service.serve_forever())
            await asyncio.sleep(0.1)
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(serving, 15)
            assert service.manager.draining
            await service.close()

        run(scenario())

    def test_overloaded_session_sheds_excess_commands(self, write_program):
        path = write_program("slow.py", SLOW_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(
                pool, max_sessions=4, session_queue_limit=1
            )
            await manager.start()
            try:
                session = await manager.open(path)
                await session.run_command("-exec-run")
                slow = asyncio.ensure_future(
                    session.run_command("-exec-continue")
                )
                await asyncio.sleep(0.1)
                records = await session.run_command("-inferior-position")
                error = payload_of(records, "error")
                assert "overloaded" in error
                assert protocol.parse_retry_after(error) == 0.5
                assert manager.stats.overloaded == 1
                await slow
            finally:
                await manager.close()

        run(scenario())


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------


class TestAuth:
    def test_token_handshake_and_session_use(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(token="sekrit")
            try:
                host, port = service.address
                async with await ServiceClient.connect(
                    host, port, token="sekrit"
                ) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    await tracker.close()
            finally:
                await service.close()

        run(scenario())

    def test_wrong_token_is_rejected(self):
        async def scenario():
            service = await make_service(token="sekrit")
            try:
                host, port = service.address
                with pytest.raises(ServiceAuthError):
                    await ServiceClient.connect(host, port, token="wrong")
            finally:
                await service.close()

        run(scenario())

    def test_unauthenticated_commands_are_refused(self, write_program):
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = await make_service(token="sekrit")
            try:
                host, port = service.address
                # no token supplied: the connection opens (the greeting
                # advertises auth) but every command is refused
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ServiceAuthError):
                        await client.open_tracker(path)
                    with pytest.raises(ServiceAuthError):
                        await client.service_stats()
            finally:
                await service.close()

        run(scenario())


# ---------------------------------------------------------------------------
# The idle-reaper race (regression): dispatch counts before the task runs
# ---------------------------------------------------------------------------


class TestReaperRace:
    def test_pending_command_blocks_reaping(self, write_program):
        """A session with a command admitted but not yet executing (the
        dispatch-to-first-await gap) must not be reaped out from under
        it."""
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(
                pool, max_sessions=4, idle_timeout=0.2
            )
            await manager.start()
            try:
                session = await manager.open(path)
                # what the dispatcher does synchronously before spawning
                # the command task
                session.touch()
                session.pending += 1
                await asyncio.sleep(0.8)  # several reaper intervals
                assert not session.closed
                session.pending -= 1  # the command "finished"
                for _ in range(100):
                    if session.closed:
                        break
                    await asyncio.sleep(0.1)
                assert session.closed
                assert manager.stats.reaped == 1
            finally:
                await manager.close()

        run(scenario())

    def test_busy_session_outlives_the_idle_horizon(self, write_program):
        """A command whose dialogue runs longer than idle_timeout must
        complete; only genuinely idle sessions are reaped."""
        path = write_program("slow.py", SLOW_PY)

        async def scenario():
            pool = WarmPool(size=1)
            manager = SessionManager(
                pool, max_sessions=4, idle_timeout=0.2
            )
            await manager.start()
            try:
                session = await manager.open(path)
                await session.run_command("-exec-run")
                # the inferior sleeps ~0.4s: longer than idle_timeout
                records = await session.run_command("-exec-continue")
                assert payload_of(records, "stopped")["reason"] == "exited"
                assert not session.dead
            finally:
                await manager.close()

        run(scenario())
