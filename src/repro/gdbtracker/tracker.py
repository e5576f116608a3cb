"""The GDB tracker: the Tracker API over the MI debug server.

This is the reproduction of the paper's GDB-based implementation
(Section II-C1): the tracker runs the debugger as a subprocess in
machine-interface mode and adapts the high-level control/inspection API to
MI commands. All the client plumbing — supervised calls with deadlines and
crash recovery, control-point sync, payload ingestion, server-side
timeline recording — is the shared :class:`repro.mi.remote.MIRemoteTracker`
base (also used by the subprocess-isolated Python tracker); this class
adds what is specific to the mini-C / RISC-V substrate. The two GDB gaps
the paper closes are closed the same way here:

- **maxdepth** rides along on every breakpoint/watch command (the paper
  adds custom breakpoint commands via a GDB Python extension; our server
  accepts the extension natively);
- **function-exit tracking**: GDB can break on entry but not exit. For
  assembly inferiors we use the paper's mechanism literally — disassemble
  the function, find its return instruction (``ret`` = ``jalr x0, 0(ra)``
  on RISC-V, standing in for x86 ``retq``), and plant an address breakpoint
  there; entry/exit pauses are then synthesized client-side from which
  breakpoint fired. For mini-C inferiors the server's ``-track-function``
  does the equivalent natively.

Inspection state (frames, variables, values) is built server-side,
serialized, piped across, and deserialized here — both sides speak the
:mod:`repro.core.state` model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.supervision import BackoffPolicy
from repro.core.tracker import TrackedFunction
from repro.mi import protocol
from repro.mi.remote import MIRemoteTracker


class GDBTracker(MIRemoteTracker):
    """Tracker for mini-C (.c) and RISC-V assembly (.s) inferiors.

    Args:
        restart_policy: backoff schedule for debug-server crash recovery
            (see :class:`repro.mi.remote.MIRemoteTracker`).
        transport_factory: forwarded to :class:`MIClient` (fault
            injection hook, see :mod:`repro.testing.faults`).
    """

    backend = "GDB"

    def __init__(
        self,
        restart_policy: Optional[BackoffPolicy] = None,
        transport_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        super().__init__(
            restart_policy=restart_policy, transport_factory=transport_factory
        )
        #: bkptno -> (CALL or RETURN, function) for the entry and exit
        #: breakpoints planted by the ret-scan
        self._ret_scan_points: Dict[int, Tuple[PauseReasonType, str]] = {}
        self._is_assembly = False

    def _load_program(self, path: str, args: List[str]) -> None:
        self._is_assembly = path.endswith((".s", ".S", ".asm"))
        super()._load_program(path, args)

    # ------------------------------------------------------------------
    # Substrate hooks (see MIRemoteTracker)
    # ------------------------------------------------------------------

    def _reset_backend_state(self) -> None:
        self._ret_scan_points.clear()

    def _install_tracked(self, point: TrackedFunction) -> None:
        if self._is_assembly:
            self._track_function_via_ret_scan(point)
        else:
            super()._install_tracked(point)

    def _map_breakpoint_pause(
        self, payload: Dict[str, Any], line: Optional[int]
    ) -> Optional[PauseReason]:
        """Synthesize entry/exit pauses from ret-scan breakpoint numbers."""
        planted = self._ret_scan_points.get(payload.get("bkptno"))
        if planted is None:
            return None
        kind, function = planted
        return PauseReason(type=kind, function=function, line=line)

    def _track_function_via_ret_scan(self, point: TrackedFunction) -> None:
        """The paper's retq-scan, retargeted to RISC-V.

        Disassemble the function, find its return instruction(s), and plant
        address breakpoints there plus an entry breakpoint at the function.
        Works whenever the compiler/author used the common single-epilogue
        layout; multiple ``ret`` sites each get their own breakpoint.
        """
        function = point.function
        listing = self._client.execute("-data-disassemble", [function])
        returns = [entry for entry in listing if entry["is_return"]]
        if not returns:
            raise TrackerError(
                f"no return instruction found in {function!r}; "
                "cannot track its exit"
            )
        _, _, options = protocol.point_command(point)
        entry = self._client.execute("-break-insert", [function], options)
        self._ret_scan_points[entry["number"]] = (PauseReasonType.CALL, function)
        for site in returns:
            planted = self._client.execute(
                "-break-insert", [f"*{site['address']:#x}"], options
            )
            self._ret_scan_points[planted["number"]] = (
                PauseReasonType.RETURN, function
            )

    # ------------------------------------------------------------------
    # GDB-tracker-specific extensions (named as in the paper)
    # ------------------------------------------------------------------

    def get_registers_gdb(self) -> Dict[str, int]:
        """All machine registers by name (assembly inferiors only)."""
        return self._execute("-data-list-register-values")

    def get_value_at_gdb(self, address: int, count: int) -> bytes:
        """Read ``count`` raw bytes of inferior memory at ``address``."""
        payload = self._execute(
            "-data-read-memory", [hex(address), str(count)]
        )
        return bytes.fromhex(payload["bytes"])

    def get_heap_blocks(self) -> Dict[int, int]:
        """Live heap blocks (address -> size) from the allocator registry."""
        payload = self._execute("-heap-blocks")
        return {int(address, 16): size for address, size in payload.items()}

    def disassemble(self, function: str) -> List[Dict[str, Any]]:
        """The function's instruction listing (assembly inferiors)."""
        return self._execute("-data-disassemble", [function])
